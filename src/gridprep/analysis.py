"""Fidelity measures, error-bound bookkeeping, run reports, and cost
scaling fits.

Infidelity conventions: for pure states 1 - |<a|b>|; for density matrices
1 - Tr sqrt(sqrt(rho) sigma sqrt(rho)) (the square-root fidelity, so the
pure-state formula is recovered on rank-one inputs).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .statevec import DensityMatrix


def format_float(x: float) -> str:
    """12 significant digits, for infidelities, bounds, and sweep and
    cost-table parameters; report counters print with str() instead.
    """
    return f"{float(x):.12g}"


def pure_infidelity(a: np.ndarray, b: np.ndarray) -> float:
    a = np.asarray(a, dtype=np.complex128).ravel()
    b = np.asarray(b, dtype=np.complex128).ravel()
    if a.shape != b.shape:
        raise ValidationError(
            f"state dimensions differ: {a.size} vs {b.size}"
        )
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValidationError("cannot compare a non-finite vector")
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0 or nb == 0:
        raise ValidationError("cannot compare a zero vector")
    return float(max(0.0, 1.0 - abs(np.vdot(a, b)) / (na * nb)))


def _coerce_matrix(rho) -> np.ndarray:
    if isinstance(rho, DensityMatrix):
        return rho.matrix
    return np.asarray(rho, dtype=np.complex128)


def _psd_sqrt(m: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(m)
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ vecs.conj().T


def mixed_fidelity(rho, sigma) -> float:
    """Square-root fidelity Tr sqrt(sqrt(rho) sigma sqrt(rho)), clipped
    to [0, 1] against eigenvalue round-off.
    """
    r = _coerce_matrix(rho)
    s = _coerce_matrix(sigma)
    if r.shape != s.shape:
        raise ValidationError(
            f"density matrix dimensions differ: {r.shape} vs {s.shape}"
        )
    root = _psd_sqrt(r)
    inner = root @ s @ root
    vals = np.clip(np.linalg.eigvalsh(inner), 0.0, None)
    return float(min(1.0, np.sum(np.sqrt(vals))))


def mixed_infidelity(rho, sigma) -> float:
    return max(0.0, 1.0 - mixed_fidelity(rho, sigma))


def angle_error_bound(epsilons) -> float:
    """Infidelity bound for a chain of approximations psi -> phi_1 -> ...
    of one state, where step i has infidelity at most eps_i.

    With infidelity 1 - |<a|b>|, the angle arccos |<a|b>| between pure
    states is a metric, so the angles arccos(1 - eps_i) of the steps add;
    from pi / 2 on the bound is 1.  A step bound above 1 is read as 1.
    """
    epsilons = np.asarray(list(epsilons), dtype=float)
    if np.any(epsilons < 0):
        raise ValidationError("infidelities must be nonnegative")
    angle = np.sum(np.arccos(1.0 - np.minimum(epsilons, 1.0)))
    if angle >= np.pi / 2:
        return 1.0
    return float(1.0 - np.cos(angle))


@dataclass
class BoundCheck:
    """One measured-value-versus-proved-bound ledger row."""

    name: str
    measured: float
    bound: float

    @property
    def satisfied(self) -> bool:
        return self.measured <= self.bound + 1e-12

    def row(self) -> tuple[str, str, str, str]:
        return (self.name, format_float(self.measured),
                format_float(self.bound),
                "ok" if self.satisfied else "VIOLATED")


def verify_bounds(checks: list[BoundCheck]) -> bool:
    return all(c.satisfied for c in checks)


@dataclass
class PreparationReport:
    """Summary of one preparation run, renderable as text or CSV rows."""

    kind: str
    l: int = 0
    m: int = 0
    statistics: str = "fermionic"
    qubits: int = 0
    attempts: int = 1
    retries: int = 0
    infidelity: float | None = None
    error_bound: float | None = None
    counters: dict = field(default_factory=dict)
    bound_checks: list[BoundCheck] = field(default_factory=list)

    def all_bounds_hold(self) -> bool:
        return verify_bounds(self.bound_checks)

    def to_text(self) -> str:
        lines = [f"preparation report: {self.kind}"]
        lines.append(f"  grid qubits per particle: {self.l}")
        lines.append(f"  particles: {self.m} ({self.statistics})")
        lines.append(f"  total qubits: {self.qubits}")
        lines.append(f"  attempts: {self.attempts} (retries: {self.retries})")
        if self.infidelity is not None:
            lines.append(f"  infidelity: {format_float(self.infidelity)}")
        if self.error_bound is not None:
            lines.append(f"  error bound: {format_float(self.error_bound)}")
        for key in sorted(self.counters):
            lines.append(f"  {key}: {self.counters[key]}")
        if self.bound_checks:
            lines.append("  bound checks:")
            for c in self.bound_checks:
                name, measured, bound, status = c.row()
                lines.append(
                    f"    {name}: measured {measured} <= bound {bound} "
                    f"[{status}]"
                )
        return "\n".join(lines) + "\n"

    def to_rows(self) -> list[tuple[str, str]]:
        rows = [
            ("kind", self.kind),
            ("l", str(self.l)),
            ("m", str(self.m)),
            ("statistics", self.statistics),
            ("qubits", str(self.qubits)),
            ("attempts", str(self.attempts)),
            ("retries", str(self.retries)),
        ]
        if self.infidelity is not None:
            rows.append(("infidelity", format_float(self.infidelity)))
        if self.error_bound is not None:
            rows.append(("error_bound", format_float(self.error_bound)))
        for key in sorted(self.counters):
            rows.append((key, str(self.counters[key])))
        for c in self.bound_checks:
            name, measured, bound, status = c.row()
            rows.append((f"bound:{name}", f"{measured}<={bound}:{status}"))
        return rows


def fit_exponent(xs, ys) -> tuple[float, float]:
    """Least-squares slope and intercept of log(y) against log(x)."""
    xs = np.asarray(list(xs), dtype=float)
    ys = np.asarray(list(ys), dtype=float)
    if xs.size != ys.size or xs.size < 2:
        raise ValidationError("need at least two (x, y) samples")
    if np.any(xs <= 0) or np.any(ys <= 0):
        raise ValidationError("log-log fit needs positive samples")
    slope, intercept = np.polyfit(np.log(xs), np.log(ys), 1)
    return float(slope), float(intercept)


@dataclass
class CostRow:
    parameter: float
    costs: dict


def cost_table(rows: list[CostRow]) -> dict:
    """Fitted scaling exponent per cost counter across a parameter sweep."""
    if len(rows) < 2:
        raise ValidationError("cost table needs at least two sweep points")
    keys = sorted(rows[0].costs)
    out = {}
    xs = [r.parameter for r in rows]
    for key in keys:
        ys = [r.costs[key] for r in rows]
        if any(y <= 0 for y in ys):
            continue
        slope, _ = fit_exponent(xs, ys)
        out[key] = slope
    return out


def cost_table_text(rows: list[CostRow], exponents: dict) -> str:
    keys = sorted(rows[0].costs)
    lines = ["parameter," + ",".join(keys)]
    for r in rows:
        lines.append(
            format_float(r.parameter) + ","
            + ",".join(str(r.costs[k]) for k in keys)
        )
    lines.append(
        "exponent," + ",".join(
            format_float(exponents[k]) if k in exponents else ""
            for k in keys
        )
    )
    return "\n".join(lines) + "\n"
