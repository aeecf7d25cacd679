"""Orbital families, integration settings, and the Fock operator model.

An orbital carries two continuum oracles, the probability density
|phi(x)|^2 and the phase arg phi(x), which are point-sampled on the grid.
Grid-native families (kronecker-delta, tabulated) define their amplitudes
directly on sites.
"""
from __future__ import annotations

import math
import statistics
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

#: Both exact names compute exact split ratios of the point-sampled grid
#: distribution; monte-carlo estimates them by sampling grid sites.
BACKENDS = ("analytic-cdf", "adaptive-quadrature", "monte-carlo")

#: Denominator mass below this is treated as zero (double-precision noise).
EMPTY_MASS_THRESHOLD = 1e-14

#: Largest entry of Φ†Φ − I a re-orthonormalized grid matrix may leave.
ORTHONORMALITY_TOL = 1e-6


@dataclass(frozen=True)
class Orbital:
    """One member of an orthonormal single-particle basis.

    family parameters live in `params`; `energy` is the eigenvalue of the
    Fock operator for this orbital.
    """

    family: str
    length: float
    energy: float
    params: tuple = ()

    def __post_init__(self):
        if not self.length > 0:
            raise ValidationError(
                f"orbital domain length {self.length} is not > 0")

    # -- continuum oracles -------------------------------------------------
    def density(self, x):
        x = np.asarray(x, dtype=float)
        L = self.length
        if self.family == "uniform":
            return np.full_like(x, 1.0 / L)
        if self.family == "box-sine":
            n = self.params[0]
            return (2.0 / L) * np.sin(n * np.pi * x / L) ** 2
        if self.family == "ring-plane-wave":
            return np.full_like(x, 1.0 / L)
        if self.family == "harmonic-hermite":
            n, width = self.params
            u = (x - L / 2.0) / width
            h = _hermite_value(n, u)
            norm = 1.0 / (2.0**n * math.factorial(n) * math.sqrt(math.pi))
            return norm * h**2 * np.exp(-(u**2)) / width
        raise ValidationError(
            f"family {self.family!r} has no continuum density oracle"
        )

    def phase(self, x):
        """arg phi(x); real sign changes appear as a phase of pi."""
        x = np.asarray(x, dtype=float)
        L = self.length
        if self.family == "ring-plane-wave":
            k = self.params[0]
            return 2.0 * np.pi * k * x / L
        if self.family == "box-sine":
            n = self.params[0]
            return np.where(np.sin(n * np.pi * x / L) < 0, np.pi, 0.0)
        if self.family == "harmonic-hermite":
            n, width = self.params
            h = _hermite_value(n, (x - L / 2.0) / width)
            return np.where(h < 0, np.pi, 0.0)
        if self.family in ("uniform", "kronecker-delta"):
            return np.zeros_like(x)
        raise ValidationError(f"family {self.family!r} has no phase oracle")

    # -- grid oracles ------------------------------------------------------
    def grid_values(self, l: int) -> np.ndarray:
        """Normalized complex amplitudes at the sites x_j = j*L/2^l."""
        n_sites = 1 << l
        if self.family == "kronecker-delta":
            site = int(self.params[0] / self.length * n_sites)
            vec = np.zeros(n_sites, dtype=np.complex128)
            vec[site] = 1.0
            return vec
        if self.family == "tabulated":
            vec = np.asarray(self.params[0], dtype=np.complex128)
            if vec.size != n_sites:
                raise ValidationError(
                    f"tabulated orbital has {vec.size} entries, "
                    f"grid needs {n_sites}"
                )
        else:
            xs = np.arange(n_sites) * (self.length / n_sites)
            mags = np.sqrt(self.density(xs))
            vec = mags * np.exp(1j * self.phase(xs))
        norm = np.linalg.norm(vec)
        if not np.isfinite(norm):
            raise ValidationError("orbital is not finite on the grid")
        if norm == 0:
            raise ValidationError("orbital vanishes on every grid site")
        return vec / norm


def _hermite_value(n: int, u: np.ndarray) -> np.ndarray:
    return np.polynomial.hermite.hermval(u, [0.0] * n + [1.0])


# -- family constructors ---------------------------------------------------

def uniform(length: float = 1.0, energy: float = 0.0) -> Orbital:
    return Orbital("uniform", length, energy)


def box_sine(n: int, length: float = 1.0, energy: float | None = None) -> Orbital:
    if n < 1:
        raise ValidationError("box-sine quantum number must be >= 1")
    return Orbital("box-sine", length, float(n**2 if energy is None else energy),
                   (n,))


def ring_plane_wave(k: int, length: float = 1.0,
                    energy: float | None = None) -> Orbital:
    return Orbital("ring-plane-wave", length,
                   float(k**2 if energy is None else energy), (k,))


def harmonic_hermite(n: int, length: float = 1.0, width: float | None = None,
                     energy: float | None = None) -> Orbital:
    if n < 0:
        raise ValidationError("hermite index must be >= 0")
    if width is None:
        width = length / 20.0
    if not width > 0:
        raise ValidationError(f"hermite width {width} is not > 0")
    return Orbital("harmonic-hermite", length,
                   float(n + 0.5 if energy is None else energy),
                   (n, float(width)))


def kronecker_delta(position: float, length: float = 1.0,
                    energy: float = 0.0) -> Orbital:
    if not 0 <= position < length:
        raise ValidationError("delta position must lie in [0, L)")
    return Orbital("kronecker-delta", length, energy, (float(position),))


def tabulated(values, length: float = 1.0, energy: float = 0.0) -> Orbital:
    values = tuple(complex(v) for v in values)
    if len(values) & (len(values) - 1):
        raise ValidationError("tabulated orbital needs a power-of-two table")
    if not any(abs(v) > 0 for v in values):
        raise ValidationError("tabulated orbital is identically zero")
    return Orbital("tabulated", length, energy, (values,))


# -- integration -----------------------------------------------------------

@dataclass(frozen=True)
class IntegrationSpec:
    backend: str = "analytic-cdf"
    epsilon_i: float = 1e-6
    delta: float = 0.05
    sigma2: float | None = None
    bounds: tuple[float, float] | None = None
    seed: int | None = None

    def __post_init__(self):
        if self.backend not in BACKENDS:
            raise ValidationError(f"unknown integration backend {self.backend!r}")
        if not 0 < self.epsilon_i < 1:
            raise ValidationError("epsilon_i must lie in (0, 1)")
        if not 0 < self.delta < 1:
            raise ValidationError("delta must lie in (0, 1)")
        if self.bounds is not None:
            if len(self.bounds) != 2:
                raise ValidationError(
                    f"bounds must be (lower, upper), got {len(self.bounds)} "
                    "values")
            if self.bounds[0] > self.bounds[1]:
                raise ValidationError("lower bound exceeds upper bound")


def normal_quantile(p: float) -> float:
    """Inverse of the standard normal CDF."""
    if not 0 < p < 1:
        raise ValidationError("quantile argument must lie in (0, 1)")
    return statistics.NormalDist().inv_cdf(p)


def mc_sample_count(spec: IntegrationSpec, bounded: bool = True) -> int:
    """Worst-case Monte Carlo sample count for an (epsilon_i, delta)
    absolute-error estimate: the bounded-range formula when `bounded`,
    the variance formula otherwise.
    """
    z = normal_quantile(1.0 - spec.delta / 2.0)
    if bounded:
        if spec.bounds is None:
            raise ValidationError("bounded sample count needs (lower, upper)")
        lo, hi = spec.bounds
        return math.ceil((z * (hi - lo) / (2.0 * spec.epsilon_i)) ** 2)
    if spec.sigma2 is None:
        raise ValidationError("variance sample count needs sigma2")
    return math.ceil(z**2 * spec.sigma2 / spec.epsilon_i**2)


# -- basis set and Fock operator -------------------------------------------

class BasisSet:
    """M orthonormal orbitals plus the Fock operator they diagonalize."""

    def __init__(self, orbitals: list[Orbital]):
        if not orbitals:
            raise ValidationError("basis needs at least one orbital")
        lengths = {o.length for o in orbitals}
        if len(lengths) != 1:
            raise ValidationError("orbitals must share one domain length")
        self.orbitals = list(orbitals)
        self._grid_cache: dict[int, np.ndarray] = {}

    @property
    def size(self) -> int:
        return len(self.orbitals)

    @property
    def energies(self) -> np.ndarray:
        return np.array([o.energy for o in self.orbitals])

    def grid_matrix(self, l: int) -> np.ndarray:
        """(2^l, M) matrix of grid-discretized, re-orthonormalized orbitals.

        Columns are the point-sampled orbitals after symmetric (Loewdin)
        re-orthonormalization, so the Gram matrix is the identity.
        """
        if l in self._grid_cache:
            return self._grid_cache[l]
        if self.size > (1 << l):
            raise ValidationError(
                f"{self.size} orbitals cannot be independent on {1 << l} sites"
            )
        raw = np.column_stack([o.grid_values(l) for o in self.orbitals])
        gram = raw.conj().T @ raw
        evals, evecs = np.linalg.eigh(gram)
        if np.min(evals) < 1e-10:
            raise ValidationError(
                "grid-discretized orbitals are (numerically) linearly dependent"
            )
        inv_sqrt = evecs @ np.diag(evals**-0.5) @ evecs.conj().T
        ortho = raw @ inv_sqrt
        check = np.max(np.abs(ortho.conj().T @ ortho - np.eye(self.size)))
        if check > ORTHONORMALITY_TOL:
            raise ValidationError(
                f"re-orthonormalization residual {check:.3g} exceeds tolerance"
            )
        self._grid_cache[l] = ortho
        return ortho

    def fock_matrix(self, l: int) -> np.ndarray:
        """F = sum_i E_i |phi_i><phi_i| on the 2^l grid."""
        phi = self.grid_matrix(l)
        return (phi * self.energies) @ phi.conj().T

    def fock_unitary(self, l: int, t: float) -> np.ndarray:
        """exp(-i F t), computed exactly from the factored eigen-form."""
        phi = self.grid_matrix(l)
        d = phi.shape[0]
        # unit eigenphase on the complement keeps support untouched (phase 0)
        u = np.eye(d, dtype=np.complex128)
        u = u + (phi * (np.exp(-1j * self.energies * t) - 1.0)) @ phi.conj().T
        return u
