"""Single-particle state loading: l levels of multiplexed rotations, each
turning a dyadic block pair by arccos(sqrt(split ratio)), then phase
kickback.  Site x ends up with the product of the cos/sin factors along its
dyadic path (Grover & Rudolph, quant-ph/0208112), and `load_orbital`
evaluates that product directly; the tests keep the gate-level circuit as
its bitwise reference.  The split ratios are conditional probabilities of
the point-sampled grid distribution, so with an exact backend the loaded
magnitudes match the sampled orbital to machine precision.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import EMPTY_MASS_THRESHOLD, IntegrationSpec, Orbital, \
    mc_sample_count, tabulated
from .errors import ValidationError
from .statevec import QuantumState, control_masks

Controls = list[tuple[str, int]]


@dataclass
class LoadPlan:
    """Cost counters of the circuit: per dyadic block pair (2^l - 1 in all)
    one integral request, one evaluation unless cached, and one rotation or
    empty block.
    """

    l: int
    integral_requests: int = 0
    integral_evaluations: int = 0
    rotation_applications: int = 0
    empty_blocks: int = 0
    mc_samples_per_integral: int = 0

    @property
    def stages(self) -> int:
        """Rotation stages of the circuit, one per grid qubit."""
        return self.l


def load_error_bound(l: int, epsilon_i: float) -> float:
    """Infidelity bound for a state loaded from l levels of split ratios,
    each carrying absolute error at most epsilon_i.
    """
    if l < 1:
        raise ValidationError("grid needs at least one qubit")
    if not 0 <= epsilon_i < 1:
        raise ValidationError("epsilon_i must lie in [0, 1)")
    return l * epsilon_i / 2.0


def _control_bits(state: QuantumState, controls: Controls | None):
    bits = []
    for name, value in controls or []:
        seg = state.layout.segment(name)
        if not 0 <= value < seg.dim:
            raise ValidationError(
                f"control value {value} out of range for segment {name!r}"
            )
        for b in range(seg.width):
            bits.append((seg.offset + b, (value >> b) & 1))
    return bits


def _split_ratios(prob: np.ndarray, l: int,
                  spec: IntegrationSpec) -> list[np.ndarray]:
    """Split ratios of the discrete site distribution, one array per level:
    entry b of level i belongs to block pair (2b, 2b + 1) of the 2^i blocks
    at that level.  NaN marks pairs that carry no mass.
    """
    prefix = np.concatenate([[0.0], np.cumsum(prob)])
    table = []
    for i in range(1, l + 1):
        stride = 1 << (l - i)
        edges = prefix[::stride]
        lo, mid, hi = edges[:-1:2], edges[1::2], edges[2::2]
        den = hi - lo
        full = den >= EMPTY_MASS_THRESHOLD
        ratio = np.full(den.size, np.nan)
        if spec.backend != "monte-carlo":
            np.divide(mid - lo, den, out=ratio, where=full)
            np.clip(ratio, 0.0, 1.0, out=ratio)
        else:
            for b in map(int, np.flatnonzero(full)):
                ratio[b] = _mc_grid_ratio(
                    prob, 2 * b * stride, (2 * b + 1) * stride,
                    (2 * b + 2) * stride, spec, level=i, block=2 * b)
        table.append(ratio)
    return table


def _mc_grid_ratio(prob: np.ndarray, lo: int, mid: int, hi: int,
                   spec: IntegrationSpec, level: int, block: int) -> float:
    """Bernoulli estimate: rejection-sample sites proportionally to their
    mass (the pair must carry some), return the fraction that landed in the
    left half.
    """
    if spec.bounds is None and spec.sigma2 is None:
        raise ValidationError(
            "monte-carlo backend needs bounds or a variance estimate"
        )
    block_prob = prob[lo:hi]
    envelope = block_prob.max()
    n = max(mc_sample_count(spec, bounded=spec.bounds is not None), 1)
    rng = np.random.default_rng(
        np.random.SeedSequence([0 if spec.seed is None else spec.seed,
                                level, block])
    )
    hits = np.empty(0, dtype=np.int64)
    while hits.size < n:
        batch = max(4 * n, 256)
        sites = rng.integers(0, hi - lo, size=batch)
        keep = rng.uniform(0.0, envelope, size=batch) < block_prob[sites]
        hits = np.concatenate([hits, sites[keep]])
    hits = hits[:n]
    return float(np.mean(hits < (mid - lo)))


def _split(values: np.ndarray, c: np.ndarray, s: np.ndarray) -> np.ndarray:
    """One level of the product: prefix b of `values` (spectators above,
    prefixes, spectators below) becomes prefixes 2b <- c[b] t and
    2b + 1 <- s[b] t + 0.0.  The `+ 0.0` is what the rotation adds from
    the blank partner (s a0 + c 0); it turns -0 into +0.
    """
    h, n, lo = values.shape
    out = np.empty((h, n, 2, lo), dtype=np.complex128)
    np.multiply(c[:, None], values, out=out[:, :, 0])
    np.multiply(s[:, None], values, out=out[:, :, 1])
    np.add(out[:, :, 1], 0.0, out=out[:, :, 1])
    return out.reshape(h, 2 * n, lo)


def load_orbital(
    state: QuantumState,
    segment: str,
    orbital: Orbital,
    spec: IntegrationSpec,
    controls: Controls | None = None,
    ratio_perturb=None,
    cache: dict | None = None,
) -> tuple[QuantumState, LoadPlan]:
    """Prepare sum_x phi(x L/2^l) |x> on the segment, on the branch that
    `controls` select (the whole state without controls).

    Precondition, enforced for controlled and uncontrolled loads alike: the
    segment is blank on that branch, or ValidationError is raised.  The
    amplitude at segment value 0 then fans out over the 2^l sites as the
    product of the split factors along each dyadic path, one level at a
    time; sites of an empty pair get no rotation.  `ratio_perturb(i, k,
    ratio)` lets callers inject integral noise; it is called once per pair
    with mass, in level order, with k = 2b for pair b.  `cache` holds one
    ratio table per (orbital, l, spec) across loads.
    """
    seg = state.layout.segment(segment)
    l = seg.width
    bits = _control_bits(state, controls)
    if not state.segment_is_blank(segment, controls=bits):
        raise ValidationError(
            f"segment {segment!r} must be blank on the branch it loads"
        )
    cube = state.amplitudes.reshape(state.layout.dim >> (seg.offset + l),
                                    seg.dim, 1 << seg.offset)
    hi_sel, lo_sel = control_masks(state, seg, bits, cube.shape[0],
                                   cube.shape[2])
    plan = LoadPlan(l=l, integral_requests=(1 << l) - 1)
    if spec.backend == "monte-carlo" and spec.bounds is not None:
        plan.mc_samples_per_integral = mc_sample_count(spec, bounded=True)
    key = (orbital, l, spec)
    table = None if cache is None else cache.get(key)
    if table is None:
        table = _split_ratios(orbital.grid_prob(l), l, spec)
        plan.integral_evaluations = plan.integral_requests
        if cache is not None:
            cache[key] = table

    values = cube[np.ix_(hi_sel, [0], lo_sel)]
    for i, ratio in enumerate(table, start=1):
        active = ~np.isnan(ratio)
        plan.rotation_applications += int(np.count_nonzero(active))
        if ratio_perturb is not None:
            ratio = ratio.copy()
            for b in map(int, np.flatnonzero(active)):
                ratio[b] = ratio_perturb(i, 2 * b, float(ratio[b]))
            np.clip(ratio, 0.0, 1.0, out=ratio)
        angle = np.where(active, np.arccos(np.sqrt(ratio)), 0.0)
        values = _split(values, np.cos(angle), np.sin(angle))
    plan.empty_blocks = plan.integral_requests - plan.rotation_applications
    values = apply_phases(values, orbital)

    if hi_sel.all() and lo_sel.all():
        amps = values.reshape(-1)
    else:
        amps = state.amplitudes.copy()
        amps.reshape(cube.shape)[np.ix_(hi_sel, np.arange(seg.dim),
                                        lo_sel)] = values
    return QuantumState(state.layout, amps), plan


def apply_phases(values: np.ndarray, orbital: Orbital) -> np.ndarray:
    """Phase kickback x -> exp(i arg phi(x)), in place, on loaded register
    values shaped (spectators above, 2^l sites, spectators below).
    """
    table = np.angle(orbital.grid_values(values.shape[1].bit_length() - 1))
    if np.any(table):
        values *= np.exp(1j * table)[:, None]
    return values


def load_amplitude_table(
    state: QuantumState,
    segment: str,
    amplitudes: np.ndarray,
    spec: IntegrationSpec,
    controls: Controls | None = None,
    cache: dict | None = None,
) -> tuple[QuantumState, LoadPlan]:
    """Load an arbitrary normalized amplitude table via the tabulated-orbital
    path (pads with zeros up to the segment dimension).
    """
    seg = state.layout.segment(segment)
    table = np.zeros(seg.dim, dtype=np.complex128)
    amplitudes = np.asarray(amplitudes, dtype=np.complex128)
    if amplitudes.size > seg.dim:
        raise ValidationError(
            f"{amplitudes.size} amplitudes do not fit in segment {segment!r}"
        )
    table[: amplitudes.size] = amplitudes
    orb = tabulated(table, length=1.0)
    return load_orbital(state, segment, orb, spec, controls=controls,
                        cache=cache)
