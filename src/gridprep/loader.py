"""Single-particle state loading: l levels of multiplexed rotations that
redistribute amplitude across dyadic blocks, then phase kickback.

The grid-discretized orbital (point samples, renormalized) is the loading
target; the split ratios that drive the rotations are conditional
probabilities of the discrete site distribution.  Grid sampling is treated
as exact, so with an exact backend the loaded magnitudes match the sampled
orbital to machine precision, and all loader error is attributed to the
integration backend.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .basis import EMPTY_BLOCK, EMPTY_MASS_THRESHOLD, IntegrationSpec, Orbital, \
    mc_sample_count, tabulated
from .errors import ValidationError
from .statevec import QuantumState, control_masks

Controls = list[tuple[str, int]]


@dataclass
class LoadPlan:
    """Per-level rotation schedule plus cost counters for one orbital load."""

    l: int
    levels: list[list[tuple[int, float, float]]] = field(default_factory=list)
    integral_requests: int = 0
    integral_evaluations: int = 0
    rotation_applications: int = 0
    empty_blocks: int = 0
    mc_samples_per_integral: int = 0

    @property
    def stages(self) -> int:
        return len(self.levels)


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


def _grid_ratio(prob: np.ndarray, prefix: np.ndarray, l: int, i: int, k: int,
                spec: IntegrationSpec):
    """Split ratio of the discrete site distribution for block pair k at
    level i; EMPTY_BLOCK when the pair carries no mass.
    """
    stride = 1 << (l - i)
    lo, mid, hi = k * stride, (k + 1) * stride, (k + 2) * stride
    den = prefix[hi] - prefix[lo]
    if den < EMPTY_MASS_THRESHOLD:
        return EMPTY_BLOCK
    if spec.backend != "monte-carlo":
        return float(np.clip((prefix[mid] - prefix[lo]) / den, 0.0, 1.0))
    return _mc_grid_ratio(prob, lo, mid, hi, spec, level=i, block=k)


def _mc_grid_ratio(prob: np.ndarray, lo: int, mid: int, hi: int,
                   spec: IntegrationSpec, level: int, block: int):
    """Bernoulli estimate: rejection-sample sites proportionally to their
    mass, return the fraction that landed in the left half.
    """
    if spec.bounds is None and spec.sigma2 is None:
        raise ValidationError(
            "monte-carlo backend needs bounds or a variance estimate"
        )
    block_prob = prob[lo:hi]
    envelope = block_prob.max()
    if envelope <= 0:
        return EMPTY_BLOCK
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


def _multiplexed_rotation(state: QuantumState, segment: str, level: int,
                          angles: np.ndarray, active: np.ndarray,
                          controls: Controls | None) -> QuantumState:
    """One pass of the level-`level` rotations: every amplitude pair whose
    high segment bits select prefix b rotates by angles[b].

    Works on the amplitude tensor reshaped as (spectator-high, prefix,
    target bit, low bits); inactive prefixes rotate by zero.
    """
    seg = state.layout.segment(segment)
    l = seg.width
    target_bit = l - level
    n_pref = 1 << (level - 1)
    amps = state.amplitudes.copy()
    hi_n = amps.size >> (seg.offset + seg.width)
    lo_n = (1 << seg.offset) * (1 << target_bit)
    cube = amps.reshape(hi_n, n_pref, 2, lo_n)

    hi_sel, lo_sel = control_masks(state, seg, _control_bits(state, controls),
                                   hi_n, lo_n)

    ang = np.where(active, angles, 0.0)
    c = np.cos(ang)[None, :, None]
    s = np.sin(ang)[None, :, None]
    if hi_sel.all() and lo_sel.all():
        a0 = cube[:, :, 0].copy()
        a1 = cube[:, :, 1]
        cube[:, :, 0] = c * a0 - s * a1
        cube[:, :, 1] = s * a0 + c * a1
    else:
        hi_idx = np.flatnonzero(hi_sel)
        lo_idx = np.flatnonzero(lo_sel)
        sub0 = cube[np.ix_(hi_idx, np.arange(n_pref), [0], lo_idx)]
        sub1 = cube[np.ix_(hi_idx, np.arange(n_pref), [1], lo_idx)]
        cc = c[..., None]
        ss = s[..., None]
        cube[np.ix_(hi_idx, np.arange(n_pref), [0], lo_idx)] = \
            cc * sub0 - ss * sub1
        cube[np.ix_(hi_idx, np.arange(n_pref), [1], lo_idx)] = \
            ss * sub0 + cc * sub1
    return QuantumState(state.layout, amps)


def load_orbital(
    state: QuantumState,
    segment: str,
    orbital: Orbital,
    spec: IntegrationSpec,
    controls: Controls | None = None,
    ratio_perturb=None,
    cache: dict | None = None,
) -> tuple[QuantumState, LoadPlan]:
    """Prepare sum_x |phi(x L/2^l)| |x> on the segment, then add phases.

    With `controls` the load acts only on the matching branch (the segment
    must be blank there); `ratio_perturb(i, k, ratio)` lets callers inject
    integral noise; `cache` memoizes ratios across repeated loads of the
    same orbital.
    """
    seg = state.layout.segment(segment)
    l = seg.width
    if controls is None and not state.segment_is_blank(segment):
        raise ValidationError(
            f"segment {segment!r} must be blank before an unconditional load"
        )
    prob = orbital.grid_prob(l)
    prefix = np.concatenate([[0.0], np.cumsum(prob)])
    plan = LoadPlan(l=l)
    if spec.backend == "monte-carlo" and spec.bounds is not None:
        plan.mc_samples_per_integral = mc_sample_count(spec, bounded=True)

    for i in range(1, l + 1):
        n_blocks = 1 << (i - 1)
        angles = np.zeros(n_blocks)
        active = np.zeros(n_blocks, dtype=bool)
        entries = []
        for b in range(n_blocks):
            k = 2 * b
            plan.integral_requests += 1
            key = (orbital, l, i, k, spec)
            if cache is not None and key in cache:
                ratio = cache[key]
            else:
                ratio = _grid_ratio(prob, prefix, l, i, k, spec)
                plan.integral_evaluations += 1
                if cache is not None:
                    cache[key] = ratio
            if ratio is EMPTY_BLOCK or ratio == EMPTY_BLOCK:
                plan.empty_blocks += 1
                continue
            if ratio_perturb is not None:
                ratio = float(np.clip(ratio_perturb(i, k, ratio), 0.0, 1.0))
            angle = float(np.arccos(np.sqrt(ratio)))
            angles[b] = angle
            active[b] = True
            entries.append((k, ratio, angle))
            plan.rotation_applications += 1
        plan.levels.append(entries)
        if entries:
            state = _multiplexed_rotation(state, segment, i, angles, active,
                                          controls)
    state = apply_phases(state, segment, orbital, controls)
    return state, plan


def apply_phases(state: QuantumState, segment: str, orbital: Orbital,
                 controls: Controls | None = None) -> QuantumState:
    """Phase kickback |x> -> exp(i arg phi(x)) |x> on the segment."""
    seg = state.layout.segment(segment)
    table = np.angle(orbital.grid_values(seg.width))
    if not np.any(table):
        return state
    amps = state.amplitudes.copy()
    cube = amps.reshape(amps.size >> (seg.offset + seg.width), seg.dim,
                        1 << seg.offset)
    hi_sel, lo_sel = control_masks(state, seg, _control_bits(state, controls),
                                   cube.shape[0], cube.shape[2])
    sel = np.ix_(hi_sel, np.arange(seg.dim), lo_sel)
    cube[sel] = cube[sel] * np.exp(1j * table)[None, :, None]
    return QuantumState(state.layout, amps)


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
