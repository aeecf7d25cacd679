"""Single-particle state loading: l levels of multiplexed rotations, each
turning a dyadic block pair by the entries c = sqrt(r) and s = sqrt(1 - r)
of its split ratio r, then phase kickback.  Site x ends up with the product
of the c/s factors along its dyadic path (Grover & Rudolph,
quant-ph/0208112), and `load_orbital` evaluates that product directly; the
tests keep the gate-level circuit as its bitwise reference.  One evaluation
of the orbital on the grid supplies both the split ratios, conditional
probabilities of the point-sampled site distribution, and the kickback
factors, so with an exact backend the loaded magnitudes match the sampled
orbital to machine precision.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import EMPTY_MASS_THRESHOLD, IntegrationSpec, Orbital, \
    mc_sample_count, tabulated
from .errors import ValidationError
from .statevec import QuantumState, segment_view

#: Amplitudes per block when a load writes its branch.
GATHER_BLOCK = 1 << 16


@dataclass
class LoadPlan:
    """Cost counters of the circuit's l rotation stages (one per grid
    qubit): per dyadic block pair (2^l - 1 in all) one integral request,
    one evaluation unless cached, and one rotation or empty block.
    """

    l: int
    integral_requests: int = 0
    integral_evaluations: int = 0
    rotation_applications: int = 0
    empty_blocks: int = 0
    mc_samples_per_integral: int = 0


def load_error_bound(l: int, epsilon_i: float) -> float:
    """Infidelity (1 - |<psi|phi>|) bound for a state loaded from l levels
    of split ratios, each off by at most epsilon_i: max(l epsilon_i / 2,
    1 - (1 - epsilon_i)^(l/2)).  With exact phases the overlap is the
    Bhattacharyya coefficient of the site distributions, which by its chain
    rule is at least the product of the least per-level coefficients.  A
    split sin^2 a : cos^2 a against sin^2 b : cos^2 b has cos(a - b), and
    |sin(a - b)| <= sin(a + b) on [0, pi/2]^2 gives cos^2(a - b) >= 1 -
    |sin^2 a - sin^2 b| >= 1 - epsilon_i.  By Bernoulli's inequality the
    second term is at most the first from l = 2 on; at l = 1 the split
    eps : 1 - eps loaded as 0 : 1 reaches 1 - sqrt(1 - eps).
    """
    if isinstance(l, bool) or not isinstance(l, (int, np.integer)) or l < 1:
        raise ValidationError(
            f"l: {l!r} is not a qubit count; grid needs at least one qubit")
    if not 0 <= epsilon_i < 1:
        raise ValidationError("epsilon_i must lie in [0, 1)")
    if l == 1:  # 1 - sqrt(1 - eps), without the cancellation
        return epsilon_i / (1.0 + math.sqrt(1.0 - epsilon_i))
    return l * epsilon_i / 2.0


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
    """One level of the product on rows of prefixes: prefix b becomes
    prefixes 2b <- c[b] t and 2b + 1 <- s[b] t + 0.0.  The `+ 0.0` is what
    the rotation adds from the blank partner (s a0 + c 0); it turns -0
    into +0.
    """
    rows, n = values.shape
    out = np.empty((rows, n, 2), dtype=np.complex128)
    np.multiply(c, values, out=out[:, :, 0])
    np.multiply(s, values, out=out[:, :, 1])
    np.add(out[:, :, 1], 0.0, out=out[:, :, 1])
    return out.reshape(rows, 2 * n)


def _fan_seeds(first: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The target-0 amplitudes worth fanning out, and which one each entry
    of `first` takes: every nonzero amplitude, then one representative per
    signed-zero class (sign bits of the real and imaginary parts) present.
    All zeros of one class have the same bytes, so they fan out alike.
    """
    flat = first.ravel()
    nonzero = flat != 0
    zero_class = 2 * np.signbit(flat.real) + np.signbit(flat.imag)
    _, rep, which = np.unique(zero_class[~nonzero], return_index=True,
                              return_inverse=True)
    count = np.count_nonzero(nonzero)
    seed_of = np.empty(flat.size, dtype=np.intp)
    seed_of[nonzero] = np.arange(count)
    seed_of[~nonzero] = count + which
    seeds = np.concatenate([flat[nonzero], flat[~nonzero][rep]])
    return seeds, seed_of.reshape(first.shape)


def _gather_rows(fanned: np.ndarray, seed_of: np.ndarray) -> np.ndarray:
    """Register values shaped (spectators above, 2^l sites, spectators
    below) with out[h, :, lo] = fanned[seed_of[h, lo]], gathered in blocks
    of about GATHER_BLOCK amplitudes so no full-size temporary is held.
    """
    h_rows, lo = seed_of.shape
    sites = fanned.shape[1]
    if lo == 1 and np.array_equal(seed_of[:, 0], np.arange(len(fanned))):
        return fanned.reshape(h_rows, sites, 1)  # each row its own seed
    out = np.empty((h_rows, sites, lo), dtype=np.complex128)
    step = max(1, GATHER_BLOCK // (sites * lo))
    for h in range(0, h_rows, step):
        out[h:h + step] = np.take(fanned, seed_of[h:h + step],
                                  axis=0).transpose(0, 2, 1)
    return out


def load_orbital(
    state: QuantumState,
    segment: str,
    orbital: Orbital,
    spec: IntegrationSpec,
    controls=None,
    ratio_perturb=None,
    cache: dict | None = None,
) -> tuple[QuantumState, LoadPlan]:
    """Prepare sum_x phi(x L/2^l) |x> on the segment, on the branch that
    the (segment, value) `controls` select (the whole state without
    controls).

    Precondition, enforced for controlled and uncontrolled loads alike: the
    segment is blank on that branch, or ValidationError is raised.  Each
    amplitude at segment value 0 then fans out over the 2^l sites as the
    product of the split factors along each dyadic path, one level at a
    time; sites of an empty pair get no rotation.  The fan-out depends on
    that amplitude alone, so it runs once per nonzero amplitude and once
    per signed-zero class, and the branch is written from those rows in
    one gather; what sat off value 0 on the branch is overwritten.
    `ratio_perturb(i, k, ratio)` lets callers inject integral noise; it is
    called once per pair with mass, in level order, with k = 2b for pair b.
    `cache` holds one ratio table and phase table per (orbital, l, spec)
    across loads, and a load that finds them evaluates no integral;
    `prepare_superposition` keeps its readouts and loaded state in the
    same dict.  With `cache=None` nothing is kept.
    """
    l = state.layout.segment(segment).width
    if not state.segment_is_blank(segment, controls):
        raise ValidationError(
            f"segment {segment!r} must be blank on the branch it loads"
        )
    branch, (axis,) = segment_view(state, [segment], controls)
    plan = LoadPlan(l=l, integral_requests=(1 << l) - 1)
    if spec.backend == "monte-carlo" and spec.bounds is not None:
        plan.mc_samples_per_integral = mc_sample_count(spec, bounded=True)
    key = (orbital, l, spec)
    tables = None if cache is None else cache.get(key)
    if tables is None:
        tables = _load_tables(orbital, l, spec)
        plan.integral_evaluations = plan.integral_requests
        if cache is not None:
            cache[key] = tables
    table, phases = tables

    seeds, seed_of = _fan_seeds(branch.take(0, axis))
    values = seeds[:, None]
    for i, ratio in enumerate(table, start=1):
        active = ~np.isnan(ratio)
        plan.rotation_applications += int(np.count_nonzero(active))
        if ratio_perturb is not None:
            ratio = ratio.copy()
            for b in map(int, np.flatnonzero(active)):
                ratio[b] = ratio_perturb(i, 2 * b, float(ratio[b]))
            np.clip(ratio, 0.0, 1.0, out=ratio)
        ratio = np.where(active, ratio, 1.0)  # c = 1, s = 0: no rotation
        values = _split(values, np.sqrt(ratio), np.sqrt(1.0 - ratio))
    plan.empty_blocks = plan.integral_requests - plan.rotation_applications
    block = _gather_rows(apply_phases(values, phases), seed_of.reshape(
        math.prod(branch.shape[:axis]), -1)).reshape(branch.shape)
    if branch.size == state.layout.dim:  # the branch is the whole state
        return QuantumState(state.layout, block.reshape(-1)), plan
    out = QuantumState(state.layout, state.amplitudes.copy())
    segment_view(out, [segment], controls)[0][...] = block
    return out, plan


def _load_tables(orbital: Orbital, l: int, spec: IntegrationSpec):
    """Split ratios and phase-kickback factors from one evaluation of the
    orbital on the grid (`Orbital.sample_grid`): the ratios of its site
    masses |phi(x)|^2, and its unit factors e^{i arg phi(x)} (None when
    every arg phi(x) is 0).
    """
    values, phases = orbital.sample_grid(l)
    return _split_ratios(np.abs(values) ** 2, l, spec), phases


def apply_phases(values: np.ndarray, phases: np.ndarray | None) -> np.ndarray:
    """Phase kickback x -> exp(i arg phi(x)), in place, on fanned-out rows
    of 2^l sites; `phases` holds the factors, None for none.
    """
    if phases is not None:
        values *= phases
    return values


def load_amplitude_table(
    state: QuantumState,
    segment: str,
    amplitudes: np.ndarray,
    spec: IntegrationSpec,
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
    return load_orbital(state, segment, orb, spec, cache=cache)
