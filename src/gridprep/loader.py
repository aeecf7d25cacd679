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
    at that level.  NaN marks pairs that carry no mass.  The running sums
    of `prob` overwrite it, except with Monte Carlo, which samples it.
    """
    mc = spec.backend == "monte-carlo"
    total = np.cumsum(prob) if mc else np.cumsum(prob, out=prob)
    table = []
    for i in range(1, l + 1):
        stride = 1 << (l - i)
        # the mass left of each block edge: 0.0, then every stride-th sum
        edges = np.concatenate([[0.0], total[stride - 1::stride]])
        lo, mid, hi = edges[:-1:2], edges[1::2], edges[2::2]
        den = hi - lo
        full = den >= EMPTY_MASS_THRESHOLD
        ratio = np.full(den.size, np.nan)
        if not mc:
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


def _fan_out(seeds: np.ndarray, levels, phases,
             buffer: np.ndarray | None = None) -> np.ndarray:
    """Rows of 2^l sites: seeds[k] times the split factors along each
    site's dyadic path, kicked back by `phases`.  Level i turns prefix b
    into 2b <- c[b] t and 2b + 1 <- s[b] t + 0.0 (what the rotation adds
    from the blank partner, s a0 + c 0, which turns -0 into +0), in the
    returned array when l - i is even and else in a half-size spare, which
    for one seed and l >= 1 is `buffer` (2^l float64s) when given.
    """
    rows, l = seeds.size, len(levels)
    out = np.empty(rows << l, dtype=np.complex128)
    spare = buffer.view(np.complex128) if rows == 1 and l and \
        buffer is not None else np.empty(rows << max(l - 1, 0), np.complex128)
    values = seeds[:, None]
    for i, (c, s) in enumerate(levels, start=1):
        pairs = (spare if (l - i) % 2 else out)[:rows << i].reshape(rows, -1, 2)
        np.multiply(c, values, out=pairs[:, :, 0])
        np.multiply(s, values, out=pairs[:, :, 1])
        np.add(pairs[:, :, 1], 0.0, out=pairs[:, :, 1])
        values = pairs.reshape(rows, -1)
    return apply_phases(values, phases)


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
    per signed-zero class (the seeds); what sat off value 0 on the branch
    is overwritten.  Budget: the input state is dropped once the seeds are
    taken, unless part of it stays.  Besides its tables a load allocates
    2^l amplitudes per seed and a spare of half that, the spent masses if
    it computed the tables (`_fan_out`).  When one seed fills the state,
    those are the returned amplitudes; else they are gathered into the
    branch of a copy of the state, or of a new vector (`_gather_rows`).

    `ratio_perturb(i, k, ratio)` lets callers inject integral noise; it is
    called once per pair with mass, in level order, with k = 2b for pair b.
    `cache` holds one table per (orbital, l, spec) across loads, read-only,
    and a load that finds it evaluates no integral; a load with
    `ratio_perturb` evaluates its own and leaves `cache` alone.
    `prepare_superposition` keeps its readouts and loaded state in the
    same dict.  With `cache=None` nothing is kept.
    """
    l = state.layout.segment(segment).width
    if not state.segment_is_blank(segment, controls):
        raise ValidationError(
            f"segment {segment!r} must be blank on the branch it loads"
        )
    branch, (axis,) = segment_view(state, [segment], controls)
    layout, shape = state.layout, branch.shape
    seeds, seed_of = _fan_seeds(branch.take(0, axis))
    kept = None if branch.size == layout.dim else state.amplitudes
    del state, branch
    plan = LoadPlan(l=l, integral_requests=(1 << l) - 1)
    if spec.backend == "monte-carlo" and spec.bounds is not None:
        plan.mc_samples_per_integral = mc_sample_count(spec, bounded=True)
    shared = cache if ratio_perturb is None else None
    key = (orbital, l, spec)
    tables, masses = None if shared is None else shared.get(key), None
    if tables is None:
        tables, masses = _load_tables(orbital, l, spec, ratio_perturb)
        plan.integral_evaluations = plan.integral_requests
        if shared is not None:
            shared[key] = tables
    levels, plan.rotation_applications, phases = tables
    plan.empty_blocks = plan.integral_requests - plan.rotation_applications
    block = _gather_rows(_fan_out(seeds, levels, phases, masses), seed_of
                         .reshape(math.prod(shape[:axis]), -1)).reshape(shape)
    if kept is None:  # the branch is the whole state
        return QuantumState(layout, block.reshape(-1)), plan
    out = QuantumState(layout, kept.copy())
    segment_view(out, [segment], controls)[0][...] = block
    return out, plan


def _load_tables(orbital: Orbital, l: int, spec: IntegrationSpec,
                 ratio_perturb=None):
    """Read-only (levels, rotations, phases) from one evaluation of the
    orbital on the grid (`Orbital.sample_grid`): per level the entries
    sqrt(r) and sqrt(1 - r) of the split ratios r of its masses |phi(x)|^2
    (`ratio_perturb` applied; c = 1, s = 0 for an empty pair), the count of
    pairs with mass, and the factors e^{i arg phi(x)} (None if all args
    are 0); and the spent buffer of the masses.
    """
    values, phases = orbital.sample_grid(l)
    prob = np.abs(values)
    del values
    table = _split_ratios(np.square(prob, out=prob), l, spec)
    levels, rotations = [], 0
    for i, ratio in enumerate(table, start=1):
        empty = np.isnan(ratio)
        rotations += ratio.size - int(np.count_nonzero(empty))
        if ratio_perturb is not None:
            for b in map(int, np.flatnonzero(~empty)):
                ratio[b] = ratio_perturb(i, 2 * b, float(ratio[b]))
            np.clip(ratio, 0.0, 1.0, out=ratio)
        ratio[empty] = 1.0  # c = 1, s = 0: no rotation
        s = np.sqrt(1.0 - ratio)
        c = np.sqrt(ratio, out=ratio)
        c.flags.writeable = s.flags.writeable = False
        levels.append((c, s))
    if phases is not None:
        phases.flags.writeable = False
    return (levels, rotations, phases), prob


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
