"""Hartree products from occupation vectors, and their antisymmetrization
(fermions) or symmetrization (bosons) via a permutation register sorted by
a fixed odd-even transposition network.

The permutation register holds m quwords of ceil(log2 m) qubits.  A
mixed-radix tuple (first quword ranges over m values, the next over m-1,
..., the last is fixed) is expanded into a uniform superposition, mapped
onto the symmetric group, and sorted; the same conditional swaps act on
the particle registers, transferring the (anti)symmetry.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from itertools import permutations, product

import numpy as np

from .basis import BasisSet, IntegrationSpec
from .errors import StructuralError, ValidationError
from .loader import LoadPlan, load_orbital
from .statevec import QuantumState


@dataclass(frozen=True)
class OccupationVector:
    """Second-quantized specification |n_1 ... n_M> with statistics flag."""

    n: tuple[int, ...]
    statistics: str = "fermionic"

    def __post_init__(self):
        if self.statistics not in ("fermionic", "bosonic"):
            raise ValidationError(f"unknown statistics {self.statistics!r}")
        if any(v < 0 for v in self.n):
            raise ValidationError("occupation numbers must be nonnegative")
        if self.statistics == "fermionic" and any(v > 1 for v in self.n):
            raise ValidationError(
                "fermionic occupation numbers must be 0 or 1 (Pauli exclusion)"
            )
        if self.m < 1:
            raise ValidationError("at least one particle is required")

    @classmethod
    def parse(cls, text: str, statistics: str = "fermionic") -> "OccupationVector":
        """Accepts a bitstring like "1100" or a count list like "2,0,1"."""
        text = text.strip()
        if "," in text:
            n = tuple(int(v) for v in text.split(","))
        else:
            n = tuple(int(c) for c in text)
        return cls(n, statistics)

    @property
    def num_orbitals(self) -> int:
        return len(self.n)

    @property
    def m(self) -> int:
        return sum(self.n)

    def occupied_indices(self) -> list[int]:
        """Occupied orbital indices, ascending, repeated per multiplicity."""
        out = []
        for i, v in enumerate(self.n):
            out.extend([i] * v)
        return out

    def multiplicity_factor(self) -> float:
        return math.prod(math.factorial(v) for v in self.n)


def quword_width(m: int) -> int:
    return math.ceil(math.log2(m)) if m > 1 else 0


def permutation_segments(m: int, prefix: str = "perm") -> list[tuple[str, str, int]]:
    w = quword_width(m)
    return [(f"{prefix}{i}", "scratch", w) for i in range(m)]


def particle_segments(m: int, l: int, prefix: str = "particle") -> list[tuple[str, str, int]]:
    return [(f"{prefix}{i}", "particle", l) for i in range(m)]


def prepare_hartree_product(
    state: QuantumState,
    occupation: OccupationVector,
    basis: BasisSet,
    spec: IntegrationSpec,
    segments: list[str],
    controls=None,
    ratio_perturb=None,
    cache: dict | None = None,
) -> tuple[QuantumState, list[LoadPlan]]:
    """Load each occupied orbital into its own particle register (bosonic
    multiplicities expand into repeated registers).
    """
    occupied = occupation.occupied_indices()
    if max(occupied, default=-1) >= basis.size:
        raise ValidationError("occupation refers to an orbital outside the basis")
    if len(occupied) > len(segments):
        raise StructuralError(
            f"{len(occupied)} particles exceed the {len(segments)} "
            "allocated particle registers"
        )
    plans = []
    for seg, j in zip(segments, occupied):
        state, plan = load_orbital(state, seg, basis.orbitals[j], spec,
                                   controls=controls,
                                   ratio_perturb=ratio_perturb, cache=cache)
        plans.append(plan)
    return state, plans


def generate_permutation_superposition(
    state: QuantumState, b_segments: list[str], m: int
) -> QuantumState:
    """Expand blank quwords into the uniform superposition of all m!
    mixed-radix tuples, amplitude 1/sqrt(m!) each (values stored 0-based).
    """
    if len(b_segments) != m:
        raise StructuralError("one quword per particle is required")
    for name in b_segments:
        if not state.segment_is_blank(name):
            raise ValidationError(f"quword {name!r} must be blank")
    if m == 1:
        return state
    segs = [state.layout.segment(name) for name in b_segments]
    tuples = list(product(*[range(m - i) for i in range(m)]))
    amps = np.zeros_like(state.amplitudes)
    support = np.flatnonzero(np.abs(state.amplitudes) > 0)
    base = state.amplitudes[support] / math.sqrt(math.factorial(m))
    for digits in tuples:
        shift = sum(d << seg.offset for d, seg in zip(digits, segs))
        amps[support | shift] += base
    return QuantumState(state.layout, amps)


def rank_to_permutation(digits: tuple[int, ...]) -> tuple[int, ...]:
    """Map a mixed-radix tuple (1-based digits, digit i in 1..m-i+1) to the
    permutation whose i-th entry is the digits[i]-th smallest unused value.
    """
    m = len(digits)
    remaining = list(range(1, m + 1))
    out = []
    for i, d in enumerate(digits):
        if not 1 <= d <= m - i:
            raise ValidationError(
                f"digit {d} out of range at position {i} for m={m}"
            )
        out.append(remaining.pop(d - 1))
    return tuple(out)


def apply_rank_to_permutation(
    state: QuantumState, b_segments: list[str]
) -> QuantumState:
    """Rewrite the quword register branch-wise from mixed-radix tuples to
    0-based permutation entries.
    """
    m = len(b_segments)
    if m == 1:
        return state
    segs = [state.layout.segment(name) for name in b_segments]
    # only the populated amplitudes matter; everything else stays zero
    idx = np.flatnonzero(np.abs(state.amplitudes) > 0)
    vals = [(idx >> seg.offset) & seg.mask for seg in segs]
    valid = np.ones(idx.size, dtype=bool)
    for i, v in enumerate(vals):
        valid &= v < (m - i)
    stray = np.linalg.norm(state.amplitudes[idx[~valid]])
    if stray > 1e-10:
        raise ValidationError(
            f"quword register holds amplitude outside the tuple range ({stray:.3g})"
        )
    strip = idx.copy()
    for seg in segs:
        strip &= ~(seg.mask << seg.offset)
    # combined-quword lookup: tuple code -> permutation code (0-based entries)
    w = segs[0].width
    table = np.full(1 << (m * w), -1, dtype=np.int64)
    for digits in product(*[range(m - i) for i in range(m)]):
        code = sum(d << (i * w) for i, d in enumerate(digits))
        perm = rank_to_permutation(tuple(d + 1 for d in digits))
        table[code] = sum((p - 1) << (i * w) for i, p in enumerate(perm))
    combined = np.zeros(idx.size, dtype=np.int64)
    for i, v in enumerate(vals):
        combined |= v.astype(np.int64) << (i * w)
    mapped = table[combined]
    dest = strip.copy()
    for i, seg in enumerate(segs):
        dest |= ((mapped >> (i * w)) & seg.mask) << seg.offset
    amps = np.zeros_like(state.amplitudes)
    amps[dest[valid]] = state.amplitudes[idx[valid]]
    return QuantumState(state.layout, amps)


def odd_even_network(m: int) -> list[list[tuple[int, int]]]:
    """Fixed, data-oblivious odd-even transposition schedule on m lanes."""
    return [
        [(i, i + 1) for i in range((r % 2), m - 1, 2)]
        for r in range(m)
    ]


def network_comparator_count(m: int) -> int:
    return sum(len(layer) for layer in odd_even_network(m))


def sort_and_entangle(
    state: QuantumState,
    b_segments: list[str],
    p_segments: list[str],
    statistics: str = "fermionic",
) -> tuple[QuantumState, dict]:
    """Sort the quword register with the fixed network, performing the same
    conditional swaps on the particle registers; apply (-1)^parity for
    fermions; uncompute the (now constant) quword register to zero and
    renormalize.

    Returns the state and a counter dict (comparators, swap cost).
    """
    if statistics not in ("fermionic", "bosonic"):
        raise ValidationError(f"unknown statistics {statistics!r}")
    m = len(b_segments)
    if len(p_segments) != m:
        raise StructuralError("need one quword per particle register")
    if m == 1:
        return state, {"comparators": 0, "swapped_qubits": 0}
    b_segs = [state.layout.segment(n) for n in b_segments]
    p_segs = [state.layout.segment(n) for n in p_segments]
    l = p_segs[0].width

    idx = np.flatnonzero(np.abs(state.amplitudes) > 0)
    bvals = [state.layout.values(n, idx).copy() for n in b_segments]
    pvals = [state.layout.values(n, idx).copy() for n in p_segments]

    valid = np.ones(idx.size, dtype=bool)
    seen = np.zeros((idx.size, m), dtype=bool)
    for v in bvals:
        valid &= v < m
        inrange = v < m
        seen[np.arange(idx.size)[inrange], v[inrange]] = True
    valid &= seen.all(axis=1)
    stray = np.linalg.norm(state.amplitudes[idx[~valid]])
    if stray > 1e-10:
        raise ValidationError(
            f"quword register is not a permutation on the support ({stray:.3g})"
        )

    parity = np.zeros(idx.size, dtype=bool)
    comparators = 0
    for layer in odd_even_network(m):
        for a, b in layer:
            comparators += 1
            fire = bvals[a] > bvals[b]
            for arr_pair in ((bvals, a, b), (pvals, a, b)):
                arrs, i, j = arr_pair
                tmp = arrs[i][fire].copy()
                arrs[i][fire] = arrs[j][fire]
                arrs[j][fire] = tmp
            parity ^= fire

    strip = idx.copy()
    for seg in (*b_segs, *p_segs):
        strip &= ~(seg.mask << seg.offset)
    dest = strip  # quwords land on the constant identity and are cleared
    for v, seg in zip(pvals, p_segs):
        dest = dest | (v << seg.offset)
    sign = np.ones(idx.size)
    if statistics == "fermionic":
        sign[parity] = -1.0
    amps = np.zeros_like(state.amplitudes)
    np.add.at(amps, dest[valid], (sign * state.amplitudes[idx])[valid])
    norm = np.linalg.norm(amps)
    if norm < 1e-12:
        raise ValidationError("symmetrization annihilated the state "
                              "(repeated fermionic orbital?)")
    counters = {
        "comparators": comparators,
        "swapped_qubits": comparators * l,
        "symmetrization_norm": float(norm),
    }
    return QuantumState(state.layout, amps / norm), counters


def antisymmetrize(
    state: QuantumState,
    b_segments: list[str],
    p_segments: list[str],
    statistics: str = "fermionic",
) -> tuple[QuantumState, dict]:
    """Full permutation-register pipeline: expand, map onto the symmetric
    group, sort into the particle registers.
    """
    m = len(p_segments)
    state = generate_permutation_superposition(state, b_segments, m)
    state = apply_rank_to_permutation(state, b_segments)
    return sort_and_entangle(state, b_segments, p_segments, statistics)


def _permutation_sign(perm: tuple[int, ...]) -> int:
    sign = 1
    seen = set()
    for start in range(len(perm)):
        if start in seen:
            continue
        cycle = 0
        j = start
        while j not in seen:
            seen.add(j)
            j = perm[j]
            cycle += 1
        if cycle % 2 == 0:
            sign = -sign
    return sign


def slater_oracle(
    occupation: OccupationVector, basis: BasisSet, l: int
) -> np.ndarray:
    """Independent ground truth: the determinant (fermions) or permanent
    (bosons) of grid-orthonormalized orbitals, evaluated by brute-force
    summation over all m! permutations.

    Returned as a flat vector over m particle registers, first register
    least significant.
    """
    occupied = occupation.occupied_indices()
    m = len(occupied)
    phi = basis.grid_matrix(l)
    cols = [phi[:, j] for j in occupied]
    total = None
    for perm in permutations(range(m)):
        factor = 1.0
        if occupation.statistics == "fermionic":
            factor = _permutation_sign(perm)
        # axes ordered (x_{m-1}, ..., x_0) so that ravel() puts register 0
        # in the least significant bits
        term = reduce(np.multiply.outer,
                      [cols[perm[b]] for b in reversed(range(m))])
        total = factor * term if total is None else total + factor * term
    norm = math.factorial(m)
    if occupation.statistics == "bosonic":
        norm *= occupation.multiplicity_factor()
    return np.ravel(total) / math.sqrt(norm)
