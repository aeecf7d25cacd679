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
from .statevec import BLANK_TOL, QuantumState, SparseState


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
        try:
            n = tuple(int(v) for v in
                      (text.split(",") if "," in text else text))
        except ValueError:
            raise ValidationError(
                f"occupation {text!r} is neither a bitstring nor a "
                "comma-separated count list") from None
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
    support: SparseState, b_segments: list[str], m: int
) -> SparseState:
    """Expand blank quwords into the uniform superposition of all m!
    mixed-radix tuples, amplitude 1/sqrt(m!) each (values stored 0-based).

    Works on the populated amplitudes only, with the bytes of the dense
    circuit step `amps[index | shift] += base` per tuple on a zero vector:
    when sub-tolerance junk in the quwords makes two indices of one tuple
    meet, the later one overwrites, and the tuples that meet at one index
    add up in tuple order.
    """
    if len(b_segments) != m:
        raise StructuralError("one quword per particle is required")
    layout = support.layout
    for name in b_segments:
        off = support.values[layout.values(name, support.index) != 0]
        if np.vdot(off, off).real > BLANK_TOL * BLANK_TOL:
            raise ValidationError(f"quword {name!r} must be blank")
    if m == 1:
        return support
    shifts = np.array([layout.with_values(0, dict(zip(b_segments, digits)))
                       for digits in product(*[range(m - i)
                                               for i in range(m)])])
    nonzero = support.values != 0
    index = support.index[nonzero]
    base = support.values[nonzero] / math.sqrt(math.factorial(m))
    dest = (shifts[:, None] | index[None, :]).ravel()
    order = np.argsort(dest, kind="stable")
    dest = dest[order]
    tuple_of, source = np.divmod(order, max(index.size, 1))
    # of equal indices within one tuple only the last is written; the
    # writes left at one index then add up, from +0.0, in tuple order
    last = np.ones(dest.size, dtype=bool)
    last[:-1] = (dest[1:] != dest[:-1]) | (tuple_of[1:] != tuple_of[:-1])
    dest, source = dest[last], source[last]
    first = np.ones(dest.size, dtype=bool)
    first[1:] = dest[1:] != dest[:-1]
    acc = np.zeros(np.count_nonzero(first), dtype=np.complex128)
    np.add.at(acc, np.cumsum(first) - 1, base[source])
    return SparseState(layout, dest[first], acc)


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
    support: SparseState, b_segments: list[str]
) -> SparseState:
    """Rewrite the quword register branch-wise from mixed-radix tuples to
    0-based permutation entries.
    """
    m = len(b_segments)
    if m == 1:
        return support
    layout = support.layout
    nonzero = support.values != 0
    idx, amps = support.index[nonzero], support.values[nonzero]
    vals = [layout.values(name, idx) for name in b_segments]
    valid = np.ones(idx.size, dtype=bool)
    for i, v in enumerate(vals):
        valid &= v < (m - i)
    stray = np.linalg.norm(amps[~valid])
    if stray > 1e-10:
        raise ValidationError(
            f"quword register holds amplitude outside the tuple range ({stray:.3g})"
        )
    # combined-quword lookup: tuple code -> permutation code (0-based entries)
    w = layout.segment(b_segments[0]).width
    table = np.full(1 << (m * w), -1, dtype=np.int64)
    for digits in product(*[range(m - i) for i in range(m)]):
        code = sum(d << (i * w) for i, d in enumerate(digits))
        perm = rank_to_permutation(tuple(d + 1 for d in digits))
        table[code] = sum((p - 1) << (i * w) for i, p in enumerate(perm))
    combined = np.zeros(idx.size, dtype=np.int64)
    for i, v in enumerate(vals):
        combined |= v.astype(np.int64) << (i * w)
    mapped = table[combined]
    dest = layout.with_values(idx, {
        name: (mapped >> (i * w)) & ((1 << w) - 1)
        for i, name in enumerate(b_segments)})[valid]
    order = np.argsort(dest, kind="stable")
    return SparseState(layout, dest[order], amps[valid][order])


def odd_even_network(m: int) -> list[list[tuple[int, int]]]:
    """Fixed, data-oblivious odd-even transposition schedule on m lanes."""
    return [
        [(i, i + 1) for i in range((r % 2), m - 1, 2)]
        for r in range(m)
    ]


def sort_and_entangle(
    support: SparseState,
    b_segments: list[str],
    p_segments: list[str],
    statistics: str,
) -> tuple[QuantumState, dict]:
    """Sort the quword register with the fixed network, performing the same
    conditional swaps on the particle registers; apply (-1)^parity for
    fermions; uncompute the (now constant) quword register to zero and
    renormalize.  The signed amplitudes accumulate into a dense zero vector
    in ascending order of their source index, and the norm is that
    vector's.

    Returns the state and a counter dict (comparators, swap cost).
    """
    if statistics not in ("fermionic", "bosonic"):
        raise ValidationError(f"unknown statistics {statistics!r}")
    m = len(b_segments)
    if len(p_segments) != m:
        raise StructuralError("need one quword per particle register")
    if m == 1:
        return support.to_state(), {"comparators": 0, "swapped_qubits": 0}
    layout = support.layout
    l = layout.segment(p_segments[0]).width

    nonzero = support.values != 0
    idx, values = support.index[nonzero], support.values[nonzero]
    bvals = [layout.values(n, idx) for n in b_segments]
    pvals = [layout.values(n, idx) for n in p_segments]

    # a permutation sets each of the bits 0..m-1 once, and no other bit
    seen = np.zeros(idx.size, dtype=np.int64)
    for v in bvals:
        seen |= np.left_shift(1, v)
    valid = seen == (1 << m) - 1
    stray = np.linalg.norm(values[~valid])
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
            for arrs in (bvals, pvals):
                arrs[a], arrs[b] = (np.where(fire, arrs[b], arrs[a]),
                                    np.where(fire, arrs[a], arrs[b]))
            parity ^= fire

    # quwords land on the constant identity and are cleared
    dest = layout.with_values(idx, {**dict.fromkeys(b_segments, 0),
                                    **dict(zip(p_segments, pvals))})
    sign = np.ones(idx.size)
    if statistics == "fermionic":
        sign[parity] = -1.0
    dest = dest[valid]
    amps = np.zeros(layout.dim, dtype=np.complex128)
    np.add.at(amps, dest, (sign * values)[valid])
    norm = np.linalg.norm(amps)
    if norm < 1e-12:
        raise ValidationError("symmetrization annihilated the state "
                              "(repeated fermionic orbital?)")
    # amps / norm where add.at wrote; elsewhere +0.0 / norm is +0.0 already
    amps[dest] = amps[dest] / norm
    counters = {
        "comparators": comparators,
        "swapped_qubits": comparators * l,
        "symmetrization_norm": float(norm),
    }
    return QuantumState(layout, amps), counters


def antisymmetrize(
    support: SparseState,
    b_segments: list[str],
    p_segments: list[str],
    statistics: str,
) -> tuple[QuantumState, dict]:
    """Full permutation-register pipeline on a state's populated
    amplitudes: expand, map onto the symmetric group, sort into the
    particle registers.  With one particle the stages only check their
    inputs, and the state comes back as `support.to_state()`, signed zeros
    included.
    """
    support = generate_permutation_superposition(support, b_segments,
                                                 len(p_segments))
    support = apply_rank_to_permutation(support, b_segments)
    return sort_and_entangle(support, b_segments, p_segments, statistics)


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
