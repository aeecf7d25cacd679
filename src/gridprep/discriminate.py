"""Orbital identification by phase estimation on the Fock propagator and on
symmetry operators, enabling uncomputation of the occupation register.

Eigenphase convention: the estimated phase is the actual eigenphase of the
unitary handed to the estimator, i.e. theta = (-E t / 2pi) mod 1 for the
propagator exp(-i F t).  Lookup windows are half-open intervals of width
2^-n centered on each phase rounded to n bits (ties round up); a readout
falling in no window routes to the detect-and-retry path.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .basis import BasisSet
from .errors import DegeneracyError, StructuralError, ValidationError
from .statevec import MATRIX_TOL, QuantumState, apply_unitary_on_segment, \
    check_unitary, measure_segment, permute_basis, qft

#: Widest phase readout tried when separating orbitals by their phases.
MAX_PHASE_BITS = 16
#: Phases closer than this coincide (with each other, or with a dyadic).
PHASE_TOL = 1e-9


def extra_qubits_for(eps_pe: float) -> int:
    """Readout qubits beyond the resolving width needed for success
    probability >= 1 - eps_pe.
    """
    if not 0 < eps_pe < 1:
        raise ValidationError("eps_pe must lie in (0, 1)")
    return math.ceil(math.log2(2.0 + 1.0 / (2.0 * eps_pe)))


def misidentification_probability(p: int) -> float:
    if p < 2:
        raise ValidationError("at least 2 extra qubits are required")
    return 1.0 / (2.0 * (2**p - 2))


@dataclass(frozen=True)
class SymmetryOperator:
    """Grid symmetry acting as a site permutation.

    kind 'reflection' maps site j -> (N - j) mod N (eigenphases 0 and 1/2);
    kind 'cyclic-shift' maps j -> j - step mod N, so a plane wave of wave
    number k acquires phase k*step/N.
    """

    kind: str
    step: int = 1

    def __post_init__(self):
        if self.kind not in ("reflection", "cyclic-shift"):
            raise ValidationError(f"unknown symmetry kind {self.kind!r}")

    def unitary(self, l: int) -> np.ndarray:
        n = 1 << l
        u = np.zeros((n, n))
        src = np.arange(n)
        if self.kind == "reflection":
            dst = (-src) % n
        else:
            dst = (src - self.step) % n
        u[dst, src] = 1.0
        return u

    def eigenphase(self, vector: np.ndarray) -> float:
        """Eigenphase of an eigenvector, in [0, 1); raises if the vector is
        not an eigenstate of the permutation.
        """
        l = int(np.log2(vector.size))
        image = self.unitary(l) @ vector
        overlap = np.vdot(vector, image)
        if abs(abs(overlap) - 1.0) > 1e-8:
            raise ValidationError(
                "vector is not an eigenstate of the symmetry operator "
                f"(|overlap| = {abs(overlap):.6f})"
            )
        ph = float(np.angle(overlap) / (2 * np.pi) % 1.0)
        return 0.0 if ph > 1.0 - PHASE_TOL else ph

    def commutes_with(self, matrix: np.ndarray) -> bool:
        l = int(np.log2(matrix.shape[0]))
        u = self.unitary(l)
        scale = max(np.max(np.abs(matrix)), 1.0)
        return np.max(np.abs(u @ matrix - matrix @ u)) <= MATRIX_TOL * scale


def _round_half_up(x: np.ndarray) -> np.ndarray:
    return np.floor(x + 0.5)


def _circular_distance(a, b):
    d = np.abs(a - b) % 1.0
    return np.minimum(d, 1.0 - d)


def _resolving_bits(phases: np.ndarray, groups) -> int | None:
    """Smallest n at which rounding to n bits separates every group that
    must be separated (groups: iterable of index collections whose members
    carry identical secondary keys).  None if no n <= MAX_PHASE_BITS works.
    """
    for n in range(1, MAX_PHASE_BITS + 1):
        keys = _round_half_up(phases * (1 << n)).astype(int) % (1 << n)
        ok = True
        for grp in groups:
            if len(set(keys[list(grp)])) != len(grp):
                ok = False
                break
        if ok:
            return n
    return None


def _snap_to_exact(phases: np.ndarray, n0: int) -> int:
    """Widen n0 to the smallest n <= MAX_PHASE_BITS at which every phase is
    an exact n-bit dyadic, so the estimator reads it out deterministically;
    n0 itself if no such n exists (irrational phases).
    """
    for n in range(n0, MAX_PHASE_BITS + 1):
        scaled = phases * (1 << n)
        if np.max(np.abs(scaled - np.round(scaled))) < PHASE_TOL:
            return n
    return n0


@dataclass
class PhaseEstimationConfig:
    """Readout widths, evolution time, and the phase->orbital lookup: the
    orbital index per (energy readout, symmetry readout), -1 if ambiguous.
    """

    basis: BasisSet
    l: int
    t: float
    eps_pe: float | None
    p: int
    n_energy: int
    thetas: np.ndarray
    lookup: np.ndarray = field(repr=False)
    symmetry: SymmetryOperator | None = None
    n_sym: int = 0
    sym_phases: np.ndarray | None = None

    @property
    def q(self) -> int:
        return self.n_energy + self.p

    @property
    def q_sym(self) -> int:
        return self.n_sym + self.p if self.symmetry is not None else 0

    @classmethod
    def build(
        cls,
        basis: BasisSet,
        l: int,
        t: float | None = None,
        eps_pe: float | None = None,
        symmetry: SymmetryOperator | None = None,
    ) -> "PhaseEstimationConfig":
        energies = basis.energies
        if t is None:
            t = 2 * np.pi * 0.9 / (np.max(np.abs(energies)) + 1.0)
        thetas = (-energies * t / (2 * np.pi)) % 1.0
        p = extra_qubits_for(eps_pe) if eps_pe is not None else 0

        sym_phases = None
        n_sym = 0
        if symmetry is not None:
            fock = basis.fock_matrix(l)
            if not symmetry.commutes_with(fock):
                raise ValidationError(
                    "symmetry operator does not commute with the Fock matrix"
                )
            phi = basis.grid_matrix(l)
            sym_phases = np.array(
                [symmetry.eigenphase(phi[:, j]) for j in range(basis.size)]
            )
            # symmetry must split every cluster of coinciding energy phases
            n_sym = _resolving_bits(sym_phases, _phase_clusters(thetas))
            if n_sym is None:
                raise DegeneracyError(
                    "symmetry eigenphases do not separate the degenerate "
                    "orbitals"
                )
            n_sym = _snap_to_exact(sym_phases, n_sym)

        sym_keys = (
            _round_half_up(sym_phases * (1 << n_sym)).astype(int)
            if sym_phases is not None
            else np.zeros(basis.size, dtype=int)
        )
        groups: dict[int, list[int]] = {}
        for i, key in enumerate(sym_keys):
            groups.setdefault(int(key), []).append(i)
        n_energy = _resolving_bits(thetas, groups.values())
        if n_energy is None:
            collisions = _phase_clusters(thetas)
            raise DegeneracyError(
                "energy phases collide and cannot be separated"
                + ("" if symmetry is not None else
                   " without a symmetry readout")
                + f": orbital groups {collisions} at energies "
                + f"{[list(np.round(energies[list(g)], 6)) for g in collisions]}"
            )
        n_energy = _snap_to_exact(thetas, n_energy)

        in_e = _windows(thetas, n_energy, n_energy + p)
        in_s = (_windows(sym_phases, n_sym, n_sym + p)
                if symmetry is not None
                else np.ones((basis.size, 1), dtype=bool))
        lookup = np.full((in_e.shape[1], in_s.shape[1]), -1, dtype=np.int64)
        claimed = np.zeros_like(lookup, dtype=bool)
        for i in range(basis.size):
            cell = np.outer(in_e[i], in_s[i])
            if np.any(claimed & cell):
                raise DegeneracyError(
                    f"lookup window of orbital {i} overlaps another window"
                )
            claimed |= cell
            lookup[cell] = i
        return cls(basis=basis, l=l, t=float(t), eps_pe=eps_pe, p=p,
                   n_energy=n_energy, thetas=thetas, lookup=lookup,
                   symmetry=symmetry, n_sym=n_sym, sym_phases=sym_phases)


def _windows(phases: np.ndarray, n: int, width: int) -> np.ndarray:
    """(orbital, readout) mask: readout k / 2^width lies in the half-open
    window of width 2^-n centered on the orbital's phase rounded to n bits.
    """
    scale = 1 << n
    centers = (_round_half_up(phases * scale) % scale) / scale
    d = (np.arange(1 << width) / (1 << width) - centers[:, None]) % 1.0
    half = 0.5 / scale
    return (d < half) | (d >= 1.0 - half)


def _phase_clusters(phases: np.ndarray):
    """Groups (size >= 2) of orbital indices whose phases coincide within
    PHASE_TOL.
    """
    clusters: list[list[int]] = []
    for i, th in enumerate(phases):
        for grp in clusters:
            if _circular_distance(th, phases[grp[0]]) < PHASE_TOL:
                grp.append(i)
                break
        else:
            clusters.append([i])
    return [g for g in clusters if len(g) > 1]


def _unitary_powers(u: np.ndarray, q: int) -> list[np.ndarray]:
    """[u, u^2, u^4, ...] by repeated squaring, q entries."""
    powers = [np.asarray(u, dtype=np.complex128)]
    for _ in range(q - 1):
        powers.append(powers[-1] @ powers[-1])
    return powers


def phase_estimate(
    state: QuantumState,
    readout_segment: str,
    target_segment: str,
    u: np.ndarray,
    adjoint: bool = False,
) -> QuantumState:
    """Textbook phase estimation of `u` acting on the target segment, with
    the result written into (or, with adjoint=True, erased from) the
    readout segment.

    Forward circuit: QFT on the readout (uniformizes |0..0>), controlled
    u^(2^j) off readout qubit j, inverse QFT.  The adjoint is the same
    sandwich with u replaced by its inverse, since QFT and inverse QFT
    swap roles under conjugation.
    """
    readout = state.layout.segment(readout_segment)
    u = check_unitary(u)
    if adjoint:
        u = u.conj().T
    state = qft(state, readout_segment)
    for j, power in enumerate(_unitary_powers(u, readout.width)):
        state = apply_unitary_on_segment(
            state, target_segment, power,
            controls=[(readout.offset + j, 1)],
        )
    return qft(state, readout_segment, inverse=True)


@dataclass
class IdentificationRecord:
    """Diagnostics from one identify-and-decrement pass."""

    orbital_mass: np.ndarray
    ambiguous_mass: float
    readout_outcome: int = 0
    sym_readout_outcome: int = 0

    @property
    def leaked(self) -> bool:
        return self.readout_outcome != 0 or self.sym_readout_outcome != 0


def _decrement_fock(
    state: QuantumState,
    config: PhaseEstimationConfig,
    fock_segment: str,
    readout_segment: str,
    sym_readout_segment: str | None,
    counter_width: int,
) -> tuple[QuantumState, np.ndarray, float]:
    """Relabeling permutation: on branches whose readout(s) land in orbital
    i's window, remove one quantum of orbital i from the occupation
    register, a modular decrement of its counter (a bit flip when the
    counter is one bit wide, as for fermions).  Branches with an ambiguous
    readout are left untouched.
    """
    layout = state.layout
    idx = np.arange(layout.dim)
    rvals = layout.values(readout_segment, idx)
    if sym_readout_segment is not None:
        svals = layout.values(sym_readout_segment, idx)
    else:
        svals = np.zeros_like(idx)
    orb = config.lookup[rvals, svals]

    weights = np.abs(state.amplitudes) ** 2
    mass = np.bincount(orb + 1, weights=weights,
                       minlength=config.basis.size + 1)
    ambiguous_mass = float(mass[0])
    orbital_mass = mass[1:]

    fvals = layout.values(fock_segment, idx)
    cmask = (1 << counter_width) - 1
    shift = np.maximum(orb, 0) * counter_width
    v_new = (((fvals >> shift) & cmask) - 1) & cmask
    new_f = np.where(
        orb >= 0,
        (fvals & ~(cmask << shift)) | (v_new << shift),
        fvals,
    )
    dest = layout.with_values(idx, {fock_segment: new_f})
    return permute_basis(state, dest), orbital_mass, ambiguous_mass


def _measured_reset(state: QuantumState, segment: str, rng):
    """Measure a segment, then relabel the outcome branch back to |0>.

    The relabeling after collapse is the classically-controlled bit flip
    pattern that recycles an (ideally already blank) readout register; a
    nonzero outcome flags imperfect uncomputation upstream.
    """
    seg = state.layout.segment(segment)
    outcome, state = measure_segment(state, segment, rng)
    if outcome != 0:
        state = permute_basis(
            state, np.arange(state.layout.dim) ^ (outcome << seg.offset))
    return outcome, state


def identify_and_decrement(
    state: QuantumState,
    config: PhaseEstimationConfig,
    fock_segment: str,
    particle_segment: str,
    readout_segment: str,
    sym_readout_segment: str | None = None,
    counter_width: int = 1,
    rng=None,
) -> tuple[QuantumState, IdentificationRecord]:
    """One pass of the disentangling step for a single particle register:
    phase-estimate which orbital the register holds, remove that orbital's
    quantum from the occupation register, undo the estimation, and recycle
    the readout(s) by measured reset.  The occupation register holds one
    `counter_width`-bit counter per orbital.
    """
    readout = state.layout.segment(readout_segment)
    if readout.width != config.q:
        raise StructuralError(
            f"readout segment width {readout.width} != configured q={config.q}"
        )
    if (sym_readout_segment is None) != (config.symmetry is None):
        raise StructuralError(
            "symmetry readout segment must be supplied exactly when the "
            "configuration carries a symmetry operator"
        )
    if rng is None or isinstance(rng, (int, np.integer)):
        rng = np.random.default_rng(rng)

    u = config.basis.fock_unitary(config.l, config.t)
    state = phase_estimate(state, readout_segment, particle_segment, u)
    if sym_readout_segment is not None:
        u_s = config.symmetry.unitary(config.l)
        state = phase_estimate(state, sym_readout_segment, particle_segment,
                               u_s)

    state, orbital_mass, ambiguous_mass = _decrement_fock(
        state, config, fock_segment, readout_segment, sym_readout_segment,
        counter_width,
    )

    if sym_readout_segment is not None:
        state = phase_estimate(state, sym_readout_segment, particle_segment,
                               u_s, adjoint=True)
    state = phase_estimate(state, readout_segment, particle_segment, u,
                           adjoint=True)

    outcome, state = _measured_reset(state, readout_segment, rng)
    sym_outcome = 0
    if sym_readout_segment is not None:
        sym_outcome, state = _measured_reset(state, sym_readout_segment, rng)
    record = IdentificationRecord(
        orbital_mass=orbital_mass,
        ambiguous_mass=ambiguous_mass,
        readout_outcome=outcome,
        sym_readout_outcome=sym_outcome,
    )
    return state, record


def verify_uncomputation(
    state: QuantumState, fock_segment: str, rng
) -> tuple[bool, int, QuantumState]:
    """Measure the occupation register; success means it collapsed to zero
    (fully disentangled).  The collapsed state is returned either way so a
    driver can retry on failure.
    """
    outcome, state = measure_segment(state, fock_segment, rng)
    return outcome == 0, outcome, state
