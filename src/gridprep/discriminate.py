"""Orbital identification by phase estimation on the Fock propagator and on
symmetry operators, enabling uncomputation of the occupation register,
whose counter format (`fock_encode`) is defined here next to the decrement.

Phase estimation is emulated in closed form.  For u = sum_j e^{2 pi i
theta_j} |v_j><v_j| the textbook circuit (Cleve, Ekert, Macchiavello and
Mosca, Proc. R. Soc. A 454, 339 (1998)) acts as sum_j |v_j><v_j| (x)
QFT^-1 diag(e^{2 pi i theta_j k}) QFT, so `PhaseEstimationConfig.build`
takes each readout unitary's complex Schur form u = V T V^dagger once (T
must be diagonal with unit-modulus entries to MATRIX_TOL, which checks
unitarity), and `phase_estimate` applies V^dagger, FFTs and V.

Eigenphase convention: the estimated phase is the actual eigenphase of the
unitary handed to the estimator, i.e. theta = (-E t / 2pi) mod 1 for the
propagator exp(-i F t).  Lookup windows are half-open intervals of width
2^-n centered on each phase rounded to n bits (ties round up); a readout
falling in no window routes to the detect-and-retry path.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import reduce

import numpy as np
from scipy.linalg import schur

from .assemble import OccupationVector
from .basis import BasisSet
from .errors import DegeneracyError, StructuralError, ValidationError
from .statevec import MATRIX_TOL, QuantumState, apply_unitary_on_segment, \
    measure_segment, qft, relabel, segment_masses

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
    """Readouts and the readout->orbital lookup.

    Each readout is (segment name, width, eigenvectors, eigenphases), the
    eigenbasis of a unitary from `unitary_eigenbasis`: phase estimation of
    the unitary on a particle register writes its eigenphase into that
    segment.  The energy readout estimates exp(-i F t); a symmetry readout,
    present when a grid symmetry is given, splits degenerate levels.
    `lookup` has one axis per readout and holds the orbital index of each
    tuple of readout values, -1 if ambiguous.
    """

    basis: BasisSet
    l: int
    p: int
    n_energy: int
    thetas: np.ndarray
    readouts: tuple[tuple, ...] = field(repr=False)
    lookup: np.ndarray = field(repr=False)

    @property
    def q(self) -> int:
        return self.n_energy + self.p

    def segments(self) -> list[tuple[str, str, int]]:
        """Layout segments of the readouts, in readout order."""
        return [(name, "readout", width) for name, width, *_ in self.readouts]

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

        sym_keys = np.zeros(basis.size, dtype=int)
        sym_readouts, sym_windows = [], []
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
            sym_keys = _round_half_up(sym_phases * (1 << n_sym)).astype(int)
            sym_readouts = [("symread", n_sym + p,
                             *unitary_eigenbasis(symmetry.unitary(l)))]
            sym_windows = [_windows(sym_phases, n_sym, n_sym + p)]

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

        readouts = [("readout", n_energy + p, *unitary_eigenbasis(
            basis.fock_unitary(l, float(t))))] + sym_readouts
        windows = [_windows(thetas, n_energy, n_energy + p)] + sym_windows
        lookup = np.full([w.shape[1] for w in windows], -1, dtype=np.int64)
        claimed = np.zeros(lookup.shape, dtype=bool)
        for i in range(basis.size):
            cell = reduce(np.multiply.outer, [w[i] for w in windows])
            if np.any(claimed & cell):
                raise DegeneracyError(
                    f"lookup window of orbital {i} overlaps another window"
                )
            claimed |= cell
            lookup[cell] = i
        return cls(basis=basis, l=l, p=p, n_energy=n_energy, thetas=thetas,
                   readouts=tuple(readouts), lookup=lookup)


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


def unitary_eigenbasis(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvectors (columns of a unitary V) and eigenphases in [0, 1) of
    u = V diag(e^{2 pi i theta}) V^dagger, from the complex Schur form
    u = V T V^dagger.  Raises ValidationError unless u is unitary: T off
    its diagonal within MATRIX_TOL of 0 and |diag T| within MATRIX_TOL of 1.
    """
    u = np.asarray(u, dtype=np.complex128)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValidationError("matrix must be square")
    t, vectors = schur(u, output="complex")
    angles = np.angle(np.diag(t))
    if np.max(np.abs(t - np.diag(np.exp(1j * angles)))) > MATRIX_TOL:
        raise ValidationError("matrix is not unitary")
    return vectors, angles / (2 * np.pi) % 1.0


def phase_estimate(
    state: QuantumState,
    readout_segment: str,
    target_segment: str,
    vectors: np.ndarray,
    phases: np.ndarray,
    adjoint: bool = False,
) -> QuantumState:
    """Phase estimation of u = sum_j e^{2 pi i phases[j]} |v_j><v_j| (v_j
    the columns of `vectors`, from `unitary_eigenbasis`) on the target,
    writing the phase into (adjoint: erasing it from) the readout.

    The circuit (QFT on the readout, u^(2^b) controlled by readout qubit b,
    inverse QFT) is sum_j |v_j><v_j| (x) QFT^-1 diag(e^{2 pi i theta_j k})
    QFT, applied as V^dagger on the target, QFT, e^{+-2 pi i theta_j k} on
    each (readout k, eigenvector j) amplitude, inverse QFT, and V.  Readout
    and target are distinct segments, in either order.
    """
    readout = state.layout.segment(readout_segment)
    target = state.layout.segment(target_segment)
    if readout == target or np.shape(phases) != (target.dim,):
        raise StructuralError("phase estimation needs a readout segment "
                              "apart from the target and one phase per "
                              "target basis state")
    state = qft(apply_unitary_on_segment(
        state, target_segment, np.conj(vectors).T), readout_segment)
    kick = np.exp((-2j if adjoint else 2j) * np.pi
                  * np.outer(np.arange(readout.dim), phases))
    lo, hi = sorted((readout, target), key=lambda s: s.offset)
    view = state.amplitudes.reshape(
        -1, hi.dim, 1 << (hi.offset - lo.offset - lo.width), lo.dim,
        1 << lo.offset)
    view *= (kick if hi == readout else kick.T)[:, None, :, None]
    return apply_unitary_on_segment(
        qft(state, readout_segment, inverse=True), target_segment, vectors)


@dataclass
class IdentificationRecord:
    """Diagnostics from one identify-and-decrement pass, with the outcome
    of each readout's measured reset, in readout order.
    """

    orbital_mass: np.ndarray
    ambiguous_mass: float
    readout_outcomes: tuple[int, ...]

    @property
    def leaked(self) -> bool:
        return any(self.readout_outcomes)


def boson_counter_width(max_count: int) -> int:
    """Bits per orbital counter; must hold counts 0..max_count.  Fermion
    counts never exceed 1, so their counters are single bits.
    """
    return max(1, math.ceil(math.log2(max_count + 1)))


def fock_encode(occupation: OccupationVector, counter_width: int = 1) -> int:
    """Occupation register value: one `counter_width`-bit counter per
    orbital, packed little-endian (one bit per orbital for fermions).
    """
    cap = (1 << counter_width) - 1
    code = 0
    for i, v in enumerate(occupation.n):
        if v > cap:
            raise ValidationError(
                f"count {v} exceeds the {counter_width}-bit counter"
            )
        code |= v << (i * counter_width)
    return code


def _decrement_fock(
    state: QuantumState,
    config: PhaseEstimationConfig,
    fock_segment: str,
    counter_width: int,
) -> tuple[QuantumState, np.ndarray, float]:
    """Relabeling permutation: on branches whose readouts land in orbital
    i's window, remove one quantum of orbital i from the occupation
    register, a modular decrement of its counter (a bit flip when the
    counter is one bit wide, as for fermions).  Branches with an ambiguous
    readout, or one naming an orbital the register has no counter for,
    are left untouched.  One table over the joint value of (readouts...,
    occupation register) drives the relabel, and the orbital and ambiguous
    masses sum the readouts' joint masses by lookup cell.
    """
    names = [name for name, *_ in config.readouts]
    fock = state.layout.segment(fock_segment)
    # transposed, the lookup ravels first readout least significant
    cells = np.where(config.lookup < fock.width // counter_width,
                     config.lookup, -1).T.ravel()
    mass = np.bincount(cells + 1, weights=segment_masses(state, names),
                       minlength=config.basis.size + 1)
    fvals, readouts = np.divmod(np.arange(cells.size * fock.dim), cells.size)
    orb = cells[readouts]
    shift, cmask = np.maximum(orb, 0) * counter_width, (1 << counter_width) - 1
    count = (fvals >> shift) & cmask
    flip = np.where(orb >= 0, count ^ ((count - 1) & cmask), 0) << shift
    state = relabel(state, names + [fock_segment],
                    readouts + (fvals ^ flip) * cells.size)
    return state, mass[1:], float(mass[0])


def identify_and_decrement(
    state: QuantumState,
    config: PhaseEstimationConfig,
    fock_segment: str,
    particle_segment: str,
    rng: np.random.Generator,
    counter_width: int = 1,
) -> tuple[QuantumState, IdentificationRecord]:
    """One pass of the disentangling step for a single particle register:
    phase-estimate which orbital the register holds, remove that orbital's
    quantum from the occupation register, undo the estimation, and recycle
    the readouts by measured reset, drawing outcomes from the numpy
    Generator `rng`.  The layout must hold each of the config's readout
    segments; the occupation register holds one `counter_width`-bit
    counter per orbital.
    """
    for name, width, *_ in config.readouts:
        if state.layout.segment(name).width != width:
            raise StructuralError(
                f"readout segment {name!r} is not {width} qubits wide")

    for name, _, *basis in config.readouts:
        state = phase_estimate(state, name, particle_segment, *basis)
    state, orbital_mass, ambiguous_mass = _decrement_fock(
        state, config, fock_segment, counter_width)
    for name, _, *basis in reversed(config.readouts):
        state = phase_estimate(state, name, particle_segment, *basis,
                               adjoint=True)

    # recycle each readout by measured reset; a nonzero outcome flags
    # imperfect uncomputation upstream
    outcomes = []
    for name, *_ in config.readouts:
        outcome, state = measure_segment(state, name, rng)
        if outcome:
            state = relabel(state, [name], np.arange(
                state.layout.segment(name).dim) ^ outcome)
        outcomes.append(outcome)
    return state, IdentificationRecord(orbital_mass, ambiguous_mass,
                                       tuple(outcomes))


def verify_uncomputation(
    state: QuantumState, fock_segment: str, rng
) -> tuple[bool, int, QuantumState]:
    """Measure the occupation register; success means it collapsed to zero
    (fully disentangled).  The collapsed state is returned either way so a
    driver can retry on failure.
    """
    outcome, state = measure_segment(state, fock_segment, rng)
    return outcome == 0, outcome, state
