"""Orbital identification by phase estimation on the Fock propagator and on
symmetry operators, enabling uncomputation of the occupation register,
whose counter format (`fock_encode`) is defined here next to the decrement.

Phase estimation is emulated in closed form.  The textbook circuit
(Cleve, Ekert, Macchiavello and Mosca, Proc. R. Soc. A 454, 339 (1998))
is u^k on the particle register wherever the readout holds k, between a
QFT and its inverse; both readouts have u^k in closed form (see
`phase_estimate`), so no eigendecomposition is taken.  Without a symmetry
readout, the energy readout's estimation, the decrement, the adjoint and
the measured reset together are one Kraus map on the state (`_instrument`
builds it once per config, `_kraus_pass` applies it), so the state holds
no readout; with one, every readout is a register of the state.

Eigenphase convention: the estimated phase is the actual eigenphase of the
unitary handed to the estimator, i.e. theta = (-E t / 2pi) mod 1 for the
propagator exp(-i F t).  An orbital's key in a readout is its phase
rounded to n bits (ties round up), an n-bit integer.  A readout value k
of n + p bits reads the key floor(k / 2^p + 1/2) mod 2^n, so k / 2^(n+p)
lies in the half-open interval of width 2^-n centred on the key / 2^n it
reads.  Readout values whose keys no orbital holds route to the
detect-and-retry path.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .assemble import OccupationVector
from .basis import BasisSet
from .errors import DegeneracyError, ImpossibleOutcomeError, \
    StructuralError, ValidationError
from .statevec import MATRIX_TOL, QuantumState, measure_segment, qft, \
    relabel, segment_masses, segment_view

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

    def sites(self, l: int) -> np.ndarray:
        """The image of each of the 2^l sites: P|x> = |sites[x]>."""
        x = np.arange(1 << l)
        return (-x if self.kind == "reflection" else x - self.step) % (1 << l)

    def eigenphase(self, vector: np.ndarray) -> float:
        """Eigenphase of an eigenvector, in [0, 1); raises if the vector is
        not an eigenstate of the permutation.
        """
        # <v|P|v> = sum_x conj(v[sites[x]]) v[x]
        overlap = np.vdot(vector[self.sites(int(np.log2(vector.size)))],
                          vector)
        if abs(abs(overlap) - 1.0) > 1e-8:
            raise ValidationError(
                "vector is not an eigenstate of the symmetry operator "
                f"(|overlap| = {abs(overlap):.6f})"
            )
        ph = float(np.angle(overlap) / (2 * np.pi) % 1.0)
        return 0.0 if ph > 1.0 - PHASE_TOL else ph


def _keys(phases: np.ndarray, n: int) -> np.ndarray:
    """Each phase rounded to n bits (ties round up), as an n-bit integer."""
    return np.floor(phases * (1 << n) + 0.5).astype(np.int64) % (1 << n)


def _readout_bits(phases: np.ndarray, groups) -> int | None:
    """Smallest n <= MAX_PHASE_BITS at which every group (a list of orbital
    indices) holds distinct keys; None if no n separates the groups.  Exact
    phases are read at their own width (`_exact_bits`), which is never
    narrower: a group's phases distinct at it hold distinct keys there.
    """
    for n in range(1, MAX_PHASE_BITS + 1):
        keys = _keys(phases, n)
        if all(len(set(keys[g])) == len(g) for g in groups):
            return n
    return None


def _exact_bits(phases: np.ndarray, eps_pe: float | None) -> int | None:
    """Smallest n <= MAX_PHASE_BITS at which every phase is an exact n-bit
    dyadic, so the estimator reads it out deterministically; None for
    irrational phases.  Without eps_pe those raise a ValidationError naming
    eps_pe, as no error bound covers their misread.
    """
    scaled = phases * (1 << np.arange(1, MAX_PHASE_BITS + 1))[:, None]
    exact = np.max(np.abs(scaled - np.round(scaled)), axis=1) < PHASE_TOL
    if exact.any():
        return 1 + int(exact.argmax())
    if eps_pe is None:
        raise ValidationError(
            f"eps_pe: phases {np.round(phases, 6).tolist()} are not exact "
            "dyadics; a misread of them is bounded only with eps_pe")
    return None


def energy_phases(energies: np.ndarray, t: float | None = None,
                  eps_pe: float | None = None) -> np.ndarray:
    """The energy readout's phases (-E t / 2pi) mod 1, by default at
    t = 2pi 0.9 / (max|E| + 1).  They do not depend on l, and without
    eps_pe they must be exact (see `_exact_bits`).
    """
    return _energy_readout(energies, t, eps_pe)[0]


def _energy_readout(energies: np.ndarray, t: float | None,
                    eps_pe: float | None) -> tuple[np.ndarray, int | None]:
    """`energy_phases` and the width at which they are exact."""
    if t is None:
        t = 2 * np.pi * 0.9 / (np.max(np.abs(energies)) + 1.0)
    phases = (-energies * t / (2 * np.pi)) % 1.0
    return phases, _exact_bits(phases, eps_pe)


def _instrument(phases: np.ndarray, lookup: np.ndarray,
                size: int) -> tuple[np.ndarray, np.ndarray]:
    """The energy readout's estimation, decrement, adjoint estimation and
    measured reset as a Kraus instrument (Nielsen and Chuang, ch. 8), for
    readout values k that name orbital lookup[k] (-1: none).

    Eigencomponent j reads k with amplitude w_j[k], w_j = fft(e^{2 pi i
    theta_j k}) / 2^q, the first column of the circulant W_j[k, r] =
    w_j[(k - r) mod 2^q] that the estimation applies to the readout.
    Returns C with C[j, r, 1 + o] = sum over k naming o of conj(W_j[k, r])
    w_j[k], the amplitude with which j reads r after the decrement of
    orbital o (a correlation, taken by one FFT pair), and the Fejer masses
    P[j, 1 + o] = sum over k naming o of |w_j[k]|^2 (Cleve et al. 1998).
    Raises StructuralError unless the instrument is complete within 1e-12:
    sum_r conj(C[j, r, o]) C[j, r, o'] = delta_oo' P[j, o] and
    sum_o P[j, o] = 1.
    """
    kick = np.exp(2j * np.pi * np.outer(phases, np.arange(lookup.size)))
    w = np.fft.fft(kick, axis=1) / lookup.size
    kept = w[:, None, :] * (np.arange(size + 1)[:, None] == lookup + 1)
    kraus = np.moveaxis(np.fft.fft(np.fft.ifft(kept, axis=2)
                                   * kick.conj()[:, None, :], axis=2), 1, 2)
    parts = kept[..., None].view(np.float64)
    masses = np.einsum("jokz,jokz->jo", parts, parts)
    gram = np.einsum("jro,jrp->jop", kraus.conj(), kraus)
    gram[:, np.arange(size + 1), np.arange(size + 1)] -= masses
    if not (np.all(np.abs(gram) <= 1e-12)  # NaN fails too
            and np.all(np.abs(masses.sum(axis=1) - 1.0) <= 1e-12)):
        raise StructuralError("the energy readout's Kraus instrument is "
                              "not complete")
    return kraus, masses


@dataclass
class PhaseEstimationConfig:
    """Readouts and the readout->orbital lookup.

    Each readout is (segment name, width, u): phase estimation of u on a
    particle register writes its eigenphase into that segment.  The energy
    readout's u is exp(-i F t) as (grid matrix, thetas); a symmetry
    readout, present when a grid symmetry is given, splits degenerate
    levels, and its u is the symmetry's `sites`.  A readout n bits wide
    plus p extra reads one n-bit integer key (see the module docstring).
    `lookup` has one axis per readout and holds the orbital index of each
    tuple of readout values, the orbital whose keys they read, -1 if none.
    Without a symmetry readout, `kraus` and `masses` are the energy
    readout's instrument (`_instrument`), which stands in for its register.
    """

    basis: BasisSet
    readouts: tuple[tuple, ...] = field(repr=False)
    lookup: np.ndarray = field(repr=False)
    kraus: np.ndarray | None = field(default=None, repr=False)
    masses: np.ndarray | None = field(default=None, repr=False)

    def segments(self, emulated: bool = False) -> list[tuple[str, str, int]]:
        """Layout segments of the readouts a state holds, in readout order;
        with `emulated`, of those that `kraus` stands in for (all or none).
        """
        return [(name, "readout", width) for name, width, *_ in self.readouts
                if (self.kraus is not None) == emulated]

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
        thetas, n_exact = _energy_readout(energies, t, eps_pe)
        p = extra_qubits_for(eps_pe) if eps_pe is not None else 0

        sym_keys = np.zeros(basis.size, dtype=np.int64)
        sym = []  # the symmetry readout, its bits and its keys
        phi = basis.grid_matrix(l)
        if symmetry is not None:
            # each orbital must be an eigenvector of P, so [P, F] = 0
            sym_phases = np.array(
                [symmetry.eigenphase(phi[:, j]) for j in range(basis.size)]
            )
            # symmetry must split every cluster of coinciding energy phases
            n_sym = _readout_bits(sym_phases, _phase_clusters(thetas))
            if n_sym is None:
                raise DegeneracyError(
                    "symmetry eigenphases do not separate the degenerate "
                    "orbitals"
                )
            n_sym = _exact_bits(sym_phases, eps_pe) or n_sym
            sym_keys = _keys(sym_phases, n_sym)
            sym = [(("symread", n_sym + p, symmetry.sites(l)), n_sym,
                    sym_keys)]

        n_energy = _readout_bits(thetas, [np.flatnonzero(sym_keys == key)
                                          for key in np.unique(sym_keys)])
        if n_energy is None:
            collisions = _phase_clusters(thetas)
            raise DegeneracyError(
                "energy phases collide and cannot be separated"
                + ("" if symmetry is not None else
                   " without a symmetry readout")
                + f": orbital groups {collisions} at energies "
                + f"{[list(np.round(energies[list(g)], 6)) for g in collisions]}"
            )
        n_energy = n_exact or n_energy

        readouts, bits, keys = zip((("readout", n_energy + p, (phi, thetas)),
                                    n_energy, _keys(thetas, n_energy)), *sym)
        table = np.full([1 << n for n in bits], -1, dtype=np.int64)
        table[keys] = np.arange(basis.size)
        if np.count_nonzero(table >= 0) < basis.size:
            raise DegeneracyError("two orbitals share their key in every "
                                  "readout")
        # value k of n + p bits reads the key floor(k / 2^p + 1/2) mod 2^n
        reads = [((np.arange(1 << (n + p)) + ((1 << p) >> 1)) >> p) % (1 << n)
                 for n in bits]
        lookup = table[np.ix_(*reads)]
        kraus = (None, None) if sym else _instrument(thetas, lookup,
                                                     basis.size)
        return cls(basis, readouts, lookup, *kraus)


def _phase_clusters(phases: np.ndarray):
    """Groups (size >= 2) of orbital indices whose phases coincide within
    PHASE_TOL.
    """
    clusters: list[list[int]] = []
    for i, th in enumerate(phases):
        for grp in clusters:
            d = abs(th - phases[grp[0]]) % 1.0  # the circular distance
            if min(d, 1.0 - d) < PHASE_TOL:
                grp.append(i)
                break
        else:
            clusters.append([i])
    return [g for g in clusters if len(g) > 1]


def phase_estimate(
    state: QuantumState,
    readout_segment: str,
    target_segment: str,
    u,
    adjoint: bool = False,
) -> QuantumState:
    """Phase estimation of u on the target, writing its eigenphase into
    (adjoint: erasing it from) the readout, a distinct segment.  The circuit
    (QFT on the readout, u^(2^b) controlled by readout qubit b, inverse QFT)
    applies u^(+-k) wherever the readout holds k.  u is either the integer
    array `sites` of a permutation u|x> = |sites[x]>, whose powers are one
    relabel of (target, readout), or (grid, phases) for orthonormal columns,
    u = I + grid diag(e^{2 pi i phases} - 1) grid^dagger: the state then
    gains grid (QFT^-1 e^{+-2 pi i phases k} QFT - 1) c for its projections
    c onto the columns, so only c is transformed.
    """
    readout = state.layout.segment(readout_segment)
    target = state.layout.segment(target_segment)
    spectral = isinstance(u, tuple)
    if spectral:
        grid, phases = (np.asarray(a) for a in u)
        fits = grid.shape == (target.dim, phases.size)
    else:
        fits = np.array_equal(np.sort(u), np.arange(target.dim))
    if readout == target or not fits:
        raise StructuralError("phase estimation needs a readout apart "
                              "from the target and u on the target's values")
    k = np.arange(readout.dim)
    if not spectral:
        step = np.argsort(u) if adjoint else np.asarray(u)
        # row j of `power` is the j-th power of the permutation
        power = np.arange(target.dim)[None, :]
        while power.shape[0] < readout.dim:
            power, step = np.concatenate([power, step[power]]), step[step]
        state = relabel(qft(state, readout_segment),
                        [target_segment, readout_segment],
                        (power + target.dim * k[:, None]).ravel())
        return qft(state, readout_segment, inverse=True)
    if np.max(np.abs(grid.conj().T @ grid - np.eye(phases.size)),
              initial=0.0) > MATRIX_TOL:
        raise ValidationError("grid columns are not orthonormal")
    # the target's values as rows, every other index as columns; the
    # readout's axis among the columns is `r`
    view, (t, r) = segment_view(state, [target_segment, readout_segment])
    rows = np.moveaxis(view, t, 0)
    r -= r > t
    # einsum sums in its own loops, whatever BLAS does
    coef = np.einsum("xj,xr->jr", grid.conj(), rows.reshape(target.dim, -1)
                     ).reshape(phases.size, -1, readout.dim,
                               math.prod(rows.shape[r + 2:]))
    kick = np.exp((-2j if adjoint else 2j) * np.pi * np.outer(phases, k))
    # the QFT and its inverse as `qft` applies them
    coef = np.fft.fft(np.fft.ifft(coef, axis=2, norm="ortho")
                      * kick[:, None, :, None], axis=2, norm="ortho") - coef
    gain = np.einsum("xj,jr->xr", grid, coef.reshape(phases.size, -1))
    return QuantumState(state.layout, (view + np.moveaxis(
        gain.reshape(rows.shape), 0, t)).reshape(-1))


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
    """Relabeling permutation: on branches whose readouts read orbital
    i's keys, remove one quantum of orbital i from the occupation
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
    segments (`segments()`), and no readout that its Kraus map stands in
    for (`_kraus_pass`); the occupation register holds one
    `counter_width`-bit counter per orbital.
    """
    if config.kraus is not None:
        return _kraus_pass(state, config, fock_segment, particle_segment,
                           rng, counter_width)
    for name, width, *_ in config.readouts:
        if state.layout.segment(name).width != width:
            raise StructuralError(
                f"readout segment {name!r} is not {width} qubits wide")

    for name, _, u in config.readouts:
        state = phase_estimate(state, name, particle_segment, u)
    state, orbital_mass, ambiguous_mass = _decrement_fock(
        state, config, fock_segment, counter_width)
    for name, _, u in reversed(config.readouts):
        state = phase_estimate(state, name, particle_segment, u,
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


def _kraus_pass(state, config, fock_segment, particle_segment, rng,
                counter_width):
    """`identify_and_decrement` with the energy readout as the Kraus map
    K_r = sum_j Pi_j (x) sum_o C[j, r, o] D_o + [r = 0] Pi_perp (x) D_o(0),
    for the state that holds no readout (C is `config.kraus`).

    Pi_j projects the particle register onto grid column phi_j and Pi_perp
    onto the rest, whose phase 0 reads r = 0; D_o decrements counter o, and
    is the identity for o = -1 or an orbital without a counter; o(0) is
    the orbital that readout value 0 names.  With c_j = phi_j^dagger psi,
    outcome r leaves sum_j phi_j (x) A[j, r] (plus D_o(0) Pi_perp psi at
    r = 0), A[j, r] = sum_o C[j, r, o] D_o c_j, drawn and normalized as
    `measure_segment` draws and normalizes.  The record's masses are the
    Fejer masses P[j, o] |c_j|^2, as the estimated readout holds them.
    """
    names = {seg.name for seg in state.layout}
    for name, *_ in config.segments(emulated=True):
        if name in names:
            raise StructuralError(f"the layout holds readout {name!r}, "
                                  "which the Kraus map stands in for")
    grid = config.readouts[0][2][0]
    fock = state.layout.segment(fock_segment)
    counters = min(fock.width // counter_width, config.basis.size)
    # row 1 + o of `source` reads, for each occupation value, the value
    # that D_o sends there: counter o incremented, or the value itself for
    # an orbital without a counter and in row 0, which names no orbital
    values = np.arange(fock.dim)
    shift = np.arange(counters)[:, None] * counter_width
    cmask = (1 << counter_width) - 1
    count = (values >> shift) & cmask
    source = np.tile(values, (config.basis.size + 1, 1))
    source[1:counters + 1] ^= (count ^ ((count + 1) & cmask)) << shift

    view, (x, f) = segment_view(state, [particle_segment, fock_segment])
    table = np.moveaxis(view, (x, f), (0, 1))
    shape = table.shape
    table = table.reshape(shape[0], shape[1], -1)
    # the map acts on each column of the other registers' values alone; the
    # columns that hold nothing are left out, so that registers which stay
    # blank (and their size) change no sum
    columns = np.flatnonzero(table.any(axis=(0, 1)))
    rows = table[:, :, columns]
    # einsum sums in its own loops, whatever BLAS does
    coef = np.einsum("xj,xfy->jfy", grid.conj(), rows)
    perp = rows - np.einsum("xj,jfy->xfy", grid, coef)
    amps = np.einsum("jro,jofy->jrfy", config.kraus, coef[:, source])
    zero = int(config.lookup[0]) + 1  # the cell that the rest reads
    parts, rest = (a[..., None].view(np.float64) for a in (amps, perp))
    probs = np.einsum("jrfyz,jrfyz->r", parts, parts)
    rest = np.einsum("xfyz,xfyz->", rest, rest)
    probs[0] += rest

    total = probs.sum()
    if not abs(math.sqrt(total) - 1.0) <= 1e-8:  # NaN fails too
        raise ValidationError(f"state norm {math.sqrt(total)} deviates from 1")
    outcome = int(rng.choice(probs.size, p=probs / total))
    p = probs[outcome]
    if p <= 0:
        raise ImpossibleOutcomeError(f"outcome {outcome} has zero probability")
    kept = np.einsum("xj,jfy->xfy", grid, amps[:, outcome])
    if outcome == 0:
        kept += perp[:, source[zero]]
    out = np.zeros_like(table)
    out[:, :, columns] = kept / np.sqrt(p)
    out = np.moveaxis(out.reshape(shape), (0, 1), (x, f))

    parts = coef[..., None].view(np.float64)
    cells = np.einsum("jo,j->o", config.masses,
                      np.einsum("jfyz,jfyz->j", parts, parts))
    cells[zero] += rest
    orbital_mass = np.zeros(config.basis.size)
    orbital_mass[:counters] = cells[1:counters + 1]
    return QuantumState(state.layout, out.reshape(-1)), IdentificationRecord(
        orbital_mass, float(cells[0] + cells[counters + 1:].sum()),
        (outcome,))


def verify_uncomputation(
    state: QuantumState, fock_segment: str, rng
) -> tuple[bool, int, QuantumState]:
    """Measure the occupation register; success means it collapsed to zero
    (fully disentangled).  The collapsed state is returned either way so a
    driver can retry on failure.
    """
    outcome, state = measure_segment(state, fock_segment, rng)
    return outcome == 0, outcome, state
