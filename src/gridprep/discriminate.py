"""Orbital identification by phase estimation on the Fock propagator and on
symmetry operators, enabling uncomputation of the occupation register,
whose counter format (`fock_encode`) is defined here next to the decrement.

Phase estimation is emulated in closed form.  The textbook circuit
(Cleve, Ekert, Macchiavello and Mosca, Proc. R. Soc. A 454, 339 (1998))
applies u^k to the particle register wherever the readout holds k, between
a QFT and its inverse, so an eigencomponent of phase theta leaves a blank
readout holding k with amplitude `phase_estimate(theta, q)[k]`.  The
particle register splits into components with one phase in every readout:
the grid columns phi_j, and the rest of the register, of energy phase 0,
split by the symmetry's eigenspaces (`SymmetryOperator.modes`).  On each,
the estimations, the decrement, the adjoint estimations and the measured
reset of every readout together are one Kraus map (Nielsen and Chuang,
ch. 8): `_instrument` builds it once per config
(`PhaseEstimationConfig.instrument`) and `identify_and_decrement` applies
it, so no state holds a readout.

Eigenphase convention: the estimated phase is the actual eigenphase of the
unitary handed to the estimator, i.e. theta = (-E t / 2pi) mod 1 for the
propagator exp(-i F t).  An orbital's key in a readout is its phase
rounded to n bits (ties round up), an n-bit integer.  A readout value k
of n + p bits reads the key floor(k / 2^p + 1/2) mod 2^n, so k / 2^(n+p)
lies in the half-open interval of width 2^-n centred on the key / 2^n it
reads.  Readout values whose keys no orbital holds route to the
detect-and-retry path.

One rule sizes every readout (`PhaseEstimationConfig.build`): each orbital
must be read right, its keys held by no other orbital and its own cell's
Fejer mass at least 1 - eps_pe.  Exact dyadic phases are read right at
their own width with p = 0; inexact ones take p = `extra_qubits_for(eps_pe)`
(Cleve et al. 1998; Nielsen and Chuang, sec. 5.2.1) and the narrowest n
that reads them right.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .assemble import OccupationVector
from .basis import BasisSet
from .errors import DegeneracyError, StructuralError, ValidationError
from .statevec import QuantumState, born_draw, measure_segment, segment_view

#: Widest key n of a readout, exact or widened (before its p extra bits).
MAX_PHASE_BITS = 16
#: Phases closer than this coincide (with each other, or with a dyadic).
PHASE_TOL = 1e-9
#: Bytes of decremented parts `identify_and_decrement` makes at a time.
DECREMENT_BYTES = 1 << 20


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

    def mode_phases(self, l: int) -> np.ndarray:
        """The eigenphase of each vector of the eigenbasis `modes` uses."""
        x = np.arange(1 << l)
        if self.kind == "reflection":
            return np.where(2 * x > x.size, 0.5, 0.0)
        return x * self.step % x.size / x.size

    def modes(self, values: np.ndarray, inverse: bool = False) -> np.ndarray:
        """`values`, whose axis 0 holds the 2^l sites, in an orthonormal
        eigenbasis of the permutation (with `inverse`, back from it): for a
        cyclic shift the plane waves (the unitary DFT); for a reflection the
        fixed sites and, for the pair x < N - x, (|x> + |N - x>) / sqrt 2 at
        x and (|N - x> - |x>) / sqrt 2 at N - x, which is its own inverse.
        """
        if self.kind == "cyclic-shift":
            transform = np.fft.ifft if inverse else np.fft.fft
            return transform(values, axis=0, norm="ortho")
        x = np.arange(values.shape[0])
        y = self.sites(x.size.bit_length() - 1)
        pair = values[y]
        low, fixed = (a.reshape(-1, *[1] * (values.ndim - 1))
                      for a in (2 * x < x.size, y == x))
        return np.where(fixed, values, np.where(low, values + pair,
                                                pair - values) / np.sqrt(2))


def _keys(phases: np.ndarray, n: int) -> np.ndarray:
    """Each phase rounded to n bits (ties round up), as an n-bit integer."""
    return np.floor(phases * (1 << n) + 0.5).astype(np.int64) % (1 << n)


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


def phase_estimate(phases: np.ndarray, width: int) -> np.ndarray:
    """Phase estimation of each eigenphase theta on a blank readout of
    `width` qubits, in closed form: row j holds w_j = fft(e^{2 pi i
    theta_j k}) / 2^width, the amplitude with which the readout then holds
    k (Cleve et al. 1998).  w_j is the first column of the circulant
    W_j[k, r] = w_j[(k - r) mod 2^width] that the estimation applies to a
    readout holding r.
    """
    k = np.arange(1 << width)
    return np.fft.fft(np.exp(2j * np.pi * np.outer(phases, k)), axis=1) / k.size


def _instrument(phases: np.ndarray, lookup: np.ndarray,
                size: int) -> tuple[np.ndarray, np.ndarray]:
    """The readouts' estimation, decrement, adjoint estimation and measured
    reset as a Kraus instrument (Nielsen and Chuang, ch. 8), for components
    whose phase in the readout of `lookup` axis a is phases[c, a], and for
    readout values k that name orbital lookup[k] (-1: none).

    Component c reads k with amplitude w_c[k], the product over readouts
    of `phase_estimate`, and W_c, the product of their circulants, is the
    estimation.  Returns C with C[c, r, 1 + o] = sum over k naming o of
    conj(W_c[k, r]) w_c[k], the amplitude with which c reads r after the
    decrement of orbital o (a correlation, ifft(conj(fft(w_c)) fft(w_c on
    the cells of o)) over the readout axes), and the Fejer masses
    P[c, 1 + o] = sum over k naming o of |w_c[k]|^2 (Cleve et al. 1998);
    r is the readout axes of `lookup`, and o the last axis of C.  Raises
    StructuralError unless the instrument is complete within 1e-12:
    sum_r conj(C[c, r, o]) C[c, r, o'] = delta_oo' P[c, o] and
    sum_o P[c, o] = 1.
    """
    readouts = tuple(range(-lookup.ndim, 0))  # the trailing axes
    w = np.ones(1)
    for a, dim in enumerate(lookup.shape):
        w = w * np.expand_dims(phase_estimate(phases[:, a], dim.bit_length()
                                              - 1),
                               [1 + b for b in range(lookup.ndim) if b != a])
    cells = np.arange(size + 1).reshape(-1, *[1] * lookup.ndim) == lookup + 1
    kept = w[:, None] * cells
    kraus = np.moveaxis(np.fft.ifftn(
        np.fft.fftn(w, axes=readouts).conj()[:, None]
        * np.fft.fftn(kept, axes=readouts), axes=readouts), 1, -1)
    parts = kept.reshape(len(phases), size + 1, -1, 1).view(np.float64)
    masses = np.einsum("jokz,jokz->jo", parts, parts)
    flat = kraus.reshape(len(phases), -1, size + 1)
    gram = np.einsum("jro,jrp->jop", flat.conj(), flat)
    gram[:, np.arange(size + 1), np.arange(size + 1)] -= masses
    if not (np.all(np.abs(gram) <= 1e-12)  # NaN fails too
            and np.all(np.abs(masses.sum(axis=1) - 1.0) <= 1e-12)):
        raise StructuralError("the readouts' Kraus instrument is not "
                              "complete")
    return kraus, masses


@dataclass
class PhaseEstimationConfig:
    """Readouts, the readout->orbital lookup and their Kraus instrument.

    `readouts` holds the readouts' layout segments, (name, width) in readout
    order, which the instrument stands in for: phase estimation on a
    particle register of `l` qubits writes an eigenphase into each, of
    exp(-i F t) in the energy readout and, when a grid `symmetry` is given
    to split degenerate levels, of its site permutation in a symmetry
    readout.  A readout n bits wide plus p extra reads one n-bit integer
    key (see the module docstring); p is 0 where the phases are exact.
    `lookup` has one axis per readout and holds the orbital index of each
    tuple of readout values, the orbital whose keys they read, -1 if none.
    The particle register splits into components, each with one phase in
    every readout, `phases[c, a]` in readout a: the orbitals, then the
    rest by its phases; `components` holds the component of each orbital,
    then of each mode of the rest (`symmetry.modes`, or each site without a
    symmetry).
    """

    basis: BasisSet
    l: int
    readouts: tuple[tuple[str, int], ...]
    lookup: np.ndarray = field(repr=False)
    phases: np.ndarray = field(repr=False)
    components: np.ndarray = field(repr=False)
    symmetry: SymmetryOperator | None

    def __post_init__(self):
        for array in (self.lookup, self.phases, self.components):
            array.flags.writeable = False

    @cached_property
    def instrument(self) -> tuple[np.ndarray, np.ndarray]:
        """The readouts' Kraus instrument on the components, (C, P) of
        `_instrument`, made on first use: it spans every joint readout
        value, so for readouts wider than any layout holds it would take
        gigabytes in `build`.  Like the config's other arrays, C and P are
        read-only: a cache may share them across preparations.
        """
        kraus, masses = _instrument(self.phases, self.lookup, self.basis.size)
        kraus.flags.writeable = masses.flags.writeable = False
        return kraus, masses

    @classmethod
    def build(
        cls,
        basis: BasisSet,
        l: int,
        t: float | None = None,
        eps_pe: float | None = None,
        symmetry: SymmetryOperator | None = None,
    ) -> "PhaseEstimationConfig":
        """The readouts, each at the width the one rule gives it: every
        orbital j must be read right with probability at least 1 - eps_pe
        (1 - PHASE_TOL without eps_pe), which the error bound assumes.  j
        is read right when no other orbital holds its keys, with the Fejer
        mass of its own cell, `instrument[1][j, 1 + j]`: the product over
        the readouts of the mass `phase_estimate` puts in the window of its
        key.  A readout whose phases are exact dyadics reads them
        deterministically at their width (`_exact_bits`) and takes no extra
        qubits.  The others take p = `extra_qubits_for(eps_pe)` extra
        qubits and widen together, one bit at a time from 1, until every
        orbital is read right; past MAX_PHASE_BITS they raise a
        DegeneracyError, and so do orbitals whose phases coincide in every
        readout, which no width separates.
        """
        energies = basis.energies
        thetas, n_exact = _energy_readout(energies, t, eps_pe)
        phi = basis.grid_matrix(l)
        # per readout: segment name, the orbitals' phases, the exact width
        readouts = [("readout", thetas, n_exact)]
        rest = np.zeros(1 << l)  # the phase of each mode of the rest
        if symmetry is not None:
            # each orbital must be an eigenvector of P, so [P, F] = 0
            sym_phases = np.array(
                [symmetry.eigenphase(phi[:, j]) for j in range(basis.size)])
            readouts.append(("symread", sym_phases,
                             _exact_bits(sym_phases, eps_pe)))
            rest = symmetry.mode_phases(l)
        names, columns, exact = zip(*readouts)

        same = np.ones((basis.size, basis.size), dtype=bool)
        for ph in columns:
            d = np.abs(np.subtract.outer(ph, ph))  # circular: min(d, 1 - d)
            same &= np.minimum(d, 1.0 - d) < PHASE_TOL
        if np.count_nonzero(same) > basis.size:  # beyond the diagonal
            groups = sorted({tuple(np.flatnonzero(row).tolist())
                             for row in same if row.sum() > 1})
            raise DegeneracyError(
                f"orbital groups {[list(g) for g in groups]} at energies "
                f"{[np.round(energies[list(g)], 6).tolist() for g in groups]}"
                " collide: their phases coincide in every readout")

        # each component's phase in each readout: the orbitals, then the
        # phases of the rest, which the energy readout reads as 0
        rest, modes = np.unique(rest, return_inverse=True)
        phases = np.column_stack([np.append(ph, r) for ph, r in zip(
            columns, (np.zeros_like(rest), rest))])
        extra = [0 if n else extra_qubits_for(eps_pe) for n in exact]
        orbitals = np.arange(basis.size)
        for n in range(1, MAX_PHASE_BITS + 1):
            bits = [e or n for e in exact]
            widths = [b + p for b, p in zip(bits, extra)]
            keys = [_keys(ph, b) for ph, b in zip(columns, bits)]
            right = np.zeros(basis.size)
            # an orbital whose keys another orbital holds has no cell, so it
            # is read right with probability 0, which needs no estimate
            if len(set(zip(*(k.tolist() for k in keys)))) < basis.size:
                continue
            # value k of n + p bits reads the key floor(k / 2^p + 1/2) mod 2^n
            reads = [((np.arange(1 << w) + ((1 << p) >> 1)) >> p) % (1 << b)
                     for b, p, w in zip(bits, extra, widths)]
            right = np.prod([
                np.sum(np.abs(phase_estimate(ph, w)) ** 2
                       * (read == key[:, None]), axis=1)
                for ph, w, read, key in zip(columns, widths, reads, keys)],
                axis=0)
            if np.all(right >= 1.0 - (eps_pe or PHASE_TOL)):
                table = np.full([1 << b for b in bits], -1, dtype=np.int64)
                table[tuple(keys)] = orbitals
                return cls(basis, l, tuple(zip(names, widths)),
                           table[np.ix_(*reads)], phases,
                           np.append(orbitals, basis.size + modes), symmetry)
        raise DegeneracyError(
            f"readouts of {widths} qubits read the orbitals right with "
            f"probabilities {np.round(right, 6).tolist()}, not all "
            "1 - eps_pe")


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
            raise ValidationError(f"count {v} exceeds the "
                                  f"{counter_width}-bit counter")
        code |= v << (i * counter_width)
    return code


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
    Generator `rng`.  The layout holds none of the config's readouts, the
    particle register is `config.l` qubits wide, and the occupation register
    holds one `counter_width`-bit counter per orbital.

    The pass is the Kraus map K_r = sum_c Pi_c (x) sum_o C[c, r, o] D_o,
    with (C, P) the `config.instrument`.  Pi_c projects the particle
    register onto component c: grid column phi_j, or the modes of the rest
    of one phase; D_o decrements counter o (the identity for o = -1 or an
    orbital without a counter), a permutation of the occupation values.
    With x_c the projections, outcome r = (r_1, ...) has mass p(r) =
    sum_c |sum_o C[c, r, o] D_o x_c|^2, a quadratic form in the Gram matrix
    <D_o x_c, D_o' x_c>, so no array spans the readout values and the state
    at once, and the parts' K + 1 decremented copies are made a share at a
    time (`DECREMENT_BYTES`).  r is drawn readout by readout, by
    `born_draw` on its masses given the outcomes before it, and leaves
    sum_c sum_o C[c, r, o] D_o x_c / sqrt(p(r)).  The record's masses are
    the Fejer masses P[c, o] |x_c|^2, as the estimated readouts hold them.
    """
    names = {seg.name for seg in state.layout}
    for name, _ in config.readouts:
        if name in names:
            raise StructuralError(f"the layout holds readout {name!r}, "
                                  "which the Kraus map stands in for")
    if state.layout.segment(particle_segment).width != config.l:
        raise StructuralError(f"particle register {particle_segment!r} is "
                              f"not {config.l} qubits wide")
    grid = config.basis.grid_matrix(config.l)
    size = config.basis.size
    fock = state.layout.segment(fock_segment)
    counters = min(fock.width // counter_width, size)
    # source[1 + o, v] is the value that D_o sends to v, v with counter o
    # incremented; row 0 and the orbitals without a counter keep v
    values = np.arange(fock.dim)
    shift = np.arange(counters)[:, None] * counter_width
    cmask = (1 << counter_width) - 1
    count = (values >> shift) & cmask
    source = np.tile(values, (size + 1, 1))
    source[1:counters + 1] ^= (count ^ ((count + 1) & cmask)) << shift

    view, (x, f) = segment_view(state, [particle_segment, fock_segment])
    table = np.moveaxis(view, (x, f), (0, 1))
    shape = table.shape
    table = table.reshape(shape[0], shape[1], -1)
    # the map acts on each column of the other registers' values alone; the
    # columns that hold nothing are left out, so that registers which stay
    # blank (and their size) change no sum
    columns = np.flatnonzero(table.any(axis=(0, 1)))
    # the parts: each orbital's coefficients, then the rest, projected in
    # place (einsum sums in its own loops, whatever BLAS does)
    coef = np.einsum("xj,xfy->jfy", grid.conj(), table[:, :, columns])
    parts = np.concatenate([coef, table[:, :, columns]])
    parts[size:] -= np.einsum("xj,jfy->xfy", grid, coef)
    if config.symmetry is not None:
        parts[size:] = config.symmetry.modes(parts[size:])
    # inner[k, o, p] = <D_o x, D_p x> for x = parts[k], a share at a time
    # (its copies span DECREMENT_BYTES at most); gram[c] sums component c's
    kraus, masses = config.instrument
    step = max(1, DECREMENT_BYTES // ((size + 1) * max(parts[0].nbytes, 1)))
    shares = [slice(i, i + step) for i in range(0, len(parts), step)]
    inner = np.empty((len(parts), size + 1, size + 1), complex)
    for share in shares:
        d = parts[share][:, source]
        np.einsum("kofy,kpfy->kop", d.conj(), d, out=inner[share])
    gram = np.einsum("ck,kop->cop", np.arange(len(kraus))[:, None]
                     == config.components, inner)
    flat = kraus.reshape(len(gram), -1, size + 1)
    # a quadratic form can round below 0 where p(r) is 0
    probs = np.maximum(np.einsum("cro,cop,crp->r", flat.conj(), gram, flat)
                       .real, 0.0).reshape(config.lookup.shape)

    joint, outcomes = probs, []
    for _ in config.readouts:
        marginal = joint.reshape(joint.shape[0], -1).sum(axis=1)
        outcome = born_draw(marginal, rng)
        joint = joint[outcome] / marginal[outcome]
        outcomes.append(outcome)
    # the parts turn into the kept sum_o C[c, r, o] D_o x_c, share by share
    coeff = kraus[(slice(None), *outcomes)][config.components]
    for share in shares:
        np.einsum("ko,kofy->kfy", coeff[share], parts[share][:, source],
                  out=parts[share])
    if config.symmetry is not None:
        parts[size:] = config.symmetry.modes(parts[size:], inverse=True)
    out = np.zeros_like(table)
    out[:, :, columns] = (np.einsum("xj,jfy->xfy", grid, parts[:size])
                          + parts[size:]) / np.sqrt(probs[tuple(outcomes)])
    out = np.moveaxis(out.reshape(shape), (0, 1), (x, f))

    cells = np.einsum("co,c->o", masses, gram[:, 0, 0].real)
    orbital_mass = np.zeros(size)
    orbital_mass[:counters] = cells[1:counters + 1]
    return QuantumState(state.layout, out.reshape(-1)), IdentificationRecord(
        orbital_mass, float(cells[0] + cells[counters + 1:].sum()),
        tuple(outcomes))


def verify_uncomputation(state: QuantumState, fock_segment: str,
                         rng) -> tuple[bool, int, QuantumState]:
    """Measure the occupation register; success means it collapsed to zero
    (fully disentangled).  The collapsed state is returned either way so a
    driver can retry on failure.
    """
    outcome, state = measure_segment(state, fock_segment, rng)
    return outcome == 0, outcome, state
