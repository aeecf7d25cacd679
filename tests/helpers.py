"""Tools that several test modules share and no library driver needs."""
import os
import subprocess
import sys
from dataclasses import replace
from functools import reduce
from pathlib import Path

import numpy as np

from gridprep.analysis import PreparationReport
from gridprep.assemble import apply_rank_to_permutation, \
    generate_permutation_superposition, particle_segments, \
    permutation_segments, sort_and_entangle
import math

from gridprep.basis import EMPTY_MASS_THRESHOLD, BasisSet, _hermite_value, \
    kronecker_delta
from gridprep.compose import PreparedState
from gridprep.discriminate import IdentificationRecord
from gridprep.errors import StructuralError, ValidationError
from gridprep.loader import load_error_bound
from gridprep.statevec import MATRIX_TOL, DensityMatrix, QuantumState, \
    RegisterLayout, SparseState, extract_segment_vector, measure_segment, \
    partial_trace, qft, relabel, segment_masses, segment_view, vector_norm

SRC = str(Path(__file__).resolve().parent.parent / "src")


def from_basis_index(layout, index: int) -> QuantumState:
    """The computational basis state |index> on `layout`."""
    if not 0 <= index < layout.dim:
        raise StructuralError(f"basis index {index} out of range")
    amps = np.zeros(layout.dim, dtype=np.complex128)
    amps[index] = 1.0
    return QuantumState(layout, amps)


def sparse_from_state(state: QuantumState) -> SparseState:
    """The amplitudes with any bit set, −0.0 included, so
    `sparse_from_state(s).to_state()` is `s` bitwise.
    """
    index = np.unique(np.flatnonzero(state.amplitudes.view(np.uint64)) >> 1)
    return SparseState(state.layout, index, state.amplitudes[index])


def segment_values(state: QuantumState, name: str) -> np.ndarray:
    """The value of segment `name` at every basis index."""
    return state.layout.values(name, np.arange(state.layout.dim))


def segment_probabilities(state: QuantumState, segment: str) -> np.ndarray:
    """Born-rule distribution of one segment's value."""
    return np.bincount(segment_values(state, segment),
                       weights=np.abs(state.amplitudes) ** 2,
                       minlength=state.layout.segment(segment).dim)


def delta_at_site(site: int, l: int):
    """Kronecker delta on site `site` of a 2^l-site grid of length 1."""
    return kronecker_delta(site / (1 << l))


def grid_prob(orbital, l: int) -> np.ndarray:
    return np.abs(orbital.grid_values(l)) ** 2


# -- continuum oracles one at a time: the reference for
# `basis.Orbital.sample_grid` -------------------------------------------------

def reference_density(orbital, x):
    """|phi(x)|^2 of a continuum family."""
    x = np.asarray(x, dtype=float)
    L = orbital.length
    if orbital.family == "uniform":
        return np.full_like(x, 1.0 / L)
    if orbital.family == "box-sine":
        n = orbital.params[0]
        return (2.0 / L) * np.sin(n * np.pi * x / L) ** 2
    if orbital.family == "ring-plane-wave":
        return np.full_like(x, 1.0 / L)
    if orbital.family == "harmonic-hermite":
        n, width = orbital.params
        u = (x - L / 2.0) / width
        h = _hermite_value(n, u)
        norm = 1.0 / (2.0**n * math.factorial(n) * math.sqrt(math.pi))
        return norm * h**2 * np.exp(-(u**2)) / width
    raise ValidationError(
        f"family {orbital.family!r} has no continuum density oracle")


def reference_phase(orbital, x):
    """arg phi(x); real sign changes appear as a phase of pi."""
    x = np.asarray(x, dtype=float)
    L = orbital.length
    if orbital.family == "ring-plane-wave":
        k = orbital.params[0]
        return 2.0 * np.pi * k * x / L
    if orbital.family == "box-sine":
        n = orbital.params[0]
        return np.where(np.sin(n * np.pi * x / L) < 0, np.pi, 0.0)
    if orbital.family == "harmonic-hermite":
        n, width = orbital.params
        h = _hermite_value(n, (x - L / 2.0) / width)
        return np.where(h < 0, np.pi, 0.0)
    if orbital.family in ("uniform", "kronecker-delta"):
        return np.zeros_like(x)
    raise ValidationError(f"family {orbital.family!r} has no phase oracle")


def reference_grid_values(orbital, l: int) -> np.ndarray:
    """normalize(sqrt(density) exp(i phase)) at the sites x_j = j L / 2^l,
    normalized as `Orbital.grid_values` normalizes.
    """
    xs = np.arange(1 << l) * (orbital.length / (1 << l))
    vec = np.sqrt(reference_density(orbital, xs)) \
        * np.exp(1j * reference_phase(orbital, xs))
    parts = np.ascontiguousarray(vec).view(np.float64)
    norm = np.sqrt(np.einsum("i,i->", parts, parts))
    if not np.isfinite(norm):
        raise ValidationError("orbital is not finite on the grid")
    # the squares sum to about 2^l / L, or to rounding noise where the
    # orbital vanishes on every site (box-sine n a multiple of 2^l)
    if not norm**2 > EMPTY_MASS_THRESHOLD * (1 << l) / orbital.length:
        raise ValidationError("orbital vanishes on every grid site")
    return vec / norm


def reference_vector_norm(values) -> float:
    """`statevec.vector_norm` dropping the zero amplitudes before it drops
    the zero squares.
    """
    values = np.asarray(values, dtype=np.complex128)
    squares = np.square(values[values != 0].view(np.float64))
    return float(np.sqrt(np.sum(squares[squares != 0])))


def purity(rho) -> float:
    """Tr ρ² = Σ|ρ_ij|², which holds because ρ is Hermitian."""
    rho = coerce_matrix(rho)
    return float(np.vdot(rho, rho).real)


def gap(basis: BasisSet) -> float:
    """Half the minimum spacing between distinct energies (0 if all tie)."""
    distinct = np.unique(np.round(basis.energies, 12))
    if distinct.size < 2:
        return 0.0
    return float(np.min(np.diff(distinct)) / 2.0)


def perturbed(basis: BasisSet, target: int, strength: float) -> BasisSet:
    """`basis` with orbital `target`'s energy shifted by `strength`."""
    spectral_gap = gap(basis)
    if spectral_gap > 0 and abs(strength) >= spectral_gap / 2:
        raise ValidationError(
            f"perturbation {strength} exceeds half the spectral gap "
            f"{spectral_gap}")
    orbitals = list(basis.orbitals)
    orbitals[target] = replace(orbitals[target],
                               energy=orbitals[target].energy + strength)
    return BasisSet(orbitals)


# -- full-length classical relabels: the reference for `statevec.relabel`
# and its callers -------------------------------------------------------------

def permute_basis(state: QuantumState, dest: np.ndarray) -> QuantumState:
    """Classical relabeling of the basis: the amplitude at index i moves to
    index dest[i].  `dest` must be a permutation of the index range.
    """
    dest = np.asarray(dest)
    dim = state.layout.dim
    hit = np.zeros(dim, dtype=bool)
    if dest.shape == (dim,) and dest.min() >= 0 and dest.max() < dim:
        hit[dest] = True
    if not hit.all():
        raise StructuralError("relabeling must be a permutation")
    amps = np.empty_like(state.amplitudes)
    amps[dest] = state.amplitudes
    return QuantumState(state.layout, amps)


def reference_relabel(state: QuantumState, names, table) -> QuantumState:
    """`statevec.relabel` as one full-length `permute_basis`."""
    layout = state.layout
    idx = np.arange(layout.dim)
    joint, shift = np.zeros(layout.dim, dtype=np.int64), 0
    for name in names:
        joint |= layout.values(name, idx) << shift
        shift += layout.segment(name).width
    table = np.asarray(table)
    if table.shape != (1 << shift,):
        raise StructuralError("relabeling must be a permutation")
    dest, shift = table[joint], 0
    fields = {}
    for name in names:
        fields[name] = (dest >> shift) & layout.segment(name).mask
        shift += layout.segment(name).width
    return permute_basis(state, layout.with_values(idx, fields))


def reference_lookup(phases, bits, extras) -> np.ndarray:
    """`PhaseEstimationConfig.lookup` by its definition, for each readout's
    orbital phases, resolving bits n and extra qubits p (the readout is
    n + p wide): value k of a readout lies in orbital i's window when
    k / 2^(n+p) lies in the half-open interval of width 2^-n centred on i's
    phase rounded to n bits (ties round up); a tuple of values names the
    orbital whose windows hold every one of them, -1 if none.  Overlapping
    windows fail the check.
    """
    windows = []
    for ph, n, p in zip(phases, bits, extras):
        scale, width = 1 << n, n + p
        centers = (np.floor(np.asarray(ph) * scale + 0.5) % scale) / scale
        d = (np.arange(1 << width) / (1 << width) - centers[:, None]) % 1.0
        windows.append((d < 0.5 / scale) | (d >= 1.0 - 0.5 / scale))
    lookup = np.full([w.shape[1] for w in windows], -1, dtype=np.int64)
    for i in range(windows[0].shape[0]):
        cell = reduce(np.multiply.outer, [w[i] for w in windows])
        assert not np.any(cell & (lookup >= 0)), f"window {i} overlaps"
        lookup[cell] = i
    return lookup


def reference_decrement_fock(state, config, fock_segment, counter_width):
    """`register_decrement_fock` over the whole index range."""
    layout = state.layout
    idx = np.arange(layout.dim)
    n_counters = layout.segment(fock_segment).width // counter_width
    lookup = np.where(config.lookup < n_counters, config.lookup, -1)
    orb = lookup[tuple(layout.values(name, idx)
                       for name, _ in config.readouts)]
    mass = np.bincount(orb + 1, weights=np.abs(state.amplitudes) ** 2,
                       minlength=config.basis.size + 1)
    fvals = layout.values(fock_segment, idx)
    cmask = (1 << counter_width) - 1
    shift = np.maximum(orb, 0) * counter_width
    v_new = (((fvals >> shift) & cmask) - 1) & cmask
    new_f = np.where(orb >= 0, (fvals & ~(cmask << shift)) | (v_new << shift),
                     fvals)
    dest = layout.with_values(idx, {fock_segment: new_f})
    return permute_basis(state, dest), mass[1:], float(mass[0])


def reference_measure_segment(state: QuantumState, segment: str, rng):
    """`statevec.measure_segment` with full-length values and masses."""
    if not abs(vector_norm(state.amplitudes) - 1.0) <= 1e-8:
        raise ValidationError("state norm deviates from 1")
    seg = state.layout.segment(segment)
    vals = segment_values(state, segment)
    probs = segment_probabilities(state, segment)
    outcome = int(rng.choice(seg.dim, p=probs / probs.sum()))
    amps = np.where(vals == outcome, state.amplitudes, 0.0) \
        / np.sqrt(probs[outcome])
    return outcome, probs, QuantumState(state.layout, amps)


# -- the readouts as registers of the state: the reference for
# `discriminate.identify_and_decrement` and `discriminate.phase_estimate` ---

def register_phase_estimate(
    state: QuantumState,
    readout_segment: str,
    target_segment: str,
    u,
    adjoint: bool = False,
) -> QuantumState:
    """Phase estimation of u on the target, writing its eigenphase into
    (adjoint: erasing it from) the readout, a distinct segment of the
    state.  The circuit
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


def register_decrement_fock(state, config, fock_segment, counter_width):
    """Relabeling permutation: on branches whose readouts read orbital
    i's keys, remove one quantum of orbital i from the occupation
    register, a modular decrement of its counter (a bit flip when the
    counter is one bit wide, as for fermions).  Branches with an ambiguous
    readout, or one naming an orbital the register has no counter for,
    are left untouched.  One table over the joint value of (readouts...,
    occupation register) drives the relabel, and the orbital and ambiguous
    masses sum the readouts' joint masses by lookup cell.
    """
    names = [name for name, _ in config.readouts]
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


def readout_unitaries(config) -> list:
    """The unitary each readout of `config` estimates, in the form
    `register_phase_estimate` takes: exp(-i F t) as (grid matrix, the
    orbitals' energy phases), then the symmetry's `sites` if it has one.
    """
    size = config.basis.size
    us = [(config.basis.grid_matrix(config.l), config.phases[:size, 0])]
    if config.symmetry is not None:
        us.append(config.symmetry.sites(config.l))
    return us


def register_identify_and_decrement(state, config, fock_segment,
                                    particle_segment, rng, counter_width=1):
    """`discriminate.identify_and_decrement` on a state that holds every
    readout as a register, blank on entry: estimate each readout in turn,
    decrement (`register_decrement_fock`), undo the estimations in reverse
    order, and recycle each readout by measured reset.
    """
    for name, width in config.readouts:
        if state.layout.segment(name).width != width:
            raise StructuralError(
                f"readout segment {name!r} is not {width} qubits wide")
    estimated = list(zip(config.readouts, readout_unitaries(config)))
    for (name, _), u in estimated:
        state = register_phase_estimate(state, name, particle_segment, u)
    state, orbital_mass, ambiguous_mass = register_decrement_fock(
        state, config, fock_segment, counter_width)
    for (name, _), u in reversed(estimated):
        state = register_phase_estimate(state, name, particle_segment, u,
                                        adjoint=True)
    # a nonzero outcome flags imperfect uncomputation upstream
    outcomes = []
    for name, _ in config.readouts:
        outcome, state = measure_segment(state, name, rng)
        if outcome:
            state = relabel(state, [name], np.arange(
                state.layout.segment(name).dim) ^ outcome)
        outcomes.append(outcome)
    return state, IdentificationRecord(orbital_mass, ambiguous_mass,
                                       tuple(outcomes))


def register_identify(state, config, fock_segment, particle_segment, rng,
                      counter_width=1):
    """`register_identify_and_decrement` on `state` with the readouts
    appended blank, returned on the layout of `state`: the measured resets
    leave the readouts blank.
    """
    held = RegisterLayout([*((seg.name, seg.width) for seg in state.layout),
                           *config.readouts])
    amps = np.zeros(held.dim, dtype=np.complex128)
    amps[:state.layout.dim] = state.amplitudes
    out, record = register_identify_and_decrement(
        QuantumState(held, amps), config, fock_segment, particle_segment,
        rng, counter_width)
    assert not out.amplitudes[state.layout.dim:].any()
    return QuantumState(state.layout, out.amplitudes[:state.layout.dim]), \
        record


# -- gate-level phase estimation: the reference for the closed form --------

def symmetry_unitary(op, l: int) -> np.ndarray:
    """The 2^l x 2^l permutation matrix of a `SymmetryOperator`, from its
    kind and step: reflection j -> (N - j) mod N, cyclic shift
    j -> (j - step) mod N.
    """
    n = 1 << l
    u = np.zeros((n, n))
    src = np.arange(n)
    dst = (-src) % n if op.kind == "reflection" else (src - op.step) % n
    u[dst, src] = 1.0
    return u


def fock_matrix(basis: BasisSet, l: int) -> np.ndarray:
    """F = sum_i E_i |phi_i><phi_i| on the 2^l grid."""
    phi = basis.grid_matrix(l)
    return (phi * basis.energies) @ phi.conj().T


def qft_matrix(width: int, inverse: bool = False) -> np.ndarray:
    """Dense QFT on `width` qubits, kernel exp(+2 pi i j k / d) / sqrt(d),
    conjugated when `inverse`.
    """
    d = 1 << width
    jk = np.outer(np.arange(d), np.arange(d))
    sign = -1.0 if inverse else 1.0
    return np.exp(sign * 2j * np.pi * jk / d) / np.sqrt(d)


# -- qubit-level controls for the gate-level references ---------------------

def control_qubits(layout, controls) -> list[tuple[int, int]]:
    """The (global qubit, bit) pairs of (segment, value) controls."""
    bits = []
    for name, value in controls or []:
        seg = layout.segment(name)
        if not 0 <= value < seg.dim:
            raise ValidationError(
                f"control value {value} out of range for segment {name!r}")
        bits.extend((seg.offset + b, (value >> b) & 1)
                    for b in range(seg.width))
    return bits


def control_masks(state: QuantumState, seg, controls, hi_n: int,
                  lo_n: int) -> tuple[np.ndarray, np.ndarray]:
    """Masks over the qubits above (hi_n values) and below (lo_n values,
    bit 0 = qubit 0) the target segment that select the branch where every
    (global qubit, bit) control matches.
    """
    hi_sel = np.ones(hi_n, dtype=bool)
    lo_sel = np.ones(lo_n, dtype=bool)
    for q, bit in controls or []:
        if not 0 <= q < state.layout.n_total:
            raise StructuralError(f"qubit index {q} outside layout")
        if seg.offset <= q < seg.offset + seg.width:
            raise StructuralError("control qubit lies inside the target segment")
        if q < seg.offset:
            lo_sel &= ((np.arange(lo_n) >> q) & 1) == bit
        else:
            shift = q - seg.offset - seg.width
            hi_sel &= ((np.arange(hi_n) >> shift) & 1) == bit
    return hi_sel, lo_sel


def controlled_unitary(state: QuantumState, segment: str, u: np.ndarray,
                       controls=None) -> QuantumState:
    """`u` on one segment where every (global qubit, bit) control matches,
    identity elsewhere.
    """
    seg = state.layout.segment(segment)
    amps = state.amplitudes.copy()
    cube = amps.reshape(-1, seg.dim, 1 << seg.offset)
    hi_sel, lo_sel = control_masks(state, seg, controls, cube.shape[0],
                                   cube.shape[2])
    block = np.ix_(hi_sel, np.arange(seg.dim), lo_sel)
    cube[block] = np.einsum("ab,hbl->hal", u, cube[block])
    return QuantumState(state.layout, amps)


def textbook_phase_estimate(state: QuantumState, readout_segment: str,
                            target_segment: str, u: np.ndarray,
                            adjoint: bool = False) -> QuantumState:
    """The phase-estimation circuit gate by gate: QFT on the readout,
    u^(2^b) on the target controlled by readout qubit b (u^dagger with
    `adjoint`), inverse QFT.
    """
    readout = state.layout.segment(readout_segment)
    power = np.asarray(u, dtype=np.complex128)
    if adjoint:
        power = power.conj().T
    state = controlled_unitary(state, readout_segment,
                               qft_matrix(readout.width))
    for b in range(readout.width):
        state = controlled_unitary(state, target_segment, power,
                                   [(readout.offset + b, 1)])
        power = power @ power
    return controlled_unitary(state, readout_segment,
                              qft_matrix(readout.width, inverse=True))


# -- the preparation skeleton with the load on the full layout: the
# reference for `compose._prepare` ------------------------------------------

def reference_antisymmetrize(state: QuantumState, b_segments, p_segments,
                             statistics):
    """`assemble.antisymmetrize` from a dense state: the stages take its
    amplitudes of nonzero magnitude, and one particle returns `state`
    itself.
    """
    index = np.flatnonzero(state.amplitudes)
    support = generate_permutation_superposition(
        SparseState(state.layout, index, state.amplitudes[index]),
        b_segments, len(p_segments))
    support = apply_rank_to_permutation(support, b_segments)
    out, counters = sort_and_entangle(support, b_segments, p_segments,
                                      statistics)
    return (state if len(p_segments) == 1 else out), counters


def reference_prepare(kind, species, l, spec, load, head=(), blank=(),
                      rho=False) -> PreparedState:
    """`compose._prepare` with the load run on the layout that holds the
    permutation banks, and each bank (anti)symmetrized from the dense
    vector.  The `blank` readouts, whose registers the load stands in for,
    count toward the qubits only.
    """
    def names(segments):
        return [name for name, _ in segments]

    parts = [particle_segments(occ.m, l, prefix=f"{prefix}particle")
             for occ, prefix in species]
    perms = [permutation_segments(occ.m, prefix=f"{prefix}perm")
             for occ, prefix in species]
    layout = RegisterLayout([*head, *sum(parts + perms, [])])
    counters: dict = {}
    state, attempts = load(layout, [names(p) for p in parts], counters)
    syms = []
    for (occ, _), p, b in zip(species, parts, perms):
        state, sym = reference_antisymmetrize(state, names(b), names(p),
                                              occ.statistics)
        syms.append(sym)
    counters.update(syms[0] if len(syms) == 1 else {
        key: sum(sym[key] for sym in syms)
        for key in ("comparators", "swapped_qubits")})
    m = sum(occ.m for occ, _ in species)
    report = PreparationReport(
        kind=kind, l=l, m=m,
        statistics="+".join(occ.statistics for occ, _ in species),
        qubits=layout.n_total + sum(width for _, width in blank),
        attempts=attempts, retries=attempts - 1, counters=counters,
        error_bound=(m + len(head)) * load_error_bound(l, spec.epsilon_i),
    )
    kept = names(sum(parts, []))
    return PreparedState(
        vector=None if rho else extract_segment_vector(state, kept),
        rho=partial_trace(state, kept) if rho else None,
        report=report, state=state)


# -- dense density matrices: the reference for the factor form ---------------

def coerce_matrix(rho) -> np.ndarray:
    """The dense ρ of a `DensityMatrix`, or an array as complex128."""
    if isinstance(rho, DensityMatrix):
        return rho.matrix
    return np.asarray(rho, dtype=np.complex128)


def checked_density_matrix(matrix) -> np.ndarray:
    """A copy of `matrix`, after the dense density-matrix checks: square,
    finite, |tr ρ − 1| ≤ MATRIX_TOL, Hermitian to MATRIX_TOL entrywise, and
    λ_min(ρ) ≥ −MATRIX_TOL, decided by whether ρ + MATRIX_TOL·I has a
    Cholesky factor.
    """
    rho = np.array(matrix, dtype=np.complex128)
    d = rho.shape[0]
    if rho.shape != (d, d):
        raise ValidationError("density matrix must be square")
    if not np.isfinite(rho).all():
        raise ValidationError("density matrix has non-finite entries")
    if abs(np.trace(rho).real - 1.0) > MATRIX_TOL:
        raise ValidationError(f"trace {np.trace(rho)} != 1")
    if np.max(np.abs(rho - rho.conj().T)) > MATRIX_TOL:
        raise ValidationError("density matrix is not Hermitian")
    try:
        np.linalg.cholesky(rho + MATRIX_TOL * np.eye(d))
    except np.linalg.LinAlgError:
        raise ValidationError(
            "density matrix has negative eigenvalues") from None
    return rho


def eigenvalues(rho) -> np.ndarray:
    return np.linalg.eigvalsh(coerce_matrix(rho))


def _psd_roots(vals: np.ndarray) -> np.ndarray:
    """Square roots of the eigenvalues of a PSD matrix of norm at most 1,
    with those within rounding of zero (at most dim·2^-52) read as 0: the
    root would turn a rounding of 1e-17 into an error of 3e-9.
    """
    return np.sqrt(np.where(vals > vals.size * np.finfo(float).eps, vals,
                            0.0))


def psd_sqrt(m: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(m)
    return (vecs * _psd_roots(vals)) @ vecs.conj().T


def dense_mixed_fidelity(rho, sigma) -> float:
    """Square-root fidelity Tr sqrt(sqrt(ρ) σ sqrt(ρ)) by two dense
    eigensolves, clipped to at most 1 against eigenvalue round-off.
    """
    r = coerce_matrix(rho)
    s = coerce_matrix(sigma)
    if r.shape != s.shape:
        raise ValidationError(
            f"density matrix dimensions differ: {r.shape} vs {s.shape}")
    root = psd_sqrt(r)
    vals = np.linalg.eigvalsh(root @ s @ root)
    return float(min(1.0, np.sum(_psd_roots(vals))))


# -- runs in a fresh interpreter per BLAS thread count -----------------------

def outputs_under_blas_threads(args, cwds=(None, None)) -> list[str]:
    """Standard output of `python args...` with gridprep from `src/`, run
    side by side with one BLAS thread (in `cwds[0]`) and with two (in
    `cwds[1]`).
    """
    runs = []
    for threads, cwd in zip(("1", "2"), cwds):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(
                   [SRC, os.environ.get("PYTHONPATH", "")])}
        runs.append(subprocess.Popen(
            [sys.executable, *args], env=env, cwd=cwd, text=True,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE))
    outputs = []
    try:
        for run in runs:
            out, err = run.communicate(timeout=300)
            assert run.returncode == 0, err
            outputs.append(out)
    finally:
        for run in runs:  # a run left over by a failure above
            run.kill()
            run.wait()
    return outputs
