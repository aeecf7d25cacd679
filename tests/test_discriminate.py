"""Phase estimation, lookup windows, symmetry readouts, uncomputation."""
import tracemalloc
from functools import partial, reduce
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from gridprep import compose, discriminate
from gridprep.basis import BasisSet, IntegrationSpec, box_sine, \
    ring_plane_wave
from gridprep.discriminate import (
    MAX_PHASE_BITS,
    PhaseEstimationConfig,
    SymmetryOperator,
    _instrument,
    energy_phases,
    extra_qubits_for,
    identify_and_decrement,
    phase_estimate,
    verify_uncomputation,
)
from gridprep.errors import DegeneracyError, StructuralError, ValidationError
from gridprep.loader import load_orbital
from gridprep.statevec import QuantumState, RegisterLayout, vector_norm
from helpers import fock_matrix, from_basis_index, qft_matrix, \
    reference_decrement_fock, reference_lookup, register_decrement_fock, \
    register_identify, register_phase_estimate, segment_probabilities, \
    symmetry_unitary, textbook_phase_estimate

CDF = IntegrationSpec(backend="analytic-cdf", epsilon_i=1e-9)


def misidentification_probability(p):
    """Bound on readout mass beyond the resolving width, p extra qubits."""
    return 1.0 / (2.0 * (2**p - 2))


class TestReadoutSizing:
    def test_extra_qubits_reference_values(self):
        assert extra_qubits_for(0.25) == 2
        assert extra_qubits_for(0.05) == 4

    def test_extra_qubits_monotone(self):
        widths = [extra_qubits_for(e) for e in (0.3, 0.1, 0.03, 0.01)]
        assert widths == sorted(widths)

    def test_sizing_meets_target(self):
        for eps in (0.25, 0.1, 0.05, 0.01):
            p = extra_qubits_for(eps)
            assert misidentification_probability(p) <= eps


class TestSymmetryOperator:
    def test_unitaries_are_permutations(self):
        for op in (SymmetryOperator("reflection"),
                   SymmetryOperator("cyclic-shift"),
                   SymmetryOperator("cyclic-shift", step=3)):
            sites = op.sites(3)
            assert np.array_equal(np.sort(sites), np.arange(8))
            assert np.array_equal(np.argmax(symmetry_unitary(op, 3), axis=0),
                                  sites)

    def test_plane_wave_shift_eigenphase(self):
        op = SymmetryOperator("cyclic-shift")
        for k in (0, 1, -1, 3):
            v = ring_plane_wave(k).grid_values(3)
            assert op.eigenphase(v) == pytest.approx((k / 8) % 1.0,
                                                     abs=1e-10)

    def test_reflection_eigenphases(self):
        op = SymmetryOperator("reflection")
        phi = BasisSet([box_sine(1), box_sine(2)]).grid_matrix(3)
        assert op.eigenphase(phi[:, 0]) == pytest.approx(0.0, abs=1e-10)
        assert op.eigenphase(phi[:, 1]) == pytest.approx(0.5, abs=1e-10)

    @pytest.mark.parametrize("op", [
        SymmetryOperator("reflection"), SymmetryOperator("cyclic-shift"),
        SymmetryOperator("cyclic-shift", 2),
        SymmetryOperator("cyclic-shift", -3)])
    @pytest.mark.parametrize("l", [1, 2, 3, 4])
    def test_modes_are_an_eigenbasis(self, op, l):
        # the columns of the inverse transform are the basis vectors
        vectors = op.modes(np.eye(1 << l), inverse=True)
        np.testing.assert_allclose(vectors.conj().T @ vectors,
                                   np.eye(1 << l), rtol=0, atol=1e-12)
        assert np.allclose([op.eigenphase(v) for v in vectors.T],
                           op.mode_phases(l), rtol=0, atol=1e-12)
        values = np.random.default_rng(l).normal(size=(1 << l, 3, 2))
        np.testing.assert_allclose(
            op.modes(op.modes(values), inverse=True), values, rtol=0,
            atol=1e-12)

    def test_non_eigenstate_rejected(self):
        op = SymmetryOperator("cyclic-shift")
        v = np.zeros(8)
        v[0] = 1.0
        with pytest.raises(ValidationError):
            op.eigenphase(v)

    def test_unknown_kind(self):
        with pytest.raises(ValidationError):
            SymmetryOperator("rotation-please")


class TestConfigBuild:
    def test_distinct_dyadic_energies(self):
        bas = BasisSet([box_sine(1, energy=0.0), box_sine(2, energy=1.0),
                        box_sine(3, energy=2.0)])
        cfg = PhaseEstimationConfig.build(bas, 3, t=2 * np.pi / 4)
        # thetas 0, 3/4, 1/2 are exact at 2 bits
        (_, width), = cfg.readouts
        assert width == 2
        np.testing.assert_allclose(cfg.phases[:3, 0], [0.0, 0.75, 0.5])

    def test_collision_raises_with_energies_in_message(self):
        bas = BasisSet([ring_plane_wave(0, energy=0.0),
                        ring_plane_wave(1, energy=1.0),
                        ring_plane_wave(-1, energy=1.0)])
        with pytest.raises(DegeneracyError, match="1.0"):
            PhaseEstimationConfig.build(bas, 3, t=2 * np.pi / 4)

    def test_symmetry_resolves_collision(self):
        bas = BasisSet([ring_plane_wave(0, energy=0.0),
                        ring_plane_wave(1, energy=1.0),
                        ring_plane_wave(-1, energy=1.0)])
        cfg = PhaseEstimationConfig.build(
            bas, 3, t=2 * np.pi / 4,
            symmetry=SymmetryOperator("cyclic-shift"))
        table = cfg.lookup
        # each orbital owns at least one readout cell, none overlap
        owners = {int(v) for v in np.unique(table) if v >= 0}
        assert owners == {0, 1, 2}

    def test_inexact_symmetry_phases_need_eps_pe(self):
        # a shift by 3 of 2^17 sites gives k = +-1 the phases +-3 / 2^17,
        # which 15 bits separate but no readout of at most MAX_PHASE_BITS =
        # 16 bits reads exactly; the energy phases 0, 3/4, 3/4 are exact
        bas = BasisSet([ring_plane_wave(k, energy=float(k * k))
                        for k in (0, 1, -1)])
        with pytest.raises(ValidationError, match="^eps_pe: "):
            PhaseEstimationConfig.build(
                bas, 17, t=2 * np.pi / 4,
                symmetry=SymmetryOperator("cyclic-shift", 3))

    def test_inexact_energy_phases_need_eps_pe(self):
        energies = np.array([0.0, np.sqrt(2)])  # phases 0 and 1 - sqrt(2)/4
        with pytest.raises(ValidationError, match="^eps_pe: "):
            energy_phases(energies, 2 * np.pi / 4)
        assert energy_phases(energies, 2 * np.pi / 4, 0.05)[0] == 0.0

    def test_inexact_colliding_phases_need_eps_pe(self):
        # exactness is tested before separation, so without eps_pe phases
        # that are both inexact and colliding name eps_pe
        bas = BasisSet([box_sine(1, energy=np.sqrt(2)),
                        box_sine(2, energy=np.sqrt(2))])
        with pytest.raises(ValidationError, match="^eps_pe: "):
            PhaseEstimationConfig.build(bas, 3, t=1.0)
        with pytest.raises(DegeneracyError, match="collide"):
            PhaseEstimationConfig.build(bas, 3, t=1.0, eps_pe=0.05)

    @pytest.mark.parametrize("symmetry, tests", [
        (None, 1), (SymmetryOperator("cyclic-shift"), 2)])
    def test_each_readout_tested_for_exactness_once(self, symmetry, tests):
        bas = BasisSet([ring_plane_wave(0, energy=0.0),
                        ring_plane_wave(1, energy=1.0),
                        ring_plane_wave(-1, energy=np.sqrt(2))])
        with mock.patch.object(discriminate, "_exact_bits",
                               wraps=discriminate._exact_bits) as exact:
            PhaseEstimationConfig.build(bas, 3, t=2 * np.pi / 4,
                                        eps_pe=0.05, symmetry=symmetry)
        assert exact.call_count == tests

    def test_noncommuting_symmetry_rejected(self):
        bas = BasisSet([box_sine(1, energy=0.0), box_sine(2, energy=0.0)])
        with pytest.raises(ValidationError):
            PhaseEstimationConfig.build(
                bas, 3, symmetry=SymmetryOperator("cyclic-shift"))

    def test_extra_qubits_included(self):
        # only an inexact readout takes p = extra_qubits_for(eps_pe) = 4
        # extra qubits: exact phases read deterministically at their width
        bas = BasisSet([box_sine(1, energy=0.0), box_sine(2, energy=1.0)])
        widths = [PhaseEstimationConfig.build(
            bas, 3, t=2 * np.pi / 4, eps_pe=eps).readouts[0][1]
            for eps in (None, 0.05)]
        assert widths == [2, 2]
        # energy phases 0, 1 - sqrt(2)/4 (twice) at 1 bit + 4; the cyclic
        # shift splits the pair at its exact 3 bits
        ring = BasisSet([ring_plane_wave(0, energy=0.0),
                         ring_plane_wave(1, energy=np.sqrt(2)),
                         ring_plane_wave(-1, energy=np.sqrt(2))])
        cfg = PhaseEstimationConfig.build(
            ring, 3, t=2 * np.pi / 4, eps_pe=0.05,
            symmetry=SymmetryOperator("cyclic-shift"))
        assert [width for _, width in cfg.readouts] == [5, 3]
        assert _extra_bits(cfg, 0.05) == [4, 0]

    def test_symmetry_collision_raises(self):
        # box sines 1 and 3 at one energy are both even under the
        # reflection: phase 0 in both readouts
        bas = BasisSet([box_sine(1, energy=1.0), box_sine(3, energy=1.0)])
        with pytest.raises(DegeneracyError, match=r"\[\[0, 1\]\].*collide"):
            PhaseEstimationConfig.build(
                bas, 3, t=2 * np.pi / 4,
                symmetry=SymmetryOperator("reflection"))


def _extra_bits(cfg, eps_pe):
    """Each readout's extra qubits p: none where the orbitals' phases are
    exact dyadics at its width, else extra_qubits_for(eps_pe).
    """
    extras = []
    for phases, (_, width) in zip(cfg.phases[:cfg.basis.size].T,
                                  cfg.readouts):
        scaled = phases * (1 << width)
        exact = np.max(np.abs(scaled - np.round(scaled))) \
            < discriminate.PHASE_TOL
        extras.append(0 if exact else extra_qubits_for(eps_pe))
    return extras


@st.composite
def lookup_cases(draw, exact=False):
    """Energy phases at random levels (a + j sqrt(2) / 64) / 256, a an
    8-bit integer and j in [-20, 20] (0 gives an exact dyadic; with `exact`
    every j is 0), so 8 bits resolve distinct levels; p <= 4 extra bits.
    Box sines on distinct levels have one readout; ring plane waves, which
    may share a level, a cyclic shift (odd step) as the second.  The last
    item says whether every orbital's level is exact.
    """
    count = draw(st.integers(1, 4))
    levels = [((a + j * np.sqrt(2) / 64) / 256, j == 0) for a, j in zip(
        draw(st.lists(st.integers(0, 255), min_size=count, max_size=count,
                      unique=True)),
        draw(st.lists(st.just(0) if exact else st.integers(-20, 20),
                      min_size=count, max_size=count)))]
    eps_pe = draw(st.sampled_from([None, 0.3, 0.1, 0.05]))
    if not draw(st.booleans()):
        return BasisSet([box_sine(n + 1, energy=-ph) for n, (ph, _)
                         in enumerate(levels)]), 3, eps_pe, None, all(
            exact for _, exact in levels)
    l = draw(st.integers(3, 4))
    ks = draw(st.lists(st.integers(-(1 << (l - 1)), (1 << (l - 1)) - 1),
                       min_size=count, max_size=count, unique=True))
    phases = [draw(st.sampled_from(levels)) for _ in ks]
    symmetry = SymmetryOperator("cyclic-shift",
                                draw(st.sampled_from([1, 3, 5])))
    return BasisSet([ring_plane_wave(k, energy=-ph) for k, (ph, _)
                     in zip(ks, phases)]), l, eps_pe, symmetry, all(
        exact for _, exact in phases)


class TestLookupAgainstWindows:
    @settings(max_examples=200, deadline=None)
    @given(lookup_cases())
    def test_lookup_matches_window_definition(self, case):
        bas, l, eps_pe, symmetry, exact = case
        build = partial(PhaseEstimationConfig.build, bas, l, t=2 * np.pi,
                        eps_pe=eps_pe, symmetry=symmetry)
        if eps_pe is None and not exact:
            # no bound covers a misread of an inexact phase
            with pytest.raises(ValidationError, match="eps_pe"):
                build()
            return
        cfg = build()
        extras = _extra_bits(cfg, eps_pe)
        phases = [cfg.phases[:bas.size, 0]]
        if symmetry is not None:
            phi = bas.grid_matrix(l)
            phases.append([symmetry.eigenphase(phi[:, j])
                           for j in range(bas.size)])
        # the (n, p) the config chose: 8 bits read exact levels, and an
        # inexact readout may widen past them until it reads every orbital
        # right
        bits = [width - p for (_, width), p in zip(cfg.readouts, extras)]
        assert len(bits) == 1 + (symmetry is not None)
        assert max(bits) <= (8 if exact else MAX_PHASE_BITS)
        assert np.array_equal(cfg.lookup,
                              reference_lookup(phases, bits, extras))

    @settings(max_examples=100, deadline=None)
    @given(lookup_cases(exact=True))
    def test_exact_widths_do_not_depend_on_eps_pe(self, case):
        bas, l, _, symmetry, _ = case
        widths = [[width for _, width in PhaseEstimationConfig.build(
            bas, l, t=2 * np.pi, eps_pe=eps, symmetry=symmetry).readouts]
            for eps in (None, 0.3, 0.1, 0.05)]
        assert widths[1:] == widths[:1] * 3

    def test_exact_ring_readouts_take_no_extra_qubits(self):
        # exact 8-bit levels split by a 4-bit cyclic shift; with 4 extra
        # qubits on each readout the instrument would span 2^20 values
        ring = BasisSet([ring_plane_wave(k, energy=-a / 256)
                         for k, a in zip((0, 1, -1, 3), (1, 3, 3, 5))])
        cfg = PhaseEstimationConfig.build(
            ring, 4, t=2 * np.pi, eps_pe=0.05,
            symmetry=SymmetryOperator("cyclic-shift"))
        assert [width for _, width in cfg.readouts] == [8, 4]


#: Box-sine orbitals n = 7, 5, 4, 3 at energies sqrt(1.7 n): at t = 1,
#: orbital n = 3 has theta 2^5 = 20.4985, near the edge of its 5-bit key's
#: window, so with eps_pe = 0.05 its 9-qubit readout mostly reads key 21
EDGE_BASIS = BasisSet([box_sine(n, energy=float(np.sqrt(1.7 * n)))
                       for n in (7, 5, 4, 3)])


def _read_right(thetas, n, p):
    """The mass the closed-form readout of n + p qubits puts in each
    orbital's window at n bits (`reference_lookup`).
    """
    cells = reference_lookup([thetas], [n], [p])
    return np.sum(np.abs(phase_estimate(thetas, n + p)) ** 2
                  * (cells == np.arange(len(thetas))[:, None]), axis=1)


class TestReadoutWidening:
    @settings(max_examples=100, deadline=None)
    @given(lookup_cases())
    def test_every_orbital_read_right(self, case):
        bas, l, eps_pe, symmetry, _ = case
        assume(eps_pe is not None and symmetry is None)
        cfg = PhaseEstimationConfig.build(bas, l, t=2 * np.pi, eps_pe=eps_pe)
        (_, width), = cfg.readouts
        thetas = cfg.phases[:bas.size, 0]
        p, = _extra_bits(cfg, eps_pe)
        right = _read_right(thetas, width - p, p)
        assert np.all(right >= 1.0 - eps_pe)
        _, masses = cfg.instrument
        orbitals = np.arange(bas.size)
        np.testing.assert_allclose(masses[orbitals, 1 + orbitals], right,
                                   rtol=0, atol=1e-12)

    def test_edge_phase_widens_the_readout(self):
        cfg = PhaseEstimationConfig.build(EDGE_BASIS, 3, t=1.0, eps_pe=0.05)
        (_, width), = cfg.readouts
        thetas = cfg.phases[:EDGE_BASIS.size, 0]
        assert width == 10
        # at the separating width, 5 bits + p = 4, orbital n = 3 misreads
        assert _read_right(thetas, 5, 4)[3] < 0.95 <= min(
            _read_right(thetas, 6, 4))

    def test_no_width_reads_right(self):
        # the energy readout would widen past MAX_PHASE_BITS (5 here)
        with mock.patch.object(discriminate, "MAX_PHASE_BITS", 5), \
                pytest.raises(DegeneracyError, match="eps_pe"):
            PhaseEstimationConfig.build(EDGE_BASIS, 3, t=1.0, eps_pe=0.05)


def _pe_distribution(theta, q):
    """Readout distribution for phase estimation of diag(1, e^{2 pi i th})
    applied to the |1> eigenstate.
    """
    layout = RegisterLayout([("t", 1), ("r", q)])
    amps = np.zeros(layout.dim, dtype=complex)
    amps[1] = 1.0  # target |1>, readout |0>
    state = QuantumState(layout, amps)
    # u = diag(1, e^{2 pi i theta})
    state = register_phase_estimate(state, "r", "t",
                                    (np.eye(2)[:, 1:], [theta]))
    return segment_probabilities(state, "r"), state


class TestPhaseEstimate:
    def test_exact_dyadic_phase_is_deterministic(self):
        probs, _ = _pe_distribution(5 / 16, 4)
        assert probs[5] == pytest.approx(1.0, abs=1e-12)

    def test_accuracy_bound_with_extra_qubits(self):
        # n=3 resolving bits, p=4 extras: mass farther than 2^-3 from theta
        # is at most 1/(2(2^4-2))
        n, p = 3, 4
        theta = 0.3
        probs, _ = _pe_distribution(theta, n + p)
        grid = np.arange(1 << (n + p)) / (1 << (n + p))
        d = np.abs(grid - theta)
        d = np.minimum(d, 1 - d)
        outside = probs[d > 2.0**-n].sum()
        assert outside <= misidentification_probability(p) + 0.01

    def test_adjoint_round_trip(self):
        layout = RegisterLayout([("t", 2), ("r", 3)])
        rng = np.random.default_rng(2)
        amps = np.zeros(layout.dim, dtype=complex)
        amps[:4] = rng.normal(size=4) + 1j * rng.normal(size=4)
        amps /= np.linalg.norm(amps)
        state = QuantumState(layout, amps)
        h = rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2))
        grid, _ = np.linalg.qr(h)
        for u in ((grid, rng.uniform(size=2)), rng.permutation(4)):
            forward = register_phase_estimate(state, "r", "t", u)
            back = register_phase_estimate(forward, "r", "t", u, adjoint=True)
            np.testing.assert_allclose(back.amplitudes, amps, atol=1e-10)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=1,
                    max_size=3), st.integers(1, 6))
    def test_closed_form_readout_is_the_textbook_circuit(self, phases, width):
        # the |1> eigenstate of diag(1, e^{2 pi i theta}) leaves the readout
        # at the odd indices of the state
        layout = RegisterLayout([("t", 1),
                                 ("r", width)])
        got = phase_estimate(np.array(phases), width)
        for j, theta in enumerate(phases):
            state = textbook_phase_estimate(
                from_basis_index(layout, 1), "r", "t",
                np.diag([1.0, np.exp(2j * np.pi * theta)]))
            np.testing.assert_allclose(got[j], state.amplitudes[1::2],
                                       rtol=0, atol=1e-12)

    def test_symmetry_discriminate_separates_conjugate_pair(self):
        layout = RegisterLayout([("x", 3), ("r", 3)])
        for k, expected in ((1, 1), (-1, 7)):
            state = QuantumState.zero(layout)
            state, _ = load_orbital(state, "x", ring_plane_wave(k), CDF)
            state = register_phase_estimate(
                state, "r", "x", SymmetryOperator("cyclic-shift").sites(3))
            probs = segment_probabilities(state, "r")
            assert probs[expected] == pytest.approx(1.0, abs=1e-10)


def _test_unitary(kind, l, rng):
    """A readout's u on 2^l sites, in the form `register_phase_estimate`
    takes, and
    its dense matrix: a propagator exp(-i F t) of up to 3 orbitals, so the
    complement is a large eigenspace of phase 0, or a grid symmetry.
    """
    if kind == "energy":
        k = int(rng.integers(1, min(3, (1 << l) - 1) + 1))
        bas = BasisSet([box_sine(n + 1, energy=float(rng.uniform(-2, 2)))
                        for n in range(k)])
        t = float(rng.uniform(0.1, 3.0))
        thetas = (-bas.energies * t / (2 * np.pi)) % 1.0
        return (bas.grid_matrix(l), thetas), expm(-1j * t * fock_matrix(bas, l))
    step = int(rng.integers(1, 1 << l))
    op = SymmetryOperator(kind, step=step)
    return op.sites(l), symmetry_unitary(op, l)


class TestClosedForm:
    @settings(max_examples=120, deadline=None)
    @given(st.sampled_from(["energy", "cyclic-shift", "reflection"]),
           st.integers(1, 3), st.integers(1, 7), st.booleans(),
           st.booleans(), st.integers(0, 2**31 - 1))
    def test_matches_textbook_circuit(self, kind, l, q, readout_first,
                                      adjoint, seed):
        pair = [("t", l), ("r", q)]
        if readout_first:
            pair.reverse()
        layout = RegisterLayout([("lo", 1), pair[0],
                                 ("mid", 1), pair[1]])
        rng = np.random.default_rng(seed)
        # every register, the readout included, carries amplitude, and the
        # target carries mass outside the orbitals' span
        amps = rng.normal(size=layout.dim) + 1j * rng.normal(size=layout.dim)
        state = QuantumState(layout, amps / np.linalg.norm(amps))
        u, dense = _test_unitary(kind, l, rng)
        got = register_phase_estimate(state, "r", "t", u, adjoint=adjoint)
        want = textbook_phase_estimate(state, "r", "t", dense,
                                       adjoint=adjoint)
        np.testing.assert_allclose(got.amplitudes, want.amplitudes,
                                   rtol=0, atol=1e-12)

    @pytest.mark.parametrize("matrix", [
        [[1], [1]],                 # a column of norm sqrt 2
        [[1, 1e-6], [0, 1]],        # unit columns, not orthogonal
        [[1, 0, 0], [0, 1, 0]],     # more columns than target values
    ])
    def test_non_unitary_rejected(self, matrix):
        # u = I + grid diag(e^{2 pi i phases} - 1) grid^dagger is unitary
        # only for orthonormal columns
        layout = RegisterLayout([("t", 1), ("r", 2)])
        grid = np.array(matrix, dtype=complex)
        with pytest.raises(ValidationError, match="orthonormal"):
            register_phase_estimate(QuantumState.zero(layout), "r", "t",
                                    (grid, np.full(grid.shape[1], 0.25)))

    def test_segments_and_phases_checked(self):
        layout = RegisterLayout([("t", 2), ("r", 2)])
        state = QuantumState.zero(layout)
        for u in ((np.eye(4)[:, :2], [0.5]), np.arange(8),
                  np.array([0, 0, 1, 2])):
            with pytest.raises(StructuralError):
                register_phase_estimate(state, "r", "t", u)
        with pytest.raises(StructuralError):
            register_phase_estimate(state, "t", "t", np.arange(4))


def _loaded_state(bas, orbital_index):
    layout = RegisterLayout([("fock", bas.size),
                             ("particle0", 3)])
    state = from_basis_index(layout, 1 << orbital_index)
    state, _ = load_orbital(state, "particle0",
                            bas.orbitals[orbital_index], CDF)
    return state


class TestIdentifyAndDecrement:
    def setup_method(self):
        self.bas = BasisSet([box_sine(1, energy=0.0),
                             box_sine(2, energy=1.0),
                             box_sine(3, energy=2.0)])
        self.cfg = PhaseEstimationConfig.build(self.bas, 3, t=2 * np.pi / 4)

    def test_clears_fock_bit_and_readout(self):
        for j in range(3):
            state = _loaded_state(self.bas, j)
            state, record = identify_and_decrement(
                state, self.cfg, "fock", "particle0",
                rng=np.random.default_rng(0))
            assert record.orbital_mass[j] == pytest.approx(1.0, abs=1e-10)
            assert record.ambiguous_mass == pytest.approx(0.0, abs=1e-10)
            assert not record.leaked
            ok, outcome, state = verify_uncomputation(
                state, "fock", np.random.default_rng(0))
            assert ok and outcome == 0

    def test_particle_state_survives(self):
        state = _loaded_state(self.bas, 1)
        state, _ = identify_and_decrement(
            state, self.cfg, "fock", "particle0", rng=np.random.default_rng(0))
        from gridprep.statevec import extract_segment_vector
        vec = extract_segment_vector(state, ["particle0"])
        target = self.bas.orbitals[1].grid_values(3)
        assert abs(np.vdot(vec, target)) == pytest.approx(1.0, abs=1e-10)

    def test_superposed_fock_branches(self):
        # (0.6 |001>|phi0> + 0.8 |010>|phi1>) -> fock empty on both branches
        layout = RegisterLayout([("fock", 3),
                                 ("particle0", 3)])
        amps = np.zeros(layout.dim, dtype=complex)
        state = QuantumState(layout, amps)
        phi0 = self.bas.orbitals[0].grid_values(3)
        phi1 = self.bas.orbitals[1].grid_values(3)
        for x in range(8):
            amps[0b001 | (x << 3)] = 0.6 * phi0[x]
            amps[0b010 | (x << 3)] = 0.8 * phi1[x]
        state = QuantumState(layout, amps)
        state, record = identify_and_decrement(
            state, self.cfg, "fock", "particle0", rng=np.random.default_rng(0))
        assert record.orbital_mass[0] == pytest.approx(0.36, abs=1e-10)
        assert record.orbital_mass[1] == pytest.approx(0.64, abs=1e-10)
        ok, _, _ = verify_uncomputation(state, "fock",
                                        np.random.default_rng(0))
        assert ok

    def test_boson_counter_decrement(self):
        bas = BasisSet([box_sine(1, energy=0.0), box_sine(2, energy=1.0)])
        cfg = PhaseEstimationConfig.build(bas, 3, t=2 * np.pi / 4)
        layout = RegisterLayout([("fock", 4),
                                 ("particle0", 3)])
        # counters (2, 0): value 0b0010
        state = from_basis_index(layout, 0b0010)
        state, _ = load_orbital(state, "particle0", bas.orbitals[0], CDF)
        state, record = identify_and_decrement(
            state, cfg, "fock", "particle0",
            counter_width=2, rng=np.random.default_rng(0))
        vals = segment_probabilities(state, "fock")
        assert vals[0b0001] == pytest.approx(1.0, abs=1e-10)

    def test_wrong_readout_width_rejected(self):
        # a held readout is rejected at any width
        layout = RegisterLayout([("fock", 3),
                                 ("particle0", 3),
                                 ("readout", self.cfg.readouts[0][1] + 1)])
        state = QuantumState.zero(layout)
        with pytest.raises(StructuralError, match="stands in for"):
            identify_and_decrement(state, self.cfg, "fock", "particle0",
                                   rng=np.random.default_rng(0))

    @pytest.mark.parametrize("width", [2, 4])
    def test_particle_register_must_be_l_wide(self, width):
        # the map projects onto the grid columns of the config's l = 3
        layout = RegisterLayout([("fock", 3), ("particle0", width)])
        with pytest.raises(StructuralError, match="not 3 qubits wide"):
            identify_and_decrement(QuantumState.zero(layout), self.cfg,
                                   "fock", "particle0",
                                   rng=np.random.default_rng(0))

    def test_emulated_readout_must_not_be_held(self):
        # the Kraus map stands in for the energy readout, so a layout that
        # holds it, even at its width, is not one the map was made for
        (name, width), = self.cfg.readouts
        layout = RegisterLayout([("fock", 3),
                                 ("particle0", 3),
                                 (name, width)])
        with pytest.raises(StructuralError, match="stands in for"):
            identify_and_decrement(QuantumState.zero(layout), self.cfg,
                                   "fock", "particle0",
                                   rng=np.random.default_rng(0))

    def test_wrong_symmetry_readout_width_rejected(self):
        ring = BasisSet([ring_plane_wave(0, energy=0.0),
                         ring_plane_wave(1, energy=1.0),
                         ring_plane_wave(-1, energy=1.0)])
        cfg = PhaseEstimationConfig.build(
            ring, 3, t=2 * np.pi / 4,
            symmetry=SymmetryOperator("cyclic-shift"))
        name, width = cfg.readouts[1]
        layout = RegisterLayout([("fock", 3),
                                 ("particle0", 3),
                                 (name, width + 1)])
        with pytest.raises(StructuralError, match="'symread'.*stands in for"):
            identify_and_decrement(QuantumState.zero(layout), cfg, "fock",
                                   "particle0", rng=np.random.default_rng(0))


@st.composite
def instrument_cases(draw):
    """One to four components with a random phase in each of one or two
    readouts (of up to 8 qubits in all), one to three orbitals, and a
    lookup whose values name the orbitals or -1 (none), -1 always among
    them.
    """
    widths = draw(st.one_of(st.tuples(st.integers(1, 8)),
                            st.tuples(st.integers(1, 4), st.integers(1, 4))))
    phases = np.array(draw(st.lists(
        st.lists(st.floats(0.0, 1.0, exclude_max=True),
                 min_size=len(widths), max_size=len(widths)),
        min_size=1, max_size=4)))
    size = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    lookup = rng.integers(-1, size, size=[1 << w for w in widths])
    lookup[tuple(rng.integers(1 << w) for w in widths)] = -1
    return phases, lookup, size


def _widths(lookup):
    return [dim.bit_length() - 1 for dim in lookup.shape]


class TestKrausInstrument:
    @settings(max_examples=60, deadline=None)
    @given(instrument_cases())
    def test_complete_and_equal_to_its_definition(self, case):
        phases, lookup, size = case
        kraus, masses = _instrument(phases, lookup, size)
        assert kraus.shape == (len(phases), *lookup.shape, size + 1)
        # the lookup raveled first readout most significant, as np.kron
        # orders the joint readout value
        cells = np.arange(size + 1)[:, None] == lookup.ravel() + 1
        for c, row in enumerate(phases):
            # W_c = QFT^-1 diag(e^{2 pi i theta k}) QFT on each readout, as
            # the estimator, and the joint readout is their product
            w = reduce(np.kron, [
                qft_matrix(n, inverse=True) @ np.diag(np.exp(
                    2j * np.pi * theta * np.arange(1 << n))) @ qft_matrix(n)
                for theta, n in zip(row, _widths(lookup))])
            want = np.einsum("kr,k,ok->ro", w.conj(), w[:, 0], cells)
            got = kraus[c].reshape(-1, size + 1)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
            np.testing.assert_allclose(masses[c],
                                       cells @ np.abs(w[:, 0]) ** 2,
                                       rtol=0, atol=1e-12)
            np.testing.assert_allclose(got.conj().T @ got,
                                       np.diag(masses[c]), rtol=0,
                                       atol=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(instrument_cases())
    def test_masses_are_the_textbook_readout_distribution(self, case):
        phases, lookup, size = case
        _, masses = _instrument(phases, lookup, size)
        names = [f"r{a}" for a in range(lookup.ndim)]
        layout = RegisterLayout([("t", 1), *(
            (name, n) for name, n in zip(names, _widths(lookup)))])
        cells = np.arange(size + 1)[:, None] == lookup.ravel() + 1
        for c, row in enumerate(phases):
            state = from_basis_index(layout, 1)
            for name, theta in zip(names, row):
                state = textbook_phase_estimate(
                    state, name, "t",
                    np.diag([1.0, np.exp(2j * np.pi * theta)]))
            # the readouts at the odd indices, first readout least
            # significant: transposed, the lookup's order
            probs = np.abs(state.amplitudes[1::2]) ** 2
            np.testing.assert_allclose(
                masses[c], cells @ probs.reshape(lookup.shape[::-1]).T.ravel(),
                rtol=0, atol=1e-12)

    @pytest.mark.parametrize("phase", [np.nan, np.inf])
    def test_incomplete_instrument_rejected(self, phase):
        with pytest.raises(StructuralError, match="not complete"), \
                np.errstate(invalid="ignore"):
            _instrument(np.array([[0.25], [phase]]), np.array([0, 1, -1, 0]),
                        2)


#: (basis orbitals as (family, quantum number, energy), t, eps_pe, symmetry)
#: per kind of config; the symmetry splits the degenerate levels
KRAUS_CONFIGS = {
    "exact": ([(box_sine, n + 1, e) for n, e in enumerate([0.0, 1.0, 2.0])],
              2 * np.pi / 4, None, None),
    "irrational": ([(box_sine, n + 1, e) for n, e in enumerate(
        [0.0, np.sqrt(2), np.sqrt(5)])], 2 * np.pi * 0.3 / np.sqrt(2),
        (0.3, 0.1, 0.05), None),
    "shift": ([(ring_plane_wave, k, e) for k, e in [(0, 0.0), (1, 1.0),
                                                    (-1, 1.0)]],
              2 * np.pi / 4, None, "cyclic-shift"),
    "shift-irrational": ([(ring_plane_wave, k, e) for k, e in [
        (0, 0.0), (1, np.sqrt(2)), (-1, np.sqrt(2))]], 1.0, (0.3, 0.1),
        "cyclic-shift"),
    "reflection": ([(box_sine, n + 1, e) for n, e in enumerate(
        [0.0, 0.0, 1.0])], 2 * np.pi / 4, None, "reflection"),
    "reflection-irrational": ([(box_sine, n + 1, e) for n, e in enumerate(
        [np.sqrt(2), np.sqrt(2), np.sqrt(5)])], 1.0, (0.3, 0.1),
        "reflection"),
}


@st.composite
def kraus_cases(draw):
    """A random normalized state of (occupation register, particle
    register, spectator), with mass outside the orbitals' span, and a
    config of each kind: exact levels, or irrational ones read with eps_pe,
    alone or split by a cyclic shift (step 1 or 3) or a reflection; the
    register may hold fewer counters than the basis has orbitals.
    """
    orbitals, t, eps, kind = KRAUS_CONFIGS[draw(st.sampled_from(
        sorted(KRAUS_CONFIGS)))]
    l = draw(st.integers(2, 3))
    size = draw(st.integers(2, 3))
    bas = BasisSet([family(n, energy=e) for family, n, e in orbitals[:size]])
    symmetry = None if kind is None else SymmetryOperator(
        kind, draw(st.sampled_from([1, 3])))
    cfg = PhaseEstimationConfig.build(
        bas, l, t=t, eps_pe=None if eps is None else draw(st.sampled_from(eps)),
        symmetry=symmetry)
    counter_width = draw(st.sampled_from([1, 2]))
    counters = draw(st.integers(1, size))
    layout = RegisterLayout([
        ("fock", counters * counter_width),
        ("particle0", l),
        ("spectator", draw(st.integers(0, 2)))])
    # keeps the state that holds the readouts small
    assume(layout.n_total + sum(w for _, w in cfg.readouts) <= 18)
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    amps = rng.normal(size=layout.dim) + 1j * rng.normal(size=layout.dim)
    return (QuantumState(layout, amps / np.linalg.norm(amps)), cfg,
            counter_width, draw(st.integers(0, 2**31 - 1)), draw(
                st.booleans()))


class FirstLeak:
    """A stand-in for the numpy Generator whose draw is the first readout
    value other than 0 with probability above 1e-6 (0 if none), so that the
    comparison sees the state a leaked readout leaves.
    """

    def choice(self, size, p):
        return next((r for r in range(1, size) if p[r] > 1e-6), 0)


class TestKrausAgainstRegister:
    @settings(max_examples=120, deadline=None)
    @given(kraus_cases())
    def test_equal_to_the_register_path(self, case):
        state, cfg, counter_width, seed, leak = case

        def rng():
            return FirstLeak() if leak else np.random.default_rng(seed)

        got, record = identify_and_decrement(
            state, cfg, "fock", "particle0", rng(), counter_width)
        # the register path on the state with the readouts appended, blank
        ref, ref_record = register_identify(
            state, cfg, "fock", "particle0", rng(), counter_width)
        assert record.readout_outcomes == ref_record.readout_outcomes
        assert len(record.readout_outcomes) == len(cfg.readouts)
        np.testing.assert_allclose(got.amplitudes, ref.amplitudes,
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(record.orbital_mass,
                                   ref_record.orbital_mass, rtol=0,
                                   atol=1e-12)
        assert record.ambiguous_mass == pytest.approx(
            ref_record.ambiguous_mass, rel=0, abs=1e-12)


@pytest.mark.parametrize("orbitals, l", [(4, 6), (8, 4)])
def test_identification_allocates_under_eight_states(monkeypatch, orbitals,
                                                     l):
    """One identification on a state taken from inside
    prepare_superposition (box sines, two particles) allocates less than 8
    times the state's bytes at its peak: no array holds the K + 1
    decremented copies of all its parts, nor F x F matrices on the 2^K
    occupation values, which outgrow the state at many orbitals and a small
    grid (K = 8, l = 4).
    """
    calls = []

    def record(state, config, *args, **kwargs):
        calls.append((state, config, args, kwargs))
        return identify_and_decrement(state, config, *args, **kwargs)

    monkeypatch.setattr(compose, "identify_and_decrement", record)
    basis = BasisSet([box_sine(n + 1, energy=float(n))
                      for n in range(orbitals)])
    blank = "0" * (orbitals - 4)
    sup = compose.FockSuperposition.from_strings([(0.6, "1100" + blank),
                                                  (0.8, "1010" + blank)])
    compose.prepare_superposition(sup, basis, l, CDF, t=2 * np.pi / 8,
                                  seed=1)
    state, config, args, kwargs = calls[0]
    tracemalloc.start()
    try:
        identify_and_decrement(state, config, *args,
                               **{**kwargs, "rng": np.random.default_rng(1)})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * state.amplitudes.nbytes


@st.composite
def decrement_cases(draw):
    """An occupation register of one- or two-bit counters, one or two
    readouts and a spectator, in any layout order; a lookup with ambiguous
    cells and orbitals beyond the register's counters; normalized
    amplitudes with signed zeros.
    """
    counter_width = draw(st.sampled_from([1, 2]))
    n_counters = draw(st.integers(1, 3))
    readouts = [(f"read{i}", draw(st.integers(1, 3)))
                for i in range(draw(st.integers(1, 2)))]
    segments = draw(st.permutations(
        [("fock", n_counters * counter_width),
         ("spectator", draw(st.integers(0, 2)))]
        + readouts))
    layout = RegisterLayout(segments)
    size = n_counters + draw(st.integers(0, 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    lookup = rng.integers(-1, size, size=[1 << w for _, w in readouts])
    parts = rng.choice([0.0, -0.0, 1.0, -0.5, 0.3], size=(layout.dim, 2))
    amps = np.empty(layout.dim, dtype=np.complex128)
    amps.real, amps.imag = parts[:, 0], parts[:, 1]  # keep signed zeros
    if np.any(amps):
        amps /= vector_norm(amps)
    config = SimpleNamespace(readouts=tuple(readouts), lookup=lookup,
                             basis=SimpleNamespace(size=size))
    return QuantumState(layout, amps), config, counter_width


class TestDecrementAgainstFullLength:
    @settings(max_examples=150, deadline=None)
    @given(decrement_cases())
    def test_bitwise_equal_to_full_length_reference(self, case):
        state, config, counter_width = case
        got, mass, ambiguous = register_decrement_fock(state, config, "fock",
                                                       counter_width)
        ref, ref_mass, ref_ambiguous = reference_decrement_fock(
            state, config, "fock", counter_width)
        assert got.amplitudes.tobytes() == ref.amplitudes.tobytes()
        np.testing.assert_allclose(mass, ref_mass, rtol=0, atol=1e-12)
        assert ambiguous == pytest.approx(ref_ambiguous, rel=0, abs=1e-12)
