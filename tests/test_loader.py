"""Amplitude loading: product of dyadic splits, phase kickback, error
bounds, and the gate-level multiplexed-rotation circuit as reference.
"""
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridprep.basis import (
    EMPTY_MASS_THRESHOLD,
    IntegrationSpec,
    Orbital,
    box_sine,
    harmonic_hermite,
    ring_plane_wave,
    tabulated,
    uniform,
)
from gridprep.compose import prepare_orbital
from gridprep.errors import StructuralError, ValidationError
from gridprep.loader import (
    _mc_grid_ratio,
    load_amplitude_table,
    load_error_bound,
    load_orbital,
)
from gridprep.statevec import QuantumState, RegisterLayout
from helpers import control_masks, control_qubits, delta_at_site, grid_prob

CDF = IntegrationSpec(backend="analytic-cdf", epsilon_i=1e-9)


def fresh(l, extra=()):
    layout = RegisterLayout([("x", l), *extra])
    return QuantumState.zero(layout)


def infidelity(vec, target):
    return 1.0 - abs(np.vdot(vec, target))


# -- gate-level reference ----------------------------------------------------

def multiplexed_rotation(state, segment, level, c, s, controls=None):
    """One pass of the level-`level` rotations on the branch `controls`
    select: every amplitude pair whose high segment bits give prefix b
    rotates by the matrix [[c[b], -s[b]], [s[b], c[b]]].
    """
    seg = state.layout.segment(segment)
    target_bit = seg.width - level
    n_pref = 1 << (level - 1)
    amps = state.amplitudes.copy()
    hi_n = amps.size >> (seg.offset + seg.width)
    lo_n = (1 << seg.offset) * (1 << target_bit)
    cube = amps.reshape(hi_n, n_pref, 2, lo_n)
    hi_sel, lo_sel = control_masks(
        state, seg, control_qubits(state.layout, controls), hi_n, lo_n)
    c = c[None, :, None, None]
    s = s[None, :, None, None]
    pair0 = np.ix_(hi_sel, np.arange(n_pref), [0], lo_sel)
    pair1 = np.ix_(hi_sel, np.arange(n_pref), [1], lo_sel)
    a0, a1 = cube[pair0], cube[pair1]
    cube[pair0] = c * a0 - s * a1
    cube[pair1] = s * a0 + c * a1
    return QuantumState(state.layout, amps)


def circuit_load(state, segment, orbital, spec, controls=None,
                 ratio_perturb=None):
    """The load as a circuit: per block pair, one split ratio r and one
    rotation with entries sqrt(r) and sqrt(1 - r); l multiplexed-rotation
    passes; one masked pass of the phase factors that the orbital's grid
    evaluation returns.  Returns the state and the circuit's counters.
    """
    seg = state.layout.segment(segment)
    l = seg.width
    prob = grid_prob(orbital, l)
    prefix = np.concatenate([[0.0], np.cumsum(prob)])
    counts = dict(integral_requests=0, rotation_applications=0,
                  empty_blocks=0)
    for i in range(1, l + 1):
        stride = 1 << (l - i)
        c, s = np.ones(1 << (i - 1)), np.zeros(1 << (i - 1))
        for b in range(c.size):
            counts["integral_requests"] += 1
            lo, mid, hi = 2 * b * stride, (2 * b + 1) * stride, \
                (2 * b + 2) * stride
            den = prefix[hi] - prefix[lo]
            if den < EMPTY_MASS_THRESHOLD:
                counts["empty_blocks"] += 1
                continue
            if spec.backend == "monte-carlo":
                ratio = _mc_grid_ratio(prob, lo, mid, hi, spec, level=i,
                                       block=2 * b)
            else:
                ratio = float(np.clip((prefix[mid] - prefix[lo]) / den,
                                      0.0, 1.0))
            if ratio_perturb is not None:
                ratio = float(np.clip(ratio_perturb(i, 2 * b, ratio),
                                      0.0, 1.0))
            c[b], s[b] = np.sqrt(ratio), np.sqrt(1.0 - ratio)
            counts["rotation_applications"] += 1
        state = multiplexed_rotation(state, segment, i, c, s, controls)
    _, phases = orbital.sample_grid(l)
    if phases is not None:
        amps = state.amplitudes.copy()
        cube = amps.reshape(amps.size >> (seg.offset + l), seg.dim,
                            1 << seg.offset)
        hi_sel, lo_sel = control_masks(
            state, seg, control_qubits(state.layout, controls),
            cube.shape[0], cube.shape[2])
        sel = np.ix_(hi_sel, np.arange(seg.dim), lo_sel)
        cube[sel] = cube[sel] * phases[None, :, None]
        state = QuantumState(state.layout, amps)
    return state, counts


SPECTATOR_VALUES = st.sampled_from([0.0, -0.0, 1.0, -0.5, 0.3, -1e-300])


@st.composite
def load_cases(draw):
    """A blank target between spectator segments, optionally controlled,
    with an orbital, a backend and an optional stateful ratio perturbation.
    A `gap` segment, never a control, can separate `above` from the target.
    """
    l = draw(st.integers(1, 6))
    below, above = draw(st.integers(0, 2)), draw(st.integers(0, 2))
    gap = draw(st.integers(0, min(1, 10 - l - below - above)))
    layout = RegisterLayout([("below", below),
                             ("x", l),
                             ("gap", gap),
                             ("above", above)])
    controls = [(name, draw(st.integers(0, (1 << width) - 1)))
                for name, width in (("below", below), ("above", above))
                if width and draw(st.booleans())]
    family = draw(st.sampled_from(["delta", "tabulated", "box-sine",
                                   "ring", "hermite"]))
    if family == "delta":
        orbital = delta_at_site(draw(st.integers(0, (1 << l) - 1)), l)
    elif family == "tabulated":
        n = draw(st.integers(1, 1 << l))
        parts = st.sampled_from([0.0, -0.0, 1.0, -2.0, 0.5, 1e-9])
        table = [complex(draw(parts), draw(parts)) for _ in range(n)]
        if not any(table):
            table[-1] = 1.0
        orbital = tabulated(table + [0.0] * ((1 << l) - n), length=1.0)
    elif family == "box-sine":
        # box-sine 2 vanishes on the two sites of l = 1, a ValidationError
        orbital = box_sine(draw(st.integers(1, 3).filter(
            lambda n: n % (1 << l))))
    elif family == "ring":
        orbital = ring_plane_wave(draw(st.integers(-2, 2)))
    else:
        # widths at which no grid from two sites up vanishes
        orbital = harmonic_hermite(draw(st.integers(0, 3)),
                                   width=draw(st.sampled_from([0.15, 0.3])))
    if draw(st.booleans()):
        spec = IntegrationSpec(backend="monte-carlo", epsilon_i=0.2,
                               delta=0.2, bounds=(0.0, 1.0),
                               seed=draw(st.integers(0, 99)))
    else:
        spec = CDF
    perturb_seed = draw(st.none() | st.integers(0, 99))
    # Spectator amplitudes, signed zeros included, everywhere except on the
    # target's nonzero values on the loaded branch.
    index = np.arange(layout.dim)
    amps = np.array([complex(draw(SPECTATOR_VALUES), draw(SPECTATOR_VALUES))
                     for _ in index])
    on_branch = np.ones(layout.dim, dtype=bool)
    for name, value in controls:
        on_branch &= layout.values(name, index) == value
    amps[on_branch & (layout.values("x", index) != 0)] = 0.0
    return (QuantumState(layout, amps), orbital, spec, controls or None,
            perturb_seed)


def seeded_perturbation(seed):
    if seed is None:
        return None
    rng = np.random.default_rng(seed)
    return lambda i, k, r: r + rng.uniform(-0.05, 0.05)


class TestLoadOrbital:
    @pytest.mark.parametrize("orb", [
        uniform(), box_sine(1), box_sine(3), ring_plane_wave(2),
        delta_at_site(5, 3), tabulated(np.arange(1, 9, dtype=complex)),
    ])
    def test_matches_sampled_orbital(self, orb):
        l = 3
        state, _ = load_orbital(fresh(l), "x", orb, CDF)
        np.testing.assert_allclose(
            state.amplitudes, orb.grid_values(l), atol=1e-9)

    def test_plan_counters(self):
        l = 4
        state, plan = load_orbital(fresh(l), "x", box_sine(1), CDF)
        assert plan.l == l
        assert plan.integral_requests == (1 << l) - 1
        assert plan.rotation_applications + plan.empty_blocks == \
            plan.integral_requests

    def test_delta_orbital_skips_empty_blocks(self):
        l = 3
        state, plan = load_orbital(fresh(l), "x", delta_at_site(0, l), CDF)
        assert plan.empty_blocks > 0
        assert abs(state.amplitudes[0]) == pytest.approx(1.0)

    def test_requires_blank_segment(self):
        state = fresh(2)
        state, _ = load_orbital(state, "x", uniform(), CDF)
        with pytest.raises(ValidationError):
            load_orbital(state, "x", uniform(), CDF)

    def test_conditional_load(self):
        layout = RegisterLayout([("x", 2), ("c", 1)])
        amps = np.zeros(8, dtype=complex)
        amps[0b000] = 0.6  # c=0
        amps[0b100] = 0.8  # c=1
        state = QuantumState(layout, amps)
        state, _ = load_orbital(state, "x", uniform(), CDF,
                                controls=[("c", 1)])
        # c=0 branch untouched
        assert state.amplitudes[0] == pytest.approx(0.6)
        # c=1 branch uniform
        for x in range(4):
            assert state.amplitudes[0b100 | x] == pytest.approx(0.4)

    def test_ratio_cache_shared_across_loads(self):
        cache = {}
        _, p1 = load_orbital(fresh(3), "x", box_sine(1), CDF, cache=cache)
        _, p2 = load_orbital(fresh(3), "x", box_sine(1), CDF, cache=cache)
        assert p1.integral_evaluations == 7
        assert p2.integral_evaluations == 0
        assert p2.integral_requests == 7

    def test_one_grid_evaluation_per_load(self, monkeypatch):
        # ratios and phases come from one evaluation, and a cache hit
        # needs none
        calls = []
        evaluate = Orbital.sample_grid

        def counted(orbital, l):
            calls.append(l)
            return evaluate(orbital, l)

        monkeypatch.setattr(Orbital, "sample_grid", counted)
        cache = {}
        for expected in (1, 1):
            load_orbital(fresh(3), "x", ring_plane_wave(1), CDF, cache=cache)
            assert len(calls) == expected
        load_orbital(fresh(3), "x", ring_plane_wave(1), CDF)
        assert len(calls) == 2

    def test_phase_kickback(self):
        l = 3
        orb = ring_plane_wave(1)
        state, _ = load_orbital(fresh(l), "x", orb, CDF)
        target = orb.grid_values(l)
        assert infidelity(state.amplitudes, target) < 1e-12
        assert np.abs(np.angle(state.amplitudes[1])) > 1e-3  # genuinely complex

    def test_tabulated_phase_kickback(self):
        # a table carries its own phases, which the load kicks back
        orb = tabulated([1, -1j, 0, 2, 0.5 + 0.5j, -3, 1, 1j])
        state, _ = load_orbital(fresh(3), "x", orb, CDF)
        assert infidelity(state.amplitudes, orb.grid_values(3)) < 1e-12


class TestAgainstCircuit:
    @settings(max_examples=300, deadline=None)
    @given(load_cases())
    def test_bitwise_equal_to_circuit(self, case):
        state, orbital, spec, controls, perturb_seed = case
        got, plan = load_orbital(state, "x", orbital, spec, controls=controls,
                                 ratio_perturb=seeded_perturbation(
                                     perturb_seed))
        ref, counts = circuit_load(state, "x", orbital, spec,
                                   controls=controls,
                                   ratio_perturb=seeded_perturbation(
                                       perturb_seed))
        assert got.amplitudes.tobytes() == ref.amplitudes.tobytes()
        assert plan.integral_evaluations == counts["integral_requests"]
        for key, value in counts.items():
            assert getattr(plan, key) == value
        if spec.backend == "monte-carlo":
            assert plan.mc_samples_per_integral > 0

    @pytest.mark.parametrize("l", [13, 14])
    @pytest.mark.parametrize("orbital", [
        box_sine(3), ring_plane_wave(-5), harmonic_hermite(2)])
    def test_bitwise_equal_to_circuit_at_depth(self, orbital, l):
        # the levels alternate between the returned buffer and the spare,
        # so the two parities of l start the fan-out in different buffers;
        # ring-plane-wave(-5) has -0 at x = 0 before the kickback
        state = fresh(l)
        got, _ = load_orbital(state, "x", orbital, CDF)
        ref, _ = circuit_load(state, "x", orbital, CDF)
        assert got.amplitudes.tobytes() == ref.amplitudes.tobytes()

    @pytest.mark.parametrize("extra", [(), (("y", 2),)])
    @pytest.mark.parametrize("orbital", [uniform(), tabulated([1.0])])
    def test_width_zero_target(self, orbital, extra):
        # one site and no level: the seed is the loaded amplitude
        state = fresh(0, extra)
        got, _ = load_orbital(state, "x", orbital, CDF)
        ref, _ = circuit_load(state, "x", orbital, CDF)
        assert got.amplitudes.tobytes() == ref.amplitudes.tobytes()

    def test_bitwise_equal_to_circuit_on_a_benchmark_grid(self):
        state = fresh(17)
        got, _ = load_orbital(state, "x", ring_plane_wave(-8), CDF)
        ref, _ = circuit_load(state, "x", ring_plane_wave(-8), CDF)
        assert got.amplitudes.tobytes() == ref.amplitudes.tobytes()

    def _signed_zero_branch(self):
        """Target x between spectators `below` and `above`, controlled on
        c = 1.  On that branch the rows above = 0 hold the four signed-zero
        classes at x = 0, the rows above = 1 nonzero amplitudes; the c = 0
        branch holds amplitude at x != 0.
        """
        layout = RegisterLayout([("below", 2), ("x", 3),
                                 ("c", 1), ("above", 1)])
        amps = np.zeros(layout.dim, dtype=complex)
        zeros = [complex(0.0, 0.0), complex(0.0, -0.0), complex(-0.0, 0.0),
                 complex(-0.0, -0.0)]
        for below, (zero, value) in enumerate(zip(zeros,
                                                  [0.5, -0.5j, 0.3, -0.1])):
            amps[0b0_1_000_00 | below] = zero
            amps[0b1_1_000_00 | below] = value
            amps[0b0_0_101_00 | below] = 0.2
        return QuantumState(layout, amps), [("c", 1)]

    @pytest.mark.parametrize("orbital", [ring_plane_wave(1), box_sine(2)])
    def test_signed_zero_classes_on_controlled_branch(self, orbital):
        state, controls = self._signed_zero_branch()
        got, _ = load_orbital(state, "x", orbital, CDF, controls=controls)
        ref, _ = circuit_load(state, "x", orbital, CDF, controls=controls)
        assert got.amplitudes.tobytes() == ref.amplitudes.tobytes()
        rows = got.amplitudes.reshape(2, 2, 8, 4)[0, 1]  # above=0, c=1
        assert len({rows[:, below].tobytes() for below in range(4)}) > 1

    def test_orbital_without_phase(self):
        # every arg phi(x) is 0, so there is no phase pass; the signed
        # zeros on the branch still fan out through the splits as in the
        # circuit
        orbital = box_sine(1)
        assert orbital.sample_grid(3)[1] is None
        state, controls = self._signed_zero_branch()
        got, _ = load_orbital(state, "x", orbital, CDF, controls=controls)
        ref, _ = circuit_load(state, "x", orbital, CDF, controls=controls)
        assert got.amplitudes.tobytes() == ref.amplitudes.tobytes()

    def test_sub_tolerance_junk_is_overwritten(self):
        # A row whose target-0 amplitude is zero carries 1e-10 and -0.0 at
        # x != 0, within the blank check's 1e-9.  The load writes the
        # branch as the circuit writes it from the blank register; the
        # circuit itself would rotate the junk into the loaded sites.
        layout = RegisterLayout([("below", 1), ("x", 2),
                                 ("c", 1)])
        amps = np.zeros(layout.dim, dtype=complex)
        amps[0b1_00_0] = -0.0
        amps[0b1_01_0] = 1e-10
        amps[0b1_10_0] = complex(-0.0, -0.0)
        amps[0b1_00_1] = 0.8
        amps[0b0_11_0] = 0.6
        state = QuantumState(layout, amps)
        blank = amps.copy()
        blank[[0b1_01_0, 0b1_10_0]] = 0.0
        for orbital in (ring_plane_wave(1), box_sine(1)):
            got, _ = load_orbital(state, "x", orbital, CDF,
                                  controls=[("c", 1)])
            ref, _ = circuit_load(QuantumState(layout, blank), "x", orbital,
                                  CDF, controls=[("c", 1)])
            assert got.amplitudes.tobytes() == ref.amplitudes.tobytes()

    def test_controlled_load_needs_blank_branch(self):
        layout = RegisterLayout([("x", 2), ("c", 1)])
        amps = np.zeros(8, dtype=complex)
        amps[0b100] = 0.6   # c=1, x=0
        amps[0b101] = 0.8   # c=1, x=1: the target is not blank on c=1
        with pytest.raises(ValidationError):
            load_orbital(QuantumState(layout, amps), "x", uniform(), CDF,
                         controls=[("c", 1)])

    def test_other_branches_may_fill_the_target(self):
        layout = RegisterLayout([("x", 2), ("c", 1)])
        amps = np.zeros(8, dtype=complex)
        amps[0b011] = 0.6   # c=0, x=3
        amps[0b100] = 0.8   # c=1, x=0
        state, _ = load_orbital(QuantumState(layout, amps), "x", uniform(),
                                CDF, controls=[("c", 1)])
        assert state.amplitudes[0b011] == 0.6
        np.testing.assert_allclose(state.amplitudes[4:], 0.4)

    def test_control_inside_target_rejected(self):
        with pytest.raises(StructuralError):
            load_orbital(fresh(2), "x", uniform(), CDF, controls=[("x", 1)])


class TestErrorBound:
    def test_formula(self):
        assert load_error_bound(6, 0.01) == pytest.approx(0.03)

    def test_validation(self):
        with pytest.raises(ValidationError):
            load_error_bound(0, 0.01)
        with pytest.raises(ValidationError):
            load_error_bound(4, 1.5)

    @pytest.mark.parametrize("l", [4, 6, 8])
    @pytest.mark.parametrize("eps", [1e-2, 1e-3])
    @pytest.mark.parametrize("sign", [+1, -1])
    def test_worst_sign_noise_respects_bound(self, l, eps, sign):
        orb = box_sine(1)
        perturb = lambda i, k, r: r + sign * eps
        state, _ = load_orbital(fresh(l), "x", orb, CDF,
                                ratio_perturb=perturb)
        measured = infidelity(state.amplitudes, orb.grid_values(l))
        assert measured <= load_error_bound(l, eps)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.sampled_from([1e-2, 1e-3]))
    def test_random_noise_respects_bound(self, seed, eps):
        rng = np.random.default_rng(seed)
        orb = box_sine(2)
        l = 5
        perturb = lambda i, k, r: r + rng.uniform(-eps, eps)
        state, _ = load_orbital(fresh(l), "x", orb, CDF,
                                ratio_perturb=perturb)
        measured = infidelity(state.amplitudes, orb.grid_values(l))
        assert measured <= load_error_bound(l, eps) + 1e-12


    @pytest.mark.parametrize("eps", [0.01, 0.5])
    def test_one_level_worst_case(self, eps):
        # the split eps : 1 - eps loaded as 0 : 1 has overlap sqrt(1 - eps),
        # above l * eps / 2 at l = 1
        orb = tabulated([np.sqrt(eps), np.sqrt(1.0 - eps)])
        state, _ = load_orbital(fresh(1), "x", orb, CDF,
                                ratio_perturb=lambda i, k, r: r - eps)
        measured = infidelity(state.amplitudes, orb.grid_values(1))
        assert measured == pytest.approx(1.0 - np.sqrt(1.0 - eps), abs=1e-8)
        assert measured > eps / 2
        assert measured <= load_error_bound(1, eps) + 1e-12

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 8), st.floats(1e-4, 0.5),
           st.integers(0, 2**31 - 1))
    def test_noise_within_bound_on_tabulated_orbitals(self, l, eps, seed):
        rng = np.random.default_rng(seed)
        table = rng.normal(size=1 << l) + 1j * rng.normal(size=1 << l)
        table[rng.random(1 << l) < 0.3] = 0.0  # some empty pairs
        if not np.any(table):
            table[0] = 1.0
        orb = tabulated(table)

        def perturb(i, k, r):
            # a random sign, at full magnitude half of the time
            size = eps if rng.random() < 0.5 else rng.uniform(0, eps)
            return r + rng.choice([-1.0, 1.0]) * size

        state, _ = load_orbital(fresh(l), "x", orb, CDF,
                                ratio_perturb=perturb)
        measured = infidelity(state.amplitudes, orb.grid_values(l))
        assert measured <= load_error_bound(l, eps) + 1e-12


class TestAmplitudeTable:
    def test_loads_arbitrary_table(self):
        amps = np.array([0.5, -0.5, 0.5j, -0.5j])
        state, _ = load_amplitude_table(fresh(2), "x", amps, CDF)
        assert infidelity(state.amplitudes, amps) < 1e-12

    def test_pads_to_segment_dimension(self):
        amps = np.array([0.6, 0.8])
        state, _ = load_amplitude_table(fresh(2), "x", amps, CDF)
        np.testing.assert_allclose(np.abs(state.amplitudes),
                                   [0.6, 0.8, 0, 0], atol=1e-12)

    def test_rejects_oversized_table(self):
        with pytest.raises(ValidationError):
            load_amplitude_table(fresh(1), "x", np.ones(4), CDF)


class TestQuadratureFamilies:
    def test_hermite_loading_via_quadrature(self):
        spec = IntegrationSpec(backend="adaptive-quadrature", epsilon_i=1e-9)
        orb = harmonic_hermite(1)
        l = 5
        state, _ = load_orbital(fresh(l), "x", orb, spec)
        assert infidelity(state.amplitudes, orb.grid_values(l)) < 1e-9


@pytest.mark.parametrize("orbital, spec", [
    (box_sine(3), CDF), (ring_plane_wave(-5), CDF),
    (harmonic_hermite(2),
     IntegrationSpec(backend="adaptive-quadrature", epsilon_i=1e-9))])
def test_orbital_preparation_allocates_under_four_states(orbital, spec):
    """prepare_orbital on 2^16 sites peaks below 4 times the bytes of the
    state it returns: the grid is evaluated in place, the zero state is
    dropped before the tables are built, the levels alternate between the
    returned amplitudes and one half-size spare, and the extraction forms
    its squares in its output.
    """
    tracemalloc.start()
    try:
        prep = prepare_orbital(orbital, 16, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * prep.state.amplitudes.nbytes
