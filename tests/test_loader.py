"""Amplitude loading: product of dyadic splits, phase kickback, error
bounds, and the gate-level multiplexed-rotation circuit as reference.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridprep.basis import (
    EMPTY_MASS_THRESHOLD,
    IntegrationSpec,
    box_sine,
    delta_at_site,
    harmonic_hermite,
    ring_plane_wave,
    tabulated,
    uniform,
)
from gridprep.errors import StructuralError, ValidationError
from gridprep.loader import (
    _control_bits,
    _mc_grid_ratio,
    load_amplitude_table,
    load_error_bound,
    load_orbital,
)
from gridprep.statevec import QuantumState, RegisterLayout, control_masks

CDF = IntegrationSpec(backend="analytic-cdf", epsilon_i=1e-9)


def fresh(l, extra=()):
    layout = RegisterLayout([("x", "particle", l), *extra])
    return QuantumState.zero(layout)


def infidelity(vec, target):
    return 1.0 - abs(np.vdot(vec, target))


# -- gate-level reference ----------------------------------------------------

def multiplexed_rotation(state, segment, level, angles, controls=None):
    """One pass of the level-`level` rotations on the branch `controls`
    select: every amplitude pair whose high segment bits give prefix b
    rotates by angles[b].
    """
    seg = state.layout.segment(segment)
    target_bit = seg.width - level
    n_pref = 1 << (level - 1)
    amps = state.amplitudes.copy()
    hi_n = amps.size >> (seg.offset + seg.width)
    lo_n = (1 << seg.offset) * (1 << target_bit)
    cube = amps.reshape(hi_n, n_pref, 2, lo_n)
    hi_sel, lo_sel = control_masks(state, seg, _control_bits(state, controls),
                                   hi_n, lo_n)
    c = np.cos(angles)[None, :, None, None]
    s = np.sin(angles)[None, :, None, None]
    pair0 = np.ix_(hi_sel, np.arange(n_pref), [0], lo_sel)
    pair1 = np.ix_(hi_sel, np.arange(n_pref), [1], lo_sel)
    a0, a1 = cube[pair0], cube[pair1]
    cube[pair0] = c * a0 - s * a1
    cube[pair1] = s * a0 + c * a1
    return QuantumState(state.layout, amps)


def circuit_load(state, segment, orbital, spec, controls=None,
                 ratio_perturb=None):
    """The load as a circuit: per block pair, one split ratio and one
    rotation angle; l multiplexed-rotation passes; one masked phase pass.
    Returns the state and the circuit's counters.
    """
    seg = state.layout.segment(segment)
    l = seg.width
    prob = orbital.grid_prob(l)
    prefix = np.concatenate([[0.0], np.cumsum(prob)])
    counts = dict(integral_requests=0, rotation_applications=0,
                  empty_blocks=0)
    for i in range(1, l + 1):
        stride = 1 << (l - i)
        angles = np.zeros(1 << (i - 1))
        for b in range(angles.size):
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
            angles[b] = float(np.arccos(np.sqrt(ratio)))
            counts["rotation_applications"] += 1
        state = multiplexed_rotation(state, segment, i, angles, controls)
    table = np.angle(orbital.grid_values(l))
    if np.any(table):
        amps = state.amplitudes.copy()
        cube = amps.reshape(amps.size >> (seg.offset + l), seg.dim,
                            1 << seg.offset)
        hi_sel, lo_sel = control_masks(
            state, seg, _control_bits(state, controls), cube.shape[0],
            cube.shape[2])
        sel = np.ix_(hi_sel, np.arange(seg.dim), lo_sel)
        cube[sel] = cube[sel] * np.exp(1j * table)[None, :, None]
        state = QuantumState(state.layout, amps)
    return state, counts


SPECTATOR_VALUES = st.sampled_from([0.0, -0.0, 1.0, -0.5, 0.3, -1e-300])


@st.composite
def load_cases(draw):
    """A blank target between spectator segments, optionally controlled,
    with an orbital, a backend and an optional stateful ratio perturbation.
    """
    l = draw(st.integers(1, 6))
    below, above = draw(st.integers(0, 2)), draw(st.integers(0, 2))
    layout = RegisterLayout([("below", "scratch", below),
                             ("x", "particle", l),
                             ("above", "scratch", above)])
    controls = [(name, draw(st.integers(0, (1 << width) - 1)))
                for name, width in (("below", below), ("above", above))
                if width and draw(st.booleans())]
    family = draw(st.sampled_from(["delta", "tabulated", "box-sine",
                                   "ring"]))
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
        orbital = box_sine(draw(st.integers(1, 3)))
    else:
        orbital = ring_plane_wave(draw(st.integers(-2, 2)))
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
    for q, bit in _control_bits(QuantumState.zero(layout), controls):
        on_branch &= ((index >> q) & 1) == bit
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
        assert plan.stages == l
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
        layout = RegisterLayout([("x", "particle", 2), ("c", "scratch", 1)])
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

    def test_phase_kickback(self):
        l = 3
        orb = ring_plane_wave(1)
        state, _ = load_orbital(fresh(l), "x", orb, CDF)
        target = orb.grid_values(l)
        assert infidelity(state.amplitudes, target) < 1e-12
        assert np.abs(np.angle(state.amplitudes[1])) > 1e-3  # genuinely complex


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

    def test_controlled_load_needs_blank_branch(self):
        layout = RegisterLayout([("x", "particle", 2), ("c", "scratch", 1)])
        amps = np.zeros(8, dtype=complex)
        amps[0b100] = 0.6   # c=1, x=0
        amps[0b101] = 0.8   # c=1, x=1: the target is not blank on c=1
        with pytest.raises(ValidationError):
            load_orbital(QuantumState(layout, amps), "x", uniform(), CDF,
                         controls=[("c", 1)])

    def test_other_branches_may_fill_the_target(self):
        layout = RegisterLayout([("x", "particle", 2), ("c", "scratch", 1)])
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
