"""Fidelity measures, bound composition, reports, scaling fits."""
import numpy as np
import pytest

from gridprep.analysis import (
    BoundCheck,
    angle_error_bound,
    CostRow,
    PreparationReport,
    cost_table,
    fit_exponent,
    format_float,
    mixed_fidelity,
    mixed_infidelity,
    pure_infidelity,
    verify_bounds,
)
from gridprep.errors import ValidationError
from gridprep.statevec import DensityMatrix


class TestPureInfidelity:
    def test_identical_states(self):
        v = np.array([0.6, 0.8j])
        assert pure_infidelity(v, v) == 0.0

    def test_global_phase_invariant(self):
        v = np.array([0.6, 0.8])
        assert pure_infidelity(v, np.exp(0.7j) * v) == pytest.approx(0.0)

    def test_orthogonal_states(self):
        assert pure_infidelity([1, 0], [0, 1]) == pytest.approx(1.0)

    def test_normalizes_inputs(self):
        assert pure_infidelity([2, 0], [5, 0]) == pytest.approx(0.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            pure_infidelity([1, 0], [1, 0, 0])

    def test_zero_vector_rejected(self):
        with pytest.raises(ValidationError):
            pure_infidelity([0, 0], [1, 0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, np.nan)])
    def test_non_finite_rejected(self, bad):
        for a, b in (([bad, 0], [1, 0]), ([1, 0], [1, bad])):
            with pytest.raises(ValidationError, match="non-finite"):
                pure_infidelity(a, b)


class TestMixedFidelity:
    def test_identical_density_matrices(self):
        rho = np.diag([0.7, 0.3])
        assert mixed_fidelity(rho, rho) == pytest.approx(1.0)

    def test_pure_state_reduction(self):
        # rank-one inputs recover |<a|b>|
        a = np.array([1.0, 0.0])
        b = np.array([0.6, 0.8])
        f = mixed_fidelity(np.outer(a, a), np.outer(b, b))
        assert f == pytest.approx(0.6, abs=1e-10)

    def test_orthogonal_mixtures(self):
        assert mixed_fidelity(np.diag([1.0, 0.0]),
                              np.diag([0.0, 1.0])) == pytest.approx(0.0)

    def test_classical_distributions(self):
        # commuting case: fidelity = sum sqrt(p_i q_i)
        p = np.array([0.7, 0.3])
        q = np.array([0.4, 0.6])
        expected = np.sum(np.sqrt(p * q))
        assert mixed_fidelity(np.diag(p), np.diag(q)) == pytest.approx(
            expected, abs=1e-10)

    def test_accepts_density_matrix_objects(self):
        rho = DensityMatrix(np.eye(2) / 2)
        assert mixed_infidelity(rho, rho) == pytest.approx(0.0, abs=1e-8)


class TestBoundComposition:
    def test_angle_bound_of_one_step(self):
        assert angle_error_bound([0.2]) == pytest.approx(0.2, abs=1e-15)

    def test_angle_bound_is_reached_by_aligned_errors(self):
        # two rotations in one plane: the infidelities do not compose as
        # independent factors, and the angle bound is exact
        a, b = 0.3, 0.2
        psi = np.array([1.0, 0.0])
        phi = np.array([np.cos(a + b), np.sin(a + b)])
        measured = pure_infidelity(psi, phi)
        eps = [1 - np.cos(a), 1 - np.cos(b)]
        assert angle_error_bound(eps) == pytest.approx(measured, abs=1e-14)
        # composing them as independent factors under-bounds the error
        assert 1 - (1 - eps[0]) * (1 - eps[1]) < measured

    def test_angle_bound_saturates_at_one(self):
        assert angle_error_bound([1.2, 0.1]) == 1.0
        assert angle_error_bound([0.9, 0.9]) == 1.0

    def test_angle_bound_rejects_negative(self):
        with pytest.raises(ValidationError):
            angle_error_bound([0.1, -0.1])

    def test_bound_check_ledger(self):
        ok = BoundCheck("a", 0.01, 0.05)
        bad = BoundCheck("b", 0.10, 0.05)
        assert ok.satisfied and not bad.satisfied
        assert verify_bounds([ok])
        assert not verify_bounds([ok, bad])


class TestReports:
    def test_float_format_is_stable(self):
        assert format_float(1 / 3) == "0.333333333333"
        assert format_float(0.0) == "0"

    def test_text_and_rows(self):
        rep = PreparationReport(kind="slater", l=3, m=2, qubits=8,
                                infidelity=1e-10, error_bound=1e-6,
                                counters={"comparators": 1})
        rep.bound_checks.append(BoundCheck("infidelity", 1e-10, 1e-6))
        text = rep.to_text()
        assert "slater" in text and "comparators: 1" in text
        keys = dict(rep.to_rows())
        assert keys["l"] == "3"
        assert keys["comparators"] == "1"
        assert rep.all_bounds_hold()


class TestScalingFits:
    def test_fit_recovers_power_law(self):
        xs = [2, 4, 8, 16]
        ys = [3 * x**2.5 for x in xs]
        slope, _ = fit_exponent(xs, ys)
        assert slope == pytest.approx(2.5, abs=1e-10)

    def test_cost_table(self):
        rows = [CostRow(parameter=2**l, costs={"rot": 2**l - 1})
                for l in range(3, 8)]
        exps = cost_table(rows)
        assert exps["rot"] == pytest.approx(1.0, abs=0.1)

    def test_needs_two_rows(self):
        with pytest.raises(ValidationError):
            cost_table([CostRow(parameter=2, costs={"a": 1})])

    def test_positive_samples_required(self):
        with pytest.raises(ValidationError):
            fit_exponent([1, 2], [0, 1])
