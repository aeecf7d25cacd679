"""Orbital families, split ratios, integration backends, Fock operator."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from gridprep.basis import (
    BasisSet,
    IntegrationSpec,
    Orbital,
    box_sine,
    harmonic_hermite,
    kronecker_delta,
    mc_sample_count,
    normal_quantile,
    ring_plane_wave,
    tabulated,
    uniform,
)
from gridprep.errors import ValidationError
from gridprep.loader import _split_ratios
from helpers import delta_at_site, gap, grid_prob, perturbed

CDF = IntegrationSpec(backend="analytic-cdf", epsilon_i=1e-9)
QUAD = IntegrationSpec(backend="adaptive-quadrature", epsilon_i=1e-9)


def grid_ratio(orb, l, i, k, spec):
    """Split ratio the loader uses for block pair k at level i on 2^l sites
    (NaN when the pair carries no mass).
    """
    return _split_ratios(grid_prob(orb, l), l, spec)[i - 1][k // 2]


class TestOrbitalFamilies:
    @pytest.mark.parametrize("orb", [
        uniform(),
        box_sine(1), box_sine(2), box_sine(3),
        ring_plane_wave(0), ring_plane_wave(1), ring_plane_wave(-2),
        harmonic_hermite(0), harmonic_hermite(1), harmonic_hermite(2),
    ])
    def test_density_normalized(self, orb):
        total, _ = integrate.quad(lambda x: float(orb.density(x)),
                                  0.0, orb.length, limit=200)
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_box_sine_default_energy(self):
        assert box_sine(3).energy == 9.0

    def test_ring_default_energy(self):
        assert ring_plane_wave(-2).energy == 4.0

    def test_hermite_default_energy(self):
        assert harmonic_hermite(2).energy == 2.5

    def test_grid_values_normalized(self):
        for orb in (uniform(), box_sine(2), ring_plane_wave(1),
                    harmonic_hermite(1), delta_at_site(3, 3)):
            v = orb.grid_values(3)
            assert np.linalg.norm(v) == pytest.approx(1.0)

    def test_box_sine_grid_signs(self):
        # n=2 changes sign at L/2; grid amplitudes must carry it
        v = box_sine(2).grid_values(3)
        assert v[1].real > 0
        assert v[5].real < 0

    def test_plane_wave_phases(self):
        v = ring_plane_wave(1).grid_values(3)
        expected = np.exp(2j * np.pi * np.arange(8) / 8) / np.sqrt(8)
        np.testing.assert_allclose(v, expected, atol=1e-12)

    def test_delta_site(self):
        v = delta_at_site(5, 3).grid_values(3)
        assert v[5] == 1.0
        assert np.count_nonzero(v) == 1

    def test_tabulated_round_trip(self):
        table = np.array([1, 2, 3, 4], dtype=complex)
        v = tabulated(table).grid_values(2)
        np.testing.assert_allclose(v, table / np.linalg.norm(table))

    def test_tabulated_needs_power_of_two(self):
        with pytest.raises(ValidationError):
            tabulated([1.0, 2.0, 3.0])

    def test_delta_position_bounds(self):
        with pytest.raises(ValidationError):
            kronecker_delta(1.0, length=1.0)

    @pytest.mark.parametrize("build", [
        lambda: box_sine(1, length=0.0), lambda: uniform(length=-1.0),
        lambda: ring_plane_wave(1, length=float("nan")),
        lambda: harmonic_hermite(1, width=0.0),
        lambda: harmonic_hermite(1, width=-0.1),
        lambda: harmonic_hermite(1, width=float("nan")),
    ], ids=["box-sine-length", "uniform-length", "ring-nan-length",
            "hermite-zero-width", "hermite-negative-width",
            "hermite-nan-width"])
    def test_scale_must_be_positive(self, build):
        with pytest.raises(ValidationError, match="is not > 0"):
            build()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("orb", [
        tabulated([np.nan, 1.0, 1.0, 1.0]),
        tabulated([np.inf, 1.0, 1.0, 1.0]),
        Orbital("harmonic-hermite", 1.0, 1.5, (1, 0.0)),
    ])
    def test_non_finite_grid_values_rejected(self, orb):
        with pytest.raises(ValidationError, match="not finite"):
            orb.grid_values(2)


class TestSplitRatio:
    def test_box_sine_reference_value(self):
        # ground state on 16 sites, level 2, block pair [0, 1/2): the sites
        # j carry mass sin^2(pi j / 16)
        mass = np.sin(np.pi * np.arange(8) / 16) ** 2
        ratio = grid_ratio(box_sine(1), 4, 2, 0, CDF)
        assert ratio == pytest.approx(mass[:4].sum() / mass.sum(), abs=1e-12)
        assert ratio == pytest.approx(0.14090, abs=1e-5)

    def test_uniform_always_half(self):
        for i in range(1, 5):
            for k in range(0, (1 << i) - 1, 2):
                assert grid_ratio(uniform(), 4, i, k, CDF) == \
                    pytest.approx(0.5)

    def test_cdf_and_quadrature_agree(self):
        # both exact backend names compute the same grid ratios
        for i, k in [(1, 0), (2, 0), (2, 2), (3, 4)]:
            assert grid_ratio(box_sine(2), 4, i, k, CDF) == \
                grid_ratio(box_sine(2), 4, i, k, QUAD)

    def test_empty_block_sentinel(self):
        # delta at site 0 of 8: the right half of [0, 1) has no mass
        orb = delta_at_site(0, 3)
        assert np.isnan(grid_ratio(orb, 3, 2, 2, CDF))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 3))
    def test_ratio_in_unit_interval(self, i, n):
        ks = range(0, (1 << i) - 1, 2)
        for k in ks:
            r = grid_ratio(box_sine(n), 4, i, k, CDF)
            if not np.isnan(r):
                assert 0.0 <= r <= 1.0


class TestMonteCarlo:
    def test_reference_quantile(self):
        assert normal_quantile(0.975) == pytest.approx(1.959964, abs=1e-6)

    def test_bounded_sample_count_reference(self):
        # delta=0.05, range 1, epsilon=0.01 -> ceil((1.96.../0.02)^2) = 9604
        spec = IntegrationSpec(backend="monte-carlo", epsilon_i=0.01,
                               delta=0.05, bounds=(0.0, 1.0))
        assert mc_sample_count(spec, bounded=True) == 9604

    def test_variance_sample_count(self):
        spec = IntegrationSpec(backend="monte-carlo", epsilon_i=0.01,
                               delta=0.05, sigma2=0.25)
        z = normal_quantile(0.975)
        assert mc_sample_count(spec, bounded=False) == math.ceil(
            z**2 * 0.25 / 1e-4)

    def test_sample_count_scales_inverse_square(self):
        counts = []
        for eps in (0.04, 0.02, 0.01, 0.005):
            spec = IntegrationSpec(backend="monte-carlo", epsilon_i=eps,
                                   delta=0.1, bounds=(0.0, 1.0))
            counts.append(mc_sample_count(spec, bounded=True))
        slope = np.polyfit(np.log([0.04, 0.02, 0.01, 0.005]),
                           np.log(counts), 1)[0]
        assert slope == pytest.approx(-2.0, abs=0.01)

    def test_mc_split_ratio_within_epsilon(self):
        spec = IntegrationSpec(backend="monte-carlo", epsilon_i=0.02,
                               delta=0.1, bounds=(0.0, 1.0), seed=9)
        est = grid_ratio(box_sine(1), 4, 2, 0, spec)
        truth = grid_ratio(box_sine(1), 4, 2, 0, CDF)
        assert abs(est - truth) <= 0.02

    def test_mc_needs_bounds_or_variance(self):
        spec = IntegrationSpec(backend="monte-carlo", epsilon_i=0.02)
        with pytest.raises(ValidationError):
            grid_ratio(box_sine(1), 4, 1, 0, spec)

    def test_spec_validation(self):
        with pytest.raises(ValidationError):
            IntegrationSpec(backend="nope")
        with pytest.raises(ValidationError):
            IntegrationSpec(epsilon_i=0.0)
        with pytest.raises(ValidationError):
            IntegrationSpec(bounds=(1.0, 0.0))
        with pytest.raises(ValidationError):
            IntegrationSpec(bounds=(0.0, 1.0, 2.0))


class TestBasisSet:
    def box_basis(self):
        return BasisSet([box_sine(1), box_sine(2), box_sine(3)])

    def test_grid_matrix_orthonormal(self):
        phi = self.box_basis().grid_matrix(4)
        np.testing.assert_allclose(phi.conj().T @ phi, np.eye(3), atol=1e-10)

    def test_too_many_orbitals_for_grid(self):
        bas = BasisSet([box_sine(n) for n in range(1, 6)])
        with pytest.raises(ValidationError):
            bas.grid_matrix(2)

    def test_fock_matrix_eigenstructure(self):
        bas = self.box_basis()
        f = bas.fock_matrix(4)
        phi = bas.grid_matrix(4)
        for j, e in enumerate(bas.energies):
            np.testing.assert_allclose(f @ phi[:, j], e * phi[:, j],
                                       atol=1e-10)

    def test_fock_unitary_eigenphases(self):
        bas = self.box_basis()
        t = 0.3
        u = bas.fock_unitary(4, t)
        np.testing.assert_allclose(u.conj().T @ u, np.eye(16), atol=1e-10)
        phi = bas.grid_matrix(4)
        for j, e in enumerate(bas.energies):
            np.testing.assert_allclose(u @ phi[:, j],
                                       np.exp(-1j * e * t) * phi[:, j],
                                       atol=1e-10)

    def test_fock_unitary_identity_on_complement(self):
        bas = BasisSet([box_sine(1)])
        u = bas.fock_unitary(3, 0.7)
        phi = bas.grid_matrix(3)[:, 0]
        v = np.zeros(8, dtype=complex)
        v[0] = 1.0
        v -= phi * (phi.conj() @ v)
        v /= np.linalg.norm(v)
        np.testing.assert_allclose(u @ v, v, atol=1e-10)

    def test_gap(self):
        bas = BasisSet([box_sine(1, energy=0.0), box_sine(2, energy=1.0),
                        box_sine(3, energy=1.0)])
        assert gap(bas) == pytest.approx(0.5)

    def test_perturbation_lifts_degeneracy(self):
        bas = BasisSet([ring_plane_wave(0, energy=0.0),
                        ring_plane_wave(1, energy=1.0),
                        ring_plane_wave(-1, energy=1.0)])
        pert = perturbed(bas, 2, 0.125)
        assert pert.energies[2] == pytest.approx(1.125)
        # eigenvectors untouched
        np.testing.assert_allclose(pert.grid_matrix(3), bas.grid_matrix(3))

    def test_perturbation_beyond_gap_rejected(self):
        bas = BasisSet([box_sine(1, energy=0.0), box_sine(2, energy=1.0)])
        with pytest.raises(ValidationError):
            perturbed(bas, 0, 0.4)

    def test_mixed_lengths_rejected(self):
        with pytest.raises(ValidationError):
            BasisSet([box_sine(1, length=1.0), box_sine(2, length=2.0)])
