import dataclasses
import math

import numpy as np
import pytest

from linboltz import (
    ConfigError,
    DomainError,
    LorentzSpec,
    PhononSpec,
    RayleighSpec,
    build_lorentz,
    build_model,
    build_phonon,
    build_rayleigh,
    rayleigh_xi_bound,
)
from linboltz.models import rayleigh_kernel
from linboltz.velocity import apply_generator, poisson_solve


@pytest.fixture(scope="module")
def rayleigh():
    return build_rayleigh(RayleighSpec())


@pytest.fixture(scope="module")
def phonon():
    return build_phonon(PhononSpec(dim=2, nu=1.0, n_per_axis=16))


class TestLorentz:
    def test_spec_validation(self):
        with pytest.raises(ConfigError):
            LorentzSpec(5)
        with pytest.raises(ConfigError):
            LorentzSpec(2)

    def test_rate_constant(self):
        m = build_lorentz(LorentzSpec(128))
        assert np.ptp(m.rates) < 1e-13

    def test_rate_richardson_limit(self):
        # lambda_N has an O(1/N^2) quadrature defect; its Richardson
        # extrapolation pins the continuum value 2
        l1 = build_lorentz(LorentzSpec(128)).rates[0]
        l2 = build_lorentz(LorentzSpec(256)).rates[0]
        assert (4.0 * l2 - l1) / 3.0 == pytest.approx(2.0, abs=1e-9)
        assert abs(l2 - 2.0) < 1e-4

    def test_drift_centered_exactly(self):
        m = build_lorentz(LorentzSpec(64))
        assert np.max(np.abs(m.weights @ m.drift)) < 1e-15

    def test_drift_eigenfunction_of_generator(self):
        # -L b = (8/3) b on the grid (the discrete kernel reproduces the
        # first Fourier coefficient to spectral accuracy)
        m = build_lorentz(LorentzSpec(256))
        res = np.max(np.abs(-apply_generator(m, m.drift) - (8.0 / 3.0) * m.drift))
        assert res < 1e-8

    def test_diffusion_is_three_sixteenths(self):
        from linboltz.velocity import diffusion_matrix

        m = build_lorentz(LorentzSpec(256))
        sol = poisson_solve(m, tol=1e-13)
        D, _ = diffusion_matrix(m, sol)
        assert np.max(np.abs(D - 0.1875 * np.eye(2))) < 1e-6


class TestRayleigh:
    def test_spec_validation(self):
        with pytest.raises(ConfigError):
            RayleighSpec(dim=4)
        with pytest.raises(ConfigError):
            RayleighSpec(beta=-1.0)
        with pytest.raises(ConfigError):
            RayleighSpec(n_angular=31)
        with pytest.raises(ConfigError, match="quadrature nodes"):
            RayleighSpec(n_radial=0)

    def test_kernel_exactly_symmetric(self, rayleigh):
        assert np.array_equal(rayleigh.sigma, rayleigh.sigma.T)

    def test_kernel_nonnegative(self, rayleigh):
        assert np.min(rayleigh.sigma) >= 0.0

    def test_rate_dominates_chi_v_in_the_bulk(self, rayleigh):
        # lambda >= chi |v| away from the truncation radius; the outermost
        # shells lose part of the scattering ridge to the cutoff
        assert rayleigh.meta["min_rate_ratio_interior"] >= 1.0
        assert rayleigh.meta["min_rate_ratio"] > 0.95

    def test_rate_at_origin_closed_form(self, rayleigh):
        # lambda(0) = chi E|v1| = sqrt(2 pi / beta) for d = 2, beta = 1
        assert rayleigh.meta["lambda_at_zero"] == pytest.approx(
            math.sqrt(2.0 * math.pi), abs=1e-6
        )

    def test_rate_at_origin_radial_oracle(self, rayleigh):
        # independent 1d radial quadrature of chi * int h(v1) |v1| dv1
        r = np.linspace(0.0, 6.0, 200001)
        dens = r * np.exp(-0.5 * r**2)  # 2 pi r * h(r) in 2d
        e_abs = np.trapezoid(r * dens, r) / np.trapezoid(dens, r)
        assert rayleigh.meta["lambda_at_zero"] == pytest.approx(
            2.0 * e_abs, abs=1e-6
        )

    def test_mass_defect_small_and_logged(self, rayleigh):
        assert 0.0 <= rayleigh.meta["mass_defect"] < 1e-6

    def test_drift_centered(self, rayleigh):
        assert np.max(np.abs(rayleigh.weights @ rayleigh.drift)) < 1e-12

    def test_kernel_closed_form_spot_values(self):
        # at v = 0 the exponent vanishes: sigma(0, w) = sqrt(2 pi / beta)
        w = np.array([[0.7, -0.2]])
        val = rayleigh_kernel(np.zeros((1, 2)), w, 1.0, 2)[0, 0]
        assert val == pytest.approx(math.sqrt(2.0 * math.pi), rel=1e-12)

    def test_d3_build_with_cutoff(self):
        m = build_rayleigh(
            RayleighSpec(dim=3, n_radial=16, n_angular=16, n_polar=12)
        )
        assert m.meta["n_cutoff_pairs"] >= 0
        assert m.meta["min_rate_ratio_interior"] >= 1.0
        assert m.meta["lambda_at_zero"] == pytest.approx(
            math.pi * 2.0 * math.sqrt(2.0 / math.pi), abs=1e-4
        )

    def test_d3_isotropic_diffusion(self):
        from linboltz.velocity import diffusion_matrix

        m = build_rayleigh(
            RayleighSpec(dim=3, n_radial=16, n_angular=16, n_polar=12)
        )
        sol = poisson_solve(m, tol=1e-12)
        D, _ = diffusion_matrix(m, sol)
        off = D - np.diag(np.diag(D))
        assert np.max(np.abs(off)) < 1e-8
        # the polar (Gauss) and azimuthal (uniform) quadratures resolve the
        # z-axis slightly differently from x/y; isotropy holds to grid error
        assert np.ptp(np.diag(D)) < 1e-4


class TestPhonon:
    def test_spec_validation(self):
        with pytest.raises(ConfigError):
            PhononSpec(nu=0.0)
        with pytest.raises(ConfigError):
            PhononSpec(nu=-1.0)
        with pytest.raises(ConfigError):
            PhononSpec(dim=1)  # needs the explicit surrogate flag
        with pytest.raises(ConfigError, match="dim must be >= 1"):
            PhononSpec(dim=0)
        with pytest.raises(ConfigError, match="at least 2 nodes per axis"):
            PhononSpec(n_per_axis=1)

    def test_dim1_surrogate_flag(self):
        m = build_phonon(PhononSpec(dim=1, allow_dim1_surrogate=True, n_per_axis=16))
        assert m.meta["surrogate_dim1"] is True
        assert m.n_nodes == 16

    def test_rate_closed_form(self, phonon):
        # the midpoint grid integrates sin^2 exactly: lambda = (1/2) sum sin^2(pi k)
        exact = 0.5 * np.sum(np.sin(np.pi * phonon.nodes) ** 2, axis=1)
        assert np.max(np.abs(phonon.rates - exact)) < 1e-10

    def test_drift_centered_exactly(self, phonon):
        assert np.max(np.abs(phonon.weights @ phonon.drift)) < 1e-15

    def test_drift_is_group_velocity(self, phonon):
        omega = np.sqrt(1.0 + 4.0 * np.sum(np.sin(np.pi * phonon.nodes) ** 2, axis=1))
        expected = np.sin(2.0 * np.pi * phonon.nodes) / omega[:, None]
        assert np.max(np.abs(phonon.drift - expected)) < 1e-14

    def test_kernel_product_form(self, phonon):
        s2 = np.sin(np.pi * phonon.nodes) ** 2
        assert np.allclose(phonon.sigma, s2 @ s2.T, atol=1e-14)
        assert np.array_equal(phonon.sigma, phonon.sigma.T)
        assert np.min(phonon.sigma) > 0.0  # midpoint grid avoids k = 0

    def test_b2_over_lambda_bounded(self, phonon):
        assert np.isfinite(phonon.meta["max_b2_over_lambda"])

    def test_poisson_solution_is_b_over_lambda(self, phonon):
        # the product kernel annihilates odd functions, so K (b/lambda) = 0 and
        # b/lambda solves (I - K) xi = b/lambda: conjugate gradients take one step
        sol = poisson_solve(phonon, tol=1e-13)
        expected = phonon.drift / phonon.rates[:, None]
        assert np.max(np.abs(sol.xi - expected)) < 1e-12
        assert sol.iterations <= 2


class TestRayleighBound:
    def test_report_contents(self, rayleigh):
        rep = rayleigh_xi_bound(rayleigh)
        assert 0.0 < rep.z < 1.0
        assert rep.zeta == pytest.approx(rep.chi * (1.0 - rep.z))
        assert np.all(rep.radial_xi >= 0.0)
        assert rep.xi_inf_norm <= 1.0 / rep.zeta + 1e-10
        assert rep.bound_satisfied

    def test_a_lambda_strictly_below_lambda(self, rayleigh):
        rep = rayleigh_xi_bound(rayleigh)
        assert rep.z < 1.0  # z = sup (A lambda)/lambda over radial nodes

    def test_radial_profile_matches_full_poisson(self, rayleigh):
        rep = rayleigh_xi_bound(rayleigh)
        assert rep.cross_check_gap < 1e-9

    def test_refuses_a_reducible_chain_before_its_radial_solve(self, monkeypatch):
        model = build_rayleigh(RayleighSpec(n_radial=10, n_angular=12))
        parity = np.arange(model.n_nodes) % 2
        split = dataclasses.replace(model, sigma=model.sigma * (parity[:, None] == parity))

        def no_solve(*args):
            raise AssertionError("the radial fixed point was solved")

        monkeypatch.setattr(np.linalg, "solve", no_solve)
        with pytest.raises(DomainError, match="node 0 reaches 60 of the 120 nodes"):
            rayleigh_xi_bound(split)

    def test_rejects_other_models(self):
        m = build_lorentz(LorentzSpec(8))
        with pytest.raises(Exception):
            rayleigh_xi_bound(m)


def test_build_model_dispatch():
    assert build_model("lorentz", n_nodes=8).name == "lorentz"
    with pytest.raises(ConfigError):
        build_model("nope")
