import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linboltz import DomainError, InfeasibleValueError, UsageError, build_lorentz, LorentzSpec
from linboltz import build_model
from linboltz.functionals import (
    LOG_CAP,
    LOG_FLOOR,
    dirichlet_form,
    dirichlet_lower_bound,
    fisher_information,
    heat_kinematic,
    kinematic_lower_bound,
    kinematic_rate,
    phi,
    psi,
    psi_legendre_oracle,
    relative_entropy,
    truncated_log,
)
from linboltz.kinetic import current_of
from linboltz.velocity import VelocityModel


def random_triples(n, seed=0):
    rng = np.random.default_rng(seed)
    kappa = rng.uniform(0.05, 5.0, n)
    p = rng.uniform(0.01, 10.0, n)
    q = rng.uniform(0.01, 10.0, n)
    xi = rng.normal(0.0, 3.0, n)
    return kappa, p, q, xi


def two_node_model(s=3.0, u=1.0):
    return VelocityModel(
        nodes=np.array([[0.0], [1.0]]),
        weights=np.array([0.5, 0.5]),
        drift=np.array([[u], [-u]]),
        sigma=np.array([[0.0, s], [s, 0.0]]),
    )


class TestPhi:
    def test_zero_set(self):
        kappa, p, q, _ = random_triples(1000, seed=3)
        vals = phi(kappa, p, q, kappa * (p - q))
        assert np.max(np.abs(vals)) == 0.0

    def test_nonnegative_and_convex_in_xi(self):
        kappa, p, q, xi = random_triples(2000, seed=4)
        assert np.all(phi(kappa, p, q, xi) >= 0.0)
        # midpoint convexity along xi
        a = phi(kappa, p, q, xi)
        b = phi(kappa, p, q, -xi)
        mid = phi(kappa, p, q, np.zeros_like(xi))
        assert np.all(0.5 * (a + b) >= mid - 1e-12)

    def test_decomposition_identity(self):
        kappa, p, q, xi = random_triples(10000, seed=5)
        lhs = phi(kappa, p, q, xi)
        rhs = (
            kappa * (np.sqrt(p) - np.sqrt(q)) ** 2
            + xi * 0.5 * np.log(q / p)
            + psi(kappa, p, q, xi)
        )
        assert np.max(np.abs(lhs - rhs) / (1.0 + np.abs(lhs))) < 1e-10

    def test_slope_at_zero_finite_difference_oracle(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            kappa = rng.uniform(0.1, 4.0)
            p = rng.uniform(0.1, 5.0)
            q = rng.uniform(0.1, 5.0)
            h = 1e-6
            fd = (phi(kappa, p, q, h) - phi(kappa, p, q, -h)) / (2 * h)
            assert fd == pytest.approx(0.5 * np.log(q / p), abs=1e-7)  # d phi/d xi at 0

    def test_degenerate_rate(self):
        assert phi(0.0, 1.0, 2.0, 0.0) == 0.0
        assert phi(0.0, 1.0, 2.0, 0.5) == math.inf

    def test_degenerate_density_legendre_limits(self):
        kp = 2.0 * 3.0
        assert phi(2.0, 3.0, 0.0, 0.0) == pytest.approx(kp)
        expected = 1.0 * math.log(1.0 / kp) - 1.0 + kp
        assert phi(2.0, 3.0, 0.0, 1.0) == pytest.approx(expected)
        assert phi(2.0, 3.0, 0.0, -1.0) == math.inf
        # mirror case
        assert phi(2.0, 0.0, 3.0, -1.0) == pytest.approx(expected)
        assert phi(2.0, 0.0, 3.0, 1.0) == math.inf
        assert phi(2.0, 0.0, 0.0, 0.0) == 0.0
        assert phi(2.0, 0.0, 0.0, 0.1) == math.inf

    def test_negative_inputs_rejected(self):
        with pytest.raises(DomainError):
            phi(-1.0, 1.0, 1.0, 0.0)
        with pytest.raises(DomainError):
            phi(1.0, -1.0, 1.0, 0.0)


class TestPsi:
    def test_legendre_oracle(self):
        rng = np.random.default_rng(7)
        grid = np.linspace(-30.0, 30.0, 400001)
        for _ in range(20):
            kappa = rng.uniform(0.1, 3.0)
            p = rng.uniform(0.1, 5.0)
            q = rng.uniform(0.1, 5.0)
            xi = rng.normal(0.0, 2.0)
            oracle = psi_legendre_oracle(kappa, p, q, xi, grid)
            assert psi(kappa, p, q, xi) == pytest.approx(oracle, abs=1e-7)

    def test_small_xi_quadratic(self):
        # psi ~ xi^2/(2*alpha) near zero; alpha = 2*kappa*sqrt(pq)
        for xi in (1e-3, 1e-5, 1e-8):
            ratio = psi(1.0, 1.0, 1.0, xi) / xi**2
            assert ratio == pytest.approx(0.25, rel=1e-5)

    def test_even_in_xi(self):
        kappa, p, q, xi = random_triples(500, seed=8)
        assert np.allclose(psi(kappa, p, q, xi), psi(kappa, p, q, -xi))

    def test_degenerate_alpha(self):
        assert psi(1.0, 0.0, 1.0, 0.0) == 0.0
        assert psi(1.0, 0.0, 1.0, 0.5) == math.inf
        assert psi(0.0, 1.0, 1.0, -0.5) == math.inf

    def test_large_xi_overflow_safe(self):
        val = psi(1.0, 1.0, 1.0, 1e150)
        assert np.isfinite(val) and val > 0


class TestEntropyAndForms:
    def test_relative_entropy_fsum_oracle(self):
        model = two_node_model()
        rng = np.random.default_rng(9)
        f = rng.uniform(0.1, 3.0, (8, 2))
        dx = 1.0 / 8
        expected = math.fsum(
            dx * w * fv * math.log(fv)
            for row in f
            for w, fv in zip(model.weights, row)
        )
        assert relative_entropy(f, model) == pytest.approx(expected, abs=1e-14)

    def test_entropy_zero_convention(self):
        model = two_node_model()
        f = np.array([[0.0, 2.0]])
        val = relative_entropy(f, model)
        assert val == pytest.approx(0.5 * 2.0 * math.log(2.0))

    def test_entropy_rejects_negative(self):
        model = two_node_model()
        with pytest.raises(DomainError):
            relative_entropy(np.array([[-0.5, 1.0]]), model)

    def test_dirichlet_double_sum_oracle(self):
        model = build_lorentz(LorentzSpec(16))
        rng = np.random.default_rng(10)
        f = rng.uniform(0.1, 2.0, (4, 16))
        dx = 0.25
        w = model.weights
        sq = np.sqrt(f)
        direct = 0.0
        for x in range(4):
            for i in range(16):
                for j in range(16):
                    direct += (
                        dx * w[i] * w[j] * model.sigma[i, j]
                        * (sq[x, j] - sq[x, i]) ** 2
                    )
        assert dirichlet_form(f, model) == pytest.approx(direct, rel=1e-12)

    def test_kinematic_rate_matches_psi_double_sum(self):
        model = two_node_model(s=2.0)
        f = np.array([[1.0, 3.0]])
        eta = np.array([[[0.0, 0.7], [-0.7, 0.0]]])
        val = kinematic_rate(f, eta, model)
        unit = psi(2.0, 1.0, 3.0, 0.7)
        # the (1,2) and (2,1) terms are equal by symmetry of psi
        assert val == pytest.approx(2 * 0.25 * unit, rel=1e-12)

    def test_kinematic_antisymmetry_enforced(self):
        model = two_node_model()
        f = np.array([[1.0, 1.0]])
        bad = np.array([[[0.0, 1.0], [1.0, 0.0]]])
        with pytest.raises(DomainError):
            kinematic_rate(f, bad, model)

    def test_kinematic_infeasible_current(self):
        # current on a zero-rate pair (the diagonal has sigma = 0)
        model = two_node_model(s=0.0)
        f = np.array([[1.0, 1.0]])
        eta = np.array([[[0.0, 0.5], [-0.5, 0.0]]])
        with pytest.raises(InfeasibleValueError):
            kinematic_rate(f, eta, model)


class TestVariationalProbes:
    def test_dirichlet_lower_bound_never_exceeds(self):
        model = build_lorentz(LorentzSpec(16))
        rng = np.random.default_rng(12)
        f = rng.uniform(0.2, 2.0, (4, 16))
        top = dirichlet_form(f, model)
        for seed in range(5):
            probe = np.random.default_rng(seed).normal(size=(4, 16))
            assert dirichlet_lower_bound(f, model, 0.3 * probe) <= top + 1e-12

    def test_dirichlet_bound_at_half_log(self):
        # the Donsker-Varadhan integrand at phi = log sqrt(f) equals half
        # the Dirichlet form of the square root
        model = build_lorentz(LorentzSpec(16))
        rng = np.random.default_rng(13)
        f = rng.uniform(0.2, 2.0, (4, 16))
        val = dirichlet_lower_bound(f, model, 0.5 * np.log(f))
        assert val == pytest.approx(0.5 * dirichlet_form(f, model), rel=1e-12)

    def test_kinematic_lower_bound_never_exceeds(self):
        model = two_node_model(s=2.0)
        rng = np.random.default_rng(14)
        f_path = rng.uniform(0.5, 2.0, (4, 3, 2))
        amp = rng.normal(size=(4, 3))
        eta_path = np.zeros((4, 3, 2, 2))
        eta_path[..., 0, 1] = amp
        eta_path[..., 1, 0] = -amp
        dt = 0.05
        top = dt * sum(kinematic_rate(f, eta, model) for f, eta in zip(f_path, eta_path))
        for seed in range(5):
            z = np.random.default_rng(100 + seed).normal(size=(4, 3)) * 0.4
            zeta = np.zeros_like(eta_path)
            zeta[..., 0, 1] = z
            zeta[..., 1, 0] = -z
            low = kinematic_lower_bound(f_path, eta_path, model, dt, zeta)
            assert low <= top + 1e-12

    def test_kinematic_lower_bound_alpha_positive(self):
        model = two_node_model()
        f_path = np.ones((1, 1, 2))
        zeta = np.zeros((1, 1, 2, 2))
        with pytest.raises(DomainError):
            kinematic_lower_bound(
                f_path, np.zeros_like(zeta), model, 0.1, zeta,
                alpha_test=np.zeros_like(zeta),
            )


class TestHeatFunctionals:
    def test_fisher_single_mode(self):
        n = 128
        x = (np.arange(n) + 0.5) / n
        rho = 1.0 + 0.25 * np.cos(2 * np.pi * x)
        # 2 int (d sqrt(rho))^2 dx, reference by dense trapezoid on a fine grid
        m = 1 << 16
        xf = (np.arange(m) + 0.5) / m
        rf = 1.0 + 0.25 * np.cos(2 * np.pi * xf)
        grad = np.gradient(np.sqrt(rf), 1.0 / m)
        ref = 2.0 * np.mean(grad**2)
        assert fisher_information(rho, 1.0) == pytest.approx(ref, rel=1e-4)

    def test_fisher_requires_pd_matrix(self):
        rho = np.ones(8)
        for D in (np.array([[1.0, 2.0], [2.0, 1.0]]), np.array([[-1.0]]), 0.0):
            with pytest.raises(DomainError):
                fisher_information(rho, D)

    def test_heat_kinematic_uniform_density(self):
        rho = np.ones((3, 16))
        j = np.full((3, 16), 0.5)
        # 0.5 * j^2 / (D rho) integrated: 0.5*0.25/2 per unit time
        val = heat_kinematic(rho, j, np.array([[2.0]]), dt=0.1)
        assert val == pytest.approx(3 * 0.1 * 0.5 * 0.25 / 2.0, rel=1e-12)

    def test_heat_functionals_refuse_input_of_the_wrong_rank(self):
        with pytest.raises(UsageError):
            fisher_information(np.ones((8, 8)), 1.0)
        with pytest.raises(UsageError):  # the old (n_t, n, 1) current
            heat_kinematic(np.ones((3, 16)), np.full((3, 16, 1), 0.5), 2.0, dt=0.1)
        with pytest.raises(UsageError):
            heat_kinematic(np.ones(16), np.ones(16), 2.0, dt=0.1)
        with pytest.raises(DomainError):
            heat_kinematic(np.ones((3, 16)), np.ones((3, 16)), np.eye(2), dt=0.1)


def test_truncated_log_clipping():
    assert truncated_log(0.0) == pytest.approx(math.log(LOG_FLOOR))
    assert truncated_log(1e308) == pytest.approx(math.log(LOG_CAP))
    assert truncated_log(2.0) == pytest.approx(math.log(2.0))


def grid_functionals(f_path, model, D=0.5, dt=0.1):
    """Every functional that integrates over the cells, on the path ``f_path``
    (n_t, n_x, n_v) with its own current; each takes dx = 1/n_x from its array."""
    f = f_path[0]
    eta_path = np.stack([current_of(g, model) for g in f_path])
    zeta = 0.5 * eta_path / max(np.max(np.abs(eta_path)), 1e-300)
    w, b = model.weights, model.drift[:, 0]
    return {
        "relative_entropy": relative_entropy(f, model),
        "dirichlet_form": dirichlet_form(f, model),
        "kinematic_rate": kinematic_rate(f, eta_path[0], model),
        "dirichlet_lower_bound": dirichlet_lower_bound(f, model, 0.25 * np.log(f)),
        "kinematic_lower_bound": kinematic_lower_bound(f_path, eta_path, model, dt, zeta),
        "fisher_information": fisher_information(f @ w, D),
        "heat_kinematic": heat_kinematic(f_path @ w, f_path @ (w * b), D, dt),
    }


@settings(max_examples=40, deadline=None)
@given(n_v=st.integers(1, 5), n_x=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
def test_repeating_every_cell_leaves_the_functionals_unchanged(n_v, n_x, seed):
    # k copies of each cell are the same density on a grid k times finer, so
    # every integral over x keeps its value when dx = 1/n follows the array.
    # Only the order of the sums changes.  H (f log f changes sign), the expanded
    # Dirichlet form and the kinematic bound are differences of sums of order 1,
    # so their rounding is absolute: at most 2e-15 over 3000 random cases, but
    # up to 2e-11 relative where the difference is small
    rng = np.random.default_rng(seed)
    sigma = rng.uniform(0.0, 2.0, (n_v, n_v))
    w = rng.uniform(0.1, 1.0, n_v)
    model = VelocityModel(nodes=np.arange(n_v, dtype=float)[:, None], weights=w / w.sum(),
                          drift=rng.normal(size=(n_v, 1)), sigma=sigma + sigma.T)
    f_path = rng.uniform(0.2, 2.0, (2, n_x, n_v))
    coarse = grid_functionals(f_path, model)
    fine = grid_functionals(np.repeat(f_path, 3, axis=1), model)
    for name, value in coarse.items():
        if name == "fisher_information":
            continue  # a spectral derivative: a piecewise-constant density is not smooth
        assert fine[name] == pytest.approx(value, rel=1e-13, abs=1e-14), name


#: the functionals on a 10-cell Rayleigh slice, recorded with an explicit
#: dx = 0.1 argument.  dx = 1/n times the sum reproduces them to the last bit;
#: the sum divided by n does not, for each of the seven on this slice (for
#: about one in three slices of this family, functional by functional)
RAYLEIGH_SLICE_VALUES = {
    "relative_entropy": "0x1.f73b573f07b54p-6",
    "dirichlet_form": "0x1.54c3472502367p-4",
    "kinematic_rate": "0x1.5a02b99a3e98bp-4",
    "dirichlet_lower_bound": "0x1.000ff4a06fe1bp-5",
    "kinematic_lower_bound": "0x1.f3fa5038395ecp-24",
    "fisher_information": "0x1.7031e012a8823p-1",
    "heat_kinematic": "0x1.3b847c9528ae1p-7",
}


def test_functionals_on_a_rayleigh_slice_match_their_recorded_bits():
    model = build_model("rayleigh", dim=2, n_radial=4, n_angular=12)
    x = (np.arange(10) + 0.5) / 10
    f = (1.0 + 0.454 * np.cos(2 * np.pi * x)[:, None] * np.tanh(model.drift[:, 0])[None, :]
         + 0.19 * np.sin(4 * np.pi * x)[:, None])
    got = grid_functionals(np.stack([f, f[::-1]]), model)
    assert {k: float(v).hex() for k, v in got.items()} == RAYLEIGH_SLICE_VALUES
