"""The blocked i < j pair kernels against plain double sums over all (i, j).

The references below evaluate scalar ``psi``/``phi`` once per (cell, i, j)
and add the terms with ``math.fsum``; the library sums the pairs i < j
twice, the diagonal apart, in blocks.  Small block sizes make the walk
cross cell and pair boundaries even on tiny models.
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from linboltz import DomainError, InfeasibleValueError, NumericalQualityError
from linboltz import functionals
from linboltz.functionals import kinematic_rate, phi, psi
from linboltz.kinetic import Trajectory, edi_certificate
from linboltz.velocity import VelocityModel

REL = 1e-12

# a block size of 3 splits every cell's pairs; 4096 and the default pack
# different numbers of cells into a block
BLOCKS = [3, 4096, functionals.BLOCK]

PROPERTY = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


@pytest.fixture(params=BLOCKS, ids=lambda b: f"block{b}")
def block(request, monkeypatch):
    monkeypatch.setattr(functionals, "BLOCK", request.param)
    return request.param


@st.composite
def cases(draw):
    """A random small model and densities on n_x cells.

    The model has symmetric rates, some pairs (the diagonal included) at
    rate zero, and positive weights.  Some densities vanish at single
    nodes, some on whole cells.  Hypothesis picks the sizes and which
    degeneracies occur; a seeded generator fills in the values.
    """
    n_v = draw(st.integers(1, 6))
    n_x = draw(st.integers(1, 5))
    zero_rates = draw(st.sampled_from([0.0, 0.3]))
    zero_nodes = draw(st.sampled_from([0.0, 0.2]))
    zero_cells = draw(st.sampled_from([0.0, 0.4]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rates = rng.uniform(0.05, 5.0, (n_v, n_v))
    zero = rng.random((n_v, n_v)) < zero_rates
    weights = rng.uniform(0.1, 1.0, n_v)
    model = VelocityModel(
        nodes=np.arange(n_v, dtype=float)[:, None],
        weights=weights / weights.sum(),
        drift=np.linspace(-1.0, 1.0, n_v)[:, None],
        sigma=np.where(zero | zero.T, 0.0, rates + rates.T),
    )
    f = rng.uniform(0.01, 10.0, (n_x, n_v))
    f[rng.random((n_x, n_v)) < zero_nodes] = 0.0
    f[rng.random(n_x) < zero_cells] = 0.0
    return model, f, rng


def reference_sum(cost, kappa, f, eta, weights):
    """sum_x sum_ij w_i w_j cost(kappa_ij, f_i, f_j; eta_ij), one scalar call per term."""
    n_x, n_v = f.shape
    terms = [
        weights[i] * weights[j] * cost(kappa[i, j], f[x, i], f[x, j], eta[x, i, j])
        for x in range(n_x)
        for i in range(n_v)
        for j in range(n_v)
    ]
    if any(math.isinf(t) for t in terms):
        return math.inf
    return math.fsum(terms)


def own_current(f, sigma):
    return sigma[None, :, :] * (f[:, :, None] - f[:, None, :])


@given(data=st.data())
@PROPERTY
def test_kinematic_rate_matches_double_sum(block, data):
    model, f, rng = data.draw(cases())
    # a random antisymmetric current, off the zero-rate pairs; where a
    # density vanishes it makes the cost infeasible unless it is zeroed too
    a = rng.normal(0.0, 2.0, f.shape + (model.n_nodes,))
    eta = (a - np.swapaxes(a, 1, 2)) * (model.sigma > 0)
    if data.draw(st.booleans()):
        eta *= f[:, :, None] * f[:, None, :] > 0
    dx = 1.0 / f.shape[0]
    expected = reference_sum(psi, model.sigma, f, eta, model.weights)
    if math.isinf(expected):
        with pytest.raises(InfeasibleValueError):
            kinematic_rate(f, eta, model)
    else:
        got = kinematic_rate(f, eta, model)
        assert got == pytest.approx(dx * expected, rel=REL, abs=1e-300)


@given(data=st.data())
@PROPERTY
def test_certificate_sums_match_double_sums(block, data):
    model, f0, rng = data.draw(cases())
    f1 = f0 * rng.uniform(0.5, 2.0, f0.shape)
    n_x = f0.shape[0]
    scale = data.draw(st.sampled_from([1.0, 2.0, 0.5, -1.0]))
    eps = data.draw(st.sampled_from([1.0, 0.5]))
    dt, dx = 0.01, 1.0 / n_x
    traj = Trajectory(f=np.stack([f0, f1]), dt=dt, epsilon=eps, transport="upwind")
    f_mid = 0.5 * (f0 + f1)
    eta = scale * own_current(f_mid, model.sigma)
    factor = dt * dx / eps**2
    r_ref = reference_sum(psi, model.sigma, f_mid, eta, model.weights)
    if math.isinf(r_ref):
        with pytest.raises(InfeasibleValueError):
            edi_certificate(traj, model, current_scale=scale)
        return
    cert = edi_certificate(traj, model, current_scale=scale)
    phi_ref = reference_sum(phi, model.sigma, f_mid, eta, model.weights)
    assert cert.kinematic_value == pytest.approx(factor * r_ref, rel=REL, abs=1e-300)
    assert cert.phi_residual == pytest.approx(factor * phi_ref, rel=REL, abs=1e-300)
    if scale == 1.0:
        assert cert.phi_residual == 0.0


def test_non_antisymmetric_current_is_rejected(block):
    model = VelocityModel(
        nodes=np.arange(3.0)[:, None], weights=np.full(3, 1 / 3),
        drift=np.array([[-1.0], [0.0], [1.0]]),
        sigma=np.ones((3, 3)) - np.eye(3),
    )
    f = np.ones((4, 3))
    eta = np.zeros((4, 3, 3))
    eta[2, 0, 2], eta[2, 2, 0] = 1.0, -1.0
    assert kinematic_rate(f, eta, model) > 0.0
    bad = eta.copy()
    bad[2, 2, 0] = -1.0 + 1e-3  # off by more than the relative tolerance
    with pytest.raises(DomainError):
        kinematic_rate(f, bad, model)
    bad = eta.copy()
    bad[3, 1, 1] = 0.1  # a diagonal entry must vanish too
    with pytest.raises(DomainError):
        kinematic_rate(f, bad, model)


def test_current_on_a_zero_rate_pair_or_the_diagonal_is_infeasible(block):
    sigma = np.ones((3, 3)) - np.eye(3)
    sigma[0, 1] = sigma[1, 0] = 0.0
    model = VelocityModel(
        nodes=np.arange(3.0)[:, None], weights=np.full(3, 1 / 3),
        drift=np.array([[-1.0], [0.0], [1.0]]), sigma=sigma,
    )
    f = np.ones((4, 3))
    eta = np.zeros((4, 3, 3))
    eta[1, 0, 1], eta[1, 1, 0] = 0.5, -0.5
    with pytest.raises(InfeasibleValueError):
        kinematic_rate(f, eta, model)
    # within the antisymmetry tolerance, but sigma_ii = 0
    eta = np.zeros((4, 3, 3))
    eta[3, 2, 2] = 1e-14
    with pytest.raises(InfeasibleValueError):
        kinematic_rate(f, eta, model)


def test_asymmetric_kernel_is_refused():
    # the i < j sums read only the upper triangle of sigma
    model = VelocityModel(
        nodes=np.arange(2.0)[:, None], weights=np.array([0.5, 0.5]),
        drift=np.array([[1.0], [-1.0]]),
        sigma=np.array([[0.0, 1.0], [2.0, 0.0]]),
    )
    f = np.ones((2, 2))
    traj = Trajectory(f=np.stack([f, f]), dt=0.1, epsilon=1.0, transport="upwind")
    with pytest.raises(NumericalQualityError):
        kinematic_rate(f, np.zeros((2, 2, 2)), model)
    with pytest.raises(NumericalQualityError):
        edi_certificate(traj, model)


def _reference_costs(kappa, p, q, xi):
    """psi and phi (kappa*p*q > 0) by their reference formulas in scalar math
    arithmetic, divided before squared so that no intermediate overflows."""
    alpha = 2.0 * kappa * math.sqrt(p * q)
    m = kappa * (p - q)
    psi_ref = xi * math.asinh(xi / alpha) - xi * (xi / (math.hypot(xi, alpha) + alpha))
    bracket = (xi - m) * ((xi + m) / (math.hypot(xi, alpha) + math.hypot(m, alpha)))
    phi_ref = xi * (math.asinh(xi / alpha) - math.asinh(m / alpha)) - bracket
    return psi_ref, phi_ref


@pytest.mark.parametrize("kappa, p, q, xi", [
    (0.5, 1.0, 1.0, 1e150),         # |xi|/alpha and xi^2 near the top
    (0.5, 1.0, 1.0, 1e153),
    (0.5, 1.0, 1.0, 1e155),         # xi^2 overflows
    (0.5, 1.0, 1.0, 1e300),
    (2.0, 1.0, 3.0, 1e300),
    (5e-151, 1.0, 1.0, 1.0),        # alpha tiny, |xi|/alpha = 1e150
    (5e159, 1.0, 1.0, 1.0),         # alpha^2 overflows
    (5e199, 1.0, 1.0, 3e150),
    (5e151, 1.0, 1.0, 1e151),
    (2.0, 1e150, 4e150, 1e151),     # m^2 and alpha^2 beyond 1e300
    (5e-161, 1.0, 1.0, 1e-160),     # squares are subnormal
    (5e-171, 1.0, 1.0, 2e-171),
    (5e-201, 1.0, 1.0, 1e-200),     # squares underflow to zero
    (1e-3, 1e-155, 2e-155, 1e-160),
    (1.0, 1.0, 1.0, 1e-200),
])
def test_cost_kernels_keep_the_reference_at_extreme_scales(kappa, p, q, xi):
    for x in (xi, -xi):
        psi_ref, phi_ref = _reference_costs(kappa, p, q, x)
        assert psi(kappa, p, q, x) == pytest.approx(psi_ref, rel=REL, abs=0.0)
        assert phi(kappa, p, q, x) == pytest.approx(phi_ref, rel=REL, abs=0.0)
        assert phi(kappa, q, p, -x) == pytest.approx(phi_ref, rel=REL, abs=0.0)


def test_elementwise_blocks_patch_scattered_degenerate_entries():
    rng = np.random.default_rng(21)
    n = 3 * functionals.BLOCK + 17
    kappa = rng.uniform(0.1, 3.0, n)
    p = rng.uniform(0.1, 3.0, n)
    q = rng.uniform(0.1, 3.0, n)
    xi = rng.normal(0.0, 2.0, n)
    kappa[rng.integers(0, n, 40)] = 0.0
    p[rng.integers(0, n, 40)] = 0.0
    q[rng.integers(0, n, 40)] = 0.0
    xi[rng.integers(0, n, 200)] = 0.0
    got_phi = phi(kappa, p, q, xi)
    got_psi = psi(kappa, p, q, xi)
    for k in range(n):
        assert got_phi[k] == phi(kappa[k], p[k], q[k], xi[k])
        assert got_psi[k] == psi(kappa[k], p[k], q[k], xi[k])
    assert np.isinf(got_psi).any() and np.isinf(got_phi).any()


def test_blocks_with_extreme_entries_keep_the_reference():
    """Of several blocks only one holds entries that leave the kernels' safe
    range, |xi| = 1e155 or alpha near 1e-151; that block falls back to
    np.hypot, the others keep the fast path."""
    rng = np.random.default_rng(22)
    n = 3 * functionals.BLOCK + 17
    kappa = rng.uniform(0.1, 3.0, n)
    p = rng.uniform(0.1, 3.0, n)
    q = rng.uniform(0.1, 3.0, n)
    xi = rng.normal(0.0, 2.0, n)
    extreme = functionals.BLOCK + rng.choice(functionals.BLOCK, 6, replace=False)
    xi[extreme[:2]] = [1e155, -1e155]
    kappa[extreme[2:]] = 5e-152  # alpha = 2*kappa*sqrt(p*q) near 1e-151
    xi[extreme[4:]] = [1e4, -1.0]  # |xi|/alpha beyond 1e154, and not
    got = phi(kappa, p, q, xi)
    for k in range(n):
        assert got[k] == phi(kappa[k], p[k], q[k], xi[k])
    for k in extreme:
        ref = _reference_costs(kappa[k], p[k], q[k], xi[k])[1]
        assert got[k] == pytest.approx(ref, rel=REL, abs=0.0)

    # 40 nodes, so 780 pairs and 21 cells per block: 4 blocks on 64 cells,
    # the second of which holds cell 30 with a density of 1e-302 at node 3
    n_v, n_x = 40, 64
    a = rng.uniform(0.1, 2.0, (n_v, n_v))
    weights = rng.uniform(0.1, 1.0, n_v)
    model = VelocityModel(
        nodes=np.arange(n_v, dtype=float)[:, None], weights=weights / weights.sum(),
        drift=np.linspace(-1.0, 1.0, n_v)[:, None], sigma=a + a.T,
    )
    f = rng.uniform(0.5, 2.0, (n_x, n_v))
    eta = own_current(f, model.sigma)
    f[30, 3] = 1e-302
    eta[30, 3, 7], eta[30, 7, 3] = 1e4, -1e4  # |eta|/alpha beyond 1e154
    reference = []
    for x in range(n_x):
        for i in range(n_v):
            for j in range(i + 1, n_v):
                alpha = 2.0 * model.sigma[i, j] * math.sqrt(f[x, i]) * math.sqrt(f[x, j])
                e = eta[x, i, j]
                psi_ref = e * math.asinh(e / alpha) - e * (e / (math.hypot(e, alpha) + alpha))
                reference.append(2.0 * model.weights[i] * model.weights[j] * psi_ref)
    got = kinematic_rate(f, eta, model)
    assert got == pytest.approx(math.fsum(reference) / n_x, rel=REL, abs=0.0)
    eta[30, 3, 7], eta[30, 7, 3] = 1e155, -1e155
    big = kinematic_rate(f, eta, model)
    alpha = 2.0 * model.sigma[3, 7] * math.sqrt(f[30, 3]) * math.sqrt(f[30, 7])
    assert big == pytest.approx(2.0 * model.weights[3] * model.weights[7] / n_x
                                * 1e155 * (math.asinh(1e155 / alpha) - 1.0), rel=REL)


@pytest.mark.parametrize("cost, args", [(psi, (1.0, 1.0, 2.0, -1.0)),
                                        (phi, (1.0, 1.0, 2.0, -2.0)),
                                        (phi, (0.7, 3.0, 0.5, 1.0))])
def test_costs_stay_one_homogeneous_where_p_times_q_underflows(cost, args):
    kappa, p, q, xi = args
    c = 1e-170  # p*q underflows to zero; sqrt(p)*sqrt(q) does not
    small = cost(kappa, c * p, c * q, c * xi)
    assert small == pytest.approx(c * cost(kappa, p, q, xi), rel=1e-12, abs=0.0)


def test_kinematic_rate_at_densities_whose_product_underflows():
    model = VelocityModel(
        nodes=np.arange(2.0)[:, None], weights=np.full(2, 0.5),
        drift=np.array([[-1.0], [1.0]]), sigma=np.ones((2, 2)) - np.eye(2),
    )
    c = 1e-170
    f = np.array([[1.0, 2.0]])
    small = kinematic_rate(c * f, own_current(c * f, model.sigma), model)
    assert math.isfinite(small)
    assert small == pytest.approx(
        c * kinematic_rate(f, own_current(f, model.sigma), model), rel=1e-12, abs=0.0)


def _mpmath_costs(kappa, p, q, xi):
    """psi and phi by their reference formulas at 50 digits."""
    with mpmath.workdps(50):
        kappa, p, q, xi = (mpmath.mpf(v) for v in (kappa, p, q, xi))
        alpha = 2 * kappa * mpmath.sqrt(p * q)
        m = kappa * (p - q)
        root = mpmath.sqrt(xi**2 + alpha**2)
        psi_ref = xi * mpmath.asinh(xi / alpha) - (root - alpha)
        phi_ref = (xi * (mpmath.asinh(xi / alpha) - mpmath.asinh(m / alpha))
                   - (root - mpmath.sqrt(m**2 + alpha**2)))
        return float(psi_ref), float(phi_ref)


@pytest.mark.parametrize("kappa, p, q, xi", [
    (5e-301, 1.0, 1.0, 1e10),       # xi/alpha = 1e310 overflows
    (1e-160, 1.0, 1.0, 1e160),      # xi/alpha = 5e319
    (5e-301, 1.0, 4.0, 1e10),       # and m/alpha = -0.75 does not
    (5e-301, 4.0, 1.0, 1e10),
    (0.5, 1e-300, 1e-300, 1e10),    # alpha from tiny densities
])
def test_costs_where_xi_over_alpha_overflows_match_mpmath(kappa, p, q, xi):
    for x in (xi, -xi):
        psi_ref, phi_ref = _mpmath_costs(kappa, p, q, x)
        assert math.isfinite(psi_ref) and math.isfinite(phi_ref)
        assert psi(kappa, p, q, x) == pytest.approx(psi_ref, rel=1e-14, abs=0.0)
        assert phi(kappa, p, q, x) == pytest.approx(phi_ref, rel=1e-14, abs=0.0)
    assert psi(5e-301, 1.0, 1.0, 1e10) == pytest.approx(7134945260087.1411, rel=1e-14)
    # the same entries inside a block of ordinary ones
    kappas, xis = np.array([1.0, kappa, 2.0]), np.array([0.5, xi, -3.0])
    got = psi(kappas, p, q, xis)
    assert got[1] == pytest.approx(_mpmath_costs(kappa, p, q, xi)[0], rel=1e-14, abs=0.0)
    assert got[0] == psi(1.0, p, q, 0.5) and got[2] == psi(2.0, p, q, -3.0)


def test_kinematic_rate_of_a_current_whose_ratio_overflows_is_finite():
    model = VelocityModel(
        nodes=np.arange(2.0)[:, None], weights=np.full(2, 0.5),
        drift=np.array([[-1.0], [1.0]]), sigma=np.ones((2, 2)) - np.eye(2),
    )
    f = np.full((1, 2), 1e-300)
    eta = np.zeros((1, 2, 2))
    eta[0, 0, 1], eta[0, 1, 0] = 1e10, -1e10  # eta/alpha = 5e309
    expected = 2.0 * 0.25 * _mpmath_costs(1.0, 1e-300, 1e-300, 1e10)[0]
    assert kinematic_rate(f, eta, model) == pytest.approx(expected, rel=1e-14, abs=0.0)
