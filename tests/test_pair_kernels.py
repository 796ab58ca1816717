"""The blocked i < j pair kernels against plain double sums over all (i, j).

The references below expand a current on the pairs i < j into the full
antisymmetric (n_x, n_v, n_v) square, evaluate scalar ``psi``/``phi`` once
per (cell, i, j) and add the terms with ``math.fsum``; the library sums the
pairs i < j twice, in blocks.  Small block sizes make the walk cross cell
and pair boundaries even on tiny models.
"""

import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from linboltz import DomainError, InfeasibleValueError, NumericalQualityError, UsageError
from linboltz import functionals
from linboltz.functionals import kinematic_rate, phi, psi
from linboltz.kinetic import Trajectory, current_of, edi_certificate
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
    weights /= weights.sum()
    b = np.linspace(-1.0, 1.0, n_v)[:, None]
    model = VelocityModel(
        nodes=np.arange(n_v, dtype=float)[:, None],
        weights=weights,
        drift=b - weights @ b,
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


def square(eta, n_v):
    """The (n_x, n_v, n_v) antisymmetric current whose pairs i < j hold ``eta``."""
    i, j = np.triu_indices(n_v, 1)
    full = np.zeros((len(eta), n_v, n_v))
    full[:, i, j] = eta
    full[:, j, i] = -eta
    return full


def triangle(full):
    """The entries i < j of an (n_x, n_v, n_v) current, in pair_triangle order."""
    i, j = np.triu_indices(full.shape[-1], 1)
    return full[:, i, j]


@given(data=st.data())
@PROPERTY
def test_kinematic_rate_matches_double_sum(block, data):
    model, f, rng = data.draw(cases())
    # a random current, off the zero-rate pairs; where a density vanishes it
    # makes the cost infeasible unless it is zeroed too
    eta = square(rng.normal(0.0, 2.0, (f.shape[0], model.n_nodes * (model.n_nodes - 1) // 2)),
                 model.n_nodes) * (model.sigma > 0)
    if data.draw(st.booleans()):
        eta *= f[:, :, None] * f[:, None, :] > 0
    dx = 1.0 / f.shape[0]
    expected = reference_sum(psi, model.sigma, f, eta, model.weights)
    if math.isinf(expected):
        with pytest.raises(InfeasibleValueError):
            kinematic_rate(f, triangle(eta), model)
    else:
        got = kinematic_rate(f, triangle(eta), model)
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
    traj = Trajectory(f=np.stack([f0, f1]), dt=dt, epsilon=eps)
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


def three_node_model(sigma):
    return VelocityModel(
        nodes=np.arange(3.0)[:, None], weights=np.full(3, 1 / 3),
        drift=np.array([[-1.0], [0.0], [1.0]]), sigma=sigma,
    )


def test_non_antisymmetric_current_is_rejected(block):
    # a current is stored on its pairs i < j, so it is antisymmetric by
    # construction; a square (n_x, n_v, n_v) array, whether antisymmetric or
    # not, is refused by its shape
    model = three_node_model(np.ones((3, 3)) - np.eye(3))
    f = np.ones((4, 3))
    eta = np.zeros((4, 3))
    eta[2, 1] = 1.0  # the pair (0, 2)
    assert kinematic_rate(f, eta, model) > 0.0
    full = square(eta, 3)
    bad = full.copy()
    bad[2, 2, 0] = -1.0 + 1e-3
    for current in (full, bad):
        with pytest.raises(UsageError, match="shapes do not match"):
            kinematic_rate(f, current, model)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_a_current_that_is_not_finite_is_refused(block, value):
    model = three_node_model(np.ones((3, 3)) - np.eye(3))
    f = np.ones((4, 3))
    eta = np.zeros((4, 3))
    eta[3, 2] = value
    with pytest.raises(DomainError, match="not finite"):
        kinematic_rate(f, eta, model)
    # also where the rest of the current is infeasible
    sigma = np.ones((3, 3)) - np.eye(3)
    sigma[0, 1] = sigma[1, 0] = 0.0
    eta[0, 0] = 0.5
    with pytest.raises(DomainError, match="not finite"):
        kinematic_rate(f, eta, three_node_model(sigma))


def test_current_on_a_zero_rate_pair_is_infeasible(block):
    sigma = np.ones((3, 3)) - np.eye(3)
    sigma[0, 1] = sigma[1, 0] = 0.0
    model = three_node_model(sigma)
    f = np.ones((4, 3))
    eta = np.zeros((4, 3))
    eta[1, 0] = 0.5  # the pair (0, 1)
    with pytest.raises(InfeasibleValueError):
        kinematic_rate(f, eta, model)


def test_asymmetric_kernel_is_refused():
    # the i < j sums read only the upper triangle of sigma, so no model may
    # have a kernel that is not exactly symmetric
    with pytest.raises(NumericalQualityError, match="not exactly symmetric"):
        VelocityModel(
            nodes=np.arange(2.0)[:, None], weights=np.array([0.5, 0.5]),
            drift=np.array([[1.0], [-1.0]]),
            sigma=np.array([[0.0, 1.0], [2.0, 0.0]]),
        )


def test_current_where_a_density_vanishes_is_infeasible():
    # the rate is positive, but alpha = 2 kappa sqrt(p q) is zero at p = 0
    model = VelocityModel(
        nodes=np.arange(2.0)[:, None], weights=np.array([0.5, 0.5]),
        drift=np.array([[1.0], [-1.0]]), sigma=np.array([[0.0, 3.0], [3.0, 0.0]]),
    )
    f = np.array([[0.0, 1.0]])
    eta = current_of(f, model)
    with pytest.raises(InfeasibleValueError, match="density"):
        kinematic_rate(f, eta, model)


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
    # alpha underflows to 0 with kappa, p, q > 0: at xi = 0 = kappa*(p - q), and off it
    kappa[[5, 9]], p[[5, 9]] = [0.25, 1.8942727538402715e-301], [1e-323, 2.2045390158853033e200]
    q[[5, 9]], xi[[5, 9]] = [5e-324, 3.27e-321], [0.0, 0.4147186717918384]
    got_phi = phi(kappa, p, q, xi)
    got_psi = psi(kappa, p, q, xi)
    for k in range(n):
        assert got_phi[k] == phi(kappa[k], p[k], q[k], xi[k])
        assert got_psi[k] == psi(kappa[k], p[k], q[k], xi[k])
    assert np.isinf(got_psi).any() and np.isinf(got_phi).any()


def shapes(rng):
    """(kappa, p, q, xi) of each shape the block loop takes: zero-size, 0-d,
    1-d longer than BLOCK, 2-d with kappa per pair, and a 3-d broadcast that
    no view flattens to 2-d (p's middle axis is broadcast)."""
    def draw(*shape):
        return rng.uniform(0.1, 3.0, shape)

    n = functionals.BLOCK + 5
    yield draw(0), draw(0), draw(0), draw(0)
    yield draw(3, 0), draw(1, 0), draw(0), draw(3, 0)
    yield 0.7, 1.3, 0.4, 0.2
    yield draw(n), draw(n), draw(n), rng.normal(0.0, 2.0, n)
    yield draw(7), draw(5, 7), draw(5, 7), rng.normal(0.0, 2.0, (5, 7))
    yield draw(6), draw(3, 1, 6), draw(3, 4, 6), rng.normal(0.0, 2.0, (3, 4, 6))


@pytest.mark.parametrize("cost", [phi, psi], ids=["phi", "psi"])
def test_every_shape_equals_the_scalar_calls_bit_for_bit(block, cost):
    for args in shapes(np.random.default_rng(25)):
        got = cost(*args)
        operands = np.broadcast_arrays(*args)
        if operands[0].ndim == 0:
            assert type(got) is float
        assert np.shape(got) == operands[0].shape
        want = [cost(*(float(a[k]) for a in operands)) for k in np.ndindex(operands[0].shape)]
        assert np.array_equal(np.ravel(got), want)
        if cost is phi:  # and off the own current's zero fill
            assert np.all(np.ravel(got) > 0.0)


def test_blocks_with_extreme_entries_keep_the_reference():
    """Of several blocks only one holds entries where the squares of the
    reference formula overflow, |xi| = 1e155 or alpha near 1e-151; they keep
    the reference, and every element equals its scalar call."""
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
    weights /= weights.sum()
    b = np.linspace(-1.0, 1.0, n_v)[:, None]
    model = VelocityModel(
        nodes=np.arange(n_v, dtype=float)[:, None], weights=weights,
        drift=b - weights @ b, sigma=a + a.T,
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
    got = kinematic_rate(f, triangle(eta), model)
    assert got == pytest.approx(math.fsum(reference) / n_x, rel=REL, abs=0.0)
    eta[30, 3, 7], eta[30, 7, 3] = 1e155, -1e155
    big = kinematic_rate(f, triangle(eta), model)
    alpha = 2.0 * model.sigma[3, 7] * math.sqrt(f[30, 3]) * math.sqrt(f[30, 7])
    assert big == pytest.approx(2.0 * model.weights[3] * model.weights[7] / n_x
                                * 1e155 * (math.asinh(1e155 / alpha) - 1.0), rel=REL)


def count_alpha_calls(monkeypatch):
    """A list that grows by one entry per call of functionals._alpha, which
    phi's kernel makes once per block that it does not fill with zeros."""
    calls = []
    alpha = functionals._alpha

    def counted(*args):
        calls.append(None)
        return alpha(*args)

    monkeypatch.setattr(functionals, "_alpha", counted)
    return calls


def test_phi_at_the_own_current_is_exactly_zero_on_both_paths(monkeypatch):
    """Four blocks of phi.  The first and the last lie entirely at the own
    current xi = kappa*(p - q), so they are filled with zeros.  The second
    lies at it but for one element, the third on every other element, so both
    take the whole kernel.  kappa = 0, p = 0 and q = 0 entries at xi = m sit
    in the first two blocks, and the second also holds one where (xi/alpha)^2
    overflows."""
    rng = np.random.default_rng(23)
    block = functionals.BLOCK
    n = 3 * block + 17
    kappa = rng.uniform(0.1, 3.0, n)
    p = rng.uniform(0.1, 3.0, n)
    q = rng.uniform(0.1, 3.0, n)
    for start in (0, block):
        k = start + 10 + rng.choice(block - 10, 30, replace=False)
        kappa[k[:10]], p[k[10:20]], q[k[20:]] = 0.0, 0.0, 0.0
    kappa[block + 5], p[block + 5], q[block + 5] = 1.0, 1.7e308, 1e-300
    xi = kappa * (p - q)
    off = np.zeros(n, bool)
    off[block + 7] = True
    off[2 * block:3 * block:2] = True
    # off by at least 0.5: nearer, _reference_costs loses digits to cancellation
    xi[off] += rng.choice([-1.0, 1.0], off.sum()) * rng.uniform(0.5, 3.0, off.sum())
    calls = count_alpha_calls(monkeypatch)
    got = phi(kappa, p, q, xi)
    assert len(calls) == 2  # the second and the third block
    assert np.all(got[~off] == 0.0)
    for k in np.flatnonzero(~off)[::97]:
        assert phi(kappa[k], p[k], q[k], xi[k]) == 0.0
    for k in np.flatnonzero(off):
        assert got[k] == phi(kappa[k], p[k], q[k], xi[k])
        ref = _reference_costs(kappa[k], p[k], q[k], xi[k])[1]
        assert got[k] == pytest.approx(ref, rel=REL, abs=0.0)


def test_phi_is_zero_at_the_own_current_where_the_ratio_squared_overflows():
    # (xi/alpha)^2 overflows, and the fallback's (xi + m)/den was inf/inf
    got = phi([1.0, 1.0], [1.7e308, 1.0], [1e-300, 2.0], [1.7e308, 0.3])
    assert got[0] == 0.0
    assert got[1] == phi(1.0, 1.0, 2.0, 0.3) > 0.0
    assert phi(1.0, 1.7e308, 1e-300, 1.7e308) == 0.0


def test_phi_forms_no_alpha_for_a_block_at_the_own_current(monkeypatch):
    rng = np.random.default_rng(24)
    kappa, p, q = (rng.uniform(0.1, 3.0, 1000) for _ in range(3))
    xi = kappa * (p - q)
    calls = count_alpha_calls(monkeypatch)
    assert not phi(kappa, p, q, xi).any()
    assert len(calls) == 0
    for value in (xi[500] + 1.0, math.nan, math.inf):  # off it, or not finite
        off = xi.copy()
        off[500] = value
        phi(kappa, p, q, off)
    assert len(calls) == 3


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
    small = kinematic_rate(c * f, current_of(c * f, model), model)
    assert math.isfinite(small)
    assert small == pytest.approx(
        c * kinematic_rate(f, current_of(f, model), model), rel=1e-12, abs=0.0)


def _mpmath_costs(kappa, p, q, xi):
    """psi and phi by their reference formulas at 60 digits."""
    with mpmath.workdps(60):
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


def two_node_model(kappa):
    return VelocityModel(
        nodes=np.arange(2.0)[:, None], weights=np.full(2, 0.5),
        drift=np.array([[-1.0], [1.0]]), sigma=kappa * (np.ones((2, 2)) - np.eye(2)),
    )


def count_fallbacks(monkeypatch):
    """Record (x, kappa, p, q) of every element that enters ``_fallback``."""
    entered = []

    def counted(x, mb, kappa, p, q):
        entered.append(np.broadcast_arrays(*map(np.asarray, (x, kappa, p, q))))
        return fallback(x, mb, kappa, p, q)

    fallback = functionals._fallback
    monkeypatch.setattr(functionals, "_fallback", counted)
    return entered


def phi_bound(kappa, p, q, xi):
    """4 u (1 + |a| + |b|)(1 + 1/|a - b|), a = asinh(xi/alpha), b = asinh(m/alpha):
    a few roundings of a and b, over the h = (a - b)/2 that phi is quadratic in."""
    alpha = np.sqrt(p) * np.sqrt(q) * kappa * 2.0
    a, b = np.arcsinh(xi / alpha), np.arcsinh(kappa * (p - q) / alpha)
    return 4.0 * 2.0**-53 * (1.0 + np.abs(a) + np.abs(b)) * (1.0 + 1.0 / np.abs(a - b))


def test_psi_matches_mpmath_from_tiny_to_huge_ratios_without_a_fallback(monkeypatch):
    # psi = xi*(a - tanh(a/2)), a = asinh(xi/alpha), and phi in h = (a - b)/2
    # form no square: every finite xi/alpha stays in the kernel, where
    # (xi/alpha)^2 once overflowed from |xi/alpha| ~ 1.3e154 on and sent the
    # element to the fallback
    entered = count_fallbacks(monkeypatch)
    rng = np.random.default_rng(28)
    kappa, p, q = rng.uniform(0.1, 3.0, (3, 3000))
    ratio = 10.0 ** rng.uniform(-12, 300, 3000) * rng.choice([-1.0, 1.0], 3000)
    xi = ratio * (np.sqrt(p) * np.sqrt(q) * kappa * 2.0)
    ref, phi_ref = np.array([_mpmath_costs(*args) for args in zip(kappa, p, q, xi)]).T
    assert np.max(np.abs(psi(kappa, p, q, xi) / ref - 1.0)) <= 2e-15
    phi_err = np.abs(phi(kappa, p, q, xi) / phi_ref - 1.0)
    assert np.all(phi_err <= phi_bound(kappa, p, q, xi))
    for n in range(0, 3000, 10):  # one pair on one cell: the rate is psi / 2
        rate = kinematic_rate(np.array([[p[n], q[n]]]), np.array([[xi[n]]]),
                              two_node_model(kappa[n]))
        assert abs(rate / (0.5 * ref[n]) - 1.0) <= 2e-15
    assert not entered
    # alpha = 0, or xi/alpha = +-inf, and nothing else enters it
    extreme = np.array([(0.0, 1.0, 2.0, 0.5), (1.0, 0.0, 2.0, -0.5), (1.0, 1.0, 0.0, 0.0),
                        (5e-301, 1.0, 1.0, 1e10), (5e-301, 1.0, 4.0, -1e10)])
    mixed = np.concatenate([extreme, np.stack([kappa, p, q, xi], axis=1)[:5]])
    for cost in (psi, phi):
        assert list(cost(*mixed.T)[5:]) == [cost(*row) for row in mixed[5:]]
        (x, k, a, b), = entered  # one call, on the mixed block
        assert np.array_equal(np.stack([k, a, b, x], axis=1), extreme)
        alpha = np.sqrt(a) * np.sqrt(b) * k * 2.0
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            assert np.all((alpha == 0) | np.isinf(x / alpha))
        entered.clear()


def test_phi_is_nonnegative_and_accurate_down_to_its_zero_set():
    # xi = m +- delta (|m| + 1), m = kappa*(p - q): phi is O(delta^2) there, and
    # the reference form a difference of two O(delta) terms.  phi's own
    # conditioning is 1 + |m|/|xi - m|, as m carries one rounding
    rng = np.random.default_rng(29)
    kappa, p, q = rng.uniform(0.1, 3.0, (3, 400))
    m = kappa * (p - q)
    for delta in 10.0 ** np.arange(-12, 2):
        for sign in (1.0, -1.0):
            xi = m + sign * delta * (np.abs(m) + 1.0)
            got = phi(kappa, p, q, xi)
            ref = np.array([_mpmath_costs(*args)[1] for args in zip(kappa, p, q, xi)])
            assert np.all(got >= 0.0)
            bound = 4e-15 * (1.0 + (np.abs(m) + 1.0) / np.abs(xi - m))
            assert np.all(np.abs(got / ref - 1.0) <= bound), delta


def test_phi_matches_mpmath_at_wide_scales_without_a_fallback(monkeypatch):
    # kappa, p and q over 300 decades, xi over 300 decades or within 1e-12 ... 1
    # of m relative: m/alpha and xi/alpha reach 1e300, where a and b carry
    # roundings of their own size
    entered = count_fallbacks(monkeypatch)
    rng = np.random.default_rng(30)
    n = 3000
    kappa, p, q = 10.0 ** rng.uniform(-150, 150, (3, n))
    m = kappa * (p - q)
    xi = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-150, 150, n)
    near = rng.random(n) < 0.3
    xi[near] = m[near] * (1.0 + rng.choice([-1.0, 1.0], near.sum())
                          * 10.0 ** rng.uniform(-12, 0, near.sum()))
    with np.errstate(over="ignore", invalid="ignore"):
        bound = phi_bound(kappa, p, q, xi)
    keep = np.isfinite(bound)  # xi/alpha or m/alpha overflowed otherwise
    assert keep.sum() > 0.99 * n
    kappa, p, q, xi, bound = kappa[keep], p[keep], q[keep], xi[keep], bound[keep]
    got = phi(kappa, p, q, xi)
    ref = np.array([_mpmath_costs(*args)[1] for args in zip(kappa, p, q, xi)])
    assert np.all(got >= 0.0)
    assert np.all(np.abs(got / ref - 1.0) <= bound)
    assert not entered


def test_phi_where_xi_plus_m_overflows_matches_mpmath():
    # xi + m and the sum of the two roots overflow at the first entry, whose psi
    # is +inf, so the case above cannot take it
    got = phi([1.0, 1.0, 1.0], [1.7e308, 1.0, 1.7e308], [1e-300, 2.0, 1e-300],
              [1.6e308, 0.3, -1.7e308])
    ref = _mpmath_costs(1.0, 1.7e308, 1e-300, 1.6e308)[1]
    assert ref == 3.0006050937042498e305
    assert got[0] == pytest.approx(ref, rel=1e-10, abs=0.0)
    assert got[1] == phi(1.0, 1.0, 2.0, 0.3)
    assert got[2] == math.inf  # its exact value is 2.4e311
    assert _mpmath_costs(1.0, 1.7e308, 1e-300, -1.7e308)[1] == math.inf


def test_phi_where_h_cosh_h_overflows_matches_mpmath():
    # xi/alpha = 1.69e308 against m/alpha = -1.73e308: h = (a - b)/2 ~ 710, where
    # h cosh h overflows and the kernel's two terms can sum to -inf, not +inf;
    # a test for every value that is not finite sends the element to _fallback
    kappa, p, q, xi = 1e-10, 1e-309, 1.2e308, 1.17e298
    ref = _mpmath_costs(kappa, p, q, xi)[1]
    assert phi(kappa, p, q, xi) == pytest.approx(ref, rel=1e-14, abs=0.0)
    assert phi(kappa, q, p, -xi) == pytest.approx(ref, rel=1e-14, abs=0.0)


#: alpha = 2 kappa sqrt(pq) is 3e-361 here, so 0 in floats, with kappa, p, q > 0
ALPHA_UNDERFLOWS = (1.8942727538402715e-301, 2.2045390158853033e200, 3.27e-321,
                    0.4147186717918384)


def test_phi_where_alpha_underflows_takes_the_legendre_limit():
    # xi and m = kappa*(p - q) share a sign: the closed-form limit at m keeps the
    # reference.  (xi/alpha)^2 is inf, so the overflow case above cannot take it
    ref = _mpmath_costs(*ALPHA_UNDERFLOWS)[1]
    assert ref == pytest.approx(95.07491328805117, rel=1e-15)
    assert phi(*ALPHA_UNDERFLOWS) == pytest.approx(ref, rel=1e-14, abs=0.0)


def test_costs_where_alpha_underflows_are_finite():
    # psi, phi against m's sign and the kinematic rate took +inf (or raised) here;
    # log(2|x|/alpha) = log|x| - log kappa - log p / 2 - log q / 2 needs no alpha
    kappa, p, q, xi = ALPHA_UNDERFLOWS
    psi_ref, phi_ref = _mpmath_costs(kappa, p, q, -xi)
    assert (psi_ref, phi_ref) == (pytest.approx(343.751082785, rel=1e-11),
                                  pytest.approx(592.427252281, rel=1e-11))
    assert psi(kappa, p, q, xi) == pytest.approx(psi_ref, rel=1e-12, abs=0.0)
    assert psi(kappa, p, q, -xi) == pytest.approx(psi_ref, rel=1e-12, abs=0.0)
    assert phi(kappa, p, q, -xi) == pytest.approx(phi_ref, rel=1e-12, abs=0.0)
    assert phi(kappa, q, p, xi) == pytest.approx(phi_ref, rel=1e-12, abs=0.0)
    model = two_node_model(kappa)
    f, eta = np.array([[p, q]]), np.array([[xi]])
    assert kinematic_rate(f, eta, model) == pytest.approx(
        2.0 * 0.25 * _mpmath_costs(kappa, p, q, xi)[0], rel=1e-12, abs=0.0)
    # where alpha is 0 exactly, the costs stay +inf and the rate infeasible
    for k, a, b in ((0.0, p, q), (kappa, 0.0, q), (kappa, p, 0.0)):
        assert psi(k, a, b, xi) == math.inf
        assert phi(k, a, b, -xi) == math.inf
    zero_rate = VelocityModel(nodes=model.nodes, weights=model.weights, drift=model.drift,
                              sigma=np.zeros((2, 2)))
    for model_, f_ in ((zero_rate, f), (model, np.array([[p, 0.0]]))):
        with pytest.raises(InfeasibleValueError):
            kinematic_rate(f_, eta, model_)


def test_kinematic_rate_of_a_current_whose_ratio_overflows_is_finite():
    model = two_node_model(1.0)
    f = np.full((1, 2), 1e-300)
    eta = np.array([[1e10]])  # eta_01/alpha = 5e309
    expected = 2.0 * 0.25 * _mpmath_costs(1.0, 1e-300, 1e-300, 1e10)[0]
    assert kinematic_rate(f, eta, model) == pytest.approx(expected, rel=1e-14, abs=0.0)
    # and where alpha itself overflows to inf: the cost is 0 to double
    # precision (psi(1e300, 1e300, 1e300, 1) = 5e-601), with no warning
    huge_rate = VelocityModel(nodes=model.nodes, weights=model.weights, drift=model.drift,
                              sigma=1e10 * model.sigma)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert phi(1e300, 1e300, 1e300, 1.0) == 0.0
        assert psi(1e300, 1e300, 1e300, 1.0) == 0.0
        assert kinematic_rate(np.array([[1e300, 1e299]]), np.array([[1.0]]), huge_rate) == 0.0
