"""Convex costs and integral functionals of the entropy-dissipation formulation.

The two building blocks are the jump cost ``phi`` and its centered part
``psi``.  For rate kappa >= 0 and densities p, q >= 0,

    phi(kappa, p, q; xi) = xi * [asinh(xi/a) - asinh(m/a)]
                           - [sqrt(xi^2 + a^2) - sqrt(m^2 + a^2)]

with a = 2*kappa*sqrt(p*q) and m = kappa*(p - q).  It is nonnegative,
jointly convex, and vanishes exactly at xi = kappa*(p - q).  The centered
part

    psi(kappa, p, q; xi) = xi * asinh(xi/a) - [sqrt(xi^2 + a^2) - a]

is the Legendre transform of lam -> a*(cosh(lam) - 1) and satisfies the
decomposition

    phi(kappa, p, q; xi) = kappa*(sqrt(p) - sqrt(q))^2
                           + xi * 0.5*log(q/p) + psi(kappa, p, q; xi).

Degenerate arguments (kappa = 0 or p*q = 0) are resolved by the Legendre
definitions; the resulting +inf is represented by ``math.inf`` and any
quadrature that touches it raises :class:`InfeasibleValueError` instead of
propagating a raw infinity through a sum.

Both costs are symmetric under (p, q, xi) -> (q, p, -xi).  The pair sums
over (x, v, v') -- the kinematic rate here and the jump-cost residual in
:mod:`linboltz.kinetic` -- therefore evaluate each velocity pair i < j once
and count it twice, and treat the diagonal, where an antisymmetric current
vanishes, in O(n_x * n_v).  :func:`kinematic_rate` requires an
antisymmetric current.  The cost kernels run in blocks of at most
``BLOCK`` elements, so that the temporaries of their arithmetic stay in
cache.
"""

import math

import numpy as np

from .errors import (
    DomainError,
    InfeasibleValueError,
    NumericalQualityError,
    UsageError,
)
from .spectral import gradient

#: densities are clamped below at this floor inside logarithms only
LOG_FLOOR = 1e-300
#: and above at this cap (the truncated-log safeguard)
LOG_CAP = 1e300

#: negative values above this (relative) threshold are treated as roundoff
NEG_TOL = 1e-10


def _check_nonneg(name, value):
    if np.min(value, initial=0.0) < 0:
        raise DomainError(f"{name} must be nonnegative")


def truncated_log(u, floor=LOG_FLOOR, cap=LOG_CAP):
    """log clipped to [log(floor), log(cap)]; safe at u = 0."""
    return np.log(np.clip(u, floor, cap))


# ---------------------------------------------------------------------------
# cost kernels, each on one block of equal-shape arrays; the Legendre branch
# for alpha = 0 is patched in only at the elements where it occurs
# ---------------------------------------------------------------------------

#: elements per block: a fresh full-size temporary per ufunc costs several
#: times the arithmetic it holds, a block's temporaries stay in cache
BLOCK = 4096

#: sqrt(x*x + a*a) neither over- nor underflows while its value stays inside
#: this range; outside it np.hypot (about 4x slower) takes over
_HYPOT_LO = 1e-150
_HYPOT_HI = 1e150

#: relative tolerance of the antisymmetry test (that of np.allclose)
_ANTISYM_RTOL = 1e-5


def _hypot(x, a, x2, a2):
    """sqrt(x^2 + a^2) from the squares x2, a2, with np.hypot at the elements
    where they would spoil it, and the index of those (None if there are none)."""
    h = np.sqrt(x2 + a2)
    if not h.size or (_HYPOT_LO < h.min() and h.max() < _HYPOT_HI):
        return h, None
    bad = np.nonzero(~((h > _HYPOT_LO) & (h < _HYPOT_HI)))
    h[bad] = np.hypot(x[bad], a[bad])
    return h, bad


def _degenerate(alpha):
    """Index of the elements where alpha > 0 fails, or None if there are none."""
    if alpha.size == 0 or alpha.min() > 0:
        return None
    return np.nonzero(~(alpha > 0))


def _centered_cost(alpha, xi):
    """xi*asinh(xi/alpha) - (sqrt(xi^2+alpha^2) - alpha) on one block.

    alpha = 0 is the degenerate Legendre limit: 0 at xi = 0, +inf otherwise.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        x2 = xi * xi
        hyp, bad = _hypot(xi, alpha, x2, alpha * alpha)
        # sqrt(x^2+a^2) - a == x^2/(hyp + a), stable for |x| << a
        excess = x2 / (hyp + alpha)
        if bad is not None:  # x^2 overflows beyond ~1.3e154
            excess[bad] = xi[bad] * (xi[bad] / (hyp[bad] + alpha[bad]))
        out = xi * np.arcsinh(xi / alpha) - excess
    deg = _degenerate(alpha)
    if deg is not None:
        out[deg] = np.where(xi[deg] == 0.0, 0.0, math.inf)
    return out


def _jump_cost(kappa, p, q, xi):
    """phi on one block; see :func:`phi`."""
    alpha = 2.0 * kappa * np.sqrt(p * q)
    m = kappa * (p - q)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        x2, m2, a2 = xi * xi, m * m, alpha * alpha
        hyp_x, bad_x = _hypot(xi, alpha, x2, a2)
        hyp_m, bad_m = _hypot(m, alpha, m2, a2)
        den = hyp_x + hyp_m
        # sqrt(x^2+a^2) - sqrt(m^2+a^2), cancellation-free
        bracket = (x2 - m2) / den
        for bad in (bad_x, bad_m):  # x^2 or m^2 overflows beyond ~1.3e154
            if bad is not None:
                bracket[bad] = (xi[bad] - m[bad]) * ((xi[bad] + m[bad]) / den[bad])
        out = xi * (np.arcsinh(xi / alpha) - np.arcsinh(m / alpha)) - bracket
    deg = _degenerate(alpha)
    if deg is not None:
        out[deg] = _phi_degenerate(kappa[deg], p[deg], q[deg], xi[deg])
    return out


def _phi_degenerate(kappa, p, q, xi):
    """phi on the boundary kappa = 0 or p*q = 0, by the Legendre definition."""
    out = np.full(kappa.shape, math.inf)

    zero_rate = kappa == 0
    out[zero_rate] = np.where(xi[zero_rate] == 0.0, 0.0, math.inf)

    k = ~zero_rate
    both = k & (p == 0) & (q == 0)
    out[both] = np.where(xi[both] == 0.0, 0.0, math.inf)

    # q = 0, p > 0: sup_lam { lam*xi - kappa*p*(e^lam - 1) }
    right = k & (q == 0) & (p > 0)
    if np.any(right):
        kp = kappa[right] * p[right]
        x = xi[right]
        with np.errstate(divide="ignore", invalid="ignore"):
            val = np.where(
                x > 0, x * np.log(x / kp) - x + kp, np.where(x == 0, kp, math.inf)
            )
        out[right] = val

    # p = 0, q > 0: mirror image in xi -> -xi
    left = k & (p == 0) & (q > 0)
    if np.any(left):
        kq = kappa[left] * q[left]
        x = -xi[left]
        with np.errstate(divide="ignore", invalid="ignore"):
            val = np.where(
                x > 0, x * np.log(x / kq) - x + kq, np.where(x == 0, kq, math.inf)
            )
        out[left] = val
    return out


def _elementwise(kernel, *args):
    """kernel over the broadcast of ``args``, BLOCK elements at a time."""
    it = np.nditer(
        [*args, None],
        flags=["external_loop", "buffered", "zerosize_ok"],
        op_flags=[["readonly"]] * len(args) + [["writeonly", "allocate"]],
        op_dtypes=[np.float64] * (len(args) + 1),
        buffersize=BLOCK,
    )
    with it:
        out = it.operands[-1]
        for *block, block_out in it:
            block_out[...] = kernel(*block)
    if out.ndim == 0:
        return float(out)
    return out


def psi(kappa, p, q, xi):
    """Centered jump cost; scalar or elementwise on broadcast arrays."""
    _check_nonneg("kappa", kappa)
    _check_nonneg("p", p)
    _check_nonneg("q", q)
    return _elementwise(
        lambda k, a, b, x: _centered_cost(2.0 * k * np.sqrt(a * b), x),
        kappa, p, q, xi,
    )


def phi(kappa, p, q, xi):
    """Jump cost of the balance-equation action; zero iff xi = kappa*(p-q)."""
    _check_nonneg("kappa", kappa)
    _check_nonneg("p", p)
    _check_nonneg("q", q)
    return _elementwise(_jump_cost, kappa, p, q, xi)


def phi_slope_at_zero(p, q):
    """d phi / d xi at xi = 0, which equals 0.5*log(q/p)."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if np.any(p <= 0) or np.any(q <= 0):
        raise DomainError("phi_slope_at_zero requires p > 0 and q > 0")
    out = 0.5 * np.log(q / p)
    if out.ndim == 0:
        return float(out)
    return out


def psi_legendre_oracle(kappa, p, q, xi, lambda_grid):
    """Discrete supremum of lam*xi - 2*kappa*sqrt(pq)*(cosh(lam) - 1).

    Independent oracle for :func:`psi`; never used in production paths.
    """
    lam = np.asarray(lambda_grid, dtype=float)
    if lam.size == 0:
        raise UsageError("empty lambda grid")
    if p * q <= 0:
        raise DomainError("Legendre oracle requires p*q > 0")
    alpha = 2.0 * kappa * math.sqrt(p * q)
    return float(np.max(lam * xi - alpha * (np.cosh(lam) - 1.0)))


# ---------------------------------------------------------------------------
# integral functionals on the discrete phase space
# ---------------------------------------------------------------------------


def _clip_density(f, what="density"):
    f = np.asarray(f, dtype=float)
    scale = max(float(np.max(np.abs(f), initial=0.0)), 1.0)
    if np.any(f < -NEG_TOL * scale):
        raise DomainError(f"negative {what}")
    return np.clip(f, 0.0, None)


def relative_entropy(f, model, dx, floor=LOG_FLOOR, cap=LOG_CAP):
    """Relative entropy of f*dx*pi against dx*pi: sum dx*w_i * f log f.

    ``f`` has shape (n_x, n_v); 0*log(0) = 0 by convention, the floor/cap
    act inside the logarithm only.
    """
    f = _clip_density(f)
    flogf = np.where(f > 0, f * truncated_log(f, floor, cap), 0.0)
    return float(dx * np.sum(flogf @ model.weights))


def dirichlet_form(f_slice, model, dx):
    """Dirichlet form of sqrt(f): sum_x dx sum_ij w_i w_j S_ij (sqrt f_j - sqrt f_i)^2.

    Expanded as 2*(sum_i w_i lam_i f_i - <sqrt f, S w sqrt f>) to stay
    O(n_x * n_v^2) without forming the pair difference tensor.
    """
    f = _clip_density(f_slice)
    if f.ndim == 1:
        f = f[None, :]
    w = model.weights
    sq = np.sqrt(f)
    local = (f * (w * model.rates)).sum(axis=1)
    cross = np.einsum("xi,i,ij,j,xj->x", sq, w, model.sigma, w, sq, optimize=True)
    return float(dx * np.sum(2.0 * (local - cross)))


def pair_triangle(model):
    """Velocity pairs i < j and their weights 2 w_i w_j in a sum over all i != j.

    Both jump costs are symmetric under (p, q, xi) -> (q, p, -xi), so with a
    symmetric kernel and an antisymmetric current the pair (j, i) costs the
    same as (i, j), and each pair i < j is evaluated once and counted twice.
    A kernel that is not exactly symmetric raises
    :class:`NumericalQualityError`, as :meth:`VelocityModel.validate` does.
    """
    if not np.array_equal(model.sigma, model.sigma.T):
        raise NumericalQualityError("scattering kernel is not exactly symmetric")
    i, j = np.triu_indices(model.n_nodes, 1)
    w = model.weights
    return i, j, 2.0 * w[i] * w[j]


def _pair_blocks(n_cells, n_pairs):
    """(cells, pairs) slices that tile n_cells x n_pairs in blocks of at most BLOCK."""
    rows = max(1, BLOCK // max(n_pairs, 1))
    cols = max(1, min(n_pairs, BLOCK))
    for c in range(0, n_cells, rows):
        for s in range(0, n_pairs, cols):
            yield slice(c, c + rows), slice(s, s + cols)


def _check_antisymmetric(up, lo, atol):
    """``np.allclose(eta, -eta^T, atol=atol)`` on the entries ``up`` and their mirrors ``lo``."""
    gap = up + lo
    if not gap.any():  # exactly antisymmetric, as the solver's own current is
        return
    tol = np.minimum(np.abs(up), np.abs(lo))
    tol *= _ANTISYM_RTOL
    tol += atol
    if not np.all(np.abs(gap) <= tol):
        raise DomainError("current must be antisymmetric in (v, v')")


def kinematic_rate(f_slice, eta_slice, model, dx):
    """Instantaneous kinematic cost sum_x dx sum_ij w_i w_j psi_{S_ij}(f_i, f_j; eta_ij).

    The current must be antisymmetric in (v, v'), to the tolerance of
    ``np.allclose`` with atol = 1e-12 * max(1, max|eta|); otherwise
    :class:`DomainError`.  psi is evaluated on the pairs i < j only and
    counted twice (see :func:`pair_triangle`), cells and pairs in blocks of
    at most ``BLOCK`` elements; the diagonal costs O(n_x * n_v).  A current on
    a zero-rate pair, the diagonal included, raises
    :class:`InfeasibleValueError`.
    """
    f = np.atleast_2d(_clip_density(f_slice))
    eta = np.asarray(eta_slice, dtype=float)
    if eta.ndim == 2:
        eta = eta[None, :, :]
    n_x, n_v = f.shape
    if n_v != model.n_nodes or eta.shape != (n_x, n_v, n_v):
        raise UsageError("density and current shapes do not match the model")
    atol = 1e-12 * max(1.0, np.max(eta, initial=0.0), -np.min(eta, initial=0.0))

    diag = np.diagonal(eta, axis1=1, axis2=2)
    _check_antisymmetric(diag, diag, atol)
    i, j, weights = pair_triangle(model)
    upper, lower = i * n_v + j, j * n_v + i
    two_sigma = 2.0 * model.sigma[i, j]
    flat = eta.reshape(n_x, n_v * n_v)
    total = 0.0
    for cells, pairs in _pair_blocks(n_x, i.size):
        up = np.take(flat[cells], upper[pairs], axis=1)
        _check_antisymmetric(up, np.take(flat[cells], lower[pairs], axis=1), atol)
        fb = f[cells]
        alpha = np.take(fb, i[pairs], axis=1)
        alpha *= np.take(fb, j[pairs], axis=1)
        np.sqrt(alpha, out=alpha)
        alpha *= two_sigma[pairs]
        total += float(np.sum(_centered_cost(alpha, up) @ weights[pairs]))
    w = model.weights
    alpha = 2.0 * np.diagonal(model.sigma) * np.sqrt(f * f)
    total += float(np.sum(_centered_cost(alpha, diag) @ (w * w)))
    if math.isinf(total):
        raise InfeasibleValueError("kinematic cost is infeasible (current on a zero-rate pair)")
    return float(dx * total)


def kinematic_term(f_path, eta_path, model, dt, dx):
    """Time quadrature (rectangle on the supplied slices) of the kinematic rate."""
    total = 0.0
    for f, eta in zip(f_path, eta_path):
        total += kinematic_rate(f, eta, model, dx)
    return dt * total


def dirichlet_lower_bound(f_slice, model, dx, phi_test):
    """Value of the Donsker-Varadhan integrand for a supplied test function.

    This is a lower-bound probe of the variational supremum; it never
    exceeds the supremum and equals half the Dirichlet form at
    phi_test = 0.5*log f (see the module notes on the factor).
    """
    f = _clip_density(f_slice)
    if f.ndim == 1:
        f = f[None, :]
    phi_t = np.asarray(phi_test, dtype=float)
    if phi_t.ndim == 1:
        phi_t = np.broadcast_to(phi_t, f.shape)
    w = model.weights
    expdiff = np.exp(phi_t[:, None, :] - phi_t[:, :, None])  # phi_j - phi_i
    integrand = np.einsum(
        "xi,i,ij,j,xij->", f, w, model.sigma, w, 1.0 - expdiff, optimize=True
    )
    return float(dx * integrand)


def kinematic_lower_bound(f_path, eta_path, model, dt, dx, zeta, alpha_test=None):
    """Bracketed expression of the kinematic variational formula.

    ``zeta`` and ``alpha_test`` are arrays over (time, x, v, v'); alpha
    defaults to 1 and must be positive.
    """
    zeta = np.asarray(zeta, dtype=float)
    if not np.allclose(zeta, -np.swapaxes(zeta, -1, -2)):
        raise DomainError("zeta must be antisymmetric in (v, v')")
    if alpha_test is None:
        alpha_test = np.ones_like(zeta)
    alpha_test = np.asarray(alpha_test, dtype=float)
    if np.any(alpha_test <= 0):
        raise DomainError("alpha must be positive")
    w = model.weights
    theta_pairing = 0.0
    penalty = 0.0
    for t, (f, eta) in enumerate(zip(f_path, eta_path)):
        f = _clip_density(f)
        theta_pairing += dx * np.einsum("i,j,xij,xij->", w, w, eta, zeta[t])
        factor = alpha_test[t] + 1.0 / np.swapaxes(alpha_test[t], -1, -2)
        penalty += dx * np.einsum(
            "xi,i,ij,j,xij,xij->",
            f, w, model.sigma, w, np.cosh(zeta[t]) - 1.0, factor,
            optimize=True,
        )
    return dt * (theta_pairing - penalty)


# ---------------------------------------------------------------------------
# heat-equation functionals
# ---------------------------------------------------------------------------


def _as_matrix(D, ndim):
    D = np.atleast_2d(np.asarray(D, dtype=float))
    if D.shape != (ndim, ndim):
        raise DomainError(f"diffusion matrix must be {ndim}x{ndim}")
    if not np.allclose(D, D.T):
        raise DomainError("diffusion matrix must be symmetric")
    evals = np.linalg.eigvalsh(D)
    if np.min(evals) <= 0:
        raise DomainError("diffusion matrix must be positive definite")
    return D


def fisher_information(rho, D, dx=None):
    """Fisher information 2 * int grad(sqrt rho) . D grad(sqrt rho) dx.

    ``rho`` lives on a uniform periodic grid (1d or 2d); derivatives are
    spectral.  ``dx`` defaults to 1/n per axis.
    """
    rho = _clip_density(rho, "rho")
    D = _as_matrix(D, rho.ndim)
    if dx is None:
        dx = 1.0 / rho.shape[0]
    cell = dx ** rho.ndim
    sq = np.sqrt(rho)
    grads = [gradient(sq, axis=a) for a in range(rho.ndim)]
    total = 0.0
    for a in range(rho.ndim):
        for b in range(rho.ndim):
            total += D[a, b] * np.sum(grads[a] * grads[b])
    return float(2.0 * cell * total)


def heat_kinematic(rho_path, j_path, D, dt, dx=None, rho_floor=1e-14):
    """Kinematic action 0.5 * int dt int j . D^{-1} j / rho dx."""
    rho_path = np.asarray(rho_path, dtype=float)
    j_path = np.asarray(j_path, dtype=float)
    ndim = rho_path.ndim - 1
    D = _as_matrix(D, ndim)
    Dinv = np.linalg.inv(D)
    if dx is None:
        dx = 1.0 / rho_path.shape[1]
    cell = dx**ndim
    rho = np.clip(rho_path, rho_floor, None)
    quad = np.einsum("ab,t...a,t...b->t...", Dinv, j_path, j_path)
    return float(0.5 * dt * cell * np.sum(quad / rho))
