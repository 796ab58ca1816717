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

The integral functionals integrate over the periodic unit interval on n equal
cells, with the cell size dx = 1/n taken from the cell axis of their array.

Both costs are symmetric under (p, q, xi) -> (q, p, -xi).  The pair sums
over (x, v, v') -- the kinematic rate here and the jump-cost residual in
:mod:`linboltz.kinetic` -- therefore evaluate each velocity pair i < j once
and count it twice, and treat the diagonal, where an antisymmetric current
vanishes, in O(n_x * n_v).  :func:`kinematic_rate` requires an
antisymmetric current.

The cost kernels run in blocks of at most ``BLOCK`` (16384) elements and do
their arithmetic in place, in scratch arrays allocated once per call, so a
block makes about 10 (psi) or 25 (phi) passes over data that stays in cache
and no ufunc allocates.  They divide the formulas above through by alpha and
see it only through xi/alpha and m/alpha, with alpha = 2*kappa*sqrt(p)*sqrt(q);
only the squares of those ratios can overflow, and the elements where they do
fall back to np.hypot, with asinh(y) = log 2|y| where y itself overflows.  On
the ``certify`` benchmark config (Rayleigh-120, 64 cells, 457k pair elements
per call; 2-core Xeon, one thread) a :func:`kinematic_rate` call takes
about 11 ms, 24 ns per pair element with its gathers and antisymmetry
check, and a :func:`phi` call about 14 ms, 30 ns per element.  The kernels
use no threads: two threads running np.arcsinh on separate blocks ran no
faster than one there.
"""

import functools
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
#: heat densities are clamped below at this floor (spatial entropy, kinematic action)
RHO_FLOOR = 1e-14

#: negative values above this (relative) threshold are treated as roundoff
NEG_TOL = 1e-10


def _check_nonneg(name, value):
    if np.min(value, initial=0.0) < 0:
        raise DomainError(f"{name} must be nonnegative")


def truncated_log(u):
    """log clipped to [log(LOG_FLOOR), log(LOG_CAP)]; safe at u = 0."""
    return np.log(np.clip(u, LOG_FLOOR, LOG_CAP))


# ---------------------------------------------------------------------------
# cost kernels, each on one block of equal-shape arrays; the Legendre branch
# for alpha = 0 is patched in only at the elements where it occurs
# ---------------------------------------------------------------------------

#: elements per block, read at call time; a call allocates its scratch arrays
#: of this size once.  Per call on the certify config (see above), at 4096 /
#: 16384 / 65536 / 262144: kinematic_rate 14.3 / 10.5 / 10.2 / 14.5 ms, phi
#: 15.1 / 14.5 / 14.9 / 18.9 ms.
BLOCK = 16384

#: relative tolerance of the antisymmetry test (that of np.allclose)
_ANTISYM_RTOL = 1e-5


def _scratch(n_buffers, size):
    """Flat scratch arrays of ``size`` elements, viewed in a block's shape by :func:`_view`."""
    return [np.empty(size) for _ in range(n_buffers)]


def _view(buffer, shape):
    return buffer[:math.prod(shape)].reshape(shape)


def _alpha(kappa, p, q, out, t):
    """alpha = 2*kappa*sqrt(p)*sqrt(q) into ``out``; ``t`` is scratch.  The
    product p*q would underflow for positive densities below ~1e-162."""
    np.sqrt(p, out=out)
    np.sqrt(q, out=t)
    out *= t
    out *= kappa
    out *= 2.0
    return out


def _out_of_range(r2):
    """Index of the elements where r2 = (xi/alpha)^2 overflowed or is nan (alpha
    = 0 included), or None if there are none."""
    if not r2.size or r2.max() < math.inf:
        return None
    return np.nonzero(~(r2 < math.inf))


def _asinh_ratio(x, a):
    """asinh(x/a), taken as copysign(log 2 + log|x| - log a, x) where x/a
    overflows; there asinh(y) = log 2|y| to far below rounding."""
    r = x / a
    out = np.arcsinh(r)
    big = np.isinf(r)
    if big.any():
        xb = x[big]
        out[big] = np.copysign(math.log(2.0) + np.log(np.abs(xb)) - np.log(a[big]), xb)
    return out


def _centered_cost(alpha, xi, out, t):
    """psi = xi*asinh(r) - xi*r/(sqrt(1+r^2)+1), r = xi/alpha, into ``out``.

    The form is that of the reference xi*asinh(xi/alpha) - (sqrt(xi^2+alpha^2)
    - alpha) divided through by alpha, so that nothing but r^2 can overflow.
    ``t`` is scratch of the same shape.  alpha = 0 is the degenerate Legendre
    limit: 0 at xi = 0, +inf otherwise.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        np.divide(xi, alpha, out=out)
        np.multiply(out, out, out=t)
        bad = _out_of_range(t)
        t += 1.0
        np.sqrt(t, out=t)
        t += 1.0
        np.divide(out, t, out=t)
        np.arcsinh(out, out=out)
        out -= t
        out *= xi
        if bad is not None:  # r^2 overflows: the reference formula, with np.hypot
            x, a = xi[bad], alpha[bad]
            out[bad] = np.where(a > 0,
                                x * _asinh_ratio(x, a) - x * (x / (np.hypot(x, a) + a)),
                                np.where(x == 0.0, 0.0, math.inf))
    return out


def _jump_cost(kappa, p, q, xi, out, work):
    """phi on one block into ``out``; ``work`` holds five scratch arrays of
    its shape.  See :func:`phi`.

    With rx = xi/alpha and rm = m/alpha, sx = sqrt(1+rx^2), sm = sqrt(1+rm^2):

        phi = xi*(asinh rx - asinh rm) - (xi - m)*(rx + rm)/(sx + sm),

    the reference form divided through by alpha.  At xi == m both terms
    vanish exactly.
    """
    alpha, m, rm, t, u = work
    _alpha(kappa, p, q, alpha, t)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        np.subtract(p, q, out=m)
        m *= kappa
        np.divide(xi, alpha, out=out)
        np.divide(m, alpha, out=rm)
        np.multiply(out, out, out=t)
        t += 1.0
        np.sqrt(t, out=t)
        np.multiply(rm, rm, out=u)
        u += 1.0
        np.sqrt(u, out=u)
        t += u
        bad = _out_of_range(t)  # catches rx^2 or rm^2 overflowing, and alpha = 0
        np.add(out, rm, out=u)
        u /= t
        np.subtract(xi, m, out=t)
        u *= t  # (xi - m)*(rx + rm)/(sx + sm)
        np.arcsinh(out, out=out)
        np.arcsinh(rm, out=rm)
        out -= rm
        out *= xi
        out -= u
        if bad is not None:  # the reference formula, with np.hypot
            x, mb, a = xi[bad], m[bad], alpha[bad]
            den = np.hypot(x, a) + np.hypot(mb, a)
            out[bad] = (x * (_asinh_ratio(x, a) - _asinh_ratio(mb, a))
                        - (x - mb) * ((x + mb) / den))
            deg = ~(a > 0)
            if deg.any():
                idx = tuple(b[deg] for b in bad)
                out[idx] = _phi_degenerate(kappa[idx], p[idx], q[idx], xi[idx])
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


def _psi_block(kappa, p, q, xi, out, work):
    alpha, t = work
    return _centered_cost(_alpha(kappa, p, q, alpha, t), xi, out, t)


def _elementwise(kernel, n_work, *args):
    """kernel over the broadcast of ``args``, BLOCK elements at a time.

    The kernel writes each block into the output and uses ``n_work`` scratch
    arrays, allocated once per call.
    """
    it = np.nditer(
        [*args, None],
        flags=["external_loop", "buffered", "zerosize_ok"],
        op_flags=[["readonly"]] * len(args) + [["writeonly", "allocate"]],
        op_dtypes=[np.float64] * (len(args) + 1),
        buffersize=BLOCK,
    )
    scratch = _scratch(n_work, min(BLOCK, it.itersize))
    with it:
        out = it.operands[-1]
        for *block, block_out in it:  # buffered: at most BLOCK elements each
            kernel(*block, block_out, [_view(w, block_out.shape) for w in scratch])
    if out.ndim == 0:
        return float(out)
    return out


def psi(kappa, p, q, xi):
    """Centered jump cost; scalar or elementwise on broadcast arrays."""
    _check_nonneg("kappa", kappa)
    _check_nonneg("p", p)
    _check_nonneg("q", q)
    return _elementwise(_psi_block, 2, kappa, p, q, xi)


def phi(kappa, p, q, xi):
    """Jump cost of the balance-equation action; zero iff xi = kappa*(p-q)."""
    _check_nonneg("kappa", kappa)
    _check_nonneg("p", p)
    _check_nonneg("q", q)
    return _elementwise(_jump_cost, 5, kappa, p, q, xi)


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


def relative_entropy(f, model):
    """Relative entropy of f*dx*pi against dx*pi: sum dx*w_i * f log f.

    ``f`` has shape (n_x, n_v); 0*log(0) = 0 by convention, the floor/cap
    of :func:`truncated_log` act inside the logarithm only.
    """
    f = np.atleast_2d(_clip_density(f))
    dx = 1.0 / f.shape[0]
    flogf = np.where(f > 0, f * truncated_log(f), 0.0)
    return float(dx * np.sum(flogf @ model.weights))


def dirichlet_form(f_slice, model):
    """Dirichlet form of sqrt(f): sum_x dx sum_ij w_i w_j S_ij (sqrt f_j - sqrt f_i)^2.

    Expanded as 2*(sum_i w_i lam_i f_i - <sqrt f, S w sqrt f>) to stay
    O(n_x * n_v^2) without forming the pair difference tensor.
    """
    f = np.atleast_2d(_clip_density(f_slice))
    dx = 1.0 / f.shape[0]
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


def _check_antisymmetric(up, lo, atol, gap):
    """``np.allclose(eta, -eta^T, atol=atol())`` on the entries ``up`` and their
    mirrors ``lo``; ``gap`` is scratch of their shape.  ``atol`` is called only
    where the two are not exactly opposite."""
    np.add(up, lo, out=gap)
    if not gap.any():  # exactly antisymmetric, as the solver's own current is
        return
    tol = np.minimum(np.abs(up), np.abs(lo))
    tol *= _ANTISYM_RTOL
    tol += atol()
    if not np.all(np.abs(gap) <= tol):
        raise DomainError("current must be antisymmetric in (v, v')")


def kinematic_rate(f_slice, eta_slice, model):
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
    dx = 1.0 / n_x
    if n_v != model.n_nodes or eta.shape != (n_x, n_v, n_v):
        raise UsageError("density and current shapes do not match the model")
    # max|eta| costs two passes over eta; only an inexact current needs it
    atol = functools.cache(lambda: 1e-12 * max(1.0, np.max(eta, initial=0.0),
                                                -np.min(eta, initial=0.0)))

    diag = np.diagonal(eta, axis1=1, axis2=2)
    _check_antisymmetric(diag, diag, atol, np.empty(diag.shape))
    i, j, weights = pair_triangle(model)
    upper, lower = i * n_v + j, j * n_v + i
    sq = np.sqrt(f)
    two_sigma = 2.0 * model.sigma[i, j]
    flat = eta.reshape(n_x, n_v * n_v)
    buffers = _scratch(4, min(BLOCK, n_x * i.size))
    total = 0.0
    for cells, pairs in _pair_blocks(n_x, i.size):
        sb = sq[cells]
        shape = (sb.shape[0], len(upper[pairs]))
        up, lo, alpha, t = (_view(b, shape) for b in buffers)
        np.take(flat[cells], upper[pairs], axis=1, out=up, mode="clip")
        np.take(flat[cells], lower[pairs], axis=1, out=lo, mode="clip")
        _check_antisymmetric(up, lo, atol, alpha)
        np.take(sb, i[pairs], axis=1, out=alpha, mode="clip")
        alpha *= np.take(sb, j[pairs], axis=1, out=t, mode="clip")
        alpha *= two_sigma[pairs]
        _centered_cost(alpha, up, lo, t)
        total += float(np.sum(lo @ weights[pairs]))
    w = model.weights
    alpha = 2.0 * np.diagonal(model.sigma) * f  # sqrt(f)*sqrt(f), exactly
    psi_diag = _centered_cost(alpha, diag, np.empty(f.shape), np.empty(f.shape))
    total += float(np.sum(psi_diag @ (w * w)))
    if math.isinf(total):
        raise InfeasibleValueError("kinematic cost is infeasible (current on a zero-rate pair)")
    return float(dx * total)


def dirichlet_lower_bound(f_slice, model, phi_test):
    """Value of the Donsker-Varadhan integrand for a supplied test function.

    This is a lower-bound probe of the variational supremum; it never
    exceeds the supremum and equals half the Dirichlet form at
    phi_test = 0.5*log f (see the module notes on the factor).
    """
    f = np.atleast_2d(_clip_density(f_slice))
    dx = 1.0 / f.shape[0]
    phi_t = np.broadcast_to(np.asarray(phi_test, dtype=float), f.shape)
    w = model.weights
    expdiff = np.exp(phi_t[:, None, :] - phi_t[:, :, None])  # phi_j - phi_i
    integrand = np.einsum(
        "xi,i,ij,j,xij->", f, w, model.sigma, w, 1.0 - expdiff, optimize=True
    )
    return float(dx * integrand)


def kinematic_lower_bound(f_path, eta_path, model, dt, zeta, alpha_test=None):
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
        dx = 1.0 / f.shape[0]
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


def _diffusivity(D):
    """The one positive finite number that ``D`` holds (a number, or an array
    of one entry); otherwise :class:`DomainError`."""
    D = np.asarray(D, dtype=float)
    if D.size != 1 or not 0.0 < D.item() < math.inf:
        raise DomainError("the diffusivity must be one positive finite number")
    return D.item()


def fisher_information(rho, D):
    """Fisher information 2 * D * int (d sqrt(rho)/dx)^2 dx of a 1-d density.

    ``rho`` lives on the n cells of the grid; the derivative is spectral.
    """
    rho = _clip_density(rho, "rho")
    if rho.ndim != 1:
        raise UsageError("fisher_information needs a 1-d density")
    D = _diffusivity(D)
    dx = 1.0 / rho.size
    grad = gradient(np.sqrt(rho))
    return float(2.0 * dx * (D * np.sum(grad * grad)))


def heat_kinematic(rho_path, j_path, D, dt):
    """Kinematic action 0.5 * int dt int j^2 / (D rho) dx of a 1-d path.

    ``rho_path`` and ``j_path`` are (n_t, n) arrays; densities are floored
    at ``RHO_FLOOR``.
    """
    rho_path = np.asarray(rho_path, dtype=float)
    j_path = np.asarray(j_path, dtype=float)
    if rho_path.ndim != 2 or j_path.shape != rho_path.shape:
        raise UsageError("heat_kinematic needs (n_t, n) density and current paths")
    D = _diffusivity(D)
    dx = 1.0 / rho_path.shape[1]
    rho = np.clip(rho_path, RHO_FLOOR, None)
    return float(0.5 * dt * dx * np.sum(j_path * j_path / rho) / D)
