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

Where a is 0 in floats both costs take their limit as a goes to 0 at fixed
m, with L_x = log(2|x|/a) = log|x| - log kappa - 0.5 log p - 0.5 log q:
|xi| log(|xi|/|m|) - |xi| + |m| where xi and m are nonzero and of one sign,
|m| at xi = 0, |xi| (L_xi + L_m) - |xi| + |m| otherwise (L_0 = 0; psi's m is
0).  That is finite where a underflowed from positive kappa, p and q, and
+inf where one of them is 0.  The +inf is ``math.inf``: :func:`kinematic_rate`
raises :class:`InfeasibleValueError` on it, while :func:`phi` and :func:`psi`
return it and the certificate's Phi sum passes it on;
:func:`kinematic_lower_bound` returns -inf where cosh zeta overflows against
a positive mass.

The integral functionals integrate over the periodic unit interval on n equal
cells, with the cell size dx = 1/n taken from the cell axis of their array.

Both costs are symmetric under (p, q, xi) -> (q, p, -xi) and vanish on the
diagonal, where xi = 0 and p = q.  So a current eta_ij = -eta_ji, and the
kinematic bound's zeta and alpha per frame, live on the velocity pairs i < j
only, as (n_x, n_pairs) arrays in :func:`pair_triangle` order that cannot be
other than antisymmetric; pair sums count each pair twice.  The Dirichlet
form and the Donsker-Varadhan bound instead go through :func:`_pairing` of
two (n_x, n_v) arrays, as the entropy balance does.

The cost kernels run in blocks of at most ``BLOCK`` (16384) elements and do
their arithmetic in place, in scratch arrays allocated once per call, so no
ufunc allocates; :func:`phi`, :func:`psi` and :func:`kinematic_rate` walk the
same row blocks, :func:`_pair_blocks`.  With alpha = 2*kappa*sqrt(p)*sqrt(q),
a = asinh(xi/alpha) and b = asinh(m/alpha), psi takes the half-angle form
xi*(a - tanh(a/2)) and phi the form in h = (a - b)/2 of :func:`_jump_cost`,
accurate down to its zero set.  Neither forms a square, so both leave the
kernel only where alpha = 0, a ratio is +-inf, or the cost is not finite.
Those elements take :func:`_fallback`: the reference formula with np.hypot,
with asinh(y) = log 2|y| where y itself overflows, or the limit above where
alpha = 0.  The kernels use no threads: two threads running np.arcsinh on
separate blocks ran no faster than one on the ``certify`` benchmark config.
"""

import math

import numpy as np

from .errors import DomainError, InfeasibleValueError, UsageError
from .spectral import gradient

#: densities are clamped below at this floor inside logarithms only
LOG_FLOOR = 1e-300
#: and above at this cap (the truncated-log safeguard)
LOG_CAP = 1e300
#: heat densities are clamped below at this floor (spatial entropy, kinematic action)
RHO_FLOOR = 1e-14

#: negative values above this (relative) threshold are treated as roundoff
NEG_TOL = 1e-10


def truncated_log(u):
    """log clipped to [log(LOG_FLOOR), log(LOG_CAP)]; safe at u = 0."""
    return np.log(np.clip(u, LOG_FLOOR, LOG_CAP))


# ---------------------------------------------------------------------------
# cost kernels, each on one block of equal-shape arrays; the Legendre branch
# for alpha = 0 is patched in only at the elements where it occurs
# ---------------------------------------------------------------------------

#: elements per block, read at call time; a call allocates its scratch arrays
#: of this size once.  Per call on the ``certify`` benchmark config
#: (Rayleigh-120, 64 cells, 457k pair elements; 2-core Xeon, one thread), at
#: 4096 / 16384 / 65536 / 262144: kinematic_rate 7.2 / 5.4 / 4.9 / 5.9 ms, phi
#: off the own current 15.4 / 12.6 / 13.0 / 19.5 ms and on it 3.8 / 2.1 / 2.2
#: / 4.3 ms (medians of 30 calls, the median of three runs).
BLOCK = 16384


def _view(buffer, shape):
    return buffer[:math.prod(shape)].reshape(shape)


def _pair_blocks(n_cells, n_pairs):
    """(cells, pairs) slices that tile n_cells x n_pairs in blocks of at most
    BLOCK: as many whole rows as fit, or BLOCK elements of one row."""
    rows = max(1, BLOCK // max(n_pairs, 1))
    cols = max(1, min(n_pairs, BLOCK))
    for c in range(0, n_cells, rows):
        for s in range(0, n_pairs, cols):
            yield slice(c, c + rows), slice(s, s + cols)


def _alpha(kappa, p, q, out, t):
    """alpha = 2*kappa*sqrt(p)*sqrt(q) into ``out``; ``t`` is scratch.  The
    product p*q would underflow for positive densities below ~1e-162."""
    np.sqrt(p, out=out)
    np.sqrt(q, out=t)
    out *= t
    out *= kappa
    out *= 2.0
    return out


def _out_of_range(v):
    """Index of the elements of ``v`` that are not finite, or None if there are none."""
    finite = np.isfinite(v)
    return None if finite.all() else np.nonzero(~finite)


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


def _fallback(x, mb, kappa, p, q):
    """phi at the elements that leave a kernel's safe range; at mb = 0 this is
    psi.  Where alpha = 2*kappa*sqrt(p)*sqrt(q) > 0, its reference formula with
    np.hypot; where alpha is 0 in floats, its limit at fixed m in the module
    notes, whose sign test is signbit's, as x*mb can underflow to 0."""
    a = np.sqrt(p) * np.sqrt(q) * kappa * 2.0  # _alpha's operations in its order
    ax, am = np.abs(x), np.abs(mb)
    # halved, so that neither x + mb nor the sum of the roots overflows;
    # 0 where |x| == |mb|, also where x - mb = 2x overflows against 0
    ratio = (0.5 * x + 0.5 * mb) / (0.5 * np.hypot(x, a) + 0.5 * np.hypot(mb, a))
    reference = (x * (_asinh_ratio(x, a) - _asinh_ratio(mb, a))
                 - np.where(ax == am, 0.0, (x - mb) * ratio))
    log_2_alpha = -(np.log(kappa) + 0.5 * np.log(p) + 0.5 * np.log(q))  # log(2/alpha)
    one_sign = (ax > 0) & (am > 0) & (np.signbit(x) == np.signbit(mb))
    l_m = np.where(am > 0, np.log(am) + log_2_alpha, 0.0)
    apart = ax * (np.log(ax) + log_2_alpha + l_m) - ax + am
    limit = np.where(one_sign, ax * np.log(ax / am) - ax + am, apart)
    return np.where(a > 0, reference, np.where(ax == 0, am, limit))


def _centered_cost(alpha, xi, out, t):
    """psi = xi*(a - tanh(a/2)), a = asinh(xi/alpha), into ``out``; ``t`` is scratch.

    The reference xi*asinh(xi/alpha) - (sqrt(xi^2 + alpha^2) - alpha) in its
    half-angle form, r/(sqrt(1+r^2) + 1) = tanh(asinh(r)/2): no square and no
    root.  Returns the index of the elements where psi is not finite, alpha =
    0 or xi/alpha = +-inf (or psi past the float range), or None.  Callers
    form alpha and run this inside one ``np.errstate`` that ignores division,
    invalid and overflow (alpha = inf gives psi = 0), and patch those elements
    with :func:`_fallback` at m = 0.
    """
    np.divide(xi, alpha, out=out)
    np.arcsinh(out, out=out)
    np.multiply(out, 0.5, out=t)
    np.tanh(t, out=t)
    out -= t
    out *= xi
    return _out_of_range(out)


def _jump_cost(kappa, p, q, xi, out, work):
    """phi on one block into ``out``; ``work`` holds five scratch arrays of
    its shape.  See :func:`phi`.

    With a = asinh(xi/alpha), b = asinh(m/alpha), c = (a + b)/2, h = (a - b)/2,
    the reference form is alpha [sinh a (a - b) - (cosh a - cosh b)], and as
    cosh a - cosh b = 2 sinh c sinh h and sinh a = sinh(c + h),

        phi = 2 alpha [h cosh c sinh h - sinh c (sinh h - h cosh h)].

    Near h = 0 the first term is 2 alpha h^2 cosh c and the second O(h^3), so
    nothing cancels.  alpha goes into each term before its factor in c: h sinh
    h alone would go subnormal, and sinh c (sinh h - h cosh h) overflow where
    phi does not.  phi is 0 at h = 0, so a block where xi - m is 0 at every
    element, which means xi == m and both finite, is filled with zeros before
    alpha and the asinh are formed: the block of the solver's own current.
    Any other block, and one holding a NaN or an infinity, takes the whole
    kernel; where phi is not finite, alpha = 0 or a ratio +-inf included,
    :func:`_fallback` takes over.
    """
    alpha, m, s, t, u = work
    with np.errstate(invalid="ignore", over="ignore"):
        np.subtract(p, q, out=m)
        m *= kappa
        np.subtract(xi, m, out=t)
    if not t.any():  # a NaN is nonzero
        out.fill(0.0)
        return out
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        _alpha(kappa, p, q, alpha, t)
        np.divide(xi, alpha, out=out)
        np.arcsinh(out, out=out)
        np.divide(m, alpha, out=s)
        np.arcsinh(s, out=s)
        np.add(out, s, out=t)
        t *= 0.5  # c
        out -= s
        out *= 0.5  # h
        np.sinh(out, out=s)
        np.cosh(out, out=u)
        u *= out
        u -= s  # h cosh h - sinh h
        u *= alpha
        out *= alpha
        out *= s  # alpha h sinh h
        np.sinh(t, out=s)
        u *= s
        np.cosh(t, out=t)
        out *= t
        out += u
        out *= 2.0
        bad = _out_of_range(out)
        if bad is not None:
            out[bad] = _fallback(xi[bad], m[bad], kappa[bad], p[bad], q[bad])
    return out


def _psi_block(kappa, p, q, xi, out, work):
    alpha, t = work
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        bad = _centered_cost(_alpha(kappa, p, q, alpha, t), xi, out, t)
        if bad is not None:
            out[bad] = _fallback(xi[bad], 0.0, kappa[bad], p[bad], q[bad])
    return out


def _elementwise(kernel, n_work, kappa, p, q, xi):
    """kernel over the broadcast of (kappa, p, q, xi), on the row blocks of
    :func:`_pair_blocks`; a negative kappa, p or q is a :class:`DomainError`.

    The operands, broadcast as views, are viewed as 2-D, leading axes by the
    last: in place for C-order arrays such as the certificate's, strided (3-6x
    slower) in Fortran order, and copied only where no view flattens the
    broadcast, as for p (a, 1, n) against xi (a, b, n).  The kernel writes each
    block into the output with ``n_work`` scratch arrays allocated once per
    call; a 0-d call returns a float.
    """
    for name, value in (("kappa", kappa), ("p", p), ("q", q)):
        if np.min(value, initial=0.0) < 0:
            raise DomainError(f"{name} must be nonnegative")
    operands = np.broadcast_arrays(*(np.asarray(a, dtype=float) for a in (kappa, p, q, xi)))
    out = np.empty(operands[0].shape)
    if out.size:  # a zero-size one has no last axis to keep: reshape(-1, 0) raises
        *rows, out_rows = (a.reshape(-1, out.shape[-1] if out.ndim else 1)
                           for a in (*operands, out))
        scratch = [np.empty(min(BLOCK, out.size)) for _ in range(n_work)]
        for block in _pair_blocks(*out_rows.shape):
            block_out = out_rows[block]
            kernel(*(a[block] for a in rows), block_out,
                   [_view(w, block_out.shape) for w in scratch])
    return float(out) if out.ndim == 0 else out


def psi(kappa, p, q, xi):
    """Centered jump cost; scalar or elementwise on broadcast arrays."""
    return _elementwise(_psi_block, 2, kappa, p, q, xi)


def phi(kappa, p, q, xi):
    """Jump cost of the balance-equation action; zero iff xi = kappa*(p-q).

    Exactly 0.0 at xi = kappa*(p - q) with all four finite, up to the sign of
    a zero, and nonnegative off it; a block of elements that all lie there is
    filled with zeros without the kernel (see :func:`_jump_cost`)."""
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


def _clip_density(f, model=None, what="density"):
    """``f`` as floats with its roundoff negatives set to 0, in every functional
    of a density.  A value not finite or below -NEG_TOL max(1, max|f|) is a
    DomainError; a last axis off the ``model``'s nodes, a UsageError."""
    f = np.asarray(f, dtype=float)
    if model is not None and f.shape[-1:] != (model.n_nodes,):
        raise UsageError(f"a density of shape {f.shape} is not on the model's "
                         f"{model.n_nodes} velocity nodes")
    lo, hi = float(np.min(f, initial=0.0)), float(np.max(f, initial=0.0))
    if not (math.isfinite(lo) and math.isfinite(hi)):  # NaN included
        raise DomainError(f"the {what} holds a value that is not finite")
    if lo < -NEG_TOL * max(hi, -lo, 1.0):
        raise DomainError(f"negative {what}")
    return np.clip(f, 0.0, None)


def relative_entropy(f, model):
    """Relative entropy of f*dx*pi against dx*pi: sum dx*w_i * f log f.

    ``f`` has shape (n_x, n_v); 0*log(0) = 0 by convention, the floor/cap
    of :func:`truncated_log` act inside the logarithm only.
    """
    f = np.atleast_2d(_clip_density(f, model))
    dx = 1.0 / f.shape[0]
    flogf = np.where(f > 0, f * truncated_log(f), 0.0)
    return float(dx * np.sum(flogf @ model.weights))


def _pairing(a, b, model):
    """sum_x sum_ij a_i w_i S_ij w_j (b_j - b_i) of two (n_x, n_v) arrays, as
    <a w, S (w b)> - <a w, lambda b>: two BLAS products and no pair array."""
    aw = a * model.weights
    return np.vdot(aw @ model.sigma, b * model.weights) - np.vdot(aw, b * model.rates)


def dirichlet_form(f_slice, model):
    """Dirichlet form of sqrt(f): sum_x dx sum_ij w_i w_j S_ij (sqrt f_j - sqrt f_i)^2.

    By the symmetry of S, -2 times the :func:`_pairing` of sqrt f with itself,
    which forms no pair array.
    """
    f = np.atleast_2d(_clip_density(f_slice, model))
    dx = 1.0 / f.shape[0]
    sq = np.sqrt(f)
    return float(-2.0 * dx * _pairing(sq, sq, model))


def pair_triangle(model):
    """Velocity pairs i < j and their weights 2 w_i w_j in a sum over all i != j.

    Both jump costs are symmetric under (p, q, xi) -> (q, p, -xi), so with a
    symmetric kernel and an antisymmetric current the pair (j, i) costs the
    same as (i, j), and each pair i < j is evaluated once and counted twice.
    Every :class:`~linboltz.velocity.VelocityModel` has an exactly symmetric
    kernel, so the triangle is exact.
    """
    i, j = np.triu_indices(model.n_nodes, 1)
    w = model.weights
    return i, j, 2.0 * w[i] * w[j]


def kinematic_rate(f_slice, eta_slice, model):
    """Instantaneous kinematic cost sum_x dx sum_ij w_i w_j psi_{S_ij}(f_i, f_j; eta_ij).

    ``eta_slice`` holds eta_ij on the pairs i < j, (n_x, n_pairs) in
    :func:`pair_triangle` order; any other shape is a :class:`UsageError`.
    psi is summed over those pairs, counted twice, in blocks of at most
    ``BLOCK`` elements.  A current that is not finite is a
    :class:`DomainError`; one where alpha = 2 S_ij sqrt(f_i f_j) is zero, on a
    zero-rate pair or where a density vanishes, an :class:`InfeasibleValueError`.
    """
    f = np.atleast_2d(_clip_density(f_slice, model))
    eta = np.asarray(eta_slice, dtype=float)
    n_x = f.shape[0]
    dx = 1.0 / n_x
    i, j, weights = pair_triangle(model)
    if eta.shape != (n_x, i.size):
        raise UsageError("density and current shapes do not match the model")
    sq = np.sqrt(f)
    kappa = model.sigma[i, j]
    two_sigma = 2.0 * kappa
    buffers = [np.empty(min(BLOCK, n_x * i.size)) for _ in range(3)]
    total = 0.0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for cells, pairs in _pair_blocks(n_x, i.size):
            sb, xi = sq[cells], eta[cells, pairs]
            out, alpha, t = (_view(b, xi.shape) for b in buffers)
            np.take(sb, i[pairs], axis=1, out=alpha, mode="clip")
            alpha *= np.take(sb, j[pairs], axis=1, out=t, mode="clip")
            alpha *= two_sigma[pairs]
            bad = _centered_cost(alpha, xi, out, t)
            if bad is not None:  # at the elements' cells x and pairs s
                x, s = cells.start + bad[0], pairs.start + bad[1]
                out[bad] = _fallback(xi[bad], 0.0, kappa[s], f[x, i[s]], f[x, j[s]])
            total += float(np.sum(out @ weights[pairs]))
    if not math.isfinite(total):
        if not np.isfinite(eta).all():
            raise DomainError("the current holds a value that is not finite")
        raise InfeasibleValueError("kinematic cost is infeasible (current on a pair "
                                   "with zero rate or zero density)")
    return float(dx * total)


def dirichlet_lower_bound(f_slice, model, phi_test):
    """Donsker-Varadhan integrand sum_x dx sum_ij f_i w_i S_ij w_j (1 - e^(phi_j - phi_i)).

    At most half the Dirichlet form, equal to it at phi_test = 0.5*log f; with
    phi shifted per cell by its maximum, minus the :func:`_pairing` of f e^-phi
    with e^phi.  A phi of another shape than f is a :class:`UsageError`; one
    not finite, or so spread that e^-phi overflows, a :class:`DomainError`.
    """
    f = np.atleast_2d(_clip_density(f_slice, model))
    dx = 1.0 / f.shape[0]
    phi_t = np.atleast_2d(np.asarray(phi_test, dtype=float))
    if phi_t.shape != f.shape:
        raise UsageError("density and test function shapes do not match")
    with np.errstate(over="ignore", invalid="ignore"):
        shifted = phi_t - phi_t.max(axis=1, keepdims=True)
        total = _pairing(f * np.exp(-shifted), np.exp(shifted), model)
    if not math.isfinite(total):
        if not np.isfinite(phi_t).all():
            raise DomainError("the test function holds a value that is not finite")
        raise DomainError("the test function spreads so widely that e^-phi overflows")
    return float(-dx * total)


def kinematic_lower_bound(f_path, eta_path, model, dt, zeta, alpha_test=None):
    """Kinematic variational formula: dt sum_t sum_x dx sum_{i<j} 2 w_i w_j
    [eta zeta - S_ij (cosh zeta - 1)(alpha f_i + f_j/alpha)].

    ``f_path`` is (n_t, n_x, n_v); ``eta_path``, ``zeta`` and ``alpha_test``
    (default 1, positive and finite; alpha_ji = 1/alpha_ij) are (n_t, n_x,
    n_pairs) in :func:`pair_triangle` order: other shapes are a UsageError, a
    current or zeta not finite a DomainError.  At most dt sum_t kinematic_rate,
    equal to it at alpha = sqrt(f_j/f_i), zeta = asinh(eta/(2 S_ij sqrt(f_i f_j))).
    """
    f_path = _clip_density(f_path, model)
    i, j, weights = pair_triangle(model)
    shape = (*f_path.shape[:2], i.size)
    alpha = np.broadcast_to(1.0, shape) if alpha_test is None else alpha_test
    eta_path, zeta, alpha = (np.asarray(a, dtype=float) for a in (eta_path, zeta, alpha))
    if f_path.ndim != 3 or any(a.shape != shape for a in (eta_path, zeta, alpha)):
        raise UsageError("density, current and test path shapes do not match the model")
    if not 0.0 < np.min(alpha, initial=1.0) <= np.max(alpha, initial=1.0) < math.inf:
        raise DomainError("alpha must be positive and finite")
    sigma, dx = model.sigma[i, j], 1.0 / shape[1]
    total = 0.0
    for t, f in enumerate(f_path):
        mass = np.take(f, i, axis=1) * alpha[t]
        mass += np.take(f, j, axis=1) / alpha[t]  # alpha f_i + f_j/alpha
        with np.errstate(over="ignore", invalid="ignore"):
            bracket = np.cosh(zeta[t]) - 1.0
            bracket *= sigma
            # S_ij (cosh zeta - 1)(alpha f_i + f_j/alpha), 0 on a zero mass even where
            # cosh overflows
            np.multiply(mass, bracket, out=mass, where=mass > 0)
            np.multiply(eta_path[t], zeta[t], out=bracket)
            bracket -= mass
        total += float(np.sum(bracket @ weights))
    if not math.isfinite(total):
        for name, value in (("current", eta_path), ("zeta", zeta)):
            if not np.isfinite(value).all():
                raise DomainError(f"the {name} holds a value that is not finite")
    return float(dt * (dx * total))


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
    rho = _clip_density(rho, what="rho")
    if rho.ndim != 1:
        raise UsageError("fisher_information needs a 1-d density")
    D = _diffusivity(D)
    dx = 1.0 / rho.size
    grad = gradient(np.sqrt(rho))
    return float(2.0 * dx * (D * np.sum(grad * grad)))


def heat_kinematic(rho_path, j_path, D, dt):
    """Kinematic action 0.5 * int dt int j^2 / (D rho) dx of a 1-d path.

    ``rho_path`` and ``j_path`` are (n_t, n) arrays; densities pass
    :func:`_clip_density`, then are floored at ``RHO_FLOOR``.
    """
    rho = _clip_density(rho_path, what="rho")
    j_path = np.asarray(j_path, dtype=float)
    if rho.ndim != 2 or j_path.shape != rho.shape:
        raise UsageError("heat_kinematic needs (n_t, n) density and current paths")
    D = _diffusivity(D)
    dx = 1.0 / rho.shape[1]
    rho = np.clip(rho, RHO_FLOOR, None)
    return float(0.5 * dt * dx * np.sum(j_path * j_path / rho) / D)
