"""Space-time solver for the (rescaled) kinetic equation and its certificates.

The unknown f(t, x, v_i) lives on a periodic 1d spatial grid of n_x cells
and the velocity nodes of a :class:`~linboltz.velocity.VelocityModel`.  The
interval lies along the drift's first axis, b_i1 = ``model.drift[i, 0]``, so
the diffusive sweep's ``d_axis`` is D[0, 0].  The evolution

    df/dt + (b_i1 / eps) df/dx = (1/eps^2) (L f)_i

is integrated by Strang splitting: half collision step with the exact
matrix exponential (positivity- and mass-preserving, entropy-decreasing),
full transport step per velocity node, half collision step.  The
exponential exp(t L) of the jump generator L = S W - Lambda is summed by
:func:`collision_propagator` from nonnegative terms only (uniformization),
so its entries are nonnegative exactly and numpy is all it needs.
Transport is spectral: an exact translation of the trigonometric
interpolant, :attr:`Stepper.multiplier`, one phase per rfft mode and node
built once per run, applied between one ``rfft`` and one ``irfft``.  It
keeps the frames of the CLI's datum rho0 = 1 + a cos(2 pi m x), |a| <= 1,
nonnegative: the CLI refuses a mode at or above Nyquist, 2 |m| >= n_x, so the
grid samples rho0 as a nonnegative field of one mode below Nyquist, which
the shift translates exactly and the collision step mixes with nonnegative
weights.  :func:`evolve` yields the
frames one at a time; :func:`simulate` stores them all, after checking that
they fit in physical memory.  :func:`mode_marginals` takes the same Strang
steps on the n_x/2 + 1 rfft modes of f, where both split operators act on
each mode alone, one real matmul per step and no FFT, for callers that need
only the modes of the current j(t, x) and the final density rho(T, x), such
as the diffusive sweep.  Frames, which the certificates need, come only
from :func:`evolve`.

Certification assembles the entropy balance and the gradient-flow
inequality

    H(f(T)) + int E dt + R(f, eta)  <=  H(f(0)),

which holds as near-equality (to time-quadrature order) along the solver's
own trajectory with the current eta = sigma (f - f'); the independent
jump-cost residual int Phi_sigma(f, f'; eta) vanishes exactly for that
current and is strictly positive for any other.  The current lives on
the velocity pairs i < j, as an (n_x, n_pairs) array, n_pairs =
n_v (n_v - 1) / 2, and both pair costs are summed over those pairs in
cache-sized blocks (see :mod:`linboltz.functionals`).  The certificate's
working set beyond the trajectory is four such arrays: the pair densities
f_i and f_j, gathered once per step, the current xi = (f_i - f_j) sigma_ij
formed in place from them, all three allocated once per call, and phi's
output.  That is 2 n_x n_v (n_v - 1) floats, 14.6 MB for Rayleigh-120 on 64
cells, and :func:`require_certificate_memory` refuses a certificate whose
working set and trajectory together exceed physical memory before anything
is allocated (the ``kinetic-run`` CLI checks it before it simulates).  phi
fills each block that lies at the own current with zeros without evaluating
the cost, so ``phi_residual == 0.0`` checks that the current charged in R is
sigma_ij (f_i - f_j) at every pair element, bit for bit; the cost's values on
its zero set are checked apart from the certificate.

A run's scheme (dt, eps) is checked in one place, :func:`_check_scheme`,
which the :class:`Stepper`, every :class:`Trajectory` and the diffusive sweep
call.  Transport, always spectral, is no part of it;
:func:`_check_transport` refuses any other that outside input names.  Which
trajectory a model may certify is decided in one place as well,
:func:`_check_run`, which :func:`edi_certificate`,
:func:`entropy_balance_check` and :func:`write_certificate_csv` call before
anything else: the frames must lie on the model's velocity nodes, and a
trajectory that names a model fingerprint must name this model's and be a
run of its scheme, one step of which reproduces frame 1 from frame 0.  Each
refusal is a :class:`ConfigError`, so the ``certify`` CLI keeps no check of
its own.
"""

import csv
import itertools
import json
import math
import numbers
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    CertificationError,
    ConfigError,
    DomainError,
    UsageError,
    require_memory,
)
from .functionals import (
    _pairing,
    dirichlet_form,
    kinematic_rate,
    pair_triangle,
    phi,
    relative_entropy,
    truncated_log,
)
from .spectral import shift

#: every _FLUSH_EVERY steps :func:`mode_marginals` zeroes the state entries
#: below _FLUSH_BELOW in magnitude, before they decay into subnormals
_FLUSH_EVERY = 64
_FLUSH_BELOW = 1e-290


def _check_transport(value):
    if value != "spectral":
        raise ConfigError(f"transport must be 'spectral', not {value!r}: upwind "
                          "transport was removed, as no term of the entropy balance "
                          "carries its numerical diffusion")


def _check_scheme(dt, epsilon, model=None, frame_shape=None):
    """ConfigError unless this is the scheme of a run: dt > 0 and eps > 0
    finite, eps^2 a normal float and 0.5 dt / eps^2 finite.  Given the
    ``model`` and a frame's shape (n_x, n_v), also n_x >= 2 and n_v is the
    model's.
    """
    for name, value in (("dt", dt), ("epsilon", epsilon)):
        if isinstance(value, bool) or not isinstance(value, numbers.Real) or not (
                0 < value < math.inf):
            raise ConfigError(f"{name} must be a positive finite number, not {value!r}")
    eps2 = float(epsilon) * float(epsilon)
    if not (sys.float_info.min <= eps2 <= sys.float_info.max and 0.5 * float(dt) / eps2 < math.inf):
        raise ConfigError(f"epsilon = {epsilon!r} does not suit dt = {dt!r}: epsilon**2 "
                          "must be a normal float and 0.5 dt / epsilon**2 finite")
    if model is None:
        return
    n_x, n_v = frame_shape
    if n_x < 2 or n_v != model.n_nodes:
        raise ConfigError(f"a frame of {n_x} cells and {n_v} velocity nodes is not on a grid "
                          f"of at least 2 cells and the model's {model.n_nodes} nodes")


@dataclass(frozen=True)
class Trajectory:
    """The frames f(n dt), n = 0 ... n_steps, of one run on the periodic unit
    interval; the cell size, the times and the step count follow from them.

    Valid by construction: the scheme passes the model-free part of
    :func:`_check_scheme`, ``f`` is a nonempty float64 (n_t, n_x, n_v) array
    (of either byte order) of at least 2 frames, all finite, and the final
    time (n_t - 1) dt is finite, so :attr:`times` is; else ConfigError.
    """

    f: np.ndarray              # (n_t, n_x, n_v)
    dt: float
    epsilon: float
    model_name: str = "custom"
    model_fingerprint: str | None = None  # VelocityModel.fingerprint

    def __post_init__(self):
        _check_scheme(self.dt, self.epsilon)
        f = np.asarray(self.f)
        if f.ndim != 3 or len(f) < 2 or f.size == 0 or (f.dtype.kind, f.itemsize) != ("f", 8):
            raise ConfigError("f must be a nonempty float64 (n_t, n_x, n_v) array of at least "
                              f"2 frames, not {f.dtype} of shape {f.shape}")
        if not all(np.isfinite(frame).all() for frame in f):
            raise ConfigError("f holds a value that is not finite")
        if not math.isfinite(float(self.dt) * (len(f) - 1)):
            raise ConfigError(f"{len(f) - 1} steps of dt = {self.dt!r} end past the "
                              "largest float")
        object.__setattr__(self, "f", f)

    @property
    def n_steps(self):
        return len(self.f) - 1

    @property
    def dx(self):
        return 1.0 / self.f.shape[1]

    @property
    def times(self):
        return self.dt * np.arange(len(self.f))


def collision_propagator(model, t):
    """exp(t L) for the jump generator L = S W - Lambda, by uniformization.

    With c = max lambda, M = I + L / c is nonnegative with rows summing to
    1, and exp(t L) = e^{-ct} sum_k (ct)^k M^k / k!.  The time is halved s
    times, for the smallest s with y = c t / 2^s <= 1/2; the series in y is
    summed until y^k / k! < 1e-17 (the entries of M^k are at most 1), and
    the sum is squared s times.  Every term is nonnegative, so the result
    is nonnegative exactly.  Each square doubles the rows' deviation from
    the sum 1 that exp(t L) has exactly, so each is divided by its row sums.
    An all-zero kernel gives the identity.
    """
    n = model.n_nodes
    c = float(model.rates.max())
    ct = c * t
    if not 0.0 <= ct < math.inf:
        raise ConfigError(f"the collision time t * max lambda = {ct!r} "
                          "is not a finite nonnegative number")
    if c == 0.0:
        return np.eye(n)
    M = model.sigma * model.weights[None, :] - np.diag(model.rates)
    M /= c
    M[np.diag_indices(n)] += 1.0  # in [0, 1], as lambda_i <= c
    s = 0
    while math.ldexp(ct, -s) > 0.5:
        s += 1
    y = math.ldexp(ct, -s)
    P = np.eye(n)
    term = np.eye(n)
    coef = 1.0
    for k in itertools.count(1):
        coef *= y / k
        if coef < 1e-17:
            break
        term = term @ M
        term *= y / k
        P += term
    P *= math.exp(-y)
    for _ in range(s):
        P = P @ P
        P /= P.sum(axis=1, keepdims=True)
    return P


class Stepper:
    """Precomputed split-step propagator for one (model, grid, dt, eps).

    The half collision step is the matrix ``half_collision`` =
    exp(0.5 dt L / eps^2) of :func:`collision_propagator`: nonnegative
    exactly, with rows summing to 1 and w^T C = w^T to rounding, so it
    keeps f nonnegative and conserves its mass.  A scheme that
    :func:`_check_scheme` refuses on this model and grid, or for which
    0.5 dt / eps^2 * max lambda is not finite, is a :class:`ConfigError`.

    Transport, always spectral, is ``multiplier`` (n_cells // 2 + 1, n_v),
    the step exp(-2 pi i k dt b / eps) on the rfft modes (``advect_full`` =
    ``shift(., multiplier)``); its Nyquist entry on an even grid keeps only
    its real part, as ``irfft`` does: steps on the modes are those on frames.
    """

    def __init__(self, model, n_cells, dt, epsilon=1.0):
        _check_scheme(dt, epsilon, model, (n_cells, model.n_nodes))
        self.dt = float(dt)
        self.speeds = model.drift[:, 0] / epsilon
        self.half_collision = collision_propagator(model, 0.5 * dt / epsilon**2)
        k = np.arange(n_cells // 2 + 1)[:, None]
        mult = self.multiplier = np.exp(-2j * np.pi * k * (self.dt * self.speeds[None, :]))
        if n_cells % 2 == 0:
            mult[-1] = mult[-1].real

    def collide_half(self, f):
        return f @ self.half_collision.T

    def advect_full(self, f):
        return shift(f, self.multiplier)

    def step(self, f):
        return self.collide_half(self.advect_full(self.collide_half(f)))


def local_equilibrium(rho0, model):
    """f0(x, v) = rho0(x) for every node (collision-invariant profile)."""
    rho0 = np.asarray(rho0, dtype=float)
    return np.repeat(rho0[:, None], model.n_nodes, axis=1)


def _step_count(T, dt):
    """The n >= 1 with |n dt - T| <= 1e-9 max(T, 1), else ConfigError (also
    where T / dt is not finite): the step count of a run to time T."""
    ratio = float(T) / float(dt)
    n_steps = round(ratio) if math.isfinite(ratio) else 0
    if n_steps < 1 or abs(n_steps * dt - T) > 1e-9 * max(T, 1.0):
        raise ConfigError(f"T = {T!r} is not a whole number n >= 1 of steps dt = {dt!r}")
    return n_steps


def _prepare(model, f0, T, dt, epsilon):
    """The checked, unit-mass initial datum, the step count n >= 1 and the
    Stepper of a run of :func:`evolve` or :func:`mode_marginals`."""
    f0 = np.asarray(f0, dtype=float)
    if f0.ndim == 1:
        f0 = local_equilibrium(f0, model)
    if f0.shape[1] != model.n_nodes:
        raise UsageError("f0 velocity axis does not match the model")
    if not np.all(f0 >= 0):  # NaN included
        raise DomainError("initial datum must be nonnegative")
    n_cells = f0.shape[0]
    mass = (1.0 / n_cells) * float(f0 @ model.weights @ np.ones(n_cells))
    if not 0 < mass < math.inf:
        raise DomainError("initial datum must have a finite positive mass")
    f0 = f0 / mass

    stepper = Stepper(model, n_cells, dt, epsilon)
    return f0, _step_count(T, dt), stepper


def evolve(model, f0, T, dt, epsilon=1.0):
    """The step count n and an iterator over the frames f(0), f(dt), ..., f(n dt = T).

    ``f0`` is either a full (n_x, n_v) array or a 1d density rho0(x), in
    which case the run starts from the local equilibrium rho0 (x) 1.  The
    initial datum is checked and normalized to unit mass, and the scheme (dt,
    eps) checked, before this returns.  Each frame is computed when the
    iterator reaches it; keeping it is up to the caller.
    """
    f0, n_steps, stepper = _prepare(model, f0, T, dt, epsilon)
    return n_steps, _frames(stepper, f0, n_steps)


def _frames(stepper, f, n_steps):
    yield f
    for _ in range(n_steps):
        f = stepper.step(f)
        yield f


def mode_marginals(model, f0, T, dt, epsilon=1.0):
    """The rfft modes of the current path j(t_n, x) at every step t_n = n dt
    and the density rho(T, x) of the run :func:`evolve` steps, computed on the
    rfft modes of f.

    Both split operators act on each spatial mode alone: the transport as
    :attr:`Stepper.multiplier` P, the collision on the velocity axis.
    The state is g = C_half f^ after the first half collision, with the
    real and imaginary parts of the n_x // 2 + 1 modes side by side, so
    that a step is one complex product and one real matmul:

        h = P g,   j^ = (w b / eps) . C_half h,   g = C_half^2 h.

    The modes of j come back as a complex (n_steps + 1, n_x // 2 + 1) array,
    whose ``irfft`` along axis 1 is j_path; rho(T) is one ``irfft``.  Only
    those modes and a few (n_v, n_modes) arrays are held, never a frame.

    The state decays by a fixed factor per step at fixed dt / eps^2, and
    arithmetic on subnormal floats is some 50x slower: past t / eps^2 ~ 330
    about 40% of its entries would be subnormal.  So every 64 steps the
    entries below 1e-290 in magnitude, far below the rounding of the values
    they feed, are set to zero.
    """
    f0, n_steps, stepper = _prepare(model, f0, T, dt, epsilon)
    n_cells = f0.shape[0]
    half = stepper.half_collision
    to_j = model.weights * model.drift[:, 0] / epsilon
    # (n_v, n_modes) complex arrays; their float views (n_v, 2 n_modes) hold
    # the [Re, Im] parts of every mode, so a real matmul acts on both at once
    f_parts = np.ascontiguousarray(np.fft.rfft(f0, axis=0).T).view(float)
    mult = np.ascontiguousarray(stepper.multiplier.T)
    j_hat = np.empty((n_steps + 1, f_parts.shape[1]))
    np.matmul(to_j, f_parts, out=j_hat[0])
    g = (half @ f_parts).view(complex)
    h = np.empty_like(g)
    g_parts, h_parts = g.view(float), h.view(float)
    full = half @ half
    to_j = to_j @ half
    flushed = 0  # rows of j_hat that hold no entry below _FLUSH_BELOW
    for n in range(1, n_steps + 1):
        np.multiply(g, mult, out=h)
        np.matmul(to_j, h_parts, out=j_hat[n])
        np.matmul(full, h_parts, out=g_parts)
        if n % _FLUSH_EVERY == 0 or n == n_steps:
            for part in (g_parts, j_hat[flushed:n + 1]):
                part[np.abs(part) < _FLUSH_BELOW] = 0.0
            flushed = n + 1
    rho_hat = (model.weights @ half) @ h_parts
    rho_T = np.fft.irfft(rho_hat.view(complex), n_cells)
    return j_hat.view(complex), rho_T


def simulate(model, f0, T, dt, epsilon=1.0, transport="spectral"):
    """Integrate to time T and return the full trajectory (see :func:`evolve`).

    A ``transport`` but ``"spectral"``, the only one, is a :class:`ConfigError`,
    as is a trajectory larger than physical memory, before it is allocated.
    """
    _check_transport(transport)
    n_steps, frames = evolve(model, f0, T, dt, epsilon)
    n_cells = np.shape(f0)[0]
    shape = (n_steps + 1, n_cells, model.n_nodes)
    require_memory(shape, "the trajectory")
    f = np.empty(shape)
    for n, frame in enumerate(frames):
        f[n] = frame
    return Trajectory(f, dt, epsilon, model.name, model.fingerprint)


def current_of(f_slice, model, out=None):
    """The trajectory's own current eta_ij(x) = S_ij (f_i - f_j) on the pairs
    i < j, (n_x, n_pairs), written into ``out`` when one is given; an
    ``f_slice`` that is not (n_x, n_v) on the model's nodes is a UsageError."""
    f = np.asarray(f_slice, dtype=float)
    if f.ndim != 2 or f.shape[1] != model.n_nodes:
        raise UsageError(f"a density of shape {f.shape} is not (n_x, n_v) on the "
                         f"model's {model.n_nodes} velocity nodes")
    i, j, _ = pair_triangle(model)
    eta = np.take(f, i, axis=1, out=out, mode="clip")
    eta -= np.take(f, j, axis=1, mode="clip")
    eta *= model.sigma[i, j]
    return eta


def require_certificate_memory(shape):
    """Refuse, as :class:`ConfigError`, an :func:`edi_certificate` on frames of
    ``shape`` (n_t, n_x, n_v) if they and its working set, which are live
    together, exceed physical memory: n_x (n_t n_v + 2 n_v (n_v - 1)) floats."""
    n_t, n_x, n_v = shape
    require_memory((n_x, n_t * n_v + 2 * n_v * (n_v - 1)),
                   "the trajectory and the certificate's working set")


def _check_run(traj, model):
    """ConfigError unless ``model`` may certify ``traj``.

    The frames must lie on the model's velocity nodes.  A trajectory that
    names a model fingerprint claims to be this solver's run of that model:
    the fingerprint must be ``model``'s, its scheme (dt, eps) and grid must
    pass :func:`_check_scheme`, and one :class:`Stepper` step of that scheme
    from frame 0 must reproduce frame 1 to 1e-12 max|f_1|.  A trajectory
    without a fingerprint, such as frames of another solver, is checked by
    shape only, on any number of cells.
    """
    n_v = traj.f.shape[2]
    if n_v != model.n_nodes:
        raise ConfigError(f"frames of {n_v} velocity nodes are not on the model's "
                          f"{model.n_nodes} nodes")
    if traj.model_fingerprint is None:
        return
    if traj.model_fingerprint != model.fingerprint:
        raise ConfigError(f"the trajectory was not produced by this model: its model "
                          f"fingerprint is {traj.model_fingerprint}, the model's "
                          f"{model.fingerprint}")
    step = Stepper(model, traj.f.shape[1], traj.dt, traj.epsilon).step(traj.f[0])
    miss, size = (float(np.max(np.abs(a))) for a in (step - traj.f[1], traj.f[1]))
    if not miss <= 1e-12 * size:
        raise ConfigError(f"the frames are not a run of dt = {traj.dt!r}, epsilon = "
                          f"{traj.epsilon!r} on this model: one step from frame 0 misses "
                          f"frame 1 by {miss:.3g}, where max|f_1| = {size:.3g}")


@dataclass(frozen=True)
class EntropyBalanceResult:
    total_residual: float
    per_step: np.ndarray


def entropy_balance_check(traj, model):
    """Residual of the entropy balance along the trajectory.

    For each sub-interval the change of H is compared with the midpoint
    quadrature of (1/2) sum w_i w_j eta (log f' - log f), evaluated at the
    midpoint slice with the trajectory's own current and the truncated
    logarithm as safeguard: twice the :func:`~linboltz.functionals._pairing`
    of f and log f, with no current formed.  The collision strength carries
    the 1/eps^2 factor of rescaled runs.  A trajectory that ``model`` may not
    certify (see :func:`_check_run`) is a ConfigError.
    """
    _check_run(traj, model)
    scale = 1.0 / traj.epsilon**2
    residuals = np.empty(traj.n_steps)
    h_prev = relative_entropy(traj.f[0], model)
    for n in range(traj.n_steps):
        h_next = relative_entropy(traj.f[n + 1], model)
        f_mid = 0.5 * (traj.f[n] + traj.f[n + 1])
        pairing = 2.0 * _pairing(f_mid, truncated_log(f_mid), model)
        dissipation = 0.5 * scale * traj.dx * pairing
        residuals[n] = (h_next - h_prev) - traj.dt * dissipation
        h_prev = h_next
    return EntropyBalanceResult(
        total_residual=float(abs(residuals.sum())),
        per_step=residuals,
    )


@dataclass(frozen=True)
class EdiCertificate:
    h_initial: float
    h_final: float
    dirichlet_integral: float
    kinematic_value: float
    phi_residual: float
    balance_residual: float
    max_step_residual: float
    per_step: np.ndarray = field(repr=False)
    entropy: np.ndarray = field(repr=False)  # H of every frame, (n_steps + 1,)

    @property
    def gradient_flow_residual(self):
        return (
            self.h_final
            + self.dirichlet_integral
            + self.kinematic_value
            - self.h_initial
        )

    def as_dict(self):
        out = {k: v for k, v in vars(self).items() if k not in ("per_step", "entropy")}
        return dict(out, gradient_flow_residual=self.gradient_flow_residual)


def edi_certificate(traj, model, current_scale=1.0, tol=None):
    """Assemble the gradient-flow certificate along a trajectory.

    ``current_scale`` multiplies the trajectory's own current before the
    cost evaluations; 1.0 certifies the solver run, any other value probes
    the strict positivity of the jump cost off the true current.  When
    ``tol`` is given, a violation raises :class:`CertificationError`
    carrying the full certificate.  A trajectory that ``model`` may not
    certify is a ConfigError, raised by :func:`_check_run` before anything
    else: frames off the model's velocity nodes, another model's fingerprint,
    or frames that one step of the named scheme does not reproduce.

    Each step gathers the pair densities f_i, f_j once and forms the current
    in place from them as (f_i - f_j) sigma_ij, :func:`current_of`'s
    operations in its order and so its bits; R and Phi both read that one
    current.  Its working set (see the module notes) is allocated once, after
    :func:`require_certificate_memory` has checked it.
    """
    _check_run(traj, model)
    require_certificate_memory(traj.f.shape)
    scale = 1.0 / traj.epsilon**2
    entropy = np.empty(traj.n_steps + 1)
    entropy[0] = relative_entropy(traj.f[0], model)
    i, j, pair_weights = pair_triangle(model)
    kappa = model.sigma[i, j]
    # the working set, allocated once: the current xi and the pair densities,
    # as three arrays.  One block of all three, once freed, raised glibc's mmap
    # threshold to its size, and 6 MB more heap then stayed untrimmed
    xi, f_i, f_j = (np.empty((traj.f.shape[1], i.size)) for _ in range(3))

    dirichlet = kinematic = phi_total = 0.0
    per_step = np.empty(traj.n_steps)
    for n in range(traj.n_steps):
        f_mid = 0.5 * (traj.f[n] + traj.f[n + 1])
        np.take(f_mid, i, axis=1, out=f_i, mode="clip")
        np.take(f_mid, j, axis=1, out=f_j, mode="clip")
        # current_of's operations in its order, so its bits, from the gathers
        np.subtract(f_i, f_j, out=xi)
        xi *= kappa
        if current_scale != 1.0:
            xi *= current_scale
        e_val = scale * dirichlet_form(f_mid, model)
        r_val = scale * kinematic_rate(f_mid, xi, model)
        # Phi over the pairs i < j, counted twice
        phi_val = scale * traj.dx * float(np.sum(phi(kappa, f_i, f_j, xi) @ pair_weights))
        dirichlet += traj.dt * e_val
        kinematic += traj.dt * r_val
        phi_total += traj.dt * phi_val
        entropy[n + 1] = relative_entropy(traj.f[n + 1], model)
        per_step[n] = (entropy[n + 1] - entropy[n]) + traj.dt * (e_val + r_val)

    h0, hT = float(entropy[0]), float(entropy[-1])
    cert = EdiCertificate(
        h_initial=h0,
        h_final=hT,
        dirichlet_integral=dirichlet,
        kinematic_value=kinematic,
        phi_residual=phi_total,
        balance_residual=float(abs(hT + dirichlet + kinematic - h0)),
        max_step_residual=float(np.max(np.abs(per_step))),
        per_step=per_step,
        entropy=entropy,
    )
    if tol is not None and (cert.balance_residual > tol or abs(cert.phi_residual) > tol):
        raise CertificationError(
            f"certificate violated: balance {cert.balance_residual:.3e}, "
            f"phi {cert.phi_residual:.3e}, tol {tol:.3e}",
            certificate=cert,
        )
    return cert


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------


def save_trajectory(traj, directory):
    """Persist a trajectory as a directory: ``meta.json``, whose transport is
    the constant ``"spectral"``, and ``f.npy``."""
    os.makedirs(directory, exist_ok=True)
    np.save(os.path.join(directory, "f.npy"), traj.f)
    meta = dict(dt=traj.dt, epsilon=traj.epsilon, transport="spectral",
                model_name=traj.model_name, model_fingerprint=traj.model_fingerprint)
    with open(os.path.join(directory, "meta.json"), "w") as fh:
        json.dump(meta, fh, sort_keys=True, indent=1)


def load_trajectory(directory):
    """Read a trajectory written by :func:`save_trajectory`.

    A ``meta.json`` or ``f.npy`` that cannot be read, or that :class:`Trajectory`
    refuses, is a ConfigError naming ``directory``.  A ``times.npy`` or a ``dx``
    key, which older runs wrote, is ignored: both follow from ``dt`` and ``f``.
    So is their ``"drift_axis": 0``; another value is refused, as that run
    moved along another drift column, which no model's check covers.  A
    ``"transport"`` other than ``"spectral"`` (none, or the ``"upwind"`` of
    older runs) is refused as well; :class:`Trajectory` keeps none.  So is a
    ``meta.json`` that names no model fingerprint, after :class:`Trajectory`
    has checked the rest: no model could be checked against such a run.
    """
    try:
        with open(os.path.join(directory, "meta.json")) as fh:
            meta = json.load(fh)
        if not isinstance(meta, dict):
            raise ConfigError("meta.json must be an object")
        axis = meta.get("drift_axis", 0)
        if type(axis) is not int or axis != 0:
            raise ConfigError(f"meta.json: the run moved along drift column {axis!r}, "
                              "not the first")
        _check_transport(meta.get("transport"))
        traj = Trajectory(
            f=np.load(os.path.join(directory, "f.npy")),
            dt=meta.get("dt"),
            epsilon=meta.get("epsilon"),
            model_name=meta.get("model_name", "custom"),
            model_fingerprint=meta.get("model_fingerprint"),
        )
        if traj.model_fingerprint is None:
            raise ConfigError("meta.json names no model fingerprint")
        return traj
    except (ValueError, ConfigError) as exc:  # JSONDecodeError, not an array file, refused
        raise ConfigError(f"{directory} is not a valid trajectory: {exc}") from exc


def write_certificate_csv(traj, model, cert, path):
    """One row per time slice: t, H, E, cumulative R, per-step residual.

    H is the certificate's own per-frame entropy; E and R are recomputed from
    ``traj``, each step's current in one (n_x, n_pairs) array per call.  A
    trajectory that ``model`` may not certify is a ConfigError, raised by
    :func:`_check_run` before anything else.  A certificate of another run is
    a UsageError: one of another frame count, or one whose H of the first and
    last frames differs, in any bit, from :func:`relative_entropy` of this
    trajectory's, with which the certificate formed them."""
    _check_run(traj, model)
    if len(cert.entropy) != len(traj.f):
        raise UsageError(f"a certificate of {len(cert.entropy)} frames is not that of "
                         f"this trajectory of {len(traj.f)}")
    if (cert.entropy[0], cert.entropy[-1]) != (relative_entropy(traj.f[0], model),
                                               relative_entropy(traj.f[-1], model)):
        raise UsageError("the certificate's entropy of the first and last frames is not "
                         "that of this trajectory's: it certifies another run")
    scale = 1.0 / traj.epsilon**2
    current = np.empty((traj.f.shape[1], model.n_nodes * (model.n_nodes - 1) // 2))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "entropy", "dirichlet", "cumulative_r", "step_residual"])
        cum_r = 0.0
        for n, t in enumerate(traj.times):
            e_val = scale * dirichlet_form(traj.f[n], model)
            res = cert.per_step[n - 1] if n > 0 else 0.0
            if n > 0:
                f_mid = 0.5 * (traj.f[n - 1] + traj.f[n])
                # summed as in edi_certificate, so the last row is its R
                cum_r += traj.dt * (scale * kinematic_rate(
                    f_mid, current_of(f_mid, model, out=current), model
                ))
            writer.writerow([
                f"{t:.12g}", f"{cert.entropy[n]:.12g}", f"{e_val:.12g}",
                f"{cum_r:.12g}", f"{res:.12g}",
            ])
