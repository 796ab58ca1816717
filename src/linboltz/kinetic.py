"""Space-time solver for the (rescaled) kinetic equation and its certificates.

The unknown f(t, x, v_i) lives on a periodic 1d spatial grid of n_x cells
and the velocity nodes of a :class:`~linboltz.velocity.VelocityModel`.  The
evolution

    df/dt + (b_i . e / eps) df/dx = (1/eps^2) (L f)_i

is integrated by Strang splitting: half collision step with the exact
matrix exponential (positivity- and mass-preserving, entropy-decreasing),
full transport step per velocity node, half collision step.  The
exponential exp(t L) of the jump generator L = S W - Lambda is summed by
:func:`collision_propagator` from nonnegative terms only (uniformization),
so its entries are nonnegative exactly and numpy is all it needs.
Both split operators act on each spatial Fourier mode alone: the transport
as :attr:`Stepper.multiplier`, one factor per rfft mode and node built once
per run, the collision on the velocity axis.  Upwind transport, the default,
steps the frames in x as a convex combination of each cell and its upwind
neighbour, which keeps f nonnegative; spectral transport applies the
multiplier between one ``rfft`` and one ``irfft``, an exact translation of
the trigonometric interpolant meant for smooth studies (it is not
positivity-preserving in general).  :func:`evolve` yields the frames one at
a time; :func:`simulate` stores them all, after checking that they fit in
physical memory.  :func:`mode_marginals` takes the same Strang steps on the
n_x/2 + 1 rfft modes of f, one real matmul per step and no FFT, for callers
that need only the modes of the current j(t, x) and the final density
rho(T, x), such as the diffusive sweep.  Positive frames, which the
certificates need, come only from :func:`evolve`.

Certification assembles the entropy balance and the gradient-flow
inequality

    H(f(T)) + int E dt + R(f, eta)  <=  H(f(0)),

which holds as near-equality (to time-quadrature order) along the solver's
own trajectory with the current eta = sigma (f - f'); the independent
jump-cost residual int Phi_sigma(f, f'; eta) vanishes exactly for that
current and is strictly positive for any other.  Both pair costs are
summed over the velocity pairs i < j only, counted twice, in cache-sized
blocks (see :mod:`linboltz.functionals`).  The certificate's working set
beyond the trajectory is allocated once per call and reused every step: one
(n_x, n_v, n_v) current, filled in place by :func:`current_of`, and two
(n_x, n_v (n_v - 1) / 2) pair arrays, xi and phi's output; the pair
densities f_i and f_j live in the current's storage once xi is gathered
from it.  That is n_x n_v (2 n_v - 1) floats, 14.7 MB for Rayleigh-120 on
64 cells, and :func:`require_certificate_memory` refuses a certificate whose
working set and trajectory together exceed physical memory before anything
is allocated (the ``kinetic-run`` CLI checks it before it simulates).
"""

import csv
import itertools
import json
import math
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    CertificationError,
    ConfigError,
    DomainError,
    NumericalQualityError,
    UsageError,
    require_memory,
)
from .functionals import (
    dirichlet_form,
    kinematic_rate,
    pair_triangle,
    phi,
    relative_entropy,
    truncated_log,
)
from .spectral import shift

TRANSPORT_SCHEMES = ("upwind", "spectral")

#: every _FLUSH_EVERY steps :func:`mode_marginals` zeroes the state entries
#: below _FLUSH_BELOW in magnitude, before they decay into subnormals
_FLUSH_EVERY = 64
_FLUSH_BELOW = 1e-290


@dataclass(frozen=True)
class Trajectory:
    """The frames f(n dt), n = 0 ... n_steps, of one run on the periodic unit
    interval; the cell size, the times and the step count follow from them."""

    f: np.ndarray              # (n_t, n_x, n_v)
    dt: float
    epsilon: float
    transport: str
    drift_axis: int = 0
    model_name: str = "custom"
    model_fingerprint: str | None = None  # VelocityModel.fingerprint

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


def _half_collision_time(dt, epsilon):
    """0.5 dt / eps^2; ConfigError when eps^2 underflows (is below the
    smallest normal float) or the time is not finite."""
    if epsilon**2 < sys.float_info.min or not math.isfinite(0.5 * dt / epsilon**2):
        raise ConfigError(f"epsilon = {epsilon!r} is too small for dt = {dt!r}: epsilon**2 "
                          "underflows or 0.5 dt / epsilon**2 overflows")
    return 0.5 * dt / epsilon**2


class Stepper:
    """Precomputed split-step propagator for one (model, grid, dt, eps).

    The half collision step is the matrix ``half_collision`` =
    exp(0.5 dt L / eps^2) of :func:`collision_propagator`: nonnegative
    exactly, with rows summing to 1 and w^T C = w^T to rounding, so it
    keeps f nonnegative and conserves its mass.  An epsilon whose square
    underflows, or for which 0.5 dt / eps^2 * max lambda is not finite,
    is a :class:`ConfigError`.

    ``multiplier`` (n_cells // 2 + 1, n_v) is the transport step on the rfft
    modes, ``advect_full`` = ``shift(., multiplier)`` (upwind: to rounding):
    exp(-2 pi i k dt b / eps) for spectral transport; for upwind
    1 - nu (1 - e^{-2 pi i k / n}), or 1 + nu - nu e^{2 pi i k / n} for
    negative speeds.  Its Nyquist entry on an even grid keeps only its real
    part, as ``irfft`` does, so steps on the modes stay those on the frames.
    """

    def __init__(self, model, n_cells, dt, epsilon=1.0, transport="upwind",
                 drift_axis=0):
        if transport not in TRANSPORT_SCHEMES:
            raise ConfigError(f"unknown transport scheme '{transport}'")
        if n_cells < 2 or dt <= 0 or epsilon <= 0:
            raise ConfigError("need n_cells >= 2, dt > 0, epsilon > 0")
        tau = _half_collision_time(dt, epsilon)
        if not 0 <= drift_axis < model.drift.shape[1]:
            raise ConfigError("drift_axis out of range for this model")
        self.model = model
        self.n_cells = int(n_cells)
        self.dx = 1.0 / n_cells
        self.dt = float(dt)
        self.epsilon = float(epsilon)
        self.transport = transport
        self.drift_axis = int(drift_axis)
        self.speeds = model.drift[:, drift_axis] / epsilon
        cfl = dt * np.max(np.abs(self.speeds)) / self.dx
        if transport == "upwind" and cfl > 1.0 + 1e-12:
            raise ConfigError(
                f"CFL violated: dt*max|b|/(eps*dx) = {cfl:.3f} > 1"
            )
        self.half_collision = collision_propagator(model, tau)
        k = np.arange(self.n_cells // 2 + 1)[:, None]
        if transport == "spectral":
            mult = np.exp(-2j * np.pi * k * (self.dt * self.speeds[None, :]))
        else:
            nu = self.courant = self.dt * self.speeds / self.dx
            self.from_left = self.speeds >= 0  # the upwind neighbour is x - dx
            behind = np.exp(-2j * np.pi * k / self.n_cells)  # the mode of f(x - dx)
            mult = np.where(self.from_left, 1.0 - nu * (1.0 - behind),
                            1.0 + nu - nu * behind.conj())
        if self.n_cells % 2 == 0:
            mult[-1] = mult[-1].real
        self.multiplier = mult

    def collide_half(self, f):
        return f @ self.half_collision.T

    def advect_full(self, f):
        if self.transport == "spectral":
            return shift(f, self.multiplier)
        nu = self.courant
        return np.where(
            self.from_left,
            f - nu * (f - np.roll(f, 1, axis=0)),
            f - nu * (np.roll(f, -1, axis=0) - f),
        )

    def step(self, f):
        return self.collide_half(self.advect_full(self.collide_half(f)))


def local_equilibrium(rho0, model):
    """f0(x, v) = rho0(x) for every node (collision-invariant profile)."""
    rho0 = np.asarray(rho0, dtype=float)
    return np.repeat(rho0[:, None], model.n_nodes, axis=1)


def _prepare(model, f0, T, dt, epsilon, transport, drift_axis):
    """The checked, unit-mass initial datum, the step count and the Stepper
    of a run of :func:`evolve` or :func:`mode_marginals`."""
    f0 = np.asarray(f0, dtype=float)
    if f0.ndim == 1:
        f0 = local_equilibrium(f0, model)
    if f0.shape[1] != model.n_nodes:
        raise UsageError("f0 velocity axis does not match the model")
    if np.any(f0 < 0):
        raise DomainError("initial datum must be nonnegative")
    n_cells = f0.shape[0]
    dx = 1.0 / n_cells
    mass = dx * float(f0 @ model.weights @ np.ones(n_cells))
    if mass <= 0:
        raise DomainError("initial datum has no mass")
    f0 = f0 / mass

    n_steps = int(round(T / dt))
    if abs(n_steps * dt - T) > 1e-9 * max(T, 1.0):
        raise ConfigError("T must be an integer multiple of dt")
    stepper = Stepper(model, n_cells, dt, epsilon, transport, drift_axis)
    return f0, n_steps, stepper


def evolve(model, f0, T, dt, epsilon=1.0, transport="upwind", drift_axis=0):
    """The step count n and an iterator over the frames f(0), f(dt), ..., f(n dt = T).

    ``f0`` is either a full (n_x, n_v) array or a 1d density rho0(x), in
    which case the run starts from the local equilibrium rho0 (x) 1.  The
    initial datum is checked and normalized to unit mass before this
    returns.  Each frame is computed when the iterator reaches it; keeping
    it is up to the caller.
    """
    f0, n_steps, stepper = _prepare(model, f0, T, dt, epsilon, transport, drift_axis)
    return n_steps, _frames(stepper, f0, n_steps)


def _frames(stepper, f, n_steps):
    yield f
    for _ in range(n_steps):
        f = stepper.step(f)
        yield f


def mode_marginals(model, f0, T, dt, epsilon=1.0, transport="upwind", drift_axis=0):
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
    f0, n_steps, stepper = _prepare(model, f0, T, dt, epsilon, transport, drift_axis)
    n_cells = f0.shape[0]
    half = stepper.half_collision
    to_j = model.weights * model.drift[:, drift_axis] / epsilon
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
    if n_steps:
        rho_hat = (model.weights @ half) @ h_parts
    else:
        rho_hat = model.weights @ f_parts
    rho_T = np.fft.irfft(rho_hat.view(complex), n_cells)
    return j_hat.view(complex), rho_T


def simulate(model, f0, T, dt, epsilon=1.0, transport="upwind", drift_axis=0):
    """Integrate to time T and return the full trajectory (see :func:`evolve`).

    A trajectory larger than physical memory is refused with
    :class:`ConfigError` before it is allocated.
    """
    n_steps, frames = evolve(model, f0, T, dt, epsilon, transport, drift_axis)
    n_cells = np.shape(f0)[0]
    shape = (n_steps + 1, n_cells, model.n_nodes)
    require_memory(shape, "the trajectory")
    f = np.empty(shape)
    for n, frame in enumerate(frames):
        f[n] = frame
    return Trajectory(
        f=f,
        dt=dt,
        epsilon=epsilon,
        transport=transport,
        drift_axis=drift_axis,
        model_name=model.name,
        model_fingerprint=model.fingerprint,
    )


def current_of(f_slice, model, out=None):
    """eta_ij(x) = S_ij (f_i - f_j): the trajectory's own current, written
    into ``out``, an (n_x, n_v, n_v) float array, when one is given."""
    f = np.asarray(f_slice, dtype=float)
    eta = np.subtract(f[:, :, None], f[:, None, :], out=out)
    eta *= model.sigma
    return eta


def require_certificate_memory(shape):
    """Refuse, as :class:`ConfigError`, an :func:`edi_certificate` on frames of
    ``shape`` (n_t, n_x, n_v) if they and its working set, which are live
    together, exceed physical memory: n_x n_v (n_t + 2 n_v - 1) floats."""
    n_t, n_x, n_v = shape
    require_memory((n_x, n_v, n_t + 2 * n_v - 1),
                   "the trajectory and the certificate's working set")


@dataclass(frozen=True)
class EntropyBalanceResult:
    total_residual: float
    max_step_residual: float
    per_step: np.ndarray


def entropy_balance_check(traj, model):
    """Residual of the entropy balance along the trajectory.

    For each sub-interval the change of H is compared with the midpoint
    quadrature of (1/2) sum w_i w_j eta (log f' - log f), evaluated at the
    midpoint slice with the trajectory's own current and the truncated
    logarithm as safeguard.  With the symmetric kernel the pairing is
    2 sum_x [<f w, S (w log f)> - sum_i w_i lambda_i f_i log f_i], two BLAS
    products as in :func:`~linboltz.functionals.dirichlet_form`, so the
    current is never formed.  The collision strength carries the 1/eps^2
    factor of rescaled runs.
    """
    if traj.f.shape[0] < 2:
        raise UsageError("need at least two time slices")
    if not np.array_equal(model.sigma, model.sigma.T):
        raise NumericalQualityError("scattering kernel is not exactly symmetric")
    scale = 1.0 / traj.epsilon**2
    w = model.weights
    residuals = np.empty(traj.n_steps)
    h_prev = relative_entropy(traj.f[0], model)
    for n in range(traj.n_steps):
        h_next = relative_entropy(traj.f[n + 1], model)
        f_mid = 0.5 * (traj.f[n] + traj.f[n + 1])
        lg = truncated_log(f_mid)
        fw = f_mid * w
        pairing = 2.0 * (np.vdot(fw @ model.sigma, lg * w)
                         - np.vdot(fw, lg * model.rates))
        dissipation = 0.5 * scale * traj.dx * pairing
        residuals[n] = (h_next - h_prev) - traj.dt * dissipation
        h_prev = h_next
    return EntropyBalanceResult(
        total_residual=float(abs(residuals.sum())),
        max_step_residual=float(np.max(np.abs(residuals))),
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
    carrying the full certificate.

    Its working set (see the module notes) is allocated once, after
    :func:`require_certificate_memory` has checked it.
    """
    n_x, n_v = traj.f.shape[1:]
    require_certificate_memory(traj.f.shape)
    scale = 1.0 / traj.epsilon**2
    i, j, pair_weights = pair_triangle(model)
    kappa = model.sigma[i, j]
    upper = i * n_v + j
    # the working set, allocated once: the current and xi, its entries on the
    # pairs i < j; the current's storage (n_v^2 >= 2 n_pairs per cell) then
    # holds the pair densities f_i and f_j
    current = np.empty((n_x, n_v, n_v))
    xi = np.empty((n_x, i.size))
    f_i, f_j = current.reshape(-1)[:2 * xi.size].reshape(2, n_x, i.size)
    entropy = np.empty(traj.n_steps + 1)
    entropy[0] = relative_entropy(traj.f[0], model)

    dirichlet = 0.0
    kinematic = 0.0
    phi_total = 0.0
    per_step = np.empty(traj.n_steps)
    for n in range(traj.n_steps):
        f_mid = 0.5 * (traj.f[n] + traj.f[n + 1])
        eta = current_of(f_mid, model, out=current)
        if current_scale != 1.0:
            eta *= current_scale
        e_val = scale * dirichlet_form(f_mid, model)
        r_val = scale * kinematic_rate(f_mid, eta, model)
        # Phi over the pairs i < j, counted twice; the diagonal of the
        # antisymmetric current is zero, where phi(kappa, p, p; 0) = 0.  Once
        # xi is gathered the current is dead, and f_i, f_j overwrite it
        np.take(current.reshape(n_x, -1), upper, axis=1, out=xi, mode="clip")
        np.take(f_mid, i, axis=1, out=f_i, mode="clip")
        np.take(f_mid, j, axis=1, out=f_j, mode="clip")
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
    if tol is not None and (
        cert.balance_residual > tol or abs(cert.phi_residual) > tol
    ):
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
    """Persist a trajectory as a directory: ``meta.json`` and ``f.npy``."""
    os.makedirs(directory, exist_ok=True)
    np.save(os.path.join(directory, "f.npy"), traj.f)
    meta = {
        "dt": traj.dt,
        "epsilon": traj.epsilon,
        "transport": traj.transport,
        "drift_axis": traj.drift_axis,
        "model_name": traj.model_name,
        "model_fingerprint": traj.model_fingerprint,
    }
    with open(os.path.join(directory, "meta.json"), "w") as fh:
        json.dump(meta, fh, sort_keys=True, indent=1)


def load_trajectory(directory):
    """Read a trajectory written by :func:`save_trajectory`.

    Raises ConfigError when ``meta.json`` or ``f.npy`` do not describe a
    trajectory: ``dt`` and ``epsilon`` must be positive numbers, with
    ``epsilon**2`` a normal float and ``0.5 dt / epsilon**2`` finite,
    ``transport`` a known scheme and ``drift_axis`` an int; ``f`` must be a
    float array of at least two frames, every value finite.  A ``times.npy``
    or a ``dx`` key, which older runs wrote, is ignored: both follow from
    ``dt`` and the shape of ``f``.
    """
    try:
        with open(os.path.join(directory, "meta.json")) as fh:
            meta = json.load(fh)
        f = np.load(os.path.join(directory, "f.npy"))
    except ValueError as exc:  # JSONDecodeError, or not an array file
        raise ConfigError(f"cannot read the trajectory {directory}: {exc}") from exc
    if not isinstance(meta, dict):
        raise ConfigError(f"{directory}/meta.json must be an object")
    for key in ("dt", "epsilon"):
        value = meta.get(key)
        if type(value) not in (int, float) or not 0 < value < np.inf:
            raise ConfigError(f"{directory}/meta.json: {key} must be a positive number, "
                              f"not {json.dumps(value)}")
    try:
        _half_collision_time(meta["dt"], meta["epsilon"])
    except ConfigError as exc:
        raise ConfigError(f"{directory}/meta.json: {exc}") from None
    if meta.get("transport") not in TRANSPORT_SCHEMES:
        raise ConfigError(f"{directory}/meta.json: transport must be one of "
                          f"{TRANSPORT_SCHEMES}, not {json.dumps(meta.get('transport'))}")
    if type(meta.get("drift_axis")) is not int:
        raise ConfigError(f"{directory}/meta.json: drift_axis must be an int, "
                          f"not {json.dumps(meta.get('drift_axis'))}")
    if f.ndim != 3 or f.shape[0] < 2 or f.size == 0 or f.dtype.kind != "f":
        raise ConfigError(f"{directory}/f.npy must be a nonempty float (n_t, n_x, n_v) array "
                          f"of at least 2 frames, not {f.dtype} of shape {f.shape}")
    if not np.isfinite(f).all():
        raise ConfigError(f"{directory}/f.npy holds a value that is not finite")
    return Trajectory(
        f=f,
        dt=float(meta["dt"]),
        epsilon=float(meta["epsilon"]),
        transport=meta["transport"],
        drift_axis=meta["drift_axis"],
        model_name=meta.get("model_name", "custom"),
        model_fingerprint=meta.get("model_fingerprint"),
    )


def write_certificate_csv(traj, model, cert, path):
    """One row per time slice: t, H, E, cumulative R, per-step residual.

    H is the certificate's own per-frame entropy.  Every step's current is
    written into one (n_x, n_v, n_v) array, allocated once per call."""
    scale = 1.0 / traj.epsilon**2
    current = np.empty((traj.f.shape[1], model.n_nodes, model.n_nodes))
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
