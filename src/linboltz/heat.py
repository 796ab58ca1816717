"""Reference heat flow on the periodic unit interval/torus.

The density is propagated exactly in Fourier space,

    rho_hat(t, k) = rho_hat(0, k) * exp(-4 pi^2 t k.Dk),

so refining dt changes nothing about the density path; time resolution
only matters for the quadrature of the gradient-flow functionals

    H(rho(T)) + int_0^T E(rho) dt + R(rho, j)  =  H(rho(0)),

which holds with equality (to quadrature order) exactly when j = -D grad rho.
The current is as closed-form as the density: on a 1-d grid its rfft modes
are j_hat(t, k) = -D 2 pi i k rho_hat(0, k) exp(-4 pi^2 t D k^2)
(:meth:`HeatFlow.current_modes`), which the diffusive sweep pairs with its
test fields without forming j(t, x).
"""

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, UsageError
from .functionals import _as_matrix, fisher_information, heat_kinematic
from .spectral import gradient, wavenumbers

RHO_FLOOR = 1e-14


@dataclass(frozen=True)
class HeatFlow:
    """Exact spectral solution with initial datum rho0 on a uniform grid."""

    rho0: np.ndarray
    D: np.ndarray

    def __post_init__(self):
        rho0 = np.asarray(self.rho0, dtype=float)
        if np.any(rho0 < 0):
            raise DomainError("initial density must be nonnegative")
        D = _as_matrix(self.D, rho0.ndim)
        cell = (1.0 / rho0.shape[0]) ** rho0.ndim
        mass = cell * rho0.sum()
        if mass <= 0:
            raise DomainError("initial density has no mass")
        rho0 = rho0 / mass
        object.__setattr__(self, "rho0", rho0)
        object.__setattr__(self, "D", D)
        object.__setattr__(self, "_rho0_hat", np.fft.fftn(rho0))
        ks = np.meshgrid(
            *[wavenumbers(n) for n in rho0.shape], indexing="ij"
        )
        kdk = np.zeros(rho0.shape)
        for a in range(rho0.ndim):
            for b in range(rho0.ndim):
                kdk += D[a, b] * ks[a] * ks[b]
        object.__setattr__(self, "_kdk", kdk)
        object.__setattr__(self, "_ks", ks)

    def rho_at(self, t):
        if t < 0:
            raise UsageError("t must be nonnegative")
        decay = np.exp(-4.0 * np.pi**2 * t * self._kdk)
        return np.real(np.fft.ifftn(self._rho0_hat * decay))

    def current_at(self, t):
        """j = -D grad rho, shape rho.shape + (d,)."""
        rho = self.rho_at(t)
        grads = np.stack(
            [gradient(rho, axis=a) for a in range(rho.ndim)], axis=-1
        )
        return -grads @ self.D.T

    def current_modes(self):
        """The rfft modes of the current of a 1-d flow at t = 0 and their
        decay rates: j_hat(t, k) = modes[k] * exp(-rates[k] * t).

        ``irfft(j_hat(t), n)`` is ``current_at(t)[:, 0]``: the spectral
        derivative keeps no Nyquist mode, so on an even grid that entry is 0.
        """
        if self.rho0.ndim != 1:
            raise UsageError("current_modes needs a 1-d flow")
        n = self.rho0.size
        k = np.arange(n // 2 + 1)
        modes = -self.D[0, 0] * (2j * np.pi * k) * self._rho0_hat[: k.size]
        if n % 2 == 0:
            modes[-1] = 0.0
        return modes, 4.0 * np.pi**2 * self._kdk[: k.size]


def heat_solve(rho0, D, T, dt):
    """Sampled trajectory (times, rho_path) of the exact flow."""
    flow = HeatFlow(rho0, np.atleast_2d(D))
    n_steps = int(round(T / dt))
    if abs(n_steps * dt - T) > 1e-9 * max(T, 1.0):
        raise UsageError("T must be an integer multiple of dt")
    times = dt * np.arange(n_steps + 1)
    rho_path = np.stack([flow.rho_at(t) for t in times])
    return flow, times, rho_path


def spatial_entropy(rho, floor=RHO_FLOOR):
    rho = np.asarray(rho, dtype=float)
    if np.any(rho < -1e-12):
        raise DomainError("negative density in entropy")
    cell = (1.0 / rho.shape[0]) ** rho.ndim
    r = np.clip(rho, 0.0, None)
    val = np.where(r > 0, r * np.log(np.clip(r, floor, None)), 0.0)
    return float(cell * val.sum())


def heat_gradient_flow_check(flow, times, current_factor=1.0):
    """Residual H(T) + int E dt + R - H(0) with midpoint time quadrature.

    ``current_factor`` scales the exact current j = -D grad rho; values
    other than 1 probe the strict positivity of the action off the
    minimizer.  Densities are floored at a small positive value inside
    log and 1/rho; the flow must stay strictly positive for the check to
    be meaningful.
    """
    times = np.asarray(times, dtype=float)
    if times.size < 2:
        raise UsageError("need at least two time points")
    dt = float(times[1] - times[0])
    if np.max(np.abs(np.diff(times) - dt)) > 1e-12:
        raise UsageError("times must be uniformly spaced")
    rho_T = flow.rho_at(times[-1])
    rho_0 = flow.rho_at(times[0])
    if np.min(rho_T) <= 0 or np.min(rho_0) <= 0:
        raise DomainError(
            "density touches zero; use a strictly positive initial datum"
        )
    h_T = spatial_entropy(rho_T)
    h_0 = spatial_entropy(rho_0)

    mids = 0.5 * (times[:-1] + times[1:])
    fisher = 0.0
    rho_mid = []
    j_mid = []
    for t in mids:
        rho = flow.rho_at(t)
        fisher += dt * fisher_information(rho, flow.D)
        rho_mid.append(rho)
        j_mid.append(current_factor * flow.current_at(t))
    kin = heat_kinematic(
        np.stack(rho_mid), np.stack(j_mid), flow.D, dt, rho_floor=RHO_FLOOR
    )
    return h_T + fisher + kin - h_0
