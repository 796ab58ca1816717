"""Reference heat flow on the periodic unit interval.

The density is propagated exactly on its rfft modes (the library's one
Fourier convention, see :mod:`linboltz.spectral`),

    rho_hat(t, k) = rho_hat(0, k) * exp(-4 pi^2 D k^2 t),   k = 0, ..., n // 2,

so refining dt changes nothing about the density path; time resolution
only matters for the quadrature of the gradient-flow functionals

    H(rho(T)) + int_0^T E(rho) dt + R(rho, j)  =  H(rho(0)),

which holds with equality (to quadrature order) exactly when j = -D d rho/dx.
The current is as closed-form as the density: its rfft modes are
j_hat(t, k) = -D 2 pi i k rho_hat(0, k) exp(-4 pi^2 D k^2 t)
(:meth:`HeatFlow.current_modes`), which the diffusive sweep pairs with its
test fields without forming j(t, x).
"""

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, UsageError
from .functionals import RHO_FLOOR, _clip_density, _diffusivity, fisher_information, heat_kinematic
from .spectral import gradient


@dataclass(frozen=True)
class HeatFlow:
    """Exact spectral solution with initial datum rho0 on a uniform 1-d grid.

    ``D`` is one positive finite diffusivity: a number, or an array of one
    entry such as a 1x1 diffusion matrix.  A density of another rank is a
    :class:`UsageError`.
    """

    rho0: np.ndarray
    D: float

    def __post_init__(self):
        rho0 = np.asarray(self.rho0, dtype=float)
        if rho0.ndim != 1:
            raise UsageError("the heat flow needs a 1-d density")
        if not np.all(rho0 >= 0):  # NaN included
            raise DomainError("initial density must be nonnegative")
        D = _diffusivity(self.D)
        mass = (1.0 / rho0.size) * rho0.sum()
        if not 0 < mass < np.inf:
            raise DomainError("initial density must have a finite positive mass")
        rho0 = rho0 / mass
        k = np.arange(rho0.size // 2 + 1)
        rates = 4.0 * np.pi**2 * (D * k * k)
        rates.setflags(write=False)
        object.__setattr__(self, "rho0", rho0)
        object.__setattr__(self, "D", D)
        object.__setattr__(self, "_rho0_hat", np.fft.rfft(rho0))
        object.__setattr__(self, "_rates", rates)

    def rho_at(self, t):
        if not 0 <= t < np.inf:  # NaN included
            raise UsageError(f"t must be finite and nonnegative, not {t!r}")
        return np.fft.irfft(self._rho0_hat * np.exp(-t * self._rates), self.rho0.size)

    def current_at(self, t):
        """j = -D d rho/dx, shape (n,)."""
        return -self.D * gradient(self.rho_at(t))

    def current_modes(self):
        """The rfft modes of the current at t = 0 and their decay rates:
        j_hat(t, k) = modes[k] * exp(-rates[k] * t).

        ``irfft(j_hat(t), n)`` is ``current_at(t)``: the spectral derivative
        keeps no Nyquist mode, so on an even grid that entry is 0.
        """
        n = self.rho0.size
        k = np.arange(n // 2 + 1)
        modes = -self.D * (2j * np.pi * k) * self._rho0_hat
        if n % 2 == 0:
            modes[-1] = 0.0
        return modes, self._rates


def spatial_entropy(rho):
    """int rho log rho dx of a 1-d density on a uniform periodic grid."""
    r = _clip_density(rho, what="rho")
    if r.ndim != 1:
        raise UsageError("spatial_entropy needs a 1-d density")
    val = np.where(r > 0, r * np.log(np.clip(r, RHO_FLOOR, None)), 0.0)
    return float((1.0 / r.size) * val.sum())


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
    kin = heat_kinematic(np.stack(rho_mid), np.stack(j_mid), flow.D, dt)
    return h_T + fisher + kin - h_0
