"""Diffusive-rescaling sweep: kinetic runs at shrinking epsilon vs heat flow.

Under the rescaling (drift b/eps, collision L/eps^2) the position marginal
rho_eps of the kinetic solution approaches the heat flow with the matrix
D = pi(b (x) (-L)^{-1} b).  The sweep runs the kinetic solver for a list
of epsilon values, compares rho_eps(T) with the exact spectral heat
solution in L1/L2, and compares the time-integrated currents weakly
against a fixed bank of smooth test fields.

Each run, upwind or spectral, is stepped on the rfft modes of f by
:func:`linboltz.kinetic.mode_marginals`: the same Strang steps as the
frames of :func:`linboltz.kinetic.evolve`, one real matmul each and no
FFT.  The sweep holds the current path j(t, x), its modes and the final
density rho(T, x), O(n_t n_x) floats, never the (n_t, n_x, n_v) frames.
The heat current along the same times comes from one batched FFT
(:func:`linboltz.heat.heat_current`).
"""

import hashlib
import json
import time
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, require_memory
from .heat import HeatFlow, heat_current
from .kinetic import mode_marginals, simulate
from .velocity import diffusion_matrix, poisson_solve


def default_test_bank(n_cells):
    """Fixed smooth test fields w(x) with |w|_inf = 1 on the cell centers."""
    x = (np.arange(n_cells) + 0.5) / n_cells
    return {
        "one": np.ones(n_cells),
        "cos1": np.cos(2.0 * np.pi * x),
        "sin1": np.sin(2.0 * np.pi * x),
        "cos2": np.cos(4.0 * np.pi * x),
    }


def auto_dt(model, epsilon, T, n_cells, cfl=0.5, drift_axis=0,
            splitting_quality=0.03, dt_scale=1.0):
    """Largest dt of the form T/n below both stability and accuracy caps.

    The CFL cap dt <= cfl * eps * dx / max|b| keeps upwind transport
    stable; the cap dt <= splitting_quality * eps^2 keeps the Strang
    splitting error (which grows like dt^2/eps^4) subdominant to the
    physical O(eps) corrections in sweep comparisons.  ``dt_scale`` then
    multiplies that step, rounded to the nearest T/n.
    """
    bmax = float(np.max(np.abs(model.drift[:, drift_axis])))
    if bmax == 0:
        raise ConfigError("drift vanishes along the chosen axis")
    dx = 1.0 / n_cells
    target = min(cfl * epsilon * dx / bmax, splitting_quality * epsilon**2)
    n_steps = max(1, int(np.ceil(T / target)))
    return T / max(1, round(n_steps / dt_scale))


def _check_rescaled(rho0, epsilon, n_cells):
    if epsilon <= 0:
        raise ConfigError("epsilon must be positive")
    rho0 = np.asarray(rho0, dtype=float)
    if rho0.ndim != 1 or rho0.size != n_cells:
        raise ConfigError("rho0 must be a 1d profile on the n_cells grid")
    return rho0


def rescaled_run(model, rho0, epsilon, T, n_cells=64, dt=None,
                 transport="spectral", drift_axis=0):
    """Run the rescaled kinetic equation from local equilibrium rho0 (x) 1."""
    rho0 = _check_rescaled(rho0, epsilon, n_cells)
    if dt is None:
        dt = auto_dt(model, epsilon, T, n_cells, drift_axis=drift_axis)
    return simulate(
        model, rho0, T, dt, epsilon=epsilon, transport=transport,
        drift_axis=drift_axis,
    )


@dataclass(frozen=True)
class SweepRow:
    epsilon: float
    l1: float
    l2: float
    weak_j_err: float
    bonj_constant: float
    runtime_s: float


@dataclass(frozen=True)
class DiffusiveSweepReport:
    rows: tuple
    d_axis: float
    d_matrix: np.ndarray
    n_cells: int
    T: float
    transport: str

    def errors_decreasing(self):
        l1 = [r.l1 for r in self.rows]
        return all(a > b for a, b in zip(l1, l1[1:]))


def _trapezoid(n_t, dt):
    """Trapezoid weights of n_t equally spaced times dt apart."""
    tw = np.full(n_t, dt)
    tw[0] = tw[-1] = 0.5 * dt
    return tw


def _bonj_probe(pairings, dx, dt):
    """max over dyadic (s,t) windows of |J_{s,t}(w)| / sqrt(t-s).

    Row k of ``pairings`` is j_path @ w_k, the sum of j(t_n, x) w_k(x) over
    the cells at each time.  On each level the windows tile the path from
    t = 0, so a window's trapezoid integral is a sum of consecutive
    trapezoid pair terms.
    """
    pair = 0.5 * dt * (pairings[:, :-1] + pairings[:, 1:])
    best = 0.0
    n_pairs = span = pair.shape[1]
    while span >= 1:
        n_win = n_pairs // span
        windows = pair[:, : n_win * span].reshape(len(pair), n_win, span).sum(axis=2)
        best = max(best, float(np.max(np.abs(dx * windows))) / np.sqrt(span * dt))
        span //= 2
    return best


def sweep(model, rho0, eps_list, T, n_cells=64, transport="spectral",
          drift_axis=0, dt_scale=1.0, poisson_tol=1e-12):
    """Compare the rescaled kinetic flow against the heat reference.

    ``dt_scale`` < 1 refines every auto-selected time step by that factor
    (used by the discretization-convergence check).  Each run is stepped on
    the modes of f: only its current path j(t, x), the modes of that path
    and its last density are kept, never its frames.  Every run's paths
    are checked against physical memory before the first one starts.
    """
    eps_list = sorted((float(e) for e in eps_list), reverse=True)
    rho0 = np.asarray(rho0, dtype=float)
    if not 0 <= drift_axis < model.drift.shape[1]:
        raise ConfigError("drift_axis out of range for this model")
    dts = []
    for eps in eps_list:
        _check_rescaled(rho0, eps, n_cells)
        dt = auto_dt(model, eps, T, n_cells, drift_axis=drift_axis, dt_scale=dt_scale)
        # per time: the modes of j (n_cells // 2 + 1 complex), j itself and
        # the heat current, whose FFTs peak at about 7 floats per cell
        require_memory((round(T / dt) + 1, 2 * (n_cells // 2 + 1) + 8 * n_cells),
                       f"the current paths of the eps={eps:g} run")
        dts.append(dt)

    sol = poisson_solve(model, tol=poisson_tol)
    D, _ = diffusion_matrix(model, sol)
    d_axis = float(D[drift_axis, drift_axis])

    flow = HeatFlow(rho0, np.array([[d_axis]]))
    rho_heat_T = flow.rho_at(T)
    bank = default_test_bank(n_cells)
    dx = 1.0 / n_cells

    rows = []
    for eps, dt in zip(eps_list, dts):
        t0 = time.perf_counter()
        j_path, rho_T = mode_marginals(model, rho0, T, dt, epsilon=eps,
                                       transport=transport, drift_axis=drift_axis)
        n_steps = len(j_path) - 1
        l1 = float(dx * np.sum(np.abs(rho_T - rho_heat_T)))
        l2 = float(np.sqrt(dx * np.sum((rho_T - rho_heat_T) ** 2)))

        # J(w) = int_0^T dt int j(t,x) w(x) dx, kinetic and heat, on the same
        # trapezoid time quadrature
        times = dt * np.arange(n_steps + 1)
        j_heat = heat_current(flow, times)[:, :, 0]
        tw = _trapezoid(times.size, dt)
        pairings = np.stack([j_path @ w for w in bank.values()])
        weak_err = max(abs(float(dx * tw @ p) - float(tw @ (dx * (j_heat @ w))))
                       for p, w in zip(pairings, bank.values()))
        bonj = _bonj_probe(pairings, dx, dt)
        rows.append(
            SweepRow(eps, l1, l2, weak_err, bonj, time.perf_counter() - t0)
        )
    return DiffusiveSweepReport(
        rows=tuple(rows),
        d_axis=d_axis,
        d_matrix=D,
        n_cells=n_cells,
        T=T,
        transport=transport,
    )


def write_sweep_csv(report, path):
    """Deterministic CSV: timing lives in the manifest, not here."""
    lines = ["# schema=diffusive-sweep-v1", "epsilon,l1,l2,weak_j_err"]
    for r in report.rows:
        lines.append(
            f"{r.epsilon:.12g},{r.l1:.12g},{r.l2:.12g},{r.weak_j_err:.12g}"
        )
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def config_hash(config):
    blob = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def write_manifest(report, config, path):
    payload = {
        "config_hash": config_hash(config),
        "config": config,
        "d_axis": report.d_axis,
        "d_matrix": report.d_matrix.tolist(),
        "n_cells": report.n_cells,
        "T": report.T,
        "transport": report.transport,
        "rows": [{k: v for k, v in vars(r).items() if k != "runtime_s"}
                 for r in report.rows],
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=1)
