"""Diffusive-rescaling sweep: kinetic runs at shrinking epsilon vs heat flow.

Under the rescaling (drift b/eps, collision L/eps^2) the position marginal
rho_eps of the kinetic solution approaches the heat flow with the matrix
D = pi(b (x) (-L)^{-1} b).  The sweep runs the kinetic solver for a list of
epsilon values on the n = rho0.size equal cells of the periodic unit
interval, compares rho_eps(T) with the exact spectral heat solution in
L1/L2, and the time-integrated currents weakly with a fixed test bank.
The interval lies along the drift's first axis, as in :mod:`linboltz.kinetic`,
so the heat flow on it has the diffusivity ``d_axis`` = D[0, 0].

Each run is stepped on the rfft modes of f by
:func:`linboltz.kinetic.mode_marginals`: the Strang steps of the frames of
:func:`linboltz.kinetic.evolve`, one real matmul each and no FFT.  The sweep
holds the rfft modes of the current path j(t, x) and the final density
rho(T, x), never j(t, x) itself or the (n_t, n_x, n_v) frames.  It pairs
those modes with the test fields through the half-spectrum Parseval
identity, and the heat current's closed-form modes
(:meth:`linboltz.heat.HeatFlow.current_modes`) through the same identity, as
one (n_t, n_x // 2 + 1) decay matrix times one coefficient per mode and field.
"""

import hashlib
import json
import math
import time
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, require_memory
from .heat import HeatFlow
from .kinetic import _check_scheme, _step_count, mode_marginals, simulate
from .velocity import diffusion_matrix, poisson_solve

SPLITTING_QUALITY = 0.03  # _auto_dt's Strang cap, dt <= SPLITTING_QUALITY * eps^2


def default_test_bank(n_cells):
    """Fixed smooth test fields w(x) with |w|_inf = 1 on the cell centers."""
    x = (np.arange(n_cells) + 0.5) / n_cells
    return {
        "one": np.ones(n_cells),
        "cos1": np.cos(2.0 * np.pi * x),
        "sin1": np.sin(2.0 * np.pi * x),
        "cos2": np.cos(4.0 * np.pi * x),
    }


def _parseval_weights(fields, n_cells):
    """The rfft modes of ``fields`` (rows), weighted so that a real field j
    with rfft modes J pairs with row w as sum_x j(x) w(x) = sum_k Re(J_k conj W_k).

    This is the half-spectrum Parseval identity: the weight is 1/n at the
    DC mode and at the Nyquist mode of an even grid and 2/n at every other
    mode.  At those two modes W is real, so only the real part of J counts,
    as in ``irfft``.
    """
    w_hat = np.fft.rfft(np.asarray(fields, dtype=float), axis=1)
    scale = np.full(w_hat.shape[1], 2.0 / n_cells)
    scale[[0, -1] if n_cells % 2 == 0 else 0] = 1.0 / n_cells
    return w_hat * scale


def _current_pairings(j_modes, weights):
    """sum_x j(t, x) w(x) for each row w of :func:`_parseval_weights` (rows)
    and each time t (columns), from the rfft modes ``j_modes`` of j(t, .)."""
    return weights.view(float) @ j_modes.view(float).T


def _heat_current_pairings(flow, times, weights):
    """sum_x j(t, x) w(x) of the heat current of the 1-d ``flow``, as
    :func:`_current_pairings`: the (n_t, n_modes) decay matrix times one
    coefficient per mode and field."""
    modes, rates = flow.current_modes()
    decay = np.multiply.outer(np.asarray(times, dtype=float), -rates)
    np.exp(decay, out=decay)
    return (weights.conj() * modes).real @ decay.T


def _auto_dt(epsilon, T, dt_scale=1.0):
    """Largest dt of the form T/n with dt <= SPLITTING_QUALITY * eps^2.

    The cap fixes dt^2/eps^4, the size of the Strang splitting error, at
    every eps: that error does not shrink with eps, while the physical error
    falls as eps^2 (on Lorentz-64, 64 cells, T = 0.5, it is 92% of the L1
    error at eps = 0.0125).  Spectral transport is stable at any dt.
    ``dt_scale`` then multiplies that step, rounded to the nearest T/n.  A
    step count that overflows a float is a ConfigError.
    """
    target = SPLITTING_QUALITY * epsilon**2
    try:
        n_steps = round(max(1, math.ceil(float(T) / float(target))) / dt_scale)
    except OverflowError:  # a step count past the largest float
        raise ConfigError(f"epsilon = {epsilon!r} and dt_scale = {dt_scale!r} make more "
                          f"steps of T = {T!r} than a float counts") from None
    return T / max(1, n_steps)


def _check_rescaled(rho0, eps_list, T):
    """rho0 as a 1d array, once every epsilon makes a scheme with steps of at
    most T, so that :func:`_auto_dt` may divide by it."""
    rho0 = np.asarray(rho0, dtype=float)
    if rho0.ndim != 1:
        raise ConfigError("rho0 must be a 1d profile, one value per cell")
    for eps in eps_list:
        _check_scheme(T, eps)
    return rho0


def rescaled_run(model, rho0, epsilon, T, dt=None):
    """Run the rescaled kinetic equation, spectral transport, from rho0 (x) 1."""
    rho0 = _check_rescaled(rho0, [epsilon], T)
    if dt is None:
        dt = _auto_dt(epsilon, T)
    return simulate(model, rho0, T, dt, epsilon=epsilon)


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


def sweep(model, rho0, eps_list, T, dt_scale=1.0):
    """Compare the rescaled kinetic flow against the heat reference on rho0's grid.

    ``dt_scale`` < 1 refines every auto-selected time step by that factor
    (used by the discretization-convergence check).  Each run is stepped on
    the modes of f with spectral transport: only the modes of its current
    path j(t, x) and its last density are kept, never its frames.  The
    drift's first column, every run's scheme and its paths against physical
    memory are checked before the first one starts.
    """
    eps_list = sorted((float(e) for e in eps_list), reverse=True)
    rho0 = _check_rescaled(rho0, eps_list, T)
    if not np.any(model.drift[:, 0]):
        raise ConfigError("the drift's first column vanishes")
    n_cells = rho0.size
    bank = default_test_bank(n_cells)
    dts = []
    for eps in eps_list:
        dt = _auto_dt(eps, T, dt_scale)
        _check_scheme(dt, eps, model, (n_cells, model.n_nodes))
        # per time: the modes of j (n_cells // 2 + 1 complex), which the heat
        # decay matrix (n_cells // 2 + 1 floats) replaces, and per test field
        # the pairings and _bonj_probe's window sums (at most 5 floats)
        require_memory((_step_count(T, dt) + 1, 2 * (n_cells // 2 + 1) + 5 * len(bank)),
                       f"the current paths of the eps={eps:g} run")
        dts.append(dt)

    D, _ = diffusion_matrix(model, poisson_solve(model))
    d_axis = float(D[0, 0])

    flow = HeatFlow(rho0, d_axis)
    rho_heat_T = flow.rho_at(T)
    weights = _parseval_weights(list(bank.values()), n_cells)
    dx = 1.0 / n_cells

    rows = []
    for eps, dt in zip(eps_list, dts):
        t0 = time.perf_counter()
        j_modes, rho_T = mode_marginals(model, rho0, T, dt, epsilon=eps)
        l1 = float(dx * np.sum(np.abs(rho_T - rho_heat_T)))
        l2 = float(np.sqrt(dx * np.sum((rho_T - rho_heat_T) ** 2)))

        # J(w) = int_0^T dt int j(t,x) w(x) dx, kinetic and heat, on the same
        # trapezoid time quadrature
        times = dt * np.arange(len(j_modes))
        pairings = _current_pairings(j_modes, weights)
        del j_modes
        bonj = _bonj_probe(pairings, dx, dt)
        heat = _heat_current_pairings(flow, times, weights)
        tw = _trapezoid(times.size, dt)
        weak_err = max(abs(float(dx * tw @ p) - float(tw @ (dx * h)))
                       for p, h in zip(pairings, heat))
        rows.append(
            SweepRow(eps, l1, l2, weak_err, bonj, time.perf_counter() - t0)
        )
    return DiffusiveSweepReport(
        rows=tuple(rows),
        d_axis=d_axis,
        d_matrix=D,
        n_cells=n_cells,
        T=T,
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
        "transport": "spectral",
        "rows": [{k: v for k, v in vars(r).items() if k != "runtime_s"}
                 for r in report.rows],
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=1)
