"""The two workloads: generated configs, job sequences and output checks.

Every job is one CLI subcommand run in-process through ``linboltz.cli.main``.
A job fails on a nonzero exit, an exception, or a failed output check; a
failure is counted, it does not stop the run.

Why these workloads:

- ``certify``: ``kinetic-run`` then ``certify`` on the saved trajectory of a
  Rayleigh-2d model.  The certificate kernels do nearly all the work and the
  stepper almost none; pairing the trajectory writer with its reader shows
  work moved from one subcommand into the other.
- ``diffusion``: D three ways, then the diffusive limit; no certificate
  work at all.  ``model-info`` and ``diffusion`` on three models, each D
  checked against the dense Poisson solve, a Monte Carlo estimate on
  Lorentz-64, and ``diffusive-sweep`` on Lorentz-64 (the diffusive-limit
  configuration), where the stepper and the heat reference dominate and the
  eps = 0.05 run holds a ~218 MB trajectory, so memory changes show.  The
  Monte Carlo job stays on Lorentz: phonon rates go down to ~0.01 and
  Rayleigh rates are unbounded, so at affordable horizons both show
  finite-horizon bias rather than a defect.

D and the sweep share one workload rather than two so that each run can
measure longer within the same total benchmark time: run-to-run spread,
not coverage, is what limits this benchmark on a small shared machine.
"""

import glob
import json
import os
import random
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from linboltz import models, velocity

CERT_TOL = 1e-4
LORENTZ_D = 3.0 / 16.0
MC_SIGMAS = 6.0  # |t| > 6 with 31 dof has probability ~1e-6 per entry
MC_REL_DIAG = 0.05

WORKLOADS = ("certify", "diffusion")

DIFFUSION_MODELS = {
    "lorentz256": {"kind": "lorentz", "n_nodes": 256},
    "rayleigh768": {"kind": "rayleigh", "dim": 2, "n_radial": 24, "n_angular": 32},
    "phonon256": {"kind": "phonon", "dim": 2, "n_per_axis": 16},
}
MC_MODEL = {"kind": "lorentz", "n_nodes": 64}


@dataclass(frozen=True)
class Inputs:
    """Everything a run derives from its seed; the work does not depend on it."""

    seed: int
    rho0_amplitude: float
    mc_seed: int


def inputs_for(seed):
    rng = random.Random(seed)
    return Inputs(seed, 0.3 + 0.3 * rng.random(), rng.randrange(2**31))


def make_configs(workload, inputs):
    """Config name -> CLI config dict for one workload."""
    if workload == "certify":
        return {"certify": {
            "model": {"kind": "rayleigh", "dim": 2, "n_radial": 10, "n_angular": 12},
            "solver": {"n_cells": 64, "dt": 2e-3, "T": 0.04,
                       "transport": "spectral",
                       "rho0_amplitude": inputs.rho0_amplitude, "rho0_mode": 1},
            "functional": {"cert_tol": CERT_TOL},
        }}
    if workload == "diffusion":
        cfgs = {name: {"model": dict(model)} for name, model in DIFFUSION_MODELS.items()}
        cfgs["mc"] = {"model": dict(MC_MODEL),
                      "mc": {"n_paths": 100000, "horizon": 50.0}}
        cfgs["sweep"] = {
            "model": {"kind": "lorentz", "n_nodes": 64},
            "solver": {"n_cells": 64, "T": 0.5, "transport": "spectral",
                       "eps_list": [0.4, 0.2, 0.1, 0.05],
                       "rho0_amplitude": inputs.rho0_amplitude, "rho0_mode": 1},
        }
        return cfgs
    raise ValueError(f"unknown workload '{workload}'")


def write_configs(configs, directory):
    """Write each config as ``<name>.json``; returns name -> path."""
    os.makedirs(directory, exist_ok=True)
    paths = {}
    for name, cfg in configs.items():
        paths[name] = os.path.join(directory, f"{name}.json")
        with open(paths[name], "w") as fh:
            json.dump(cfg, fh, sort_keys=True, indent=1)
    return paths


@dataclass(frozen=True)
class Job:
    command: str
    argv: list
    check: Callable[[], list]  # returns the problems found, empty if none


def jobs_for(workload, cfg_paths, out, inputs):
    """The job sequence of one workload, writing under the directory ``out``."""
    if workload == "certify":
        run, recert = os.path.join(out, "run"), os.path.join(out, "certify")
        cfg = cfg_paths["certify"]
        return [
            Job("kinetic-run", ["kinetic-run", "--config", cfg, "--out", run],
                lambda: check_certificate(run)),
            Job("certify", ["certify", os.path.join(run, "trajectory"),
                            "--config", cfg, "--out", recert],
                lambda: check_certificate(recert, reference=run)),
        ]
    if workload == "diffusion":
        jobs = []
        for name, model in DIFFUSION_MODELS.items():
            info, diff = os.path.join(out, "info_" + name), os.path.join(out, name)
            cfg = cfg_paths[name]
            jobs.append(Job("model-info", ["model-info", "--config", cfg, "--out", info],
                            lambda info=info: check_model_info(info)))
            jobs.append(Job("diffusion", ["diffusion", "--config", cfg, "--out", diff],
                            lambda diff=diff, model=model: check_diffusion(diff, model)))
        mc = os.path.join(out, "mc")
        jobs.append(Job("mc-estimate",
                        ["mc-estimate", "--config", cfg_paths["mc"], "--out", mc,
                         "--seed", str(inputs.mc_seed)],
                        lambda: check_mc(mc, MC_MODEL)))
        sw = os.path.join(out, "sweep")
        jobs.append(Job("diffusive-sweep",
                        ["diffusive-sweep", "--config", cfg_paths["sweep"], "--out", sw],
                        lambda: check_sweep(sw)))
        return jobs
    raise ValueError(f"unknown workload '{workload}'")


# --- output checks: each returns a list of problems, empty when the job passed


def _load(path):
    with open(path) as fh:
        return json.load(fh)


def _build(model_block):
    params = {k: v for k, v in model_block.items() if k != "kind"}
    return models.build_model(model_block["kind"], **params)


def check_certificate(out, reference=None):
    cert = _load(os.path.join(out, "certificate.json"))
    problems = []
    if not cert["balance_residual"] <= CERT_TOL:
        problems.append(f"balance_residual {cert['balance_residual']!r} > {CERT_TOL}")
    if cert["phi_residual"] != 0.0:
        problems.append(f"phi_residual {cert['phi_residual']!r} != 0")
    if reference is not None:
        ref = _load(os.path.join(reference, "certificate.json"))
        if ref != cert:
            problems.append("certificate differs from the kinetic-run certificate")
    return problems


def check_sweep(out):
    manifest = _load(os.path.join(out, "sweep_manifest.json"))
    l1 = [row["l1"] for row in manifest["rows"]]
    problems = []
    if not all(a > b for a, b in zip(l1, l1[1:])):
        problems.append(f"L1 errors not strictly decreasing: {l1}")
    if not l1[-1] < 0.05:
        problems.append(f"last L1 error {l1[-1]!r} >= 0.05")
    if not abs(manifest["d_axis"] - LORENTZ_D) <= 1e-6:
        problems.append(f"d_axis {manifest['d_axis']!r} is not 3/16")
    return problems


def check_model_info(out):
    files = glob.glob(os.path.join(out, "model_*.json"))
    return [] if len(files) == 1 else [f"expected one model file, found {files}"]


def check_diffusion(out, model_block):
    """D from the Neumann iteration against D from the dense solve."""
    (path,) = glob.glob(os.path.join(out, "diffusion_*.json"))
    D = np.array(_load(path)["D"])
    model = _build(model_block)
    D_dense, _ = velocity.diffusion_matrix(model, velocity.poisson_solve_dense(model))
    problems = []
    gap = float(np.max(np.abs(D - D_dense)))
    if not gap < 1e-11:
        problems.append(f"Neumann D differs from dense D by {gap:.3e}")
    if model_block["kind"] == "lorentz":
        off = float(np.max(np.abs(D - LORENTZ_D * np.eye(D.shape[0]))))
        if not off <= 1e-6:
            problems.append(f"Lorentz D differs from (3/16) I by {off:.3e}")
    return problems


def finite_horizon_mean(model, horizon):
    """E[X_T (x) X_T] / (2T) for the stationary velocity chain.

    This is the exact mean of the Monte Carlo estimate; it falls short of D
    by O(1/T), about 2 standard errors at the benchmark's horizon.  With
    W^(1/2) L W^(-1/2) = -Q diag(mu) Q^T and c = Q^T W^(1/2) b,
    C(t) = sum_k c_k c_k^T exp(-mu_k t) and
    E[X_T X_T^T] / (2T) = sum_k c_k c_k^T (1/mu_k - (1 - exp(-mu_k T)) / (mu_k^2 T)).
    """
    sw = np.sqrt(model.weights)
    sym = sw[:, None] * model.sigma * sw[None, :] - np.diag(model.rates)
    mu, Q = np.linalg.eigh(-sym)
    c = Q.T @ (sw[:, None] * model.drift)
    keep = mu > 1e-12 * mu.max()  # the constant mode, where c = pi(b) = 0
    mu, c = mu[keep], c[keep]
    gain = 1.0 / mu - (1.0 - np.exp(-mu * horizon)) / (mu**2 * horizon)
    return (c * gain[:, None]).T @ c


def check_mc(out, model_block):
    """The estimate against its exact finite-horizon mean, and D on the diagonal."""
    est = _load(os.path.join(out, "mc_estimate.json"))
    d_hat, stderr = np.array(est["d_hat"]), np.array(est["stderr"])
    model = _build(model_block)
    problems = []
    z = np.abs(d_hat - finite_horizon_mean(model, est["horizon"])) / stderr
    if not np.all(z <= MC_SIGMAS):
        problems.append(f"MC estimate off by {float(np.max(z)):.2f} standard errors")
    rel = float(np.max(np.abs(np.diag(d_hat) - LORENTZ_D) / LORENTZ_D))
    if not rel < MC_REL_DIAG:
        problems.append(f"MC diagonal off by {rel:.2%}")
    return problems


def poisson_iterations(out):
    """Total Neumann iterations reported by the ``diffusion`` jobs under ``out``."""
    files = glob.glob(os.path.join(out, "*", "diffusion_*.json"))
    return sum(_load(p)["iterations"] for p in files)
