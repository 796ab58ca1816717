"""Command-line entry point.

Subcommands:

  model-info      build a model and print diagnostics
  diffusion       Poisson solve + diffusion matrix
  kinetic-run     integrate the kinetic equation and certify the trajectory
  certify         re-certify a previously saved trajectory
  diffusive-sweep epsilon sweep against the heat reference
  mc-estimate     Monte Carlo estimate of D

Exit codes: 0 success, 2 configuration error, 3 certification failure,
4 convergence failure.  Stdout is human-readable; files written to --out
are machine-readable and deterministic for a fixed (config, seed).
"""

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from . import models as models_mod
from . import velocity
from .diffusive import config_hash, sweep, write_manifest, write_sweep_csv
from .errors import (
    CertificationError,
    ConfigError,
    ConvergenceError,
    LinboltzError,
)
from .kinetic import (
    edi_certificate,
    load_trajectory,
    save_trajectory,
    simulate,
    write_certificate_csv,
)
from .montecarlo import McConfig, estimate_D, write_mc_csv, write_mc_json

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CERTIFICATION = 3
EXIT_CONVERGENCE = 4

_MODEL_SPECS = {
    "lorentz": models_mod.LorentzSpec,
    "rayleigh": models_mod.RayleighSpec,
    "phonon": models_mod.PhononSpec,
}

_SOLVER_KEYS = {"n_cells", "dt", "T", "epsilon", "eps_list", "transport",
                "drift_axis", "rho0_amplitude", "rho0_mode", "dt_scale"}
_FUNCTIONAL_KEYS = {"delta", "cap", "cert_tol", "poisson_tol"}
_OUTPUT_KEYS = {"directory", "formats"}
_MC_KEYS = {"n_paths", "horizon", "n_batches"}
_TOP_KEYS = {"model", "solver", "functional", "output", "mc", "seed"}


def _reject_unknown(block, allowed, where):
    unknown = set(block) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")


def load_config(path):
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    _reject_unknown(cfg, _TOP_KEYS, "config")
    for key, allowed in (
        ("solver", _SOLVER_KEYS),
        ("functional", _FUNCTIONAL_KEYS),
        ("output", _OUTPUT_KEYS),
        ("mc", _MC_KEYS),
    ):
        if key in cfg:
            if not isinstance(cfg[key], dict):
                raise ConfigError(f"'{key}' block must be an object")
            _reject_unknown(cfg[key], allowed, f"'{key}' block")
    return cfg


def build_model_from_config(cfg):
    block = cfg.get("model")
    if not isinstance(block, dict) or "kind" not in block:
        raise ConfigError("config needs a 'model' block with a 'kind'")
    kind = block["kind"]
    if kind not in _MODEL_SPECS:
        raise ConfigError(f"unknown model kind '{kind}'")
    spec_cls = _MODEL_SPECS[kind]
    params = {k: v for k, v in block.items() if k != "kind"}
    fields = {f.name for f in dataclasses.fields(spec_cls)}
    _reject_unknown(params, fields, f"model block ({kind})")
    try:
        spec = spec_cls(**params)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc
    return models_mod.build_model(kind, **params), spec


def _rho0(cfg, n_cells):
    solver = cfg.get("solver", {})
    amp = float(solver.get("rho0_amplitude", 0.5))
    mode = int(solver.get("rho0_mode", 1))
    x = (np.arange(n_cells) + 0.5) / n_cells
    return 1.0 + amp * np.cos(2.0 * np.pi * mode * x)


def _outdir(args):
    out = args.out or "."
    os.makedirs(out, exist_ok=True)
    return out


def cmd_model_info(args):
    cfg = load_config(args.config)
    model, _ = build_model_from_config(cfg)
    lam2, gap, c0 = velocity.spectral_gap_probe(model)
    centering = float(np.max(np.abs(model.weights @ model.drift)))
    print(f"model: {model.name}")
    print(f"nodes: {model.n_nodes}")
    print(f"lambda range: [{model.rates.min():.6g}, {model.rates.max():.6g}]")
    print(f"pi(b) residual: {centering:.3e}")
    print(f"spectral gap probe: lambda2={lam2:.6g} gap={gap:.6g} c0~{c0:.6g}")
    for key, val in sorted(model.meta.items()):
        if not isinstance(val, (list, dict)):
            print(f"meta {key}: {val}")
    out = _outdir(args)
    path = os.path.join(out, f"model_{model.name}.json")
    velocity.to_file(model, path)
    print(f"serialized model: {path}")
    return EXIT_OK


def cmd_diffusion(args):
    cfg = load_config(args.config)
    model, _ = build_model_from_config(cfg)
    tol = float(cfg.get("functional", {}).get("poisson_tol", 1e-12))
    sol = velocity.poisson_solve(model, tol=tol)
    D, asym = velocity.diffusion_matrix(model, sol)
    print(f"model: {model.name}")
    print(f"poisson iterations: {sol.iterations}, residual {sol.residual:.3e}")
    print("D =")
    for row in D:
        print("  " + "  ".join(f"{v: .10f}" for v in row))
    out = _outdir(args)
    path = os.path.join(out, f"diffusion_{model.name}.json")
    with open(path, "w") as fh:
        json.dump(
            {
                "D": D.tolist(),
                "asymmetry": asym,
                "residual": sol.residual,
                "iterations": sol.iterations,
                "config_hash": config_hash(cfg),
            },
            fh, sort_keys=True, indent=1,
        )
    print(f"wrote {path}")
    return EXIT_OK


def _solver_params(cfg):
    solver = cfg.get("solver", {})
    n_cells = int(solver.get("n_cells", 64))
    T = float(solver.get("T", 0.1))
    dt = solver.get("dt")
    epsilon = float(solver.get("epsilon", 1.0))
    transport = solver.get("transport", "upwind")
    drift_axis = int(solver.get("drift_axis", 0))
    return n_cells, T, dt, epsilon, transport, drift_axis


def cmd_kinetic_run(args):
    cfg = load_config(args.config)
    model, _ = build_model_from_config(cfg)
    n_cells, T, dt, epsilon, transport, drift_axis = _solver_params(cfg)
    if dt is None:
        raise ConfigError("kinetic-run needs solver.dt")
    rho0 = _rho0(cfg, n_cells)
    traj = simulate(
        model, rho0, T, float(dt), epsilon=epsilon, transport=transport,
        drift_axis=drift_axis,
    )
    out = _outdir(args)
    traj_dir = os.path.join(out, "trajectory")
    save_trajectory(traj, traj_dir)
    cert_tol = cfg.get("functional", {}).get("cert_tol")
    cert = edi_certificate(
        traj, model, tol=float(cert_tol) if cert_tol is not None else None
    )
    _emit_certificate(traj, model, cert, out, cfg)
    print(f"trajectory: {traj_dir}")
    print(f"gradient-flow residual: {cert.gradient_flow_residual:.3e}")
    print(f"phi residual: {cert.phi_residual:.3e}")
    return EXIT_OK


def _emit_certificate(traj, model, cert, out, cfg):
    with open(os.path.join(out, "certificate.json"), "w") as fh:
        payload = cert.as_dict()
        payload["config_hash"] = config_hash(cfg)
        json.dump(payload, fh, sort_keys=True, indent=1)
    write_certificate_csv(traj, model, cert, os.path.join(out, "certificate.csv"))


def cmd_certify(args):
    cfg = load_config(args.config)
    model, _ = build_model_from_config(cfg)
    traj = load_trajectory(args.trajectory)
    cert_tol = cfg.get("functional", {}).get("cert_tol")
    cert = edi_certificate(
        traj, model, tol=float(cert_tol) if cert_tol is not None else None
    )
    out = _outdir(args)
    _emit_certificate(traj, model, cert, out, cfg)
    print(f"gradient-flow residual: {cert.gradient_flow_residual:.3e}")
    print(f"phi residual: {cert.phi_residual:.3e}")
    return EXIT_OK


def cmd_diffusive_sweep(args):
    cfg = load_config(args.config)
    model, _ = build_model_from_config(cfg)
    solver = cfg.get("solver", {})
    eps_list = solver.get("eps_list")
    if not eps_list:
        raise ConfigError("diffusive-sweep needs solver.eps_list")
    n_cells = int(solver.get("n_cells", 64))
    T = float(solver.get("T", 0.5))
    transport = solver.get("transport", "spectral")
    drift_axis = int(solver.get("drift_axis", 0))
    dt_scale = float(solver.get("dt_scale", 1.0))
    rho0 = _rho0(cfg, n_cells)
    tol = float(cfg.get("functional", {}).get("poisson_tol", 1e-12))
    report = sweep(
        model, rho0, eps_list, T, n_cells=n_cells, transport=transport,
        drift_axis=drift_axis, dt_scale=dt_scale, poisson_tol=tol,
    )
    out = _outdir(args)
    write_sweep_csv(report, os.path.join(out, "sweep.csv"))
    write_manifest(report, cfg, os.path.join(out, "sweep_manifest.json"))
    for row in report.rows:
        print(
            f"eps={row.epsilon:g}  l1={row.l1:.4e}  l2={row.l2:.4e}  "
            f"weak_j={row.weak_j_err:.4e}  ({row.runtime_s:.1f}s)"
        )
    print(f"errors decreasing: {report.errors_decreasing()}")
    return EXIT_OK


def cmd_mc_estimate(args):
    cfg = load_config(args.config)
    model, _ = build_model_from_config(cfg)
    mc = cfg.get("mc", {})
    seed = args.seed if args.seed is not None else int(cfg.get("seed", 0))
    config = McConfig(
        n_paths=int(mc.get("n_paths", 100000)),
        horizon=float(mc.get("horizon", 50.0)),
        seed=seed,
        n_batches=int(mc.get("n_batches", 32)),
    )
    est = estimate_D(model, config)
    out = _outdir(args)
    write_mc_json(est, config, os.path.join(out, "mc_estimate.json"))
    write_mc_csv(est, os.path.join(out, "mc_batches.csv"))
    print("D_hat =")
    for row in est.d_hat:
        print("  " + "  ".join(f"{v: .6f}" for v in row))
    print("stderr =")
    for row in est.stderr:
        print("  " + "  ".join(f"{v: .2e}" for v in row))
    return EXIT_OK


def make_parser():
    parser = argparse.ArgumentParser(
        prog="linboltz",
        description="kinetic solvers with entropy-dissipation certification",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        "model-info": cmd_model_info,
        "diffusion": cmd_diffusion,
        "kinetic-run": cmd_kinetic_run,
        "diffusive-sweep": cmd_diffusive_sweep,
        "mc-estimate": cmd_mc_estimate,
        "certify": cmd_certify,
    }
    for name, func in commands.items():
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out", default=None)
        p.add_argument("--seed", type=int, default=None)
        if name == "certify":
            p.add_argument("trajectory")
        p.set_defaults(func=func)
    return parser


def main(argv=None):
    args = make_parser().parse_args(argv)
    try:
        return args.func(args)
    except CertificationError as exc:
        _emit_error(args, exc, EXIT_CERTIFICATION)
        return EXIT_CERTIFICATION
    except ConvergenceError as exc:
        _emit_error(args, exc, EXIT_CONVERGENCE)
        return EXIT_CONVERGENCE
    except (ConfigError, LinboltzError) as exc:
        _emit_error(args, exc, EXIT_CONFIG)
        return EXIT_CONFIG


def _emit_error(args, exc, code):
    diag = {"error": type(exc).__name__, "message": str(exc), "exit_code": code}
    if isinstance(exc, CertificationError) and exc.certificate is not None:
        diag["certificate"] = exc.certificate.as_dict()
    if isinstance(exc, ConvergenceError):
        diag["residual"] = exc.residual
        diag["iterations"] = exc.iterations
    print(f"error: {exc}", file=sys.stderr)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "error.json"), "w") as fh:
            json.dump(diag, fh, sort_keys=True, indent=1)


if __name__ == "__main__":
    sys.exit(main())
