"""Command-line entry point.

Subcommands:

  model-info      build a model and print diagnostics
  diffusion       Poisson solve + diffusion matrix
  kinetic-run     integrate the kinetic equation and certify the trajectory
  certify         re-certify a previously saved trajectory
  diffusive-sweep epsilon sweep against the heat reference
  mc-estimate     Monte Carlo estimate of D

Each reads one JSON config, typed by :class:`Config` (see ``_typed``).  Runs move
along the drift's first axis; ``diffusive-sweep``'s heat flow has D[0, 0].

Exit codes: 0 success; 2 configuration error (an unknown key, a ``solver`` key
that the subcommand refuses: ``eps_list`` or ``dt_scale`` in ``kinetic-run``,
``dt`` or ``epsilon`` in ``diffusive-sweep``; a transport other than ``spectral``, in
a config or a saved trajectory; a ``rho0_mode`` the grid aliases, 2 |m| >= n_cells;
a value of the wrong type or range, a file that cannot
be read or written, a model that fails its numerical checks, a ``T`` that holds no step
of ``dt``, a scheme that ``kinetic._check_scheme`` refuses, a saved trajectory that is
malformed, names no model fingerprint or ends past the largest float, one that the
certificate functions refuse for the config's model in ``kinetic._check_run`` (another
model's fingerprint or velocity nodes, or frames that one step of their ``dt`` and
``epsilon`` does not reproduce), a jump chain that is not irreducible on a route to D,
a model kernel, frame, trajectory, certificate working set, sweep current path or
Monte Carlo batch larger than physical memory, or any other ``MemoryError``); 3
certification failure; 4 convergence failure (also numpy's ``LinAlgError``).  A nonzero exit writes
``error.json`` to --out if it can (not to an --out that names a file).  Stdout is
human-readable; files written to --out are machine-readable and deterministic for a
fixed (config, seed).  The README's table of outputs lists them; ``model-info`` writes
the model as a JSON header ``model_<name>.json`` and its arrays as ``model_<name>.npz``.
"""

import argparse
import contextlib
import dataclasses
import json
import os
import sys
import typing
from dataclasses import dataclass, field

import numpy as np

from . import models as models_mod
from . import velocity
from .diffusive import config_hash, sweep, write_manifest, write_sweep_csv
from .errors import (CertificationError, ConfigError, ConvergenceError, LinboltzError,
                     require_memory)
from .kinetic import (_check_transport, _step_count, edi_certificate, load_trajectory,
                      require_certificate_memory, save_trajectory, simulate,
                      write_certificate_csv)
from .montecarlo import McConfig, estimate_D, write_mc_csv, write_mc_json

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CERTIFICATION = 3
EXIT_CONVERGENCE = 4


@dataclass(frozen=True)
class SolverConfig:
    """The ``solver`` block, with the defaults of ``kinetic-run``."""

    n_cells: int = 64
    dt: float | None = None
    T: float = 0.1
    epsilon: float = 1.0
    eps_list: list[float] | None = None
    transport: str = "spectral"
    rho0_amplitude: float = 0.5
    rho0_mode: int = 1
    dt_scale: float = 1.0

    def __post_init__(self):
        positive = (self.T, self.epsilon, self.dt_scale, *(self.eps_list or ()),
                    *(() if self.dt is None else (self.dt,)))
        if min(positive) <= 0 or self.n_cells < 2:
            raise ConfigError("solver: need n_cells >= 2 and positive T, dt, epsilon, "
                              "eps_list, dt_scale")
        if not (abs(self.rho0_amplitude) <= 1.0 and 2 * abs(self.rho0_mode) < self.n_cells):
            raise ConfigError("solver: need |rho0_amplitude| <= 1 and 2 |rho0_mode| < n_cells, "
                              "where the grid samples 1 + a cos(2 pi m x) as a nonnegative "
                              "density of that one mode")
        _check_transport(self.transport)


@dataclass(frozen=True)
class FunctionalConfig:
    """The ``functional`` block."""

    cert_tol: float | None = None

    def __post_init__(self):
        if self.cert_tol is not None and self.cert_tol <= 0:
            raise ConfigError("functional: cert_tol must be positive")


@dataclass(frozen=True)
class Config:
    """A config file.  ``model`` holds ``kind`` and the fields of
    ``models.MODELS[kind]``'s spec, ``mc`` the fields of McConfig but ``seed``."""

    model: dict = field(default_factory=dict)
    solver: SolverConfig = SolverConfig()
    functional: FunctionalConfig = FunctionalConfig()
    mc: dict = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self):
        params = dict(self.model)
        kind = _typed(params.pop("kind", None), str, "config.model.kind")
        if kind not in models_mod.MODELS:
            raise ConfigError(f"unknown model kind '{kind}'")
        params = _fields(models_mod.MODELS[kind][0], params, "config.model")
        object.__setattr__(self, "model", dict(params, kind=kind))
        object.__setattr__(self, "mc", _fields(McConfig, self.mc, "config.mc", skip=("seed",)))

    def build_model(self):
        params = dict(self.model)
        return models_mod.build_model(params.pop("kind"), **params)


@dataclass(frozen=True)
class SweepConfig(Config):
    """A config as ``diffusive-sweep`` reads it."""

    solver: SolverConfig = SolverConfig(T=0.5)


def _typed(value, kind, where, default=None):
    """The JSON ``value`` as a ``kind``, else ConfigError: a float is a finite number,
    an int a JSON integer, neither a bool; ``X | None`` admits null; a dataclass is
    an object of its fields, read over ``default`` if that is an instance."""
    if type(None) in typing.get_args(kind):
        if value is None:
            return None
        kind = typing.get_args(kind)[0]
    if dataclasses.is_dataclass(kind):
        fields = _fields(kind, value, where)
        if dataclasses.is_dataclass(default):
            return dataclasses.replace(default, **fields)
        return kind(**fields)
    origin = typing.get_origin(kind) or kind
    if origin is list and isinstance(value, list):
        (item,) = typing.get_args(kind)
        return [_typed(v, item, f"{where}[{i}]") for i, v in enumerate(value)]
    if origin in (int, float):
        if type(value) in (int, origin) and abs(value) <= sys.float_info.max:
            return origin(value)
    elif isinstance(value, origin):
        return value
    raise ConfigError(f"{where} must be {origin.__name__}, not {json.dumps(value)}")


def _fields(cls, block, where, skip=()):
    """Typed keyword arguments of ``cls`` from the JSON object ``block``."""
    if not isinstance(block, dict):
        raise ConfigError(f"{where} must be an object")
    fields = {f.name: f for f in dataclasses.fields(cls) if f.init and f.name not in skip}
    unknown = sorted(set(block) - set(fields))
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {unknown}")
    return {key: _typed(value, fields[key].type, f"{where}.{key}", fields[key].default)
            for key, value in block.items()}


def load_config(path, schema=Config):
    """The raw JSON of the config file at ``path`` and its parsed ``schema``."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError: not JSON, not UTF-8
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return raw, _typed(raw, schema, "config")


def _refuse_solver_keys(raw, keys, command):
    """ConfigError naming the first of ``keys`` in the file's solver block,
    which ``command`` would otherwise silently ignore."""
    for key in keys:
        if key in raw.get("solver", {}):
            raise ConfigError(f"{command} does not read solver.{key}")


def _rho0(solver, model):
    require_memory((solver.n_cells, model.n_nodes), "one frame")
    x = (np.arange(solver.n_cells) + 0.5) / solver.n_cells
    return 1.0 + solver.rho0_amplitude * np.cos(2.0 * np.pi * solver.rho0_mode * x)


def cmd_model_info(args):
    model = load_config(args.config)[1].build_model()
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
    path = os.path.join(args.out or ".", f"model_{model.name}.json")
    velocity.to_file(model, path)
    print(f"serialized model: {path}")
    return EXIT_OK


def cmd_diffusion(args):
    raw, cfg = load_config(args.config)
    model = cfg.build_model()
    sol = velocity.poisson_solve(model)
    D, asym = velocity.diffusion_matrix(model, sol)
    print(f"model: {model.name}")
    print(f"poisson iterations: {sol.iterations}, residual {sol.residual:.3e}")
    print("D =")
    for row in D:
        print("  " + "  ".join(f"{v: .10f}" for v in row))
    path = os.path.join(args.out or ".", f"diffusion_{model.name}.json")
    payload = {"D": D.tolist(), "asymmetry": asym, "residual": sol.residual,
               "iterations": sol.iterations, "config_hash": config_hash(raw)}
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=1)
    print(f"wrote {path}")
    return EXIT_OK


def cmd_kinetic_run(args):
    raw, cfg = load_config(args.config)
    _refuse_solver_keys(raw, ("eps_list", "dt_scale"), "kinetic-run")
    model = cfg.build_model()
    s = cfg.solver
    if s.dt is None:
        raise ConfigError("kinetic-run needs solver.dt")
    require_certificate_memory((_step_count(s.T, s.dt) + 1, s.n_cells, model.n_nodes))
    traj = simulate(model, _rho0(s, model), s.T, s.dt, epsilon=s.epsilon)
    out = args.out or "."
    traj_dir = os.path.join(out, "trajectory")
    save_trajectory(traj, traj_dir)
    print(f"trajectory: {traj_dir}")
    _certify(traj, model, cfg, raw, out)
    return EXIT_OK


def _certify(traj, model, cfg, raw, out):
    cert = edi_certificate(traj, model, tol=cfg.functional.cert_tol)
    with open(os.path.join(out, "certificate.json"), "w") as fh:
        json.dump(dict(cert.as_dict(), config_hash=config_hash(raw)),
                  fh, sort_keys=True, indent=1)
    write_certificate_csv(traj, model, cert, os.path.join(out, "certificate.csv"))
    print(f"gradient-flow residual: {cert.gradient_flow_residual:.3e}")
    print(f"phi residual: {cert.phi_residual:.3e}")


def cmd_certify(args):
    raw, cfg = load_config(args.config)
    model = cfg.build_model()
    traj = load_trajectory(args.trajectory)
    _certify(traj, model, cfg, raw, args.out or ".")
    return EXIT_OK


def cmd_diffusive_sweep(args):
    raw, cfg = load_config(args.config, SweepConfig)
    _refuse_solver_keys(raw, ("dt", "epsilon"), "diffusive-sweep")
    s = cfg.solver
    if not s.eps_list:
        raise ConfigError("diffusive-sweep needs solver.eps_list")
    model = cfg.build_model()
    report = sweep(model, _rho0(s, model), s.eps_list, s.T, dt_scale=s.dt_scale)
    out = args.out or "."
    write_sweep_csv(report, os.path.join(out, "sweep.csv"))
    write_manifest(report, raw, os.path.join(out, "sweep_manifest.json"))
    for row in report.rows:
        print(
            f"eps={row.epsilon:g}  l1={row.l1:.4e}  l2={row.l2:.4e}  "
            f"weak_j={row.weak_j_err:.4e}  ({row.runtime_s:.1f}s)"
        )
    print(f"errors decreasing: {report.errors_decreasing()}")
    return EXIT_OK


def cmd_mc_estimate(args):
    cfg = load_config(args.config)[1]
    config = McConfig(seed=cfg.seed if args.seed is None else args.seed, **cfg.mc)
    est = estimate_D(cfg.build_model(), config)
    out = args.out or "."
    write_mc_json(est, config, os.path.join(out, "mc_estimate.json"))
    write_mc_csv(est, os.path.join(out, "mc_batches.csv"))
    for label, mat, fmt in (("D_hat", est.d_hat, " .6f"), ("stderr", est.stderr, " .2e")):
        print(f"{label} =")
        for row in mat:
            print("  " + "  ".join(f"{v:{fmt}}" for v in row))
    return EXIT_OK


def make_parser():
    parser = argparse.ArgumentParser(
        prog="linboltz",
        description="kinetic solvers with entropy-dissipation certification",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for func in (cmd_model_info, cmd_diffusion, cmd_kinetic_run, cmd_diffusive_sweep,
                 cmd_mc_estimate, cmd_certify):
        name = func.__name__.removeprefix("cmd_").replace("_", "-")
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out", default=None)
        if name == "mc-estimate":
            p.add_argument("--seed", type=int, default=None)
        if name == "certify":
            p.add_argument("trajectory")
        p.set_defaults(func=func)
    return parser


def main(argv=None):
    args = make_parser().parse_args(argv)
    try:
        os.makedirs(args.out or ".", exist_ok=True)
        return args.func(args)
    except CertificationError as exc:
        return _emit_error(args, exc, EXIT_CERTIFICATION)
    except (ConvergenceError, np.linalg.LinAlgError) as exc:
        return _emit_error(args, exc, EXIT_CONVERGENCE)
    except (LinboltzError, OSError, MemoryError) as exc:
        return _emit_error(args, exc, EXIT_CONFIG)


def _emit_error(args, exc, code):
    """Report ``exc`` on stderr and in ``error.json``; returns ``code``."""
    diag = {"error": type(exc).__name__, "message": str(exc), "exit_code": code}
    if isinstance(exc, CertificationError) and exc.certificate is not None:
        diag["certificate"] = exc.certificate.as_dict()
    if isinstance(exc, ConvergenceError):
        diag.update(residual=exc.residual, iterations=exc.iterations)
    print(f"error: {exc}", file=sys.stderr)
    if args.out:  # where it can be: an --out that names a file gets none
        with contextlib.suppress(OSError), open(os.path.join(args.out, "error.json"), "w") as fh:
            json.dump(diag, fh, sort_keys=True, indent=1)
    return code


if __name__ == "__main__":
    sys.exit(main())
