import contextlib
import copy
import dataclasses
import io
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import zipfile

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from linboltz import cli, models
from linboltz.cli import main
from linboltz.errors import ConfigError
from linboltz.kinetic import evolve
from linboltz.montecarlo import McConfig


def write_cfg(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def lorentz_cfg(**extra):
    cfg = {"model": {"kind": "lorentz", "n_nodes": 16}}
    cfg.update(extra)
    return cfg


class TestConfigValidation:
    def test_missing_file(self, tmp_path):
        assert main(["diffusion", "--config", str(tmp_path / "nope.json")]) == 2

    def test_not_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("not json {")
        assert main(["diffusion", "--config", str(path)]) == 2

    def test_config_that_is_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_bytes(b"\xff\xfe")
        with pytest.raises(ConfigError, match="cannot read config"):
            cli.load_config(str(path))
        assert main(["diffusion", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        assert "Traceback" not in capsys.readouterr().err

    def test_unknown_top_level_key(self, tmp_path):
        cfg = write_cfg(tmp_path, lorentz_cfg(oops=1))
        assert main(["diffusion", "--config", cfg]) == 2

    def test_unknown_solver_key(self, tmp_path):
        cfg = write_cfg(tmp_path, lorentz_cfg(solver={"dt_max": 0.1}))
        assert main(["diffusion", "--config", cfg]) == 2

    def test_unknown_model_kind(self, tmp_path):
        cfg = write_cfg(tmp_path, {"model": {"kind": "brownian"}})
        assert main(["diffusion", "--config", cfg]) == 2

    def test_invalid_model_params(self, tmp_path):
        # pinning nu = 0 is rejected at model construction
        cfg = write_cfg(tmp_path, {"model": {"kind": "phonon", "nu": 0.0}})
        assert main(["diffusion", "--config", cfg]) == 2

    def test_error_json_written(self, tmp_path):
        cfg = write_cfg(tmp_path, lorentz_cfg(oops=1))
        out = tmp_path / "out"
        assert main(["diffusion", "--config", cfg, "--out", str(out)]) == 2
        diag = json.loads((out / "error.json").read_text())
        assert diag["exit_code"] == 2
        assert diag["error"] == "ConfigError"

    @pytest.mark.parametrize("command, payload", [
        ("kinetic-run", lorentz_cfg(solver={"n_cells": "abc", "dt": 0.01, "T": 0.05})),
        ("diffusion", {"model": {"kind": "lorentz", "n_nodes": 16.0}}),
        ("diffusive-sweep", lorentz_cfg(solver={"eps_list": "abc"})),
        ("mc-estimate", lorentz_cfg(mc={"n_paths": "1e5"})),
        ("kinetic-run", lorentz_cfg(solver={"T": -0.05, "dt": 0.01})),
        ("kinetic-run", lorentz_cfg(solver={"T": float("nan"), "dt": 0.01})),
        ("diffusion", lorentz_cfg(seed=True)),
        ("mc-estimate", lorentz_cfg(seed=-1, mc={"n_paths": 64, "n_batches": 4})),
        ("diffusive-sweep", lorentz_cfg(solver={"eps_list": [0.5], "drift_axis": 0})),
        # keys that nothing reads are unknown keys
        ("diffusion", lorentz_cfg(functional={"delta": 1e-300})),
        ("diffusion", lorentz_cfg(functional={"cap": 1e300})),
        ("diffusion", lorentz_cfg(output={"directory": "out", "formats": ["json"]})),
        # 1e-200 squared is 0.0, 1e-160 squared is subnormal
        ("kinetic-run", lorentz_cfg(solver={"dt": 0.01, "T": 0.02, "epsilon": 1e-200,
                                            "transport": "spectral"})),
        ("kinetic-run", lorentz_cfg(solver={"dt": 0.01, "T": 0.02, "epsilon": 1e-160,
                                            "transport": "spectral"})),
        # a key that nothing reads
        ("diffusion", lorentz_cfg(functional={"poisson_tol": 1e-12})),
        # T / dt overflows to inf, so it counts no whole number of steps
        ("kinetic-run", lorentz_cfg(solver={"dt": 1e-320, "T": 0.02})),
        # the sweep's own step count overflows
        ("diffusive-sweep", lorentz_cfg(solver={"eps_list": [1.6e-154]})),
        ("diffusive-sweep", lorentz_cfg(solver={"eps_list": [0.5], "dt_scale": 1e-310})),
        # every run steps spectral transport only
        ("diffusive-sweep", lorentz_cfg(solver={"eps_list": [0.5], "transport": "upwind"})),
        ("diffusive-sweep", lorentz_cfg(solver={"eps_list": [0.5], "transport": "weno"})),
        ("kinetic-run", lorentz_cfg(solver={"dt": 0.01, "T": 0.02, "transport": "upwind"})),
        ("kinetic-run", lorentz_cfg(solver={"dt": 0.01, "T": 0.02, "transport": "weno"})),
        # every sample of 1 + 1.3 cos(2 pi x) on 4 cells is positive, the field is not
        ("kinetic-run", lorentz_cfg(solver={"n_cells": 4, "dt": 0.01, "T": 0.02,
                                            "rho0_amplitude": 1.3})),
    ])
    def test_bad_value_is_a_config_error(self, tmp_path, capsys, command, payload):
        cfg = write_cfg(tmp_path, payload)
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        diag = json.loads((out / "error.json").read_text())
        assert (diag["exit_code"], diag["error"]) == (2, "ConfigError")
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("command, solver", [
        ("kinetic-run", {"dt": 0.01, "T": 0.02}),
        ("diffusive-sweep", {"T": 0.02, "eps_list": [0.5]}),
    ])
    def test_rho0_mode_that_the_grid_aliases_is_refused(self, tmp_path, capsys, command,
                                                         solver):
        # on 8 cells mode 4 samples the flat datum 1, mode 8 the flat 1 - a, and
        # 10**23 rounding noise that is no single mode; 3 is the last mode below
        # Nyquist
        for mode, code in ((3, 0), (-3, 0), (0, 0), (4, 2), (-4, 2), (8, 2), (10**23, 2)):
            cfg = write_cfg(tmp_path, lorentz_cfg(solver=dict(solver, n_cells=8,
                                                              rho0_mode=mode)))
            out = tmp_path / f"out{mode}"
            assert main([command, "--config", cfg, "--out", str(out)]) == code, mode
            if code:
                diag = json.loads((out / "error.json").read_text())
                assert diag["error"] == "ConfigError" and "rho0_mode" in diag["message"]
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("command, key, payload", [
        ("kinetic-run", "eps_list", {"dt": 0.01, "T": 0.02, "eps_list": [0.5]}),
        ("kinetic-run", "dt_scale", {"dt": 0.01, "T": 0.02, "dt_scale": 0.5}),
        ("diffusive-sweep", "dt", {"T": 0.02, "eps_list": [0.5], "dt": 0.01}),
        ("diffusive-sweep", "epsilon", {"T": 0.02, "eps_list": [0.5], "epsilon": 0.5}),
    ])
    def test_solver_key_the_subcommand_ignores_is_refused(self, tmp_path, command, key,
                                                          payload):
        cfg = write_cfg(tmp_path, lorentz_cfg(solver=dict(payload, n_cells=8)))
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        diag = json.loads((out / "error.json").read_text())
        assert diag["error"] == "ConfigError"
        assert f"solver.{key}" in diag["message"]
        assert sorted(os.listdir(out)) == ["error.json"]

    def test_rayleigh_kernel_overflow(self, tmp_path):
        cfg = write_cfg(tmp_path, {"model": {
            "kind": "rayleigh", "v_max": 40.0, "n_radial": 12, "n_angular": 16}})
        out = tmp_path / "out"
        assert main(["diffusion", "--config", cfg, "--out", str(out)]) == 2
        diag = json.loads((out / "error.json").read_text())
        assert diag["error"] == "NumericalQualityError"

    def test_block_defaults_per_subcommand(self, tmp_path):
        cfg = write_cfg(tmp_path, lorentz_cfg(solver={"n_cells": 8}))
        _, run = cli.load_config(cfg)
        _, swp = cli.load_config(cfg, cli.SweepConfig)
        assert (run.solver.n_cells, run.solver.T, run.solver.transport) == (8, 0.1, "spectral")
        assert (swp.solver.n_cells, swp.solver.T, swp.solver.transport) == (8, 0.5, "spectral")
        assert run.functional == cli.FunctionalConfig() and run.mc == {}

    def test_json_numbers_become_the_field_type(self, tmp_path):
        cfg = write_cfg(tmp_path, lorentz_cfg(
            solver={"T": 1, "eps_list": [1, 0.5], "dt": None}, mc={"horizon": 5},
            functional={"cert_tol": None}))
        _, parsed = cli.load_config(cfg)
        assert type(parsed.solver.T) is float and parsed.solver.eps_list == [1.0, 0.5]
        assert all(type(e) is float for e in parsed.solver.eps_list)
        assert type(parsed.mc["horizon"]) is float
        # null is the value of an optional key, and leaves it unset
        assert parsed.solver.dt is None and parsed.functional.cert_tol is None


class TestDiffusion:
    def test_writes_matrix(self, tmp_path):
        cfg = write_cfg(tmp_path, lorentz_cfg())
        out = tmp_path / "out"
        assert main(["diffusion", "--config", cfg, "--out", str(out)]) == 0
        payload = json.loads((out / "diffusion_lorentz.json").read_text())
        assert abs(payload["D"][0][0] - 0.1875) < 1e-3
        assert abs(payload["D"][0][1]) < 1e-8

    def test_linalg_error_is_a_convergence_failure(self, tmp_path, monkeypatch):
        from linboltz import velocity

        def singular(*args, **kwargs):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(velocity, "poisson_solve", singular)
        cfg = write_cfg(tmp_path, lorentz_cfg())
        out = tmp_path / "out"
        assert main(["diffusion", "--config", cfg, "--out", str(out)]) == 4
        diag = json.loads((out / "error.json").read_text())
        assert (diag["error"], diag["exit_code"]) == ("LinAlgError", 4)

    def test_convergence_exit_code(self, tmp_path, monkeypatch):
        # a solver that fails to converge must surface as exit 4
        from linboltz import velocity
        from linboltz.errors import ConvergenceError

        def stall(*args, **kwargs):
            raise ConvergenceError("stalled", residual=1.0, iterations=10)

        monkeypatch.setattr(velocity, "poisson_solve", stall)
        cfg = write_cfg(tmp_path, lorentz_cfg())
        out = tmp_path / "out"
        assert main(["diffusion", "--config", cfg, "--out", str(out)]) == 4
        diag = json.loads((out / "error.json").read_text())
        assert diag["error"] == "ConvergenceError"
        assert diag["iterations"] == 10


class TestModelInfo:
    def test_prints_and_serializes(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, lorentz_cfg())
        out = tmp_path / "out"
        assert main(["model-info", "--config", cfg, "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "spectral gap probe" in text
        assert (out / "model_lorentz.json").exists()

    def test_reruns_write_identical_files(self, tmp_path):
        cfg = write_cfg(tmp_path, lorentz_cfg())
        for name in ("a", "b"):
            assert main(["model-info", "--config", cfg, "--out", str(tmp_path / name)]) == 0
        for name in ("model_lorentz.json", "model_lorentz.npz"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        # the sidecar's bytes do not depend on the clock either
        with zipfile.ZipFile(tmp_path / "a" / "model_lorentz.npz") as npz:
            assert {info.date_time for info in npz.infolist()} == {(1980, 1, 1, 0, 0, 0)}


class TestKineticRunAndCertify:
    def test_run_then_recertify_identical(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            lorentz_cfg(solver={"n_cells": 16, "dt": 0.01, "T": 0.05}),
        )
        out1 = tmp_path / "run"
        assert main(["kinetic-run", "--config", cfg, "--out", str(out1)]) == 0
        cert1 = json.loads((out1 / "certificate.json").read_text())

        out2 = tmp_path / "recheck"
        assert main([
            "certify", str(out1 / "trajectory"),
            "--config", cfg, "--out", str(out2),
        ]) == 0
        cert2 = json.loads((out2 / "certificate.json").read_text())
        assert cert1 == cert2
        assert (out1 / "certificate.csv").read_bytes() == (
            out2 / "certificate.csv"
        ).read_bytes()

    @pytest.mark.parametrize("model", [
        {"kind": "lorentz", "n_nodes": 32},
        {"kind": "phonon", "dim": 2, "n_per_axis": 4},  # 16 nodes, like the run
        None,  # the run's own model, but a trajectory without a fingerprint
    ])
    def test_certify_refuses_another_model(self, tmp_path, capsys, model):
        run_cfg = lorentz_cfg(solver={"n_cells": 8, "dt": 0.01, "T": 0.02})
        run = tmp_path / "run"
        assert main(["kinetic-run", "--config", write_cfg(tmp_path, run_cfg),
                     "--out", str(run)]) == 0
        meta_path = run / "trajectory" / "meta.json"
        meta = json.loads(meta_path.read_text())
        assert len(meta["model_fingerprint"]) == 64
        if model is None:
            del meta["model_fingerprint"]
            meta_path.write_text(json.dumps(meta))
        cfg = write_cfg(tmp_path, dict(run_cfg, model=model or run_cfg["model"]), "c.json")
        out = tmp_path / "out"
        code = main(["certify", str(run / "trajectory"), "--config", cfg, "--out", str(out)])
        assert code == 2
        diag = json.loads((out / "error.json").read_text())
        # the node count is checked first, then the fingerprint; a saved run
        # that names none is refused as it is read
        assert {"lorentz": "the model's 32 nodes", "phonon": "not produced by this model",
                None: "names no model fingerprint"}[model and model["kind"]] in diag["message"]
        assert "Traceback" not in capsys.readouterr().err
        assert not (out / "certificate.json").exists()

    def test_default_run_certifies_its_time_scheme_at_second_order(self, tmp_path):
        # no transport key: the run steps spectral transport, whose balance
        # residual is the time quadrature's alone, 6.6e-7, 1.6e-7, 4.1e-8
        residuals = []
        dts = [2e-3, 1e-3, 5e-4]
        for dt in dts:
            cfg = write_cfg(tmp_path, lorentz_cfg(solver={"n_cells": 64, "dt": dt, "T": 0.1}))
            out = tmp_path / f"run_{dt}"
            assert main(["kinetic-run", "--config", cfg, "--out", str(out)]) == 0
            meta = json.loads((out / "trajectory" / "meta.json").read_text())
            assert meta["transport"] == "spectral"
            residuals.append(json.loads((out / "certificate.json").read_text())[
                "balance_residual"])
        order = np.polyfit(np.log(dts), np.log(residuals), 1)[0]
        assert order >= 1.9, (order, residuals)
        assert residuals[-1] < 1e-7

    def test_requires_dt(self, tmp_path):
        cfg = write_cfg(tmp_path, lorentz_cfg(solver={"T": 0.05}))
        assert main(["kinetic-run", "--config", cfg]) == 2

    def test_run_of_no_step_is_a_config_error(self, tmp_path, capsys):
        # T = 1e-11 is within the multiple-of-dt tolerance of 0 steps of dt
        cfg = write_cfg(tmp_path, {"model": {"kind": "lorentz", "n_nodes": 8},
                                   "solver": {"n_cells": 8, "dt": 0.01, "T": 1e-11}})
        out = tmp_path / "out"
        assert main(["kinetic-run", "--config", cfg, "--out", str(out)]) == 2
        diag = json.loads((out / "error.json").read_text())
        assert diag["error"] == "ConfigError"
        assert "whole number n >= 1 of steps" in diag["message"]
        assert "Traceback" not in capsys.readouterr().err
        assert not (out / "trajectory").exists()  # refused before the run

    def test_run_of_too_many_steps_to_count_is_a_config_error(self):
        # T / dt = 0.02 / 1e-320 overflows to inf
        model = models.build_lorentz(models.LorentzSpec(8))
        with pytest.raises(ConfigError, match="whole number n >= 1 of steps"):
            evolve(model, np.ones(8), T=0.02, dt=1e-320)

    def test_certification_exit_code(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            lorentz_cfg(
                solver={"n_cells": 16, "dt": 0.01, "T": 0.05},
                functional={"cert_tol": 1e-18},
            ),
        )
        out = tmp_path / "out"
        code = main(["kinetic-run", "--config", cfg, "--out", str(out)])
        assert code == 3
        diag = json.loads((out / "error.json").read_text())
        assert diag["error"] == "CertificationError"
        assert "certificate" in diag


class TestSweep:
    def test_bit_identical_reruns(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            lorentz_cfg(solver={
                "n_cells": 16, "T": 0.05, "eps_list": [0.5, 0.25],
            }),
        )
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main([
                "diffusive-sweep", "--config", cfg, "--out", str(out)
            ]) == 0
            outs.append(out)
        assert (outs[0] / "sweep.csv").read_bytes() == (
            outs[1] / "sweep.csv"
        ).read_bytes()
        assert (outs[0] / "sweep_manifest.json").read_bytes() == (
            outs[1] / "sweep_manifest.json"
        ).read_bytes()

    def test_requires_eps_list(self, tmp_path):
        cfg = write_cfg(tmp_path, lorentz_cfg(solver={"T": 0.05}))
        assert main(["diffusive-sweep", "--config", cfg]) == 2

    @pytest.mark.parametrize("transport", ["upwind", "weno", "spectral", None])
    def test_steps_spectral_transport_only(self, tmp_path, transport):
        solver = {"n_cells": 8, "T": 0.05, "eps_list": [0.5]}
        if transport is not None:
            solver["transport"] = transport
        cfg = write_cfg(tmp_path, lorentz_cfg(solver=solver))
        out = tmp_path / "out"
        code = main(["diffusive-sweep", "--config", cfg, "--out", str(out)])
        if transport in ("spectral", None):
            assert code == 0
            assert json.loads((out / "sweep_manifest.json").read_text())["transport"] == (
                "spectral")
            return
        assert code == 2
        assert sorted(os.listdir(out)) == ["error.json"]
        diag = json.loads((out / "error.json").read_text())
        assert diag["error"] == "ConfigError"
        assert diag["message"] == (
            f"transport must be 'spectral', not {transport!r}: upwind transport was removed, "
            "as no term of the entropy balance carries its numerical diffusion")


class TestMcEstimate:
    def test_bit_identical_reruns_and_seed_flag(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            lorentz_cfg(mc={"n_paths": 1000, "horizon": 5.0, "n_batches": 4}),
        )
        payloads = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main([
                "mc-estimate", "--config", cfg, "--out", str(out),
                "--seed", "7",
            ]) == 0
            payloads.append((out / "mc_estimate.json").read_bytes())
        assert payloads[0] == payloads[1]

        out = tmp_path / "c"
        assert main([
            "mc-estimate", "--config", cfg, "--out", str(out), "--seed", "8",
        ]) == 0
        assert (out / "mc_estimate.json").read_bytes() != payloads[0]

    def test_config_seed_used_without_flag(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            lorentz_cfg(
                seed=7,
                mc={"n_paths": 1000, "horizon": 5.0, "n_batches": 4},
            ),
        )
        out = tmp_path / "out"
        assert main(["mc-estimate", "--config", cfg, "--out", str(out)]) == 0
        payload = json.loads((out / "mc_estimate.json").read_text())
        assert payload["seed"] == 7


class TestMemoryGuard:
    # Without the guard each of these would fail inside numpy at its first
    # allocation (a MemoryError, or a ValueError for an array too big to
    # index), so a ConfigError shows that the guard ran first.
    @pytest.mark.parametrize("command, payload", [
        ("model-info", {"model": {"kind": "lorentz", "n_nodes": 10**12}}),
        ("diffusion", {"model": {"kind": "rayleigh", "n_radial": 10**5, "n_angular": 10**5}}),
        ("diffusion", {"model": {"kind": "phonon", "dim": 40}}),
        ("kinetic-run", lorentz_cfg(solver={"n_cells": 10**20, "dt": 0.01, "T": 0.02})),
        ("diffusive-sweep", lorentz_cfg(solver={"n_cells": 10**20, "eps_list": [0.5]})),
        ("kinetic-run", lorentz_cfg(solver={"n_cells": 8, "dt": 1e-3, "T": 1e10})),
        # epsilon so small that the sweep's step count makes its current paths
        # too big to index (1e-9) or merely too big to allocate (1e-6)
        ("diffusive-sweep", {"model": {"kind": "lorentz", "n_nodes": 8},
                             "solver": {"n_cells": 16, "eps_list": [1e-9]}}),
        ("diffusive-sweep", {"model": {"kind": "lorentz", "n_nodes": 8},
                             "solver": {"n_cells": 16, "eps_list": [1e-6]}}),
    ])
    def test_oversized_config_is_refused(self, tmp_path, capsys, monkeypatch,
                                         command, payload):
        kind = payload["model"]["kind"]
        if kind != "lorentz" or "solver" not in payload:
            def build(spec):
                raise AssertionError("the model was built")
            monkeypatch.setitem(models.MODELS, kind, (models.MODELS[kind][0], build))
        cfg = write_cfg(tmp_path, payload)
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        diag = json.loads((out / "error.json").read_text())
        assert diag["error"] == "ConfigError"
        assert "physical memory" in diag["message"]
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("mc", [
        {"n_paths": 10**13},
        {"n_paths": 10**30},
        {"n_paths": 10**13, "n_batches": 10**12},
    ])
    def test_oversized_mc_estimate_is_refused(self, tmp_path, capsys, mc):
        cfg = write_cfg(tmp_path, lorentz_cfg(mc=mc))
        out = tmp_path / "out"
        assert main(["mc-estimate", "--config", cfg, "--out", str(out)]) == 2
        diag = json.loads((out / "error.json").read_text())
        assert diag["error"] == "ConfigError"
        assert "physical memory" in diag["message"]
        assert "Traceback" not in capsys.readouterr().err

    def test_oversized_certificate_is_refused_before_the_run(self, tmp_path, monkeypatch):
        # Lorentz-16 on 64 cells: a frame is 8 kB and the trajectory 25 kB, but
        # the certificate's working set 64 * 2 * 16 * 15 floats, 246 kB
        from linboltz import errors

        monkeypatch.setattr(errors, "physical_memory", lambda: 100_000)
        cfg = write_cfg(tmp_path, lorentz_cfg(solver={"n_cells": 64, "dt": 0.01, "T": 0.02}))
        out = tmp_path / "out"
        assert main(["kinetic-run", "--config", cfg, "--out", str(out)]) == 2
        diag = json.loads((out / "error.json").read_text())
        assert diag["error"] == "ConfigError"
        assert "certificate's working set" in diag["message"]
        assert sorted(os.listdir(out)) == ["error.json"]  # nothing simulated

    def test_trajectory_and_certificate_are_charged_together(self, tmp_path, monkeypatch):
        # Lorentz-16 on 64 cells, 24 steps: the 25-frame trajectory (205 kB) and
        # the certificate's working set (246 kB) each fit in 300 kB, but they
        # are live at once, 64 * (25 * 16 + 2 * 16 * 15) floats, 451 kB
        from linboltz import errors

        monkeypatch.setattr(errors, "physical_memory", lambda: 300_000)
        cfg = write_cfg(tmp_path, lorentz_cfg(solver={"n_cells": 64, "dt": 0.01, "T": 0.24}))
        out = tmp_path / "out"
        assert main(["kinetic-run", "--config", cfg, "--out", str(out)]) == 2
        diag = json.loads((out / "error.json").read_text())
        assert diag["error"] == "ConfigError"
        assert "certificate's working set" in diag["message"]
        assert sorted(os.listdir(out)) == ["error.json"]

    def test_memory_error_is_a_config_exit(self, tmp_path, monkeypatch):
        from linboltz import velocity

        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate 8.00 TiB")

        monkeypatch.setattr(velocity, "spectral_gap_probe", exhausted)
        cfg = write_cfg(tmp_path, lorentz_cfg())
        out = tmp_path / "out"
        assert main(["model-info", "--config", cfg, "--out", str(out)]) == 2
        diag = json.loads((out / "error.json").read_text())
        assert (diag["error"], diag["exit_code"]) == ("MemoryError", 2)


def test_missing_subcommand_exits():
    with pytest.raises(SystemExit):
        main([])


def test_threads_flag_is_a_usage_error(tmp_path, capsys):
    cfg = write_cfg(tmp_path, lorentz_cfg())
    with pytest.raises(SystemExit) as exc:
        main(["model-info", "--config", cfg, "--threads", "2"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err and "--threads" in err
    assert "Traceback" not in err


def test_seed_flag_outside_mc_estimate_is_a_usage_error(tmp_path, capsys):
    cfg = write_cfg(tmp_path, lorentz_cfg())
    with pytest.raises(SystemExit) as exc:
        main(["diffusion", "--config", cfg, "--seed", "7"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err and "--seed" in err
    assert "Traceback" not in err


# --- the config contract under fuzzing --------------------------------------

SMALL_MODELS = [
    {"kind": "lorentz", "n_nodes": 8},
    {"kind": "rayleigh", "dim": 2, "n_radial": 4, "n_angular": 12},
    {"kind": "phonon", "dim": 2, "n_per_axis": 3},
]
SMALL_RUN = {"n_cells": 8, "dt": 0.01, "T": 0.02}
SMALL_BLOCKS = {
    "model-info": {},
    "diffusion": {},
    "kinetic-run": {"solver": SMALL_RUN, "functional": {"cert_tol": 1e-3}},
    "certify": {"solver": SMALL_RUN},
    "diffusive-sweep": {"solver": {"n_cells": 8, "T": 0.02, "eps_list": [0.5]}},
    "mc-estimate": {"mc": {"n_paths": 64, "horizon": 1.0, "n_batches": 4}, "seed": 3},
}


def _schema_keys(kind):
    """Block -> keys the schema accepts, for a model of ``kind``."""
    def names(cls, skip=()):
        return [f.name for f in dataclasses.fields(cls) if f.name not in skip]
    return {
        None: names(cli.Config),
        "model": ["kind"] + names(models.MODELS[kind][0]),
        "solver": names(cli.SolverConfig),
        "functional": names(cli.FunctionalConfig),
        "mc": names(McConfig, skip=("seed",)),
    }


BAD_VALUES = st.one_of(
    st.booleans(),
    st.none(),
    st.text(max_size=4),
    st.integers(-10**6, 0),
    st.floats(-1e6, 0.0),
    st.floats(0.05, 3.0).filter(lambda v: not v.is_integer()),
    st.lists(st.lists(st.integers(-2, 2), max_size=2), max_size=2),
    st.dictionaries(st.text(max_size=3), st.integers(-2, 2), max_size=2),
)


@pytest.fixture(scope="module")
def small_trajectory(tmp_path_factory):
    root = tmp_path_factory.mktemp("traj")
    cfg = write_cfg(root, dict(SMALL_BLOCKS["certify"], model=SMALL_MODELS[0]))
    assert main(["kinetic-run", "--config", cfg, "--out", str(root / "run")]) == 0
    return str(root / "run" / "trajectory")


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_fuzzed_configs_exit_with_a_documented_code(small_trajectory, data):
    command = data.draw(st.sampled_from(sorted(SMALL_BLOCKS)), label="command")
    model = SMALL_MODELS[0] if command == "certify" else data.draw(st.sampled_from(SMALL_MODELS))
    payload = copy.deepcopy(dict(SMALL_BLOCKS[command], model=model))
    keys = _schema_keys(model["kind"])
    block = data.draw(st.sampled_from(sorted(keys, key=str)), label="block")
    target = payload if block is None else payload.setdefault(block, {})
    if data.draw(st.booleans(), label="unknown key"):
        key = data.draw(st.text(min_size=1, max_size=6).filter(lambda k: k not in keys[block]))
    else:
        key = data.draw(st.sampled_from(keys[block]), label="key")
    target[key] = data.draw(BAD_VALUES, label="value")

    with tempfile.TemporaryDirectory() as tmp:
        cfg = os.path.join(tmp, "cfg.json")
        with open(cfg, "w") as fh:
            json.dump(payload, fh)
        argv = [command, "--config", cfg, "--out", os.path.join(tmp, "out")]
        if command == "certify":
            argv.insert(1, small_trajectory)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
        event(f"exit {code}")
        assert code in (0, 2, 3, 4)
        assert "Traceback" not in err.getvalue()
        if code:
            with open(os.path.join(tmp, "out", "error.json")) as fh:
                assert json.load(fh)["exit_code"] == code


@pytest.mark.parametrize("under", [False, True], ids=["file", "path-under-a-file"])
@pytest.mark.parametrize("command", sorted(SMALL_BLOCKS))
def test_out_that_names_a_file_exits_2_with_the_message(tmp_path, capsys, small_trajectory,
                                                         command, under):
    blocker = tmp_path / "blocker"
    blocker.write_text("kept")
    cfg = write_cfg(tmp_path, dict(SMALL_BLOCKS[command], model=SMALL_MODELS[0]))
    argv = [command, "--config", cfg, "--out", str(blocker / "sub" if under else blocker)]
    if command == "certify":
        argv.insert(1, small_trajectory)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(blocker) in err and "Traceback" not in err
    # nothing is written: not into the file, not beside it
    assert blocker.read_text() == "kept"
    assert sorted(os.listdir(tmp_path)) == ["blocker", "cfg.json"]


def with_value(f, value):
    f = f.copy()
    f[1, 2, 3] = value
    return f


@pytest.mark.parametrize("name, damage", [
    ("meta.json", lambda meta: {k: v for k, v in meta.items() if k != "dt"}),
    ("meta.json", None),  # not JSON
    ("f.npy", lambda f: f[:, :, :5]),  # 5 of the model's 8 nodes
    ("f.npy", lambda f: f[:1]),
    ("f.npy", lambda f: f[:, :0]),
    ("f.npy", lambda f: with_value(f, np.nan)),
    ("f.npy", lambda f: with_value(f, -np.inf)),
    ("meta.json", lambda meta: dict(meta, epsilon=1e-200)),  # epsilon**2 == 0.0
    ("meta.json", lambda meta: dict(meta, drift_axis=7)),  # the drift has 2 columns
    ("meta.json", lambda meta: dict(meta, drift_axis=-1)),
    ("meta.json", lambda meta: dict(meta, transport="upwind")),  # as older runs wrote
    ("meta.json", lambda meta: [meta]),
    ("f.npy", lambda f: f.astype(np.float32)),  # the certificate gathers into float64
    ("meta.json", lambda meta: dict(meta, dt=0.5)),  # a step the frames did not take
    ("meta.json", lambda meta: dict(meta, epsilon=0.5)),
    ("meta.json", lambda meta: dict(meta, dt=1e308)),  # 3 frames end past the largest float
], ids=["no dt", "bad meta", "5 nodes", "one frame", "no cells", "nan frame", "inf frame",
        "tiny epsilon", "drift_axis 7", "drift_axis -1", "upwind", "meta not an object",
        "float32 frames", "dt 0.5", "epsilon 0.5", "dt 1e308"])
def test_certify_refuses_a_malformed_trajectory(tmp_path, capsys, small_trajectory,
                                                name, damage):
    traj = tmp_path / "trajectory"
    shutil.copytree(small_trajectory, traj)
    path = traj / name
    if name == "meta.json":
        path.write_text("{" if damage is None else json.dumps(damage(json.loads(path.read_text()))))
    else:
        np.save(path, damage(np.load(path)))
    cfg = write_cfg(tmp_path, dict(SMALL_BLOCKS["certify"], model=SMALL_MODELS[0]))
    out = tmp_path / "out"
    assert main(["certify", str(traj), "--config", cfg, "--out", str(out)]) == 2
    diag = json.loads((out / "error.json").read_text())
    assert (diag["exit_code"], diag["error"]) == (2, "ConfigError")
    assert "Traceback" not in capsys.readouterr().err
    assert sorted(os.listdir(out)) == ["error.json"]


def test_a_trajectory_in_the_older_layout_certifies_byte_for_byte_the_same(
        tmp_path, small_trajectory):
    # older runs also wrote times.npy and a dx key, both of which follow from
    # dt and the shape of f.npy, and "drift_axis": 0, the one column a run
    # moves along; the reader ignores them
    old = tmp_path / "old"
    shutil.copytree(small_trajectory, old)
    meta = json.loads((old / "meta.json").read_text())
    f = np.load(old / "f.npy")
    np.save(old / "times.npy", meta["dt"] * np.arange(len(f)))
    (old / "meta.json").write_text(json.dumps(dict(meta, dx=1.0 / f.shape[1], drift_axis=0),
                                              sort_keys=True, indent=1))
    cfg = write_cfg(tmp_path, dict(SMALL_BLOCKS["certify"], model=SMALL_MODELS[0]))
    for traj, out in ((small_trajectory, "out_new"), (old, "out_old")):
        assert main(["certify", str(traj), "--config", cfg, "--out", str(tmp_path / out)]) == 0
    for name in ("certificate.json", "certificate.csv"):
        assert (tmp_path / "out_old" / name).read_bytes() == (
            tmp_path / "out_new" / name).read_bytes()


def test_a_big_endian_trajectory_certifies_byte_for_byte_the_same(tmp_path, small_trajectory):
    swapped = tmp_path / "swapped"
    shutil.copytree(small_trajectory, swapped)
    f = np.load(swapped / "f.npy")
    np.save(swapped / "f.npy", f.astype(">f8"))
    assert np.load(swapped / "f.npy").dtype.byteorder == ">"
    cfg = write_cfg(tmp_path, dict(SMALL_BLOCKS["certify"], model=SMALL_MODELS[0]))
    for traj, out in ((small_trajectory, "out_native"), (swapped, "out_swapped")):
        assert main(["certify", str(traj), "--config", cfg, "--out", str(tmp_path / out)]) == 0
    for name in ("certificate.json", "certificate.csv"):
        assert (tmp_path / "out_swapped" / name).read_bytes() == (
            tmp_path / "out_native" / name).read_bytes()


def test_importing_the_cli_loads_no_scipy():
    # the library needs numpy only; scipy is a test oracle, not a dependency
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    code = ("import sys, linboltz, linboltz.cli; print(sorted(m for m in sys.modules "
            "if m == 'scipy' or m.startswith('scipy.')))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), check=True, timeout=120)
    assert done.stdout.strip() == "[]"


# --- the README's tables are the schema and the outputs ----------------------

ON_ERROR = "any, on a nonzero exit"


def _readme_table(marker):
    """The rows of the README table after ``<!-- marker -->``, as lists of cells."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "README.md")) as fh:
        text = fh.read()
    table = text.split(f"<!-- {marker} -->")[1].strip().split("\n\n")[0]
    return [[c.strip() for c in line.strip("|").split("|")]
            for line in table.splitlines()[2:]]


def test_readme_outputs_table_lists_what_each_subcommand_writes(tmp_path, small_trajectory):
    rows = {command.strip("`"): {name.strip().strip("`") for name in files.split(",")}
            for command, files in _readme_table("outputs")}
    assert set(rows) == set(SMALL_BLOCKS) | {ON_ERROR}
    model = SMALL_MODELS[0]
    runs = {row: (row, dict(SMALL_BLOCKS[row], model=model), 0) for row in SMALL_BLOCKS}
    # without cert_tol, so that the certificate passes
    runs["kinetic-run"] = ("kinetic-run", dict(SMALL_BLOCKS["certify"], model=model), 0)
    runs[ON_ERROR] = ("diffusion", lorentz_cfg(oops=1), 2)
    for row, (command, payload, code) in runs.items():
        cfg = write_cfg(tmp_path, payload)
        out = tmp_path / command / str(code)
        argv = [command, "--config", cfg, "--out", str(out)]
        if command == "certify":
            argv.insert(1, small_trajectory)
        assert main(argv) == code
        written = {os.path.relpath(os.path.join(d, f), out)
                   for d, _, files in os.walk(out) for f in files}
        assert written == {name.replace("<name>", "lorentz") for name in rows[row]}


TYPE_NAMES = {int: "int", float: "float", float | None: "float", bool: "bool", str: "str",
              list[float] | None: "list of floats", dict: "object"}


def test_readme_config_table_matches_the_schema():
    expected = {("config", f.name): TYPE_NAMES.get(f.type, "object")
                for f in dataclasses.fields(cli.Config)}
    expected["model", "kind"] = "str"
    for kind, (spec, _) in models.MODELS.items():
        expected.update({(f"model: {kind}", f.name): TYPE_NAMES[f.type]
                         for f in dataclasses.fields(spec)})
    for block, cls in (("solver", cli.SolverConfig), ("functional", cli.FunctionalConfig),
                       ("mc", McConfig)):
        expected.update({(block, f.name): TYPE_NAMES[f.type]
                         for f in dataclasses.fields(cls) if (block, f.name) != ("mc", "seed")})
    rows = {(block, key.strip("`")): type_name
            for block, key, type_name, _ in _readme_table("config-keys")}
    assert rows == expected


def _readme_examples():
    """Each JSON example of the README, as (the subcommand it is written for, config)."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "README.md")) as fh:
        text = fh.read()
    found = re.findall(r"<!-- example: ([\w-]+) -->\s*```json\n(.*?)```", text, re.S)
    assert len(found) == text.count("```json"), "a README JSON example names no subcommand"
    return [(command, json.loads(body)) for command, body in found]


@pytest.mark.parametrize("command, payload",
                         [pytest.param(*example, id=example[0]) for example in _readme_examples()])
def test_readme_examples_run_through_their_subcommand(tmp_path, command, payload):
    cfg = write_cfg(tmp_path, payload)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 0
