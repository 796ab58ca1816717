import json

import pytest

from linboltz.cli import main


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


class TestDiffusion:
    def test_writes_matrix(self, tmp_path):
        cfg = write_cfg(tmp_path, lorentz_cfg())
        out = tmp_path / "out"
        assert main(["diffusion", "--config", cfg, "--out", str(out)]) == 0
        payload = json.loads((out / "diffusion_lorentz.json").read_text())
        assert abs(payload["D"][0][0] - 0.1875) < 1e-3
        assert abs(payload["D"][0][1]) < 1e-8

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

    def test_requires_dt(self, tmp_path):
        cfg = write_cfg(tmp_path, lorentz_cfg(solver={"T": 0.05}))
        assert main(["kinetic-run", "--config", cfg]) == 2

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
