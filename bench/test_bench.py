"""Tests of the benchmark itself: span arithmetic, metric names, job checks."""

import json
import os

import numpy as np
import pytest

import metrics
import run
import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))


def test_self_time_nested_and_siblings():
    # root [0, 10] has children a [1, 4] and b [5, 9]; a has child c [2, 3]
    recorded = [
        (2, 1, "c", 2.0, 3.0),
        (1, 0, "a", 1.0, 4.0),
        (3, 0, "b", 5.0, 9.0),
        (0, -1, "root", 0.0, 10.0),
    ]
    total, self_time, calls = spans.summarize(recorded)
    assert total == pytest.approx({"root": 10.0, "a": 3.0, "b": 4.0, "c": 1.0})
    assert self_time == pytest.approx({"root": 3.0, "a": 2.0, "b": 4.0, "c": 1.0})
    assert calls == {"root": 1, "a": 1, "b": 1, "c": 1}


def test_covered_merges_overlaps_and_clips():
    assert spans.covered([(1, 3), (2, 5), (7, 8)], 0, 10) == pytest.approx(5.0)
    assert spans.covered([(-1, 2), (9, 12)], 0, 10) == pytest.approx(3.0)
    assert spans.covered([], 0, 10) == 0.0


def test_recorder_parents_follow_call_nesting():
    rec = spans.Recorder()
    inner = rec.wrap("inner", lambda x: x + 1)
    outer = rec.wrap("outer", lambda x: inner(inner(x)))
    assert outer(1) == 3
    by_name = {}
    for sid, parent, name, start, end in rec.spans:
        by_name.setdefault(name, []).append((sid, parent))
    (outer_id, outer_parent), = by_name["outer"]
    assert outer_parent == -1
    assert [p for _, p in by_name["inner"]] == [outer_id, outer_id]


def _benchmark_json():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_emitted_metric_names_match_benchmark_json():
    spec = _benchmark_json()
    e2e = metrics.end_to_end([0.5, 0.6, 0.4], [3.0, 2.0], 100.0, 4, 0)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        k: v["unit"] for k, v in e2e.items()}
    seq = metrics.sequence_layers([], {}, 1.0)
    layers = metrics.per_layer([seq, seq], [0.9])
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        k: v["unit"] for k, v in layers.items()}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_traced_cli_job_records_layers_where_callers_look_them_up(tmp_path):
    import linboltz.cli
    import linboltz.functionals
    import linboltz.kinetic

    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "model": {"kind": "lorentz", "n_nodes": 8},
        "solver": {"n_cells": 8, "dt": 0.01, "T": 0.02, "transport": "spectral"},
        "functional": {"cert_tol": 1e-4},
    }))
    rec = spans.Recorder()
    uninstall = spans.instrument(rec)
    try:
        with rec.span("cli.kinetic-run"):
            code = run.call_main(linboltz.cli, ["kinetic-run", "--config", str(cfg),
                                                "--out", str(tmp_path / "out")])
    finally:
        uninstall()
    assert code == 0
    assert linboltz.kinetic.phi is linboltz.functionals.phi
    names = {sid: name for sid, _, name, _, _ in rec.spans}
    parents = {names[parent] for _, parent, name, _, _ in rec.spans
               if name == "functionals.phi"}
    assert parents == {"kinetic.edi_certificate"}
    layer = metrics.sequence_layers(rec.spans, rec.counters, 1.0)
    assert layer["functionals.phi_calls"] == 2
    assert layer["kinetic.steps"] == 2
    assert layer["functionals.kinematic_rate_calls"] == 4  # certificate + CSV
    assert layer["cli.self_s"] > 0.0


class FakeCli:
    """Stands in for linboltz.cli: writes a fixed certificate, or raises."""

    def __init__(self, certificate=None, code=0):
        self.certificate = certificate
        self.code = code

    def main(self, argv):
        if self.certificate is None:
            raise RuntimeError("boom")
        out = argv[argv.index("--out") + 1]
        os.makedirs(out, exist_ok=True)
        with open(os.path.join(out, "certificate.json"), "w") as fh:
            json.dump(self.certificate, fh)
        return self.code


GOOD_CERT = {"balance_residual": 1e-6, "phi_residual": 0.0}


@pytest.mark.parametrize("cli, failed", [
    (FakeCli(GOOD_CERT), 0),
    (FakeCli(dict(GOOD_CERT, phi_residual=1e-3)), 2),
    (FakeCli(dict(GOOD_CERT, balance_residual=1.0)), 2),
    (FakeCli(GOOD_CERT, code=3), 2),
    (FakeCli(None), 2),
])
def test_bad_artifact_or_exit_counts_as_failed_job(tmp_path, cli, failed):
    inputs = workloads.inputs_for(0)
    cfg_paths = workloads.write_configs(
        workloads.make_configs("certify", inputs), str(tmp_path / "cfg"))
    _, attempted, n_failed, problems = run.run_sequence(
        cli, workloads, "certify", cfg_paths, str(tmp_path / "seq"), inputs, None)
    assert (attempted, n_failed) == (2, failed)
    assert bool(problems) == bool(failed)


def test_certify_disagreeing_with_kinetic_run_fails(tmp_path):
    for sub, cert in (("run", GOOD_CERT), ("certify", dict(GOOD_CERT, h_final=1.0))):
        (tmp_path / sub).mkdir()
        (tmp_path / sub / "certificate.json").write_text(json.dumps(cert))
    assert workloads.check_certificate(str(tmp_path / "run")) == []
    assert workloads.check_certificate(str(tmp_path / "certify"),
                                       reference=str(tmp_path / "run"))


def _without_amplitude(configs):
    for cfg in configs.values():
        cfg.get("solver", {}).pop("rho0_amplitude", None)
    return configs


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_follow_the_seed_but_the_work_does_not(workload):
    a, b = workloads.inputs_for(5), workloads.inputs_for(6)
    assert workloads.inputs_for(5) == a != b
    assert 0.3 <= a.rho0_amplitude <= 0.6
    assert (_without_amplitude(workloads.make_configs(workload, a))
            == _without_amplitude(workloads.make_configs(workload, b)))


def test_finite_horizon_mean_tends_to_D_from_below():
    model = workloads._build(workloads.MC_MODEL)
    d = workloads.LORENTZ_D
    assert workloads.finite_horizon_mean(model, 1e9) == pytest.approx(d * np.eye(2), abs=1e-7)
    short = workloads.finite_horizon_mean(model, 50.0)
    assert np.all(np.diag(short) < d) and np.all(np.diag(short) > 0.98 * d)


@pytest.mark.parametrize("shift, failed", [(0.0, False), (10.0, True)])
def test_mc_check_flags_an_estimate_off_its_mean(tmp_path, shift, failed):
    model = workloads._build(workloads.MC_MODEL)
    stderr = np.full((2, 2), 1e-3)
    d_hat = workloads.finite_horizon_mean(model, 50.0) + shift * stderr
    (tmp_path / "mc_estimate.json").write_text(json.dumps(
        {"d_hat": d_hat.tolist(), "stderr": stderr.tolist(), "horizon": 50.0}))
    assert bool(workloads.check_mc(str(tmp_path), workloads.MC_MODEL)) == failed
