"""The committed performance records ``BENCH_<workload>.json`` at the repo root.

Each holds a list of entries, one per measured commit, in the order they were
added.  An entry names the commit, the command and seeds it ran, the machine's
core count and the Python and numpy versions, each run's result line as
``bench/run.py`` printed it (a traced run's per-layer metrics among them),
and the median and IQR of the end-to-end timings.
These tests check the records' form only; they compare no timing.
"""

import json
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"] for m in BENCHMARK["end_to_end"]}
PER_LAYER = {m["name"] for m in BENCHMARK["per_layer"]}


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_record_parses_names_a_commit_and_lists_the_end_to_end_metrics(workload):
    entries = json.loads((ROOT / f"BENCH_{workload}.json").read_text())["entries"]
    assert entries
    for entry in entries:
        assert re.fullmatch(r"[0-9a-f]{40}", entry["commit"])
        assert entry["workload"] == workload
        assert f"--workload {workload}" in entry["command"]
        assert len(entry["runs"]) == len(entry["seeds"]) >= 1
        assert {"nproc", "python", "numpy"} <= set(entry)
        for run in entry["runs"]:
            assert run["result"]["correct"] is True
            assert END_TO_END <= set(run["result"]["metrics"])
        # a traced run reports the per-layer metrics instead
        assert PER_LAYER <= set(entry["traced_run"]["result"]["metrics"])
        assert set(entry["summary"]) == {"job_s", "setup_s", "peak_rss_mb"}
        for stats in entry["summary"].values():
            assert stats["q1"] <= stats["median"] <= stats["q3"]
