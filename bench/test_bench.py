"""Tests of the benchmark itself, on the smoke sizes; a few seconds in all.

    python3 -m pytest bench
"""

import json
import shutil
import subprocess
import sys

import pytest

import run
import tracing
import workloads

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=run.ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=300
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_smoke_run_reports_every_metric(workload, trace):
    out = bench("--workload", workload, "--seed", "0", "--seconds", "0.5", "--trace", str(trace), "--smoke")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    record = json.loads((run.OUT / ("%s-seed0-trace%d-smoke.json" % (workload, trace))).read_text())
    assert record["frozen_checked"]
    assert record["provenance"]["seed"] == 0 and record["provenance"]["nproc"] >= 1
    if trace:
        header, arrays = tracing.load_spans(run.ROOT / record["spans_file"])
        assert header["spans"] == result["metrics"]["trace.spans"]["value"] == len(arrays["start"])
        start, end, parent = arrays["start"], arrays["end"], arrays["parent"]
        for i, p in enumerate(parent):
            assert start[i] <= end[i] and (p < 0 or start[p] <= start[i] <= end[i] <= end[p])
    else:
        assert len(record["setup_trials"]) == run.SETUP_REPEATS
        assert record["ref_samples"]


def test_spec_matches_the_code():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == tracing.metric_units()
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert max(bounds.values()) <= 0.25 and bounds["setup_s"] == max(bounds.values())


def test_wrong_or_unstable_outputs_count_as_failures():
    good = run.Pass()
    good.digests = ["a", "b", "c"]
    changed = run.Pass()
    changed.digests = ["a", "x", "c"]
    raised = run.Pass()
    raised.digests = ["a", None, "c"]
    raised.errors = {1: "Traceback ..."}
    inputs = ["i0", "i1", "i2"]
    assert run.judge(inputs, [good, good], None)[:2] == (6, 0)
    assert run.judge(inputs, [good, changed], None)[:2] == (6, 1)
    assert run.judge(inputs, [good, raised], None)[:2] == (6, 1)
    assert run.judge(inputs, [good], ["a", "b", "z"])[:2] == (3, 1)


def test_tracer_restores_the_package():
    api = run.load_onecyl()
    before = {name: dict(vars(m)) for name, m in sys.modules.items() if name.startswith("onecyl")}
    methods = dict(vars(api.suspension.SquareTiledCover))
    tracer = tracing.Tracer()
    tracer.install()
    assert api.classify.canonical_key is not before["onecyl.classify"]["canonical_key"]
    assert api.suspension.SquareTiledCover.apply_T is not methods["apply_T"]
    tracer.uninstall()
    after = {name: dict(vars(m)) for name, m in sys.modules.items() if name.startswith("onecyl")}
    assert after == before
    assert dict(vars(api.suspension.SquareTiledCover)) == methods


def test_fails_without_the_package(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = bench("--workload", "queries", "--seed", "0", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert out.returncode == 2 and out.stdout == ""
