"""Tests of the benchmark itself, on its smoke inputs.

    python3 -m pytest perfbench -q
"""

import dataclasses
import json
import math
import shutil
import subprocess
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(workload, trace, seed=7, cwd=ROOT):
    cmd = SPEC["command"] + ["--workload", workload, "--seed", str(seed), "--seconds", "1",
                             "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_reports_every_metric_and_passes_checks(workload, trace, key):
    result = _result(_run(workload, trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC[key]}
    for name, m in result["metrics"].items():
        assert math.isfinite(m["value"]), name
        if trace == 0:
            assert m["value"] > 0, name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    first, second = (_result(_run(workload, 1))["metrics"] for _ in range(2))
    counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"
              and m["name"] != "trace.spans_per_call"]
    assert counts
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}


def test_fails_without_result_when_sources_are_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for rel in SPEC["paths"]:
        shutil.copytree(ROOT / rel, tmp_path / rel,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


@pytest.fixture
def workloads_module(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(HERE))
    import workloads

    return workloads


def test_checks_catch_wrong_and_unrepeatable_output(workloads_module, tmp_path):
    wl = workloads_module.McMany(5, tmp_path, smoke=True)
    wl.prepare()
    batch, est = wl.call(0)
    assert wl.check(0, (batch, est)) == 0
    # the same input again, with a different result: not deterministic
    wrong = dataclasses.replace(est, tau_hat=est.tau_hat + 1e-12)
    assert wl.check(wl.cycle, (batch, wrong)) == 1
    # a new input whose estimate is far from its reference
    batch1, est1 = wl.call(1)
    assert wl.check(1, (batch1, dataclasses.replace(est1, tau_hat=est1.tau_hat + 0.5))) == 1
    assert wl.check(2, None) == 1


def test_sample_check_rejects_short_csv(workloads_module, tmp_path):
    wl = workloads_module.SampleEstimate(5, tmp_path, smoke=True)
    wl.prepare()
    out = wl.call(0)
    lines = wl.csv.read_text().splitlines(keepends=True)
    wl.csv.write_text("".join(lines[:-1]))
    assert wl.check(0, out) == wl.units_per_call



def test_estimate_check_rejects_malformed_output(workloads_module, tmp_path):
    wl = workloads_module.SampleEstimate(5, tmp_path, smoke=True)
    wl.prepare()
    out = wl.call(0)
    wl.est.write_text("statistic,value\nrho_hat\n")
    assert wl.check(0, out) == wl.units_per_call
