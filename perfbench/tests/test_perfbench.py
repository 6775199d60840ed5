"""Tests of the benchmark harness itself, on tiny inputs.

Run from the repository root (about three minutes on two cores)::

    python3 -m pytest perfbench/tests -q

Each workload runs end to end at ``--size tiny``; the printed metric names
must equal those in ``BENCHMARK.json``, and a corrupted output must make
the command exit non-zero.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))

from perfbench.hostspeed import SpeedSampler  # noqa: E402
from perfbench.layers import SELF_TIME_LAYERS  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
END_TO_END = [m["name"] for m in BENCHMARK["end_to_end"]]
PER_LAYER = [m["name"] for m in BENCHMARK["per_layer"]]


def bench(workload, trace=0, corrupt=None, cwd=ROOT):
    env = dict(os.environ)
    env.pop("PERFBENCH_CORRUPT", None)
    if corrupt:
        env["PERFBENCH_CORRUPT"] = corrupt
    cmd = BENCHMARK["command"] + ["--workload", workload, "--seed", "3", "--seconds", "1",
                                  "--trace", str(trace), "--size", "tiny"]
    proc = subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, text=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc, result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    proc, result = bench(workload)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == END_TO_END
    units = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    for name, metric in result["metrics"].items():
        assert metric["unit"] == units[name]
        assert metric["value"] > 0, name
    record = json.loads((ROOT / ".perfbench" / "results" /
                         f"{workload}-seed3-trace0.json").read_text())
    for it in record["iterations"]:
        assert it["speed"] > 0 and it["probe_slices"] >= 1 and it["cpu_s"] > 0
        assert it["setup_speed"] > 0 and it["setup_cpu_s"] > 0
    assert len(record["setup_samples"]) == 7 and min(record["setup_samples"]) > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics(workload):
    proc, result = bench(workload, trace=1)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert result["correct"]
    assert list(result["metrics"]) == PER_LAYER
    values = {name: m["value"] for name, m in result["metrics"].items()}
    # self times plus the ``other`` bucket partition the traced wall time
    self_times = [values[f"{layer}_s"] for layer in SELF_TIME_LAYERS]
    assert min(self_times) >= 0.0 and values["trace.other_s"] >= 0.0
    assert math.isclose(sum(self_times) + values["trace.other_s"], values["trace.wall_s"],
                        rel_tol=1e-9)
    if workload == "serve-http":
        # one render per response in the load generator, one per trace
        # event in the server: 2.0 per request plus the fault transitions
        record = json.loads((ROOT / ".perfbench" / "results" /
                             "serve-http-seed3-trace1.json").read_text())
        traced = record["iterations"][-1]
        assert traced["trace_events"] > traced["n_requests"]
        assert values["serve.trace.render_calls"] == traced["n_requests"] + traced["trace_events"]
        assert values["loadgen.http.connections_per_request"] == 1.0
        assert values["serve.checkpoint.flush_calls"] > 0
    if workload == "paper-exp":
        assert values["ml.svm.fit_s"] > 0 and values["network.buffer.offer_calls"] == 0
    if workload == "robustness-exp":
        assert values["network.buffer.offer_s"] > 0 and values["ml.svm.fit_calls"] == 0


@pytest.mark.parametrize("workload, corrupt", [
    ("robustness-exp", "comparison"),
    ("serve-http", "response"),
    ("serve-http", "digest"),
])
def test_corrupted_output_fails_the_run(workload, corrupt):
    proc, result = bench(workload, corrupt=corrupt)
    assert proc.returncode != 0
    assert result is not None and not result["correct"] and result["failed"] >= 1
    assert "FAILED:" in proc.stdout


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCHMARK["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc, result = bench(WORKLOADS[0], cwd=tmp_path)
    assert proc.returncode != 0 and result is None


def test_deadline_scales_with_the_run_length():
    from perfbench.run import DEADLINE_ALLOWANCE_S, Runner

    for seconds in (1.0, 300.0):
        args = argparse.Namespace(workload=WORKLOADS[0], size="tiny", seed=None,
                                  seconds=seconds)
        left = Runner(args).deadline - time.monotonic()
        assert seconds + DEADLINE_ALLOWANCE_S - 1.0 < left <= seconds + DEADLINE_ALLOWANCE_S


def test_speed_sampler_keeps_slices_out_of_a_held_block():
    sampler = SpeedSampler()
    with sampler.hold():
        sampler._on_alarm(signal.SIGALRM, None)
        assert sampler.slices_s == []
    assert len(sampler.slices_s) == 1 and sampler.cpu_s > 0
    assert sampler.speed() > 0
