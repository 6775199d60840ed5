"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the repository root::

    python3 perfbench/run.py --workload serve-http --seed 7 --seconds 10 --trace 0

Workloads: ``paper-exp``, ``robustness-exp`` and ``serve-http`` (see
``perfbench/README.md``).  Each task runs in its own
``python -m perfbench.worker`` process:

1. one untimed correctness check (golden cases, and for ``serve-http`` the
   in-process reference fold);
2. ``--trace 0``: timed iterations, each in a fresh interpreter, for about
   ``--seconds`` (at least one), then set-up probes until there are seven
   set-up samples.  Times are CPU seconds of the processes doing the work,
   as medians over the run (see README.md, "Noise").
   ``--trace 1``: one untraced iteration and one traced iteration; the
   metrics are the per-layer numbers of the traced one, then the
   wall-clock figures of the untraced one.

The last line of standard output is ``{"correct", "attempted", "failed",
"metrics"}``.  The exit code is 0 only when every check passed.  The full
record, with provenance and every iteration, is written under
``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
SCRATCH = ROOT / ".perfbench"
sys.path.insert(0, str(ROOT))

from perfbench.layers import LAYER_METRICS  # noqa: E402
from perfbench.worker import WORKLOADS  # noqa: E402

#: End-to-end metrics (``--trace 0``): name -> unit.
END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "cpu_s": "s",
    "ok_frac": "frac",
    "peak_rss_mb": "MiB",
}

#: Wall-clock figures of the untraced iteration of a ``--trace 1`` run,
#: printed after the per-layer metrics (see README.md, "Noise").
WALL_CLOCK: Dict[str, str] = {
    "e2e.wall_s": "s",
    "e2e.rps": "1/s",
    "e2e.lat_p50_ms": "ms",
    "e2e.lat_p99_ms": "ms",
}

MIN_SETUP_SAMPLES = 7
#: BLAS runs on the calling thread.  With OpenBLAS helper threads,
#: ``paper-exp`` spent 40-50% more CPU time than wall time, in an amount
#: that moved with scheduling, and its peak memory took one of two values.
ONE_BLAS_THREAD = {"OPENBLAS_NUM_THREADS": "1"}
#: A run ends within ``--seconds`` plus this many seconds of its start;
#: the allowance covers the check, the set-up probes and one iteration
#: that starts just before ``--seconds`` is reached.
DEADLINE_ALLOWANCE_S = 150.0


def provenance() -> Dict[str, Any]:
    """Host fingerprint, source revision, Python version and ``nproc``."""
    cpu = ""
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    nproc = len(os.sched_getaffinity(0))
    host = {"machine": platform.machine(), "cpu": cpu, "nproc": nproc,
            "system": platform.system(), "release": platform.release()}
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
        rev = git.stdout.strip() if git.returncode == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        rev = "unknown"
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return {
        "host": host,
        "host_fingerprint": hashlib.sha256(
            json.dumps(host, sort_keys=True).encode()).hexdigest()[:16],
        "git_rev": rev,
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "nproc": nproc,
    }


class Runner:
    """Runs the worker tasks of one invocation and keeps the tally."""

    def __init__(self, args: argparse.Namespace) -> None:
        self.args = args
        self.deadline = time.monotonic() + args.seconds + DEADLINE_ALLOWANCE_S
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        (SCRATCH / "tmp").mkdir(parents=True, exist_ok=True)
        paths = [str(ROOT / "src"), str(ROOT)]
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths),
                        TMPDIR=str(SCRATCH / "tmp"), **ONE_BLAS_THREAD)

    def call(self, task: str, *extra: str) -> Optional[Dict[str, Any]]:
        """Run one worker task; returns its JSON result, or None if it failed."""
        cmd = [sys.executable, "-m", "perfbench.worker", task,
               "--workload", self.args.workload, "--size", self.args.size, *extra]
        if self.args.seed is not None:
            cmd += ["--seed", str(self.args.seed)]
        timeout = max(1.0, self.deadline - time.monotonic())
        t0 = time.monotonic()
        proc = subprocess.Popen(cmd + ["--t0", repr(t0)], cwd=ROOT, env=self.env,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        try:
            stdout, stderr = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            stdout, stderr = proc.communicate()
            self.errors.append(f"worker {task} timed out after {timeout:.0f} s")
            return None
        if proc.returncode != 0:
            self.errors.append(f"worker {task} exited {proc.returncode}: {stderr[-2000:]}")
            return None
        return json.loads(stdout.strip().splitlines()[-1])

    def check(self) -> Optional[Dict[str, Any]]:
        out = self.call("check")
        if out is None:
            self.attempted += 1
            self.failed += 1
            return None
        self.attempted += len(out["cases"])
        self.failed += len(out["errors"])
        self.errors += out["errors"]
        return out

    def iteration(self, reference: Optional[Dict[str, Any]], *extra: str
                  ) -> Optional[Dict[str, Any]]:
        """One timed iteration plus its output checks."""
        it = self.call("run", *extra)
        self.attempted += 1 if it is None else it["ops"] + 1
        if it is None:
            self.failed += 1
            return None
        mismatches = [] if reference is None else [
            f"{key} differs from the in-process reference fold"
            for key in ("response_sha256", "trace_sha256", "config")
            if it["outputs"][key] != reference[key]]
        self.failed += it["failed_ops"] + bool(it["failed_checks"] or mismatches)
        self.errors += it["errors"] + mismatches
        return it

    def setup_probe(self) -> Optional[float]:
        out = self.call("setup")
        return None if out is None else scaled_setup(out)


def scaled_setup(out: Dict[str, Any]) -> float:
    """Set-up CPU time at the reference host speed."""
    return out["setup_cpu_s"] * out["setup_speed"]


def end_to_end(iterations: List[Dict[str, Any]], setups: List[float],
               attempted: int, failed: int) -> Dict[str, float]:
    """CPU times at the reference host speed, and memory, as medians.

    Each CPU time, set-up or timed phase, is scaled by the speed a sampler
    measured while it ran.
    """
    return {
        "setup_s": statistics.median(setups),
        "cpu_s": statistics.median(it["cpu_s"] * it["speed"] for it in iterations),
        "ok_frac": 1.0 - failed / attempted,
        "peak_rss_mb": statistics.median(it["peak_rss_mb"] for it in iterations),
    }


def wall_clock(it: Dict[str, Any]) -> Dict[str, float]:
    return {
        "e2e.wall_s": it["wall_s"],
        "e2e.rps": it["ops"] / it["wall_s"],
        "e2e.lat_p50_ms": it["lat_p50_s"] * 1e3,
        "e2e.lat_p99_ms": it["lat_p99_s"] * 1e3,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: each workload's canonical seed)")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="measure for about this long (at least one iteration)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report the per-layer metrics of a traced run")
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help=argparse.SUPPRESS)  # tiny inputs for the harness tests
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    runner = Runner(args)
    check = runner.check()
    reference = None if check is None else check.get("reference")
    iterations: List[Dict[str, Any]] = []
    setups: List[float] = []
    metrics: Dict[str, Dict[str, Any]] = {}
    if args.trace:
        base = runner.iteration(reference)
        traced = base and runner.iteration(
            reference, "--trace", "--baseline-wall", repr(base["wall_s"]))
        iterations = [it for it in (base, traced) if it]
        if traced:
            values = dict(traced["layers"], **wall_clock(base))
            metrics = {name: {"value": values[name], "unit": unit}
                       for name, unit in {**LAYER_METRICS, **WALL_CLOCK}.items()}
    else:
        start = time.monotonic()
        while True:
            it = runner.iteration(reference, "--sample-speed")
            if it is None:
                break
            iterations.append(it)
            setups.append(scaled_setup(it))
            elapsed = time.monotonic() - start
            # stop where the run ends closest to --seconds
            if elapsed * (1 + 0.5 / len(iterations)) >= args.seconds:
                break
        while iterations and len(setups) < MIN_SETUP_SAMPLES:
            probe = runner.setup_probe()
            if probe is None:
                break
            setups.append(probe)
        if iterations and len(setups) >= MIN_SETUP_SAMPLES:
            values = end_to_end(iterations, setups, runner.attempted, runner.failed)
            metrics = {name: {"value": values[name], "unit": unit}
                       for name, unit in END_TO_END.items()}

    correct = runner.failed == 0 and not runner.errors and bool(metrics)
    result = {"correct": correct, "attempted": runner.attempted,
              "failed": runner.failed, "metrics": metrics}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "size": args.size, "provenance": provenance(),
              "setup_samples": setups, "iterations": iterations,
              "errors": runner.errors, "result": result}
    results = SCRATCH / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(record, indent=1))

    for error in runner.errors:
        print(f"FAILED: {error}")
    print(f"{args.workload}: {len(iterations)} iteration(s), {len(setups)} set-up sample(s), "
          f"host {record['provenance']['host_fingerprint']}, "
          f"rev {record['provenance']['git_rev'][:12]}, "
          f"python {record['provenance']['python']}, nproc {record['provenance']['nproc']}")
    for name, metric in metrics.items():
        print(f"  {name:40s} {metric['value']:>16.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
