"""One process of the benchmark: a check, a set-up probe or one iteration.

``perfbench/run.py`` starts this module with ``PYTHONPATH=src:.`` from the
repository root, once per task, so that every iteration pays a cold
interpreter start the way a user's run does::

    python -m perfbench.worker check --workload serve-http --seed 7
    python -m perfbench.worker setup --workload paper-exp --t0 <monotonic>
    python -m perfbench.worker run --workload serve-http --t0 <monotonic> [--trace]

The last line of standard output is one JSON object.  ``--t0`` is the
parent's ``time.monotonic()`` just before it started this process; set-up
wall time runs from there to the first timed call.  Set-up and timed-phase
CPU time (``setup_cpu_s``, ``cpu_s``) add up this process and, for
``serve-http``, the server.

``PERFBENCH_CORRUPT`` (``comparison``, ``response`` or ``digest``) damages
one output after it is produced.  The harness tests use it to show that
the correctness gate fires.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import resource
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from perfbench.layers import nearest_rank

WORKLOADS = ("paper-exp", "robustness-exp", "serve-http")

PAPER_IDS = ("fig2", "fig3", "fig5", "fig6", "fig7", "fig8", "fig9", "table1", "table2")
ROBUSTNESS_IDS = ("ext-outage", "ext-faults")

#: Golden cases checked once per invocation, untimed.
CHECK_CASES = {
    "paper-exp": ("table1", "table2", "fig3", "fig5", "fig7", "fig8", "fig9"),
    "robustness-exp": ("ext-outage", "parallel-crossover"),
    "serve-http": ("serve-trace",),
}

#: Comparisons whose paper band holds for the experiment's canonical
#: inputs but not for every seeded one: ``fig5``'s accuracy on a synthetic
#: corpus drawn from another seed can fall outside the paper's 99% +/- 6%
#: (0.917 at seed 105).  They gate the run only without ``--seed``; the
#: ``fig5`` golden case pins the accuracies of its reduced canonical corpus.
CANONICAL_BANDS = {("fig5", "accuracy @>=100 px")}

#: Experiments whose golden case runs with default arguments, so the timed
#: run's own fingerprint is compared with the committed golden.
SEED_FREE_GOLDENS = ("table1", "table2", "fig3", "fig7")

#: ``repro-serve`` fault flags of the ``serve-http`` workload.
SERVE_HTTP_FLAGS = (
    "--server-mtbf", "1500", "--fault-servers", "2",
    "--dark-mtbf", "1200", "--fault-hives", "16",
)
SERVE_HTTP_DEFAULT_FAULT_SEED = 7
CHECKPOINT_EVERY = 50

ROOT = Path(__file__).resolve().parent.parent
SCRATCH = ROOT / ".perfbench"


def corrupt_mode() -> str:
    return os.environ.get("PERFBENCH_CORRUPT", "")


def peak_rss_mb(pid: Optional[int] = None) -> float:
    """Peak resident set of ``pid`` (default: this process) in MiB."""
    if pid is None:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def cpu_seconds(pids: Sequence[int] = ()) -> float:
    """CPU time of this process (all threads) plus that of ``pids``.

    The kernel leaves the time a hypervisor takes a virtual CPU away (steal)
    out of a task's run time, so this is the time the work ran.  Other
    processes are read per thread from ``/proc/<pid>/task/*/schedstat``.
    """
    total = time.process_time()
    for pid in pids:
        for task in Path(f"/proc/{pid}/task").iterdir():
            total += int((task / "schedstat").read_text().split()[0]) / 1e9
    return total


# -- inputs ------------------------------------------------------------------


def experiment_kwargs(eid: str, seed: Optional[int], size: str) -> Dict[str, Any]:
    """Arguments of one experiment: defaults, the workload seed where the
    experiment takes one, and smaller grids at ``size=tiny``."""
    import inspect

    from repro.experiments.registry import EXTENSIONS, REGISTRY

    kwargs: Dict[str, Any] = {}
    runner = REGISTRY.get(eid) or EXTENSIONS[eid]
    if seed is not None and "seed" in inspect.signature(runner).parameters:
        kwargs["seed"] = seed
    if size == "tiny":
        if eid == "fig5":
            kwargs.update(sizes=(20, 100))
        elif eid in ROBUSTNESS_IDS:
            kwargs.update(n_clients=70, n_cycles=12, crossover_sizes=(350, 650, 150))
    return kwargs


def load_spec(seed: Optional[int], size: str):
    """The ``serve-http`` load: ``SMOKE_SPEC`` with the workload seed."""
    from repro.serve.smoke import SMOKE_SPEC

    spec = SMOKE_SPEC if seed is None else dataclasses.replace(SMOKE_SPEC, seed=seed)
    if size == "tiny":
        spec = dataclasses.replace(spec, horizon_s=500.0)
    return spec


def fault_seed(seed: Optional[int]) -> int:
    return SERVE_HTTP_DEFAULT_FAULT_SEED if seed is None else seed


def serve_http_config(seed: Optional[int]):
    """The ``ServeConfig`` that ``repro-serve`` builds from the workload's
    flags, for the in-process reference fold.  The server reports its own
    config on shutdown and the harness requires the two to be equal."""
    from repro.serve.cli import build_parser
    from repro.serve.engine import ServeConfig
    from repro.serve.faults import ServeFaultSpec

    args = build_parser().parse_args(
        list(SERVE_HTTP_FLAGS) + ["--fault-seed", str(fault_seed(seed))])
    return ServeConfig(
        model=args.model, policy=args.policy, policy_seed=args.policy_seed,
        max_parallel=args.max_parallel, period=args.period,
        max_servers=args.max_servers, queue_bound=args.queue_bound,
        faults=ServeFaultSpec(
            server_mtbf_s=args.server_mtbf, server_repair_s=args.server_repair,
            fault_servers=args.fault_servers, dark_mtbf_s=args.dark_mtbf,
            dark_repair_s=args.dark_repair, fault_hives=args.fault_hives,
            horizon_s=args.fault_horizon, seed=args.fault_seed,
        ),
    )


# -- workloads ---------------------------------------------------------------


class TimedTransport:
    """Delegate that times every ``send`` of the transport it wraps."""

    def __init__(self, inner: Any) -> None:
        self.inner = inner
        self.latencies: List[float] = []
        self.hold = contextlib.nullcontext
        self._corrupt = corrupt_mode() == "response"

    def send(self, request: Dict[str, Any]) -> Dict[str, Any]:
        with self.hold():
            t0 = time.perf_counter()
            response = self.inner.send(request)
            self.latencies.append(time.perf_counter() - t0)
        if self._corrupt:
            response, self._corrupt = dict(response, ok=False), False
        return response


class Workload:
    """One workload: ``setup``, the timed ``measure``, then ``finish``,
    which checks the outputs untimed and returns the iteration record."""

    errors: List[str]

    def pids(self) -> Sequence[int]:
        """Other processes that do the workload's work (a server)."""
        return ()

    def attach(self, sampler: Any) -> None:
        """Keep ``sampler``'s probe slices out of timed requests."""

    def close(self) -> None:
        """Release what ``setup`` started, whether or not it finished."""


class Experiments(Workload):
    """``paper-exp`` and ``robustness-exp``: registry experiments, serially."""

    def __init__(self, workload: str, seed: Optional[int], size: str) -> None:
        self.ids = PAPER_IDS if workload == "paper-exp" else ROBUSTNESS_IDS
        self.seed = seed
        self.size = size

    def setup(self) -> None:
        from repro.experiments.registry import run_experiment

        self.run_experiment = run_experiment
        self.kwargs = {eid: experiment_kwargs(eid, self.seed, self.size) for eid in self.ids}

    def measure(self) -> None:
        self.results: Dict[str, Any] = {}
        self.raised: Dict[str, str] = {}
        self.done_at: List[float] = []
        t0 = time.perf_counter()
        for eid in self.ids:
            try:
                self.results[eid] = self.run_experiment(eid, **self.kwargs[eid])
            except Exception as exc:  # noqa: BLE001 — a raising experiment is a failed op
                self.raised[eid] = f"{type(exc).__name__}: {exc}"
            self.done_at.append(time.perf_counter() - t0)

    def finish(self) -> Dict[str, Any]:
        from repro.experiments.report import Comparison
        from repro.validate.golden import diff_fingerprints, load_golden

        if corrupt_mode() == "comparison":
            result, i, c = next((r, i, c) for r in self.results.values()
                                for i, c in enumerate(r.comparisons)
                                if c.tolerance_pct is not None)
            result.comparisons[i] = Comparison(
                c.quantity, c.paper_value,
                c.paper_value * (1 + 2 * c.tolerance_pct / 100) + 1.0, c.tolerance_pct)
        self.errors = [f"{eid} raised {msg}" for eid, msg in self.raised.items()]
        failed_ops = set(self.raised)
        for eid, result in self.results.items():
            for c in result.comparisons:
                if self.seed is not None and (eid, c.quantity) in CANONICAL_BANDS:
                    continue
                if c.within_tolerance is False:
                    failed_ops.add(eid)
                    self.errors.append(
                        f"{eid}: {c.quantity} = {c.measured_value:.6g} is outside "
                        f"{c.tolerance_pct}% of the paper's {c.paper_value:.6g}")
            if eid in SEED_FREE_GOLDENS:
                drift = diff_fingerprints(load_golden(eid)["fingerprint"], result.fingerprint())
                if drift:
                    failed_ops.add(eid)
                    self.errors.append(f"{eid}: {len(drift)} field(s) drift from the golden")
        return {
            "ops": len(self.ids),
            "failed_ops": len(failed_ops),
            "failed_checks": 0,
            # time to each artifact, as a user of ``repro-exp`` waits for it
            "latencies_s": self.done_at,
            "engine": {},
            "n_requests": 0,
        }


class ServeHttp(Workload):
    """``serve-http``: a ``repro-serve`` subprocess replayed over HTTP."""

    def __init__(self, workload: str, seed: Optional[int], size: str,
                 traced: bool = False) -> None:
        self.seed = seed
        self.size = size
        self.traced = traced
        self.proc: Optional[subprocess.Popen] = None
        self.tmp = SCRATCH / "tmp" / f"serve-{os.getpid()}"

    def setup(self) -> None:
        from repro.loadgen.replay import HttpTransport, replay

        self.replay = replay
        self.spec = load_spec(self.seed, self.size)
        self.tmp.mkdir(parents=True, exist_ok=True)
        port_file = self.tmp / "port"
        self.trace_out = self.tmp / "trace.json"
        self.summary_out = self.tmp / "server-trace.json"
        args = list(SERVE_HTTP_FLAGS) + [
            "--fault-seed", str(fault_seed(self.seed)),
            "--port", "0", "--port-file", str(port_file),
            "--trace-out", str(self.trace_out),
            "--checkpoint", str(self.tmp / "serve.ckpt"),
            "--checkpoint-every", str(CHECKPOINT_EVERY),
        ]
        if self.traced:
            cmd = [sys.executable, "-m", "perfbench.serve_traced",
                   "--summary-out", str(self.summary_out), "--"] + args
        else:
            cmd = [sys.executable, "-m", "repro.serve.cli"] + args
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                                     stderr=subprocess.PIPE, text=True)
        deadline = time.monotonic() + 60.0
        while not port_file.exists():
            if self.proc.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError(f"repro-serve did not start: {self.stop()}")
            time.sleep(0.002)
        http = HttpTransport(f"http://127.0.0.1:{int(port_file.read_text())}")
        if not http.health().get("ok"):
            raise RuntimeError("repro-serve health endpoint is not ok")
        self.http = http
        self.transport = TimedTransport(http)

    def pids(self) -> Sequence[int]:
        return () if self.proc is None else (self.proc.pid,)

    def attach(self, sampler: Any) -> None:
        self.transport.hold = sampler.hold

    def measure(self) -> None:
        self.report = self.replay(self.spec, self.transport)

    def stop(self) -> str:
        """SIGTERM the server and wait for it; returns its stderr."""
        if self.proc is None:
            return ""
        proc, self.proc = self.proc, None
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
        try:
            self.stdout, stderr = proc.communicate(timeout=60.0)
        except subprocess.TimeoutExpired:
            proc.kill()
            self.stdout, stderr = proc.communicate()
        self.returncode = proc.returncode
        return stderr

    def finish(self) -> Dict[str, Any]:
        report = self.report
        checks = []
        health = self.http.health()
        rss = peak_rss_mb(self.proc.pid)
        stderr = self.stop()
        if self.returncode != 0:
            checks.append(f"repro-serve exited {self.returncode}: {stderr[-500:]}")
            server_report, trace = {}, {"sha256": "", "n_events": 0}
        else:
            server_report = json.loads(self.stdout)
            trace = json.loads(self.trace_out.read_text())
        trace_sha = trace["sha256"]
        if corrupt_mode() == "digest":
            trace_sha = trace_sha[::-1]
        self.errors = checks + (
            [f"{report.n_errors} request(s) failed: {report.by_class}"] if report.n_errors else [])
        out = {
            "ops": report.n_requests,
            "failed_ops": report.n_errors,
            "failed_checks": len(checks),
            "latencies_s": self.transport.latencies,
            "peak_rss_mb": rss,
            "engine": {k: health[k] for k in ("served", "shed", "errored")},
            "n_requests": report.n_requests,
            # the server renders each trace event once: one per request,
            # plus the fault transitions it records
            "trace_events": trace["n_events"],
            "outputs": {"response_sha256": report.response_sha256,
                        "trace_sha256": trace_sha,
                        "config": server_report.get("config")},
        }
        if self.traced:
            out["server_trace"] = json.loads(self.summary_out.read_text())
        return out

    def close(self) -> None:
        self.stop()
        shutil.rmtree(self.tmp, ignore_errors=True)


def make_workload(workload: str, seed: Optional[int], size: str, traced: bool) -> Workload:
    if workload in ("paper-exp", "robustness-exp"):
        return Experiments(workload, seed, size)
    return ServeHttp(workload, seed, size, traced)


# -- tasks -------------------------------------------------------------------


def run_check(workload: str, seed: Optional[int], size: str) -> Dict[str, Any]:
    """Golden cases of the workload, and the serve-http reference fold."""
    from repro.validate.golden import check_cases

    cases = CHECK_CASES[workload]
    drift = check_cases(list(cases))
    out: Dict[str, Any] = {
        "cases": list(cases),
        "errors": [f"golden {case}: {len(d)} field(s) drift, first {d[0]}"
                   for case, d in drift.items() if d],
    }
    if workload == "serve-http":
        from repro.loadgen.replay import InProcessTransport, replay
        from repro.serve.engine import OrchestrationEngine

        engine = OrchestrationEngine(serve_http_config(seed))
        report = replay(load_spec(seed, size), InProcessTransport(engine))
        if report.n_errors:
            out["errors"].append(
                f"reference fold: {report.n_errors} request(s) failed: {report.by_class}")
        if not engine.steady_state_matches_batch():
            out["errors"].append(
                "reference fold: steady-state live allocation differs from the batch fold")
        try:
            engine.report()  # runs the serve-conservation checker
        except Exception as exc:  # noqa: BLE001 — any checker failure fails the run
            out["errors"].append(f"reference fold: engine.report() raised "
                                 f"{type(exc).__name__}: {exc}")
        out["reference"] = {
            "response_sha256": report.response_sha256,
            "trace_sha256": engine.trace.fingerprint(),
            "config": engine.config.describe(),
        }
    return out


def set_up(job: Workload, t0: float, sample_speed: bool) -> Dict[str, float]:
    """``job.setup()``, with its wall and CPU time since ``t0``.

    With ``sample_speed`` a :class:`~perfbench.hostspeed.SpeedSampler`
    runs during set-up as it does during the timed phase: its slices and
    its own construction are left out of the times, and ``setup_speed`` is
    the speed it measured.
    """
    sampler, own_cpu_s = None, 0.0
    if sample_speed:
        from perfbench.hostspeed import SpeedSampler

        cpu0 = time.process_time()
        sampler = SpeedSampler()
        own_cpu_s = time.process_time() - cpu0
        sampler.start()
    try:
        job.setup()
    finally:
        if sampler is not None:
            sampler.stop()
    out = {"setup_s": time.monotonic() - t0, "setup_cpu_s": cpu_seconds(job.pids())}
    if sampler is not None:
        out["setup_s"] -= sampler.wall_s
        out["setup_cpu_s"] -= own_cpu_s + sampler.cpu_s
        out["setup_speed"] = sampler.speed()
    return out


def run_setup(workload: str, seed: Optional[int], size: str, t0: float) -> Dict[str, float]:
    """Set the workload up with a speed sampler running, and tear it down."""
    job = make_workload(workload, seed, size, traced=False)
    try:
        return set_up(job, t0, sample_speed=True)
    finally:
        job.close()


def run_iteration(workload: str, seed: Optional[int], size: str, t0: float,
                  traced: bool, baseline_wall_s: float = 0.0,
                  sample_speed: bool = False) -> Dict[str, Any]:
    """Set up, run the timed phase once, then check its outputs untimed.

    With ``sample_speed`` a :class:`~perfbench.hostspeed.SpeedSampler`
    runs during set-up (see :func:`set_up`) and another during the timed
    phase; the latter's slices are taken out of ``wall_s`` and ``cpu_s``,
    and ``speed`` is its reference-over-measured ratio.
    A traced iteration also reports the per-layer metrics; its
    ``trace.overhead_frac`` is relative to ``baseline_wall_s``, the wall
    time of an untraced iteration of the same run.
    """
    tracer = sampler = None
    if traced:
        from perfbench.layers import Tracer, install

        tracer = Tracer()
        install(tracer)
    job = make_workload(workload, seed, size, traced)
    try:
        setup = set_up(job, t0, sample_speed)
        if sample_speed:
            from perfbench.hostspeed import SpeedSampler

            sampler = SpeedSampler()
            job.attach(sampler)
        cpu0 = cpu_seconds(job.pids())
        start = time.perf_counter()
        if tracer is not None:
            tracer.run_root(job.measure)
        elif sampler is not None:
            sampler.start()
            try:
                job.measure()
            finally:
                sampler.stop()
        else:
            job.measure()
        wall_s = time.perf_counter() - start
        cpu_s = cpu_seconds(job.pids()) - cpu0
        rss = peak_rss_mb()
        out = job.finish()
    finally:
        job.close()
    if sampler is not None:
        wall_s -= sampler.wall_s
        cpu_s -= sampler.cpu_s
        out.update(speed=sampler.speed(), probe_slices=len(sampler.slices_s))
    out.setdefault("peak_rss_mb", rss)
    out.update(setup, wall_s=wall_s, cpu_s=cpu_s, errors=job.errors)
    lat = out["latencies_s"]
    if tracer is not None:
        from perfbench.layers import layer_metrics, merge_server

        summary = tracer.summary()
        server = out.pop("server_trace", None)
        if server is not None:
            summary = merge_server(summary, server)
        tracer.write_spans(str(SCRATCH / "spans" / f"{workload}-client.npz"))
        out["layers"] = layer_metrics(summary, out["n_requests"], baseline_wall_s,
                                      out["engine"])
        negative = {k: v for k, v in summary["self_s"].items() if v < 0}
        if negative:
            out["failed_checks"] += 1
            out["errors"].append(f"negative self time in the trace: {negative}")
    del out["latencies_s"]
    out["lat_p50_s"] = nearest_rank(lat, 0.50)
    out["lat_p99_s"] = nearest_rank(lat, 0.99)
    return out


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench.worker")
    parser.add_argument("task", choices=("check", "setup", "run"))
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--t0", type=float, default=None)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--baseline-wall", type=float, default=0.0)
    parser.add_argument("--sample-speed", action="store_true")
    args = parser.parse_args(argv)
    t0 = time.monotonic() if args.t0 is None else args.t0
    # One CPU for this process and the server it starts: on two, the load
    # generator and the server woke each other across CPUs on every
    # request, and serve-http's CPU time spread 2-3x as much.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    if args.task == "check":
        out = run_check(args.workload, args.seed, args.size)
    elif args.task == "setup":
        out = run_setup(args.workload, args.seed, args.size, t0)
    else:
        out = run_iteration(args.workload, args.seed, args.size, t0, args.trace,
                            args.baseline_wall, args.sample_speed)
    sys.stdout.write("\n" + json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
