"""Integration tests: a real ``repro-serve`` subprocess behind HTTP.

Boots the server the same way CI's serve-smoke job does (ephemeral port,
``--port-file`` handshake, trace/obs artifacts) but with a load about 10×
smaller than the canonical :data:`repro.serve.smoke.SMOKE_SPEC` so the
whole module stays in the low seconds.  The full-size run is exercised by
``python -m repro.serve.smoke --http`` in CI and by the serve-trace golden.
"""

import json
import signal
import socket
import subprocess
import urllib.error
import urllib.parse
import urllib.request
from pathlib import Path

import pytest

from repro.loadgen.arrivals import LoadSpec
from repro.loadgen.replay import HttpTransport, replay, replay_in_process
from repro.serve.http import MAX_BODY_BYTES
from repro.serve.smoke import _boot_server

SMALL_SPEC = LoadSpec(
    n_hives=12,
    rate_hz=0.02,
    horizon_s=600.0,
    telemetry_fraction=0.5,
    payload_bytes=512,
    seed=0xBEE5,
    mode="open",
)


@pytest.fixture()
def server(tmp_path):
    proc, url, trace_out, obs_out = _boot_server(tmp_path)
    try:
        yield proc, url, trace_out, obs_out
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)


def shutdown(proc) -> str:
    """SIGTERM the server and return its stdout (the final report JSON)."""
    proc.send_signal(signal.SIGTERM)
    stdout, _ = proc.communicate(timeout=30)
    assert proc.returncode == 0, f"server exited {proc.returncode} on SIGTERM"
    return stdout.decode()


class TestLifecycle:
    def test_health_then_graceful_sigterm(self, server):
        proc, url, trace_out, obs_out = server
        health = HttpTransport(url).health()
        assert health["ok"] is True
        assert health["fleet"] == 0
        stdout = shutdown(proc)
        # shutdown flushed both artifacts and printed the report; the health
        # probe itself counts (every handled request does, since the
        # accounting fix) and must not register as an error
        report = json.loads(stdout)
        assert report["requests"] == 1
        assert report["errors"] == 0
        assert report["shutdown_signal"] == signal.SIGTERM
        assert trace_out.exists() and obs_out.exists()

    def test_obs_snapshot_flushed_on_sigterm(self, server):
        proc, url, trace_out, obs_out = server
        t = HttpTransport(url)
        t.send({"op": "admit", "hive": 1, "t": 0.0})
        t.send({"op": "inference", "hive": 1, "t": 5.0})
        shutdown(proc)
        snap = json.loads(obs_out.read_text())
        assert snap["schema_version"] >= 1
        assert snap["metrics"]["serve.requests"]["value"] == 2.0
        assert snap["run"]["kind"] == "serve"
        assert snap["run"]["report"]["requests"] == 2
        trace = json.loads(trace_out.read_text())
        assert trace["n_events"] == 2
        assert len(trace["events"]) == 2

    def test_unknown_route_404_and_bad_json_400(self, server):
        proc, url, _trace, _obs = server
        with pytest.raises(urllib.error.HTTPError) as exc:
            urllib.request.urlopen(f"{url}/v1/frobnicate", data=b"{}", timeout=10)
        assert exc.value.code == 404
        req = urllib.request.Request(
            f"{url}/v1/admit", data=b"not json", method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as exc:
            urllib.request.urlopen(req, timeout=10)
        assert exc.value.code == 400

    def test_engine_error_is_422_with_body(self, server):
        proc, url, _trace, _obs = server
        t = HttpTransport(url)
        t.send({"op": "admit", "hive": 7, "t": 0.0})
        r = t.send({"op": "admit", "hive": 7, "t": 1.0})
        assert r["ok"] is False and "allocated twice" in r["error"]

    @pytest.mark.parametrize("t", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_time_is_422_and_clock_guard_kept(self, server, t):
        # Python's json module parses these tokens into float nan / inf.
        proc, url, _trace, _obs = server
        req = urllib.request.Request(
            f"{url}/v1/admit", data=f'{{"hive": 1, "t": {t}}}'.encode(), method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as exc:
            urllib.request.urlopen(req, timeout=10)
        assert exc.value.code == 422
        assert "must be finite" in json.loads(exc.value.read())["error"]
        client = HttpTransport(url)
        assert client.send({"op": "admit", "hive": 1, "t": 10.0})["ok"] is True
        r = client.send({"op": "inference", "hive": 1, "t": 5.0})
        assert r["ok"] is False and "non-monotonic" in r["error"]


def raw_post_status(url: str, content_length: str) -> int:
    """POST with a raw ``Content-Length`` header and no body; return the status.

    The socket timeout turns a server that waits for a body into a failure
    instead of a hang.
    """
    parts = urllib.parse.urlsplit(url)
    with socket.create_connection((parts.hostname, parts.port), timeout=3.0) as sock:
        sock.sendall(
            f"POST /v1/admit HTTP/1.1\r\nHost: {parts.netloc}\r\n"
            f"Content-Length: {content_length}\r\n\r\n".encode("ascii")
        )
        status_line = sock.makefile("rb").readline()
    return int(status_line.split()[1])


class TestRequestBodyGuard:
    @pytest.mark.parametrize(
        "content_length, status",
        [("-1", 400), ("abc", 400), ("1.5", 400), (str(MAX_BODY_BYTES + 1), 413)],
    )
    def test_refused_before_read_and_not_counted(self, server, content_length, status):
        proc, url, _trace, _obs = server
        assert raw_post_status(url, content_length) == status
        # The server is still responsive and the refused request never
        # reached the engine: only the health probe is counted.
        assert HttpTransport(url).health()["ok"] is True
        assert json.loads(shutdown(proc))["requests"] == 1


class TestReplayOverHttp:
    def test_http_replay_matches_in_process_bit_for_bit(self, server):
        proc, url, trace_out, _obs = server
        report = replay(SMALL_SPEC, HttpTransport(url))
        assert report.n_errors == 0
        _engine, local = replay_in_process(SMALL_SPEC)
        assert report.n_requests == local.n_requests
        assert report.response_sha256 == local.response_sha256
        shutdown(proc)
        trace = json.loads(trace_out.read_text())
        assert trace["sha256"] == _engine.trace.fingerprint()

    def test_trace_is_deterministic_across_server_runs(self, tmp_path):
        def one_run(sub):
            d = tmp_path / sub
            d.mkdir()
            proc, url, trace_out, _obs = _boot_server(d)
            try:
                report = replay(SMALL_SPEC, HttpTransport(url))
                assert report.n_errors == 0
                shutdown(proc)
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait(timeout=10)
            return json.loads(trace_out.read_text())["sha256"]

        assert one_run("a") == one_run("b")


class TestGolden:
    def test_smoke_fingerprint_matches_committed_golden(self):
        from repro.serve.smoke import smoke_fingerprint
        from repro.validate.golden import diff_fingerprints, load_golden

        golden_dir = Path(__file__).resolve().parents[1] / "golden"
        stored = load_golden("serve-trace", golden_dir)
        drifts = diff_fingerprints(stored["fingerprint"], smoke_fingerprint())
        assert not drifts, f"serve-trace drifted: {drifts}"

    def test_smoke_main_gates_green(self):
        from repro.serve.smoke import main

        assert main([]) == 0


class TestCliFlags:
    def test_bad_policy_exits_nonzero(self):
        import os
        import sys

        env = dict(os.environ)
        src = Path(__file__).resolve().parents[2] / "src"
        env["PYTHONPATH"] = str(src)
        proc = subprocess.run(
            [sys.executable, "-m", "repro.serve.cli", "--policy", "nope", "--port", "0"],
            capture_output=True,
            env=env,
            timeout=30,
        )
        assert proc.returncode != 0
        assert b"policy" in proc.stderr
