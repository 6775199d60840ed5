"""Snapshot/restore round-trip guarantees (repro.resilience.snapshot)."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.des.engine import Engine, SimulationError
from repro.resilience.errors import SnapshotError
from repro.resilience.registry import encode_callback, register_callback
from repro.resilience.snapshot import (
    SNAPSHOT_VERSION,
    check_snapshot,
    decode_value,
    encode_value,
    restore_engine,
    restore_obs,
    restore_schedule,
    snapshot_engine,
    snapshot_obs,
    snapshot_schedule,
)

#: Global fire log the registered test callback appends to; cleared around
#: every run so original and restored engines write to fresh logs.
TRACE = []


@register_callback("tests.snapshot:trace")
def trace_cb(event) -> None:
    TRACE.append((event.engine.now, event._value))


# ---------------------------------------------------------------------------
# value codec
# ---------------------------------------------------------------------------


class TestValueCodec:
    @given(
        st.recursive(
            st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(),
            lambda inner: st.lists(inner, max_size=3)
            | st.tuples(inner, inner)
            | st.dictionaries(st.text(max_size=5), inner, max_size=3),
            max_leaves=10,
        )
    )
    def test_round_trip_is_type_exact(self, value):
        decoded = decode_value(json.loads(json.dumps(encode_value(value))))
        assert decoded == value
        assert type(decoded) is type(value)

    def test_exception_round_trip(self):
        exc = decode_value(encode_value(ValueError("boom", 3)))
        assert type(exc) is ValueError and exc.args == ("boom", 3)

    def test_custom_importable_exception_round_trip(self):
        exc = decode_value(encode_value(SimulationError("bad")))
        assert type(exc) is SimulationError and exc.args == ("bad",)

    def test_unsafe_value_refused(self):
        with pytest.raises(SnapshotError):
            encode_value(object())

    def test_non_string_dict_keys_refused(self):
        with pytest.raises(SnapshotError):
            encode_value({1: "x"})


# ---------------------------------------------------------------------------
# engine round trip
# ---------------------------------------------------------------------------


def _ops_strategy():
    timeout_op = st.tuples(
        st.just("timeout"),
        st.floats(min_value=0.0, max_value=20.0, allow_nan=False).map(lambda f: round(f, 3)),
        st.integers(min_value=-5, max_value=5),
    )
    event_op = st.tuples(
        st.just("event"),
        st.floats(min_value=0.0, max_value=20.0, allow_nan=False).map(lambda f: round(f, 3)),
        st.sampled_from([0, 1, 2]),
        st.integers(min_value=-5, max_value=5),
    )
    cancel_op = st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=63))
    advance_op = st.tuples(
        st.just("advance"),
        st.floats(min_value=0.0, max_value=8.0, allow_nan=False).map(lambda f: round(f, 3)),
    )
    return st.lists(st.one_of(timeout_op, event_op, cancel_op, advance_op), max_size=40)


def _apply_ops(engine: Engine, ops) -> None:
    scheduled = []
    for op in ops:
        if op[0] == "timeout":
            ev = engine.timeout(op[1], op[2])
            ev.callbacks.append(trace_cb)
            scheduled.append(ev)
        elif op[0] == "event":
            ev = engine.event()
            ev.callbacks.append(trace_cb)
            ev.succeed(op[3], delay=op[1], priority=op[2])
            scheduled.append(ev)
        elif op[0] == "cancel":
            live = [e for e in scheduled if not e.processed and not e.cancelled]
            if live:
                live[op[1] % len(live)].cancel()
        elif op[0] == "advance":
            engine.run(until=engine.now + op[1])


class TestEngineRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(ops=_ops_strategy())
    def test_restored_engine_fires_event_for_event_identically(self, ops):
        """For arbitrary schedule/timeout/cancel/partial-run interleavings,
        a snapshot taken mid-run restores to an engine whose remaining
        execution is event-for-event identical: same (time, value) fire log,
        same final clock, same cumulative pop count."""
        engine = Engine()
        _apply_ops(engine, ops)
        snap = json.loads(json.dumps(snapshot_engine(engine)))

        TRACE.clear()
        engine.run()
        original = list(TRACE)
        final_now, final_fired = engine.now, engine.events_fired

        restored = restore_engine(snap)
        TRACE.clear()
        restored.run()
        assert list(TRACE) == original
        assert restored.now == final_now
        assert restored.events_fired == final_fired
        TRACE.clear()

    def test_tie_break_order_survives_restore(self):
        engine = Engine()
        for v in range(6):
            engine.timeout(1.0, v).callbacks.append(trace_cb)
        restored = restore_engine(snapshot_engine(engine))
        TRACE.clear()
        restored.run()
        assert [v for _t, v in TRACE] == [0, 1, 2, 3, 4, 5]
        TRACE.clear()

    def test_counter_continues_after_restore(self):
        engine = Engine()
        engine.timeout(1.0, "a").callbacks.append(trace_cb)
        restored = restore_engine(snapshot_engine(engine))
        # New events scheduled post-restore must sort after the old ones at
        # equal (time, priority) — the serialized counter guarantees it.
        restored.timeout(1.0, "b").callbacks.append(trace_cb)
        TRACE.clear()
        restored.run()
        assert [v for _t, v in TRACE] == ["a", "b"]
        TRACE.clear()

    def test_failed_defused_event_round_trips(self):
        engine = Engine()
        ev = engine.event()
        ev.fail(ValueError("expected"), delay=1.0)
        ev.defuse()
        restored = restore_engine(snapshot_engine(engine))
        restored.run()  # must not raise: defused flag survived
        assert restored.now == 1.0

    def test_timeout_pool_occupancy_survives(self):
        engine = Engine(pool_timeouts=True, pool_cap=8)
        for _ in range(5):
            engine.timeout(1.0)
        engine.run()
        assert len(engine._pool) > 0
        restored = restore_engine(snapshot_engine(engine))
        assert len(restored._pool) == len(engine._pool)
        restored.timeout(1.0)  # recycles from the restored slab
        restored.run()

    def test_live_process_refused(self):
        engine = Engine()

        def proc():
            yield engine.timeout(1.0)

        engine.process(proc())
        with pytest.raises(SnapshotError):
            snapshot_engine(engine)

    def test_unregistered_callback_refused(self):
        engine = Engine()
        engine.timeout(1.0).callbacks.append(lambda ev: None)
        with pytest.raises(SnapshotError):
            snapshot_engine(engine)

    def test_stale_version_refused(self):
        engine = Engine()
        snap = snapshot_engine(engine)
        snap["version"] = SNAPSHOT_VERSION + 1
        with pytest.raises(SnapshotError, match="version"):
            restore_engine(snap)

    def test_kind_mismatch_refused(self):
        with pytest.raises(SnapshotError, match="expected"):
            check_snapshot({"version": SNAPSHOT_VERSION, "kind": "rng"}, "engine")

    @pytest.mark.parametrize("queue", [None, "heap"])
    def test_legacy_queue_field_restores(self, queue):
        # Older snapshots may carry "queue": "heap", or no field at all.
        engine = Engine()
        engine.timeout(1.0)
        snap = snapshot_engine(engine)
        assert "queue" not in snap
        if queue is not None:
            snap["queue"] = queue
        restored = restore_engine(snap)
        assert restored.pending_entries()[0][:3] == engine.pending_entries()[0][:3]

    def test_non_heap_queue_refused(self):
        engine = Engine()
        engine.timeout(1.0)
        snap = snapshot_engine(engine)
        snap["queue"] = "wheel"
        with pytest.raises(SnapshotError, match="event queue"):
            restore_engine(snap)


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------


class TestRegistry:
    def test_partial_of_registered_callback_round_trips(self):
        from functools import partial

        from repro.resilience.registry import resolve_callback

        record = encode_callback(partial(trace_cb))
        assert resolve_callback(record)
        # partial with positional JSON args
        rec2 = json.loads(json.dumps(encode_callback(partial(trace_cb))))
        assert callable(resolve_callback(rec2))

    def test_unregistered_function_refused(self):
        with pytest.raises(SnapshotError):
            encode_callback(lambda ev: None)

    def test_duplicate_name_refused(self):
        with pytest.raises(ValueError):

            @register_callback("tests.snapshot:trace")
            def other(event) -> None:  # pragma: no cover - must not register
                pass


# ---------------------------------------------------------------------------
# fault schedules
# ---------------------------------------------------------------------------


class TestScheduleRoundTrip:
    def test_windows_and_queries_survive(self):
        from repro.faults.schedule import compile_schedule
        from repro.faults.spec import ServerOutage

        sched = compile_schedule(
            [ServerOutage(mtbf_s=3600.0, repair_s=600.0)],
            horizon_s=86_400.0,
            n_servers=3,
            seed=5,
        )
        restored = restore_schedule(json.loads(json.dumps(snapshot_schedule(sched))))
        assert restored.windows == sched.windows
        assert restored.horizon_s == sched.horizon_s
        for t in range(0, 86_400, 1800):
            for target in range(3):
                assert restored.is_down("server-outage", target, float(t)) == sched.is_down(
                    "server-outage", target, float(t)
                )

    def test_empty_schedule_round_trips(self):
        from repro.faults.schedule import FaultSchedule

        sched = FaultSchedule.empty(1000.0)
        restored = restore_schedule(snapshot_schedule(sched))
        assert restored.windows == ()
        assert not restored.any_active


# ---------------------------------------------------------------------------
# observability
# ---------------------------------------------------------------------------


class TestObsRoundTrip:
    def _populated_obs(self):
        from repro.obs import Obs

        obs = Obs()
        obs.metrics.counter("cycles").inc(7)
        obs.metrics.gauge("clients").set(42)
        h = obs.metrics.histogram("latency")
        for v in (0.1, 0.5, 2.0, 8.0):
            h.record(v)
        obs.ledger.add("transfer", 12.5, 3.0)
        obs.ledger.add("idle", 1.25, 60.0)
        obs.ledger.note_total(100.0)
        with obs.trace.span("cycle", 0):
            with obs.trace.span("upload", 0):
                pass
        return obs

    def test_snapshot_equality_after_restore(self):
        obs = self._populated_obs()
        restored = restore_obs(json.loads(json.dumps(snapshot_obs(obs))))
        assert restored.snapshot() == obs.snapshot()

    def test_ledger_continues_not_restarts(self):
        obs = self._populated_obs()
        restored = restore_obs(snapshot_obs(obs))
        restored.ledger.add("transfer", 1.0, 1.0)
        assert restored.ledger._energy["transfer"] == pytest.approx(13.5)
