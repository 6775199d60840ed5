"""Deterministic, versioned snapshots of live simulation state.

Four state families can be frozen to a JSON-able dict and restored
bit-for-bit, each with its own ``kind`` tag under one shared
:data:`SNAPSHOT_VERSION`:

* **Engine** (:func:`snapshot_engine` / :func:`restore_engine`) — the
  full scheduling state of a :class:`repro.des.engine.Engine`: simulated
  clock, the event heap in internal heap order (so pop order after
  restore is identical), the monotonic insertion counter (tie-breaks),
  the recycled-:class:`~repro.des.engine.Timeout` slab occupancy, and the
  engine flags.  Event callbacks must be *named* callbacks from
  :mod:`repro.resilience.registry`; an engine with live generator
  processes on the heap is not snapshot-safe and raises
  :class:`~repro.resilience.errors.SnapshotError`.
* **RNG streams** (:func:`snapshot_rng` / :func:`restore_rng`) — the
  exact bit-generator state of a :class:`numpy.random.Generator`, so a
  restored stream continues with the very next draw the original would
  have produced.
* **Fault schedules** (:func:`snapshot_schedule` /
  :func:`restore_schedule`) — the realized
  :class:`~repro.faults.schedule.FaultSchedule` timetable; restore
  re-arms the per-target window index (rebuilt by the schedule's own
  ``__post_init__``), so point queries behave identically after resume.
* **Observability** (:func:`snapshot_obs` / :func:`restore_obs`) — the
  counters/gauges/histograms, phase ledger and span buffer of an
  :class:`repro.obs.Obs` collector, so ledgers *continue* across a
  resume instead of restarting from zero.

Values carried by events must be JSON-able scalars or (possibly nested)
lists/tuples/dicts of them; tuples and exceptions are tagged so they
round-trip to the same Python types.
"""

from __future__ import annotations

import builtins
import math
from typing import Any, Dict, List

from repro.resilience.errors import SnapshotError
from repro.resilience.registry import encode_callback, resolve_callback

#: Bump on any structural change to the snapshot layout; restore refuses
#: (with both versions named) rather than guessing at stale layouts.
SNAPSHOT_VERSION = 1

_SCALARS = (type(None), bool, int, float, str)


# ---------------------------------------------------------------------------
# value encoding (JSON-able, type-exact round trip)
# ---------------------------------------------------------------------------


def encode_value(value: Any) -> Any:
    """Encode an event value into a JSON-able form that round-trips exactly."""
    if isinstance(value, _SCALARS):
        return value
    if isinstance(value, tuple):
        return {"__tuple__": [encode_value(v) for v in value]}
    if isinstance(value, list):
        return [encode_value(v) for v in value]
    if isinstance(value, dict):
        if not all(isinstance(k, str) for k in value):
            raise SnapshotError("dict event values must have string keys to snapshot")
        return {"__dict__": {k: encode_value(v) for k, v in value.items()}}
    if isinstance(value, BaseException):
        return {
            "__exc__": type(value).__name__,
            "module": type(value).__module__,
            "args": [encode_value(a) for a in value.args],
        }
    raise SnapshotError(
        f"event value {value!r} of type {type(value).__name__} is not snapshot-safe "
        "(JSON scalars, lists/tuples/dicts of them, or exceptions only)"
    )


def _resolve_exc_type(name: str, module: str) -> type:
    if module in ("builtins", "exceptions"):
        cls = getattr(builtins, name, None)
    else:
        import importlib

        try:
            cls = getattr(importlib.import_module(module), name, None)
        except ImportError:
            cls = None
    if not (isinstance(cls, type) and issubclass(cls, BaseException)):
        raise SnapshotError(f"cannot restore exception type {module}.{name}")
    return cls


def decode_value(record: Any) -> Any:
    """Inverse of :func:`encode_value`."""
    if isinstance(record, _SCALARS):
        return record
    if isinstance(record, list):
        return [decode_value(v) for v in record]
    if isinstance(record, dict):
        if "__tuple__" in record:
            return tuple(decode_value(v) for v in record["__tuple__"])
        if "__dict__" in record:
            return {k: decode_value(v) for k, v in record["__dict__"].items()}
        if "__exc__" in record:
            cls = _resolve_exc_type(record["__exc__"], record.get("module", "builtins"))
            return cls(*[decode_value(a) for a in record.get("args", [])])
    raise SnapshotError(f"unrecognized value record {record!r}")


# ---------------------------------------------------------------------------
# engine
# ---------------------------------------------------------------------------


def _encode_event(event) -> Dict[str, Any]:
    from repro.des.engine import Event, Timeout

    kind = "timeout" if type(event) is Timeout else "event"
    if kind == "event" and type(event) is not Event:
        raise SnapshotError(
            f"cannot snapshot event subclass {type(event).__name__}: only plain "
            "Event/Timeout instances (processes must be quiesced first)"
        )
    if event._ok is None:
        raise SnapshotError("a scheduled event must be triggered; heap is inconsistent")
    return {
        "kind": kind,
        "ok": bool(event._ok),
        "value": encode_value(event._value),
        "cancelled": bool(event._cancelled),
        "defused": bool(event._defused),
        "callbacks": [encode_callback(cb) for cb in event.callbacks],
    }


def _decode_event(record: Dict[str, Any], engine):
    from repro.des.engine import Event, Timeout

    cls = Timeout if record["kind"] == "timeout" else Event
    ev = cls.__new__(cls)
    ev.engine = engine
    ev.callbacks = [resolve_callback(cb) for cb in record.get("callbacks", [])]
    ev._value = decode_value(record["value"])
    ev._ok = bool(record["ok"])
    ev._scheduled = True
    ev._fired = False
    ev._defused = bool(record["defused"])
    ev._cancelled = bool(record["cancelled"])
    return ev


def _dead_timeout(engine):
    """A recycled-slab placeholder: a fired Timeout awaiting ``_rearm``."""
    from repro.des.engine import Timeout

    ev = Timeout.__new__(Timeout)
    ev.engine = engine
    ev.callbacks = []
    ev._value = None
    ev._ok = True
    ev._scheduled = True
    ev._fired = True
    ev._defused = False
    ev._cancelled = False
    return ev


def snapshot_engine(engine) -> Dict[str, Any]:
    """Freeze the complete scheduling state of ``engine``.

    Raises :class:`SnapshotError` if any scheduled event is not
    deterministically serializable (unregistered callbacks, process
    events, non-JSON-able values).
    """
    heap: List[Dict[str, Any]] = []
    for time_, priority, seq, event in engine.pending_entries():
        if not math.isfinite(time_):
            raise SnapshotError(f"non-finite event time {time_} on the heap")
        heap.append(
            {
                "time": float(time_),
                "priority": int(priority),
                "seq": int(seq),
                "event": _encode_event(event),
            }
        )
    return {
        "version": SNAPSHOT_VERSION,
        "kind": "engine",
        "now": float(engine._now),
        "counter": int(engine._counter),
        "active": int(engine._active),
        "events_fired": int(engine.events_fired),
        "pool_timeouts": bool(engine._pool_timeouts),
        "pool_cap": int(engine._pool_cap),
        "check_clock": bool(engine._check_clock),
        "pool_len": len(engine._pool),
        "heap": heap,
    }


def check_snapshot(snap: Dict[str, Any], kind: str) -> None:
    """Schema gate shared by every restore path."""
    if not isinstance(snap, dict):
        raise SnapshotError(f"snapshot must be a dict, got {type(snap).__name__}")
    version = snap.get("version")
    if version != SNAPSHOT_VERSION:
        raise SnapshotError(
            f"snapshot version {version!r} is not supported by this code "
            f"(expects {SNAPSHOT_VERSION}); re-create the snapshot"
        )
    if snap.get("kind") != kind:
        raise SnapshotError(f"expected a {kind!r} snapshot, got {snap.get('kind')!r}")


def restore_engine(snap: Dict[str, Any]):
    """Rebuild an :class:`~repro.des.engine.Engine` from a snapshot.

    The restored engine fires the exact same events at the exact same
    times in the exact same order as the original would have — including
    tie-breaks at equal timestamps, which ride on the serialized
    insertion counter.
    """
    from repro.des.engine import Engine

    check_snapshot(snap, "engine")
    # Snapshots written before the heap became the only event queue carry a
    # "queue" field; only the heap's can be restored.
    if snap.get("queue", "heap") != "heap":
        raise SnapshotError(f"unsupported event queue {snap['queue']!r} in engine snapshot")
    engine = Engine(
        start_time=snap["now"],
        pool_timeouts=snap["pool_timeouts"],
        pool_cap=snap["pool_cap"],
        check_clock=snap["check_clock"],
    )
    engine._counter = int(snap["counter"])
    engine._active = int(snap["active"])
    engine.events_fired = int(snap["events_fired"])
    entries = [
        (rec["time"], rec["priority"], rec["seq"], _decode_event(rec["event"], engine))
        for rec in snap["heap"]
    ]
    # Entries were captured in internal heap order, so the restored list is
    # already a valid binary heap: no re-heapify, no reordering of equal keys.
    engine._queue = entries
    engine._pool = [_dead_timeout(engine) for _ in range(int(snap["pool_len"]))]
    return engine


# ---------------------------------------------------------------------------
# RNG streams
# ---------------------------------------------------------------------------


def snapshot_rng(rng) -> Dict[str, Any]:
    """Freeze the exact state of a :class:`numpy.random.Generator`."""
    state = rng.bit_generator.state
    return {
        "version": SNAPSHOT_VERSION,
        "kind": "rng",
        "state": _jsonify(state),
    }


def restore_rng(snap: Dict[str, Any]):
    """Rebuild a generator that continues the snapshotted stream exactly."""
    import numpy as np

    check_snapshot(snap, "rng")
    state = snap["state"]
    name = state.get("bit_generator")
    cls = getattr(np.random, name, None)
    if cls is None:
        raise SnapshotError(f"unknown bit generator {name!r} in RNG snapshot")
    bg = cls()
    bg.state = state
    return np.random.Generator(bg)


def _jsonify(obj: Any) -> Any:
    """Deep-copy numpy scalars/arrays inside a bit-generator state to JSON types."""
    import numpy as np

    if isinstance(obj, dict):
        return {k: _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonify(v) for v in obj.tolist()]
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    return obj


# ---------------------------------------------------------------------------
# fault schedules
# ---------------------------------------------------------------------------


def snapshot_schedule(schedule) -> Dict[str, Any]:
    """Freeze a realized :class:`~repro.faults.schedule.FaultSchedule`."""
    return {
        "version": SNAPSHOT_VERSION,
        "kind": "fault-schedule",
        "horizon_s": float(schedule.horizon_s),
        "windows": [
            {
                "start": float(w.start),
                "end": float(w.end),
                "fault": w.kind,
                "target": int(w.target),
                "severity": float(w.severity),
            }
            for w in schedule.windows
        ],
    }


def restore_schedule(snap: Dict[str, Any]):
    """Rebuild the timetable; the query index re-arms in ``__post_init__``."""
    from repro.faults.schedule import FaultSchedule
    from repro.faults.spec import FaultWindow

    check_snapshot(snap, "fault-schedule")
    windows = tuple(
        FaultWindow(
            start=w["start"],
            end=w["end"],
            kind=w["fault"],
            target=w["target"],
            severity=w.get("severity", 1.0),
        )
        for w in snap["windows"]
    )
    return FaultSchedule(horizon_s=snap["horizon_s"], windows=windows)


# ---------------------------------------------------------------------------
# observability
# ---------------------------------------------------------------------------


def snapshot_obs(obs) -> Dict[str, Any]:
    """Freeze an :class:`repro.obs.Obs` collector for ledger continuity."""
    metrics = []
    for name in obs.metrics.names():
        inst = obs.metrics._instruments[name]
        rec = {"name": name, **inst.to_dict()}
        if rec["type"] == "histogram":
            rec["min"] = None if rec["min"] is None else float(rec["min"])
        metrics.append(rec)
    return {
        "version": SNAPSHOT_VERSION,
        "kind": "obs",
        "metrics": metrics,
        "ledger": {
            "energy": dict(obs.ledger._energy),
            "time": dict(obs.ledger._time),
            "expected_total": obs.ledger._expected_total,
        },
        "trace": {
            "dropped": obs.trace.dropped,
            "max_spans": obs.trace._max_spans,
            "spans": [s.to_dict() for s in obs.trace.spans],
        },
    }


def restore_obs(snap: Dict[str, Any]):
    """Rebuild a collector whose ledgers continue from the snapshot."""
    from repro.obs import Obs
    from repro.obs.trace import Span

    check_snapshot(snap, "obs")
    obs = Obs(max_spans=snap["trace"]["max_spans"])
    for rec in snap["metrics"]:
        name, mtype = rec["name"], rec["type"]
        if mtype == "counter":
            obs.metrics.counter(name).value = float(rec["value"])
        elif mtype == "gauge":
            if rec["value"] is not None:
                obs.metrics.gauge(name).set(rec["value"])
            else:
                obs.metrics.gauge(name)
        elif mtype == "histogram":
            h = obs.metrics.histogram(name)
            h.count = int(rec["count"])
            h.total = float(rec["total"])
            h.min = math.inf if rec["min"] is None else float(rec["min"])
            h.max = -math.inf if rec["max"] is None else float(rec["max"])
            h._buckets = {int(k): int(v) for k, v in rec["buckets"].items()}
        else:
            raise SnapshotError(f"unknown metric type {mtype!r} in obs snapshot")
    for phase, e in snap["ledger"]["energy"].items():
        obs.ledger.add(phase, e, snap["ledger"]["time"].get(phase, 0.0))
    if snap["ledger"]["expected_total"] is not None:
        obs.ledger.note_total(snap["ledger"]["expected_total"])
    obs.trace.dropped = int(snap["trace"]["dropped"])
    for s in snap["trace"]["spans"]:
        span = Span(
            name=s["name"],
            start=s["start"],
            end=s["end"],
            parent=s.get("parent"),
            attrs=dict(s.get("attrs", {})),
        )
        obs.trace._spans.append(span)
    return obs


__all__ = [
    "SNAPSHOT_VERSION",
    "check_snapshot",
    "encode_value",
    "decode_value",
    "snapshot_engine",
    "restore_engine",
    "snapshot_rng",
    "restore_rng",
    "snapshot_schedule",
    "restore_schedule",
    "snapshot_obs",
    "restore_obs",
]
