"""Span recording and layer wrappers for the traced benchmark run.

The program has no timers of its own yet, so the traced run wraps the public
functions of ``geometry``, ``spectral``, ``dynamics`` and ``lab`` from the
benchmark's side.  Every wrapped call records one span (name, start, end,
parent, op id).  Spans stay in memory, in compact arrays, until the run ends.
The untraced run never constructs a :class:`Tracer`, so it runs the program
unmodified.
"""

from __future__ import annotations

import functools
import math
import os
import sys
import time
from array import array

import numpy as np


class SpanRecorder:
    """Spans in the order they were opened.

    Calls are single-threaded and properly nested, so a parent always has a
    smaller index than its children, and the direct children of one span never
    overlap in time.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("l")
        self.parent = array("l")
        self.op = array("l")
        self.start = array("d")
        self.end = array("d")
        self.op_id = -1
        self._open = [-1]

    def __len__(self) -> int:
        return len(self.start)

    def open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self._open[-1])
        self.op.append(self.op_id)
        self.end.append(math.nan)
        self._open.append(i)
        self.start.append(self.clock())
        return i

    def close(self, i: int) -> None:
        self.end[i] = self.clock()
        self._open.pop()

    def arrays(self):
        """(name ids, parent indices, start, end) as NumPy arrays."""
        return (np.array(self.name, dtype=np.int64),
                np.array(self.parent, dtype=np.int64),
                np.array(self.start, dtype=np.float64),
                np.array(self.end, dtype=np.float64))

    def ids(self, names) -> list[int]:
        return [self._name_ids[n] for n in names if n in self._name_ids]


def self_times(parent: np.ndarray, dur: np.ndarray) -> np.ndarray:
    """Each span's duration minus the time its direct children cover."""
    child = np.zeros(dur.size)
    has = parent >= 0
    if has.any():
        child = np.bincount(parent[has], weights=dur[has], minlength=dur.size)
    return dur - child


def outermost(parent: np.ndarray, member: np.ndarray) -> np.ndarray:
    """Members with no ancestor that is also a member.

    Summing these spans counts nested calls of one layer once, for example
    ``tiling_parameters`` called inside ``approximate_pq``.
    """
    has_member_ancestor = np.zeros(member.size, dtype=bool)
    p = parent.copy()
    live = p >= 0
    while live.any():
        has_member_ancestor[live] |= member[p[live]]
        p[live] = parent[p[live]]
        live = p >= 0
    return member & ~has_member_ancestor


class SpanStats:
    """Per-layer totals over one recorder's spans."""

    def __init__(self, rec: SpanRecorder):
        self.rec = rec
        self.name, self.parent, self.start, self.end = rec.arrays()
        self.dur = self.end - self.start
        self.self_dur = self_times(self.parent, self.dur)

    def _member(self, names) -> np.ndarray:
        return np.isin(self.name, self.rec.ids(names))

    def total(self, names) -> float:
        """Inclusive time of a layer, nested calls of the layer counted once."""
        keep = outermost(self.parent, self._member(names))
        return float(self.dur[keep].sum())

    def self_total(self, names) -> float:
        return float(self.self_dur[self._member(names)].sum())

    def calls(self, names) -> int:
        return int(self._member(names).sum())

    def covered(self, t0: float, t1: float) -> float:
        """Time inside top-level spans that lie within [t0, t1]."""
        top = (self.parent < 0) & (self.start >= t0) & (self.end <= t1)
        return float(self.dur[top].sum())


class BatchCounters:
    """Counters read from the ``FlowBatch`` instances the wrappers see.

    A batch is read once, when the next batch is built or the rep ends, so
    the wrappers add no per-step work to the flow.
    """

    def __init__(self):
        self._pending = []
        self.count = 0
        self.points = 0
        self.events = 0
        self.singular = 0
        self.point_time = 0.0

    def track(self, batch) -> None:
        self.harvest()
        self._pending.append(batch)

    def harvest(self) -> None:
        for b in self._pending:
            self.count += 1
            self.points += int(b.x.size)
            self.events += int(b.events.sum())
            self.singular += int(b.singular.sum())
            self.point_time += float(b.t.sum())
        self._pending.clear()


class Tracer:
    """Installs span-recording wrappers on the program's public functions.

    A function is replaced in every ``vhbilliards`` namespace that binds it
    (``lab`` imports ``correlation`` by name, ``spectral`` imports
    ``prepare_sides``, the package re-exports most names), and methods are
    replaced on their class.  :meth:`uninstall` puts the originals back.
    """

    package = "vhbilliards"

    def __init__(self, rec: SpanRecorder):
        self.rec = rec
        self.batches = BatchCounters()
        self.counters = {"grid_points": 0, "evaluate_points": 0,
                         "orbit_terminated": 0, "bytes_written": 0}
        self._undo: list[tuple[object, str, object]] = []

    def _namespaces(self):
        return [m for k, m in sorted(sys.modules.items())
                if m is not None and (k == self.package
                                      or k.startswith(self.package + "."))]

    def _wrap(self, fn, span: str, after=None):
        rec = self.rec

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = rec.open(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.close(i)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def wrap_function(self, module: str, name: str, after=None) -> None:
        mod = sys.modules[f"{self.package}.{module}"]
        fn = getattr(mod, name)
        wrapper = self._wrap(fn, f"{module}.{name}", after)
        for ns in self._namespaces():
            for attr, value in list(vars(ns).items()):
                if value is fn:
                    self._undo.append((ns, attr, fn))
                    setattr(ns, attr, wrapper)

    def wrap_method(self, module: str, cls: str, name: str, after=None) -> None:
        klass = getattr(sys.modules[f"{self.package}.{module}"], cls)
        fn = klass.__dict__[name]
        self._undo.append((klass, name, fn))
        setattr(klass, name, self._wrap(fn, f"{module}.{cls}.{name}", after))

    def install(self) -> None:
        c = self.counters

        def grid_points(args, grid):
            c["grid_points"] += grid.npts

        def evaluate_points(args, values):
            c["evaluate_points"] += int(np.size(values))

        def terminated(args, history):
            c["orbit_terminated"] += history.terminated is not None

        def bytes_written(args, _):
            c["bytes_written"] += os.path.getsize(args[1])

        def new_batch(args, _):
            self.batches.track(args[0])

        for module, name, after in (
                ("geometry", "load_table", None),
                ("geometry", "tiling_parameters", None),
                ("geometry", "approximate_pq", None),
                ("spectral", "build_grid", grid_points),
                ("spectral", "correlation", None),
                ("spectral", "sweep_correlations", None),
                ("spectral", "correlation_chain_check", None),
                ("spectral", "tile_average", None),
                ("spectral", "series_to_csv", bytes_written),
                ("dynamics", "prepare_sides", None),
                ("dynamics", "orbit", terminated),
                ("dynamics", "flow", None),
                ("dynamics", "next_event", None),
                ("dynamics", "orbit_to_csv", bytes_written),
                ("lab", "theta_sweep", None),
                ("lab", "sweep_to_csv", bytes_written),
                ("lab", "sweep_summary", None)):
            self.wrap_function(module, name, after)
        for module, cls, name, after in (
                ("dynamics", "FlowBatch", "__init__", new_batch),
                ("dynamics", "FlowBatch", "advance_to", None),
                ("spectral", "Observable", "evaluate", evaluate_points),
                ("spectral", "TileAverageObservable", "__init__", None),
                ("spectral", "TileAverageObservable", "evaluate",
                 evaluate_points)):
            self.wrap_method(module, cls, name, after)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()
        self.batches.harvest()


# Span names behind each per-layer metric.  Times are inclusive, with nested
# calls of the same layer counted once; ``self_s`` subtracts wrapped children.
EVALUATE = ("spectral.Observable.evaluate",
            "spectral.TileAverageObservable.evaluate")
TILE_AVERAGE = ("spectral.tile_average", "spectral.TileAverageObservable.__init__")
CERTIFICATE = ("geometry.tiling_parameters", "geometry.approximate_pq")

LAYER_TIMES = {
    "geometry.load_table_s": ("geometry.load_table",),
    "geometry.certificate_s": CERTIFICATE,
    "spectral.build_grid_s": ("spectral.build_grid",),
    "dynamics.prepare_sides_s": ("dynamics.prepare_sides",),
    "dynamics.advance_to_s": ("dynamics.FlowBatch.advance_to",),
    "dynamics.batch_init_s": ("dynamics.FlowBatch.__init__",),
    "spectral.evaluate_s": EVALUATE,
    "spectral.tile_average_s": TILE_AVERAGE,
    "dynamics.orbit_s": ("dynamics.orbit",),
    "dynamics.flow_s": ("dynamics.flow",),
    "dynamics.next_event_s": ("dynamics.next_event",),
    "dynamics.orbit_to_csv_s": ("dynamics.orbit_to_csv",),
    "spectral.series_to_csv_s": ("spectral.series_to_csv",),
    "lab.sweep_to_csv_s": ("lab.sweep_to_csv",),
}
SELF_TIMES = {
    "dynamics.advance_to.self_s": ("dynamics.FlowBatch.advance_to",),
    "spectral.sweep_correlations.self_s": ("spectral.sweep_correlations",),
    "lab.theta_sweep.self_s": ("lab.theta_sweep",),
    "spectral.chain_check.self_s": ("spectral.correlation_chain_check",),
}
CALLS = {
    "dynamics.prepare_sides.calls": ("dynamics.prepare_sides",),
    "dynamics.advance_to.calls": ("dynamics.FlowBatch.advance_to",),
    "spectral.evaluate.calls": EVALUATE,
    "spectral.tile_average.calls": TILE_AVERAGE,
    "dynamics.next_event.calls": ("dynamics.next_event",),
}
COUNTS = ("spectral.grid_points", "dynamics.batch.count",
          "dynamics.batch.points", "dynamics.batch.events",
          "dynamics.batch.singular", "spectral.evaluate.points",
          "dynamics.orbit.terminated", "io.bytes_written")
FRACTIONS = ("dynamics.useful_flow_fraction", "trace.overhead_fraction",
             "trace.coverage")

UNITS = {**{k: "s" for k in LAYER_TIMES}, **{k: "s" for k in SELF_TIMES},
         **{k: "count" for k in CALLS}, **{k: "count" for k in COUNTS},
         **{k: "fraction" for k in FRACTIONS}, "io.bytes_written": "bytes"}


def layer_metrics(tracer: Tracer, window: tuple[float, float], wall: float,
                  needed_point_time: float) -> dict[str, float]:
    """Per-layer metrics of one traced rep (all but the overhead fraction).

    ``window`` is the (start, end) of the rep's timed stage and ``wall`` the
    time in it that was measured, which leaves out the calibrations run
    between its segments.  ``needed_point_time`` is the distinct phase points
    times the latest time each must reach, which the workload knows from its
    inputs.
    """
    stats = SpanStats(tracer.rec)
    b = tracer.batches
    c = tracer.counters
    out = {k: stats.total(v) for k, v in LAYER_TIMES.items()}
    out.update({k: stats.self_total(v) for k, v in SELF_TIMES.items()})
    out.update({k: stats.calls(v) for k, v in CALLS.items()})
    out.update({
        "spectral.grid_points": c["grid_points"],
        "dynamics.batch.count": b.count,
        "dynamics.batch.points": b.points,
        "dynamics.batch.events": b.events,
        "dynamics.batch.singular": b.singular,
        "spectral.evaluate.points": c["evaluate_points"],
        "dynamics.orbit.terminated": c["orbit_terminated"],
        "io.bytes_written": c["bytes_written"],
        "dynamics.useful_flow_fraction": (needed_point_time / b.point_time
                                          if b.point_time else 0.0),
        "trace.coverage": stats.covered(*window) / wall,
    })
    return out


def missing_layers(rec: SpanRecorder, required) -> list[str]:
    """Required span names that recorded no span."""
    present = set(rec.names)
    return [n for n in required if n not in present]
