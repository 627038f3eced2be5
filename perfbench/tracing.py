"""Spans around the calls into each layer, recorded from outside.

The traced run wraps the public functions and methods each layer
exposes, where the caller looks them up: a function imported by name
is replaced in every ``repro`` module that holds it (for example
``repro.sweep.shard.phased_trace``), and a method is replaced on its
class.  The program itself is not edited.

Each span records its name, parent, start and end, in flat arrays kept
in memory and written out when the run ends.  A span's self time is
its duration minus its children's; ``unattributed`` is the wall time no
top-level span covers, so the self times and ``unattributed`` add up to
the wall time exactly.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import time
from array import array
from collections import Counter
from contextlib import contextmanager
from functools import wraps
from pathlib import Path


class Recorder:
    """In-memory span store plus the counts the wrappers observe."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("q")
        self.span_parent = array("q")
        self.span_start = array("q")
        self.span_end = array("q")
        self._stack = [-1]
        self.counts: Counter = Counter()

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, observe=None):
        """``fn`` recording one ``name`` span per call.

        ``observe(counts, args, result)`` runs after a call that
        returned, outside the span, to count what the call did.
        """
        nid = self._name_id(name)
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self._stack
        clock = time.perf_counter_ns
        counts = self.counts

        @wraps(fn)
        def traced(*args, **kwargs):
            sid = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(sid)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
            if observe is not None:
                observe(counts, args, result)
            return result

        return traced

    @contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code."""
        sid = len(self.span_name)
        self.span_name.append(self._name_id(name))
        self.span_parent.append(self._stack[-1])
        self.span_end.append(0)
        self._stack.append(sid)
        self.span_start.append(time.perf_counter_ns())
        try:
            yield
        finally:
            self.span_end[sid] = time.perf_counter_ns()
            self._stack.pop()

    def write(self, path: Path) -> None:
        """Write the spans out: a name table line, then the columns."""
        with open(path, "wb") as handle:
            handle.write(("\t".join(self.names) + "\n").encode("utf-8"))
            for column in (self.span_name, self.span_parent,
                           self.span_start, self.span_end):
                column.tofile(handle)

    def layers(self, wall_s: float) -> dict:
        """Per-name calls, total and self seconds, plus the remainder.

        Returns ``{"layers": {name: {"calls", "total_s", "self_s"}},
        "unattributed_s": float}``.  Self times over every name plus
        ``unattributed_s`` equal ``wall_s``.
        """
        count = len(self.span_name)
        child_ns = [0] * count
        top_ns = 0
        for sid in range(count):
            duration = self.span_end[sid] - self.span_start[sid]
            parent = self.span_parent[sid]
            if parent < 0:
                top_ns += duration
            else:
                child_ns[parent] += duration
        table: dict[str, dict] = {}
        for sid in range(count):
            row = table.setdefault(self.names[self.span_name[sid]],
                                   {"calls": 0, "total_ns": 0, "self_ns": 0})
            duration = self.span_end[sid] - self.span_start[sid]
            row["calls"] += 1
            row["total_ns"] += duration
            row["self_ns"] += duration - child_ns[sid]
        layers = {
            name: {"calls": row["calls"], "total_s": row["total_ns"] / 1e9,
                   "self_s": row["self_ns"] / 1e9}
            for name, row in table.items()
        }
        return {"layers": layers, "unattributed_s": wall_s - top_ns / 1e9}


def patch_function(recorder: Recorder, module: str, attr: str, name: str,
                   observe=None) -> None:
    """Trace ``module.attr`` at every ``repro`` binding that holds it."""
    original = getattr(importlib.import_module(module), attr)
    traced = recorder.wrap(name, original, observe)
    for loaded in list(sys.modules.values()):
        if not getattr(loaded, "__name__", "").startswith("repro"):
            continue
        for key, value in list(vars(loaded).items()):
            if value is original:
                setattr(loaded, key, traced)


def patch_method(recorder: Recorder, cls: type, method: str, name: str,
                 observe=None) -> None:
    """Trace ``cls.method`` for every instance."""
    setattr(cls, method, recorder.wrap(name, cls.__dict__[method], observe))


# -- what the wrappers count -----------------------------------------------


def _count_refs(counts, args, result) -> None:
    counts["paging.refs"] += result.references


def _count_columnar(counts, args, result) -> None:
    if result is not None:
        counts["fastpath.columnar_completed"] += 1


def stable_form(value):
    """``value`` without measured times: ``wall_s``/``refs_per_s`` keys
    and any ``*_seconds`` instrument, at every depth."""
    if isinstance(value, dict):
        return {key: stable_form(item) for key, item in value.items()
                if key not in ("wall_s", "refs_per_s")
                and not key.endswith("_seconds")}
    return value


def _count_checkpoint(counts, args, result) -> None:
    # Bytes of the line minus its measured times, so the count repeats
    # exactly from run to run.
    line = json.dumps(stable_form(args[1]), sort_keys=True) + "\n"
    counts["sweep.checkpoint_bytes"] += len(line.encode("utf-8"))


def _count_heartbeat(counts, args, result) -> None:
    try:
        counts["sweep.heartbeat_bytes"] += os.path.getsize(args[0])
    except OSError:
        pass


#: Every module the workloads reach, some only when first called;
#: imported before patching so that every binding exists to be replaced.
LAZY_MODULES = (
    "repro.__main__", "repro.sweep.cli", "repro.traffic.cli",
    "repro.alloc.freelist", "repro.fastpath.columnar", "repro.fastpath.replay",
    "repro.observe.telemetry.registry", "repro.paging.replacement",
    "repro.paging.simulate", "repro.serve", "repro.serve.pool",
    "repro.serve.replay", "repro.sim.multiprogramming", "repro.sweep.checkpoint",
    "repro.sweep.engine", "repro.sweep.shard", "repro.trace",
    "repro.traffic.admission", "repro.traffic.engine", "repro.traffic.session",
    "repro.workload.reference",
)


def install(recorder: Recorder) -> None:
    """Wrap the public calls into every layer the workloads use."""
    for module in LAZY_MODULES:
        importlib.import_module(module)
    from repro.alloc.freelist import FreeListAllocator
    from repro.observe.telemetry.registry import TelemetryRegistry
    from repro.paging.replacement import REPLACEMENT_POLICIES
    from repro.serve.pool import SharedFramePool
    from repro.sim.multiprogramming import MultiprogrammingSimulator
    from repro.sweep.checkpoint import CheckpointWriter
    from repro.traffic.admission import ADMIT, AdmissionController
    from repro.traffic.session import SessionSpec

    def count_admits(counts, args, result) -> None:
        if result == ADMIT:
            counts["traffic.admits"] += 1

    functions = (
        ("repro.workload.reference", "phased_trace", "workload.phased_trace",
         None),
        ("repro.trace", "stream_trace", "trace.stream_trace", None),
        ("repro.trace", "read_trace", "trace.read_trace", None),
        ("repro.paging.replacement", "make_policy", "paging.make_policy",
         None),
        ("repro.paging.simulate", "simulate_trace", "paging.simulate_trace",
         _count_refs),
        ("repro.fastpath.columnar", "run_columnar", "fastpath.run_columnar",
         _count_columnar),
        ("repro.serve.replay", "simulate_shared", "serve.simulate_shared",
         None),
        ("repro.traffic.engine", "simulate_traffic",
         "traffic.simulate_traffic", None),
        ("repro.traffic.engine", "run_campaign", "traffic.run_campaign",
         None),
        ("repro.sweep.shard", "run_shard", "sweep.run_shard", None),
        ("repro.sweep.engine", "run_sweep", "sweep.run_sweep", None),
        ("repro.sweep.engine", "write_heartbeat", "sweep.write_heartbeat",
         _count_heartbeat),
    )
    for module, attr, name, observe in functions:
        patch_function(recorder, module, attr, name, observe)

    methods = (
        (FreeListAllocator, "allocate", "alloc.allocate", None),
        (FreeListAllocator, "free", "alloc.free", None),
        (MultiprogrammingSimulator, "run", "sim.mix", None),
        (SharedFramePool, "acquire", "serve.acquire", None),
        (SharedFramePool, "release", "serve.release", None),
        (SharedFramePool, "cow_break", "serve.cow_break", None),
        (SessionSpec, "materialize", "traffic.materialize", None),
        (AdmissionController, "decide", "traffic.decide", count_admits),
        (TelemetryRegistry, "snapshot", "observe.snapshot", None),
        (TelemetryRegistry, "merge_snapshot", "observe.merge_snapshot", None),
        (CheckpointWriter, "append", "sweep.checkpoint_append",
         _count_checkpoint),
    )
    for cls, method, name, observe in methods:
        patch_method(recorder, cls, method, name, observe)

    # choose_victim on every policy class that defines its own.
    seen = set()
    for policy in REPLACEMENT_POLICIES.values():
        for cls in policy.__mro__:
            if "choose_victim" in cls.__dict__ and cls not in seen:
                seen.add(cls)
                patch_method(recorder, cls, "choose_victim",
                             "paging.choose_victim")
