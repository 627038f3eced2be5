"""The campaign core: transports, checkpoint file, merged telemetry.

:func:`run_specs` is the one campaign runner.  It executes a list of
specs — sweep shards or traffic points; a spec's id field (see
:data:`~repro.sweep.transport.base.RUNNERS`) says which — over a
pluggable :class:`~repro.sweep.transport.Transport` (inline, a local
process pool, or streaming subprocess/SSH workers) and appends each
finished record to an append-only results file.  The file is the
checkpoint: re-running the same campaign with ``resume=True`` skips
every spec whose id is already recorded, so an interrupted campaign
finishes instead of restarting.  :func:`run_sweep` here and
:func:`repro.traffic.engine.run_campaign` are thin spec builders over
it.

Completion order is whatever the transport produces; nothing else is.
A record depends only on its spec, and the merged counters and
telemetry are exact sums, so any worker count — and any placement of
those workers — yields the same records and the same totals.  Appends
go through :class:`~repro.sweep.checkpoint.CheckpointWriter` (one
``os.write`` per record on an ``O_APPEND`` descriptor), so an interrupt
or a second concurrent writer can delay a record but never tear one.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from repro.observe.counters import Counters
from repro.observe.sinks import read_jsonl_records
from repro.observe.telemetry.dashboard import TERMINAL_STATES
from repro.observe.telemetry.registry import TelemetryRegistry
from repro.sweep.checkpoint import (
    NONDETERMINISTIC_FIELDS,
    CheckpointWriter,
    canonical_lines,
    deterministic_telemetry,
    strip_nondeterministic,
)
from repro.sweep.grid import SCHEMA, SweepGrid
from repro.sweep.shard import run_shard_safely
from repro.sweep.transport import Transport, make_transport
from repro.sweep.transport.base import id_key, spec_id

assert set(TERMINAL_STATES) == {"finished", "aborted"}, \
    "run_specs stamps exactly these terminal heartbeat states"


def read_records(
    path: str | Path, key: str, **match: object
) -> tuple[list[dict], int]:
    """``(records, corrupt)``: the results carrying id field ``key``
    whose fields equal every non-None ``match`` value.

    Error records (never checkpointed, but a file may be hand-edited)
    are dropped; unreadable lines, a torn last line included, are
    counted, so resume re-executes exactly the specs whose lines did
    not survive.
    """
    raw, corrupt = read_jsonl_records(path)
    records = [
        record for record in raw
        if key in record
        and "error" not in record
        and all(value is None or record.get(name) == value
                for name, value in match.items())
    ]
    return records, corrupt


def read_results(
    path: str | Path, sweep: str | None = None
) -> tuple[list[dict], int]:
    """Sweep records of a results file (of grid ``sweep``, if given)."""
    return read_records(path, "shard", schema=SCHEMA, sweep=sweep)


@dataclass
class CampaignResult:
    """Outcome of one campaign (``run_sweep``, ``run_campaign``)."""

    records: list[dict]
    """Every completed record — resumed and fresh — sorted by id."""
    counters: Counters
    """All records' counter snapshots merged (resumed records
    included), so totals are independent of how many runs it took."""
    executed: int
    skipped: int
    """Specs skipped because the results file already held them."""
    telemetry: TelemetryRegistry = field(default_factory=TelemetryRegistry)
    """All records' telemetry snapshots merged — counters summed,
    histograms merged bucket-exactly — so the deterministic part is
    identical for any worker count (pinned by the differential tests)."""
    failures: list[dict] = field(default_factory=list)
    corrupt_lines: int = 0
    workers: int = 1
    transport: str = "inline"
    wall_s: float = 0.0
    grid: SweepGrid | None = None
    """The grid a sweep expanded; None for other campaigns."""

    @property
    def ok(self) -> bool:
        return not self.failures


def resolve_transport(
    transport: str | Transport | None, workers: int, spec_count: int
) -> Transport:
    """Turn a campaign's transport argument into a live transport.

    ``None`` is inline for one worker (or one spec — a pool would cost
    more than it saves) and a local pool otherwise.  A string goes
    through :func:`~repro.sweep.transport.make_transport`; an object is
    used as-is.
    """
    if transport is None:
        transport = "inline" if workers <= 1 or spec_count <= 1 else "pool"
    if isinstance(transport, str):
        return make_transport(transport, workers=workers)
    return transport


def run_specs(
    specs: list[dict],
    name: str,
    match: dict,
    workers: int = 1,
    results_path: str | Path | None = None,
    resume: bool = False,
    progress: Callable[[int, int, dict], None] | None = None,
    transport: str | Transport | None = None,
) -> CampaignResult:
    """Execute ``specs``, checkpointing to ``results_path``.

    Parameters
    ----------
    specs:
        One dict per unit of work, each carrying its id under its
        kind's id field (``"shard"``, ``"point"``), which picks the
        runner (:data:`~repro.sweep.transport.base.RUNNERS`).
    name / match:
        The campaign name for the heartbeat, and the record fields
        (schema, campaign name) that mark a results-file record as
        this campaign's for resume.
    workers:
        Worker count handed to the transport; 1 runs inline (no pool).
        Results are identical for any value — only wall time changes.
    results_path:
        The append-only JSONL checkpoint.  None runs entirely in
        memory (no resume possible).
    resume:
        Skip specs whose ids are already recorded for this campaign.
        Without ``resume``, existing records are ignored *and kept* —
        the file only ever grows — but every spec re-executes.
    progress:
        Optional ``progress(done, total, record)`` callback, called in
        the parent as each record lands — after the record is durably
        appended, so an interrupt inside the callback cannot lose or
        tear the line it was told about.
    transport:
        ``"inline"``, ``"pool"``, ``"subprocess"``, ``"ssh:host1,host2"``
        (see :mod:`repro.sweep.transport`), a transport instance, or
        None for the workers-based choice.  Records are bit-identical
        across all of them.

    With a ``results_path``, a heartbeat lands at
    ``<results_path>.telemetry.json`` after every fresh record —
    progress plus the merged telemetry so far, written atomically for
    ``python -m repro top --snapshot`` — and a final one from a
    ``finally`` block with a terminal ``state``: ``"finished"`` when the
    campaign ran to completion (failed specs included), ``"aborted"``
    when the coordinator died mid-campaign.
    """
    started = time.perf_counter()
    if workers <= 0:
        raise ValueError(f"workers must be positive, got {workers}")

    prior: list[dict] = []
    corrupt = 0
    if results_path is not None and resume and specs:
        prior, corrupt = read_records(results_path, id_key(specs[0]),
                                      **match)
    # Only records of specs this campaign names count as resumed work;
    # stale records from an edited campaign stay in the file, inert.
    known = {spec_id(spec) for spec in specs}
    prior = [record for record in prior if spec_id(record) in known]
    completed = {spec_id(record) for record in prior}
    pending = [spec for spec in specs if spec_id(spec) not in completed]
    carrier = resolve_transport(transport, workers, len(pending))

    counters = Counters()
    telemetry = TelemetryRegistry()
    for record in prior:
        counters.merge_snapshot(record.get("counters", {}))
        if "telemetry" in record:
            telemetry.merge_snapshot(record["telemetry"])

    fresh: list[dict] = []
    failures: list[dict] = []
    writer: CheckpointWriter | None = None
    if results_path is not None:
        writer = CheckpointWriter(results_path)
    done = 0
    state = "aborted"
    try:
        for record in carrier.run(pending):
            done += 1
            if "error" in record:
                failures.append(record)
            else:
                fresh.append(record)
                counters.merge_snapshot(record.get("counters", {}))
                if "telemetry" in record:
                    telemetry.merge_snapshot(record["telemetry"])
                if writer is not None:
                    # One string, one write — durable before anything
                    # downstream (heartbeat, progress) learns of it.
                    writer.append(record)
                    write_heartbeat(
                        heartbeat_path(results_path), name,
                        done, len(pending), len(failures), telemetry,
                    )
            if progress is not None:
                progress(done, len(pending), record)
        state = "finished"
    finally:
        if writer is not None:
            writer.close()
        if results_path is not None:
            # The terminal beat: a follower polling the heartbeat must
            # never spin on a campaign that is no longer running.
            write_heartbeat(
                heartbeat_path(results_path), name,
                done, len(pending), len(failures), telemetry, state=state,
            )

    return CampaignResult(
        records=sorted(prior + fresh, key=spec_id),
        counters=counters,
        executed=len(fresh) + len(failures),
        skipped=len(prior),
        telemetry=telemetry,
        failures=failures,
        corrupt_lines=corrupt,
        workers=workers,
        transport=carrier.name,
        wall_s=round(time.perf_counter() - started, 3),
    )


def run_sweep(
    grid: SweepGrid,
    workers: int = 1,
    results_path: str | Path | None = None,
    resume: bool = False,
    checked: bool = False,
    progress: Callable[[int, int, dict], None] | None = None,
    transport: str | Transport | None = None,
) -> CampaignResult:
    """Execute ``grid``'s shards through :func:`run_specs`.

    ``checked`` routes every shard through the :mod:`repro.check`
    invariant suite; a violation fails that shard, never the campaign.
    Shards run this module's ``run_shard_safely``, looked up per shard.
    """
    result = run_specs(
        [shard.spec(checked=checked) for shard in grid.shards()],
        grid.name, {"schema": SCHEMA, "sweep": grid.name},
        workers=workers, results_path=results_path, resume=resume,
        progress=progress, transport=transport,
    )
    result.grid = grid
    return result


def heartbeat_path(results_path: str | Path) -> Path:
    """Where a campaign drops its live telemetry heartbeat."""
    path = Path(results_path)
    return path.with_name(path.name + ".telemetry.json")


def write_heartbeat(
    path: Path,
    sweep: str,
    done: int,
    total: int,
    failed: int,
    telemetry: TelemetryRegistry,
    state: str = "running",
) -> None:
    """Atomically publish campaign progress plus merged telemetry.

    Write-to-temp then :func:`os.replace`, so a follower (``python -m
    repro top --snapshot``) polling the file never reads a torn write.
    ``sweep`` names the campaign — a sweep grid or a traffic campaign
    alike.  ``state`` is ``"running"`` while records land and one of
    :data:`TERMINAL_STATES` from ``run_specs``'s ``finally`` block —
    the marker that tells followers to stop waiting.  Heartbeats are
    best-effort: an unwritable path must not fail the campaign, so OS
    errors are swallowed — but the side file must not outlive a failed
    publish.  A campaign heartbeats after every record; if the replace
    step fails persistently (target directory vanished, permissions
    flipped), leaking one ``.tmp`` per beat litters the results
    directory, so cleanup rides a ``finally``.
    """
    payload = {
        "sweep": sweep,
        "done": done,
        "total": total,
        "failed": failed,
        "state": state,
        "telemetry": telemetry.snapshot(),
    }
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_text(json.dumps(payload, sort_keys=True) + "\n",
                       encoding="utf-8")
        os.replace(tmp, path)
    except OSError:
        pass
    finally:
        try:
            tmp.unlink(missing_ok=True)
        except OSError:
            pass


def marginals(records: list[dict], axis: str) -> list[tuple]:
    """Per-axis-value means of the headline metrics, for report tables.

    Returns rows ``(value, shards, fault_rate, spacetime, cpu_util,
    external_frag, internal_frag, alloc_failures, serve_dedup_ratio,
    serve_spacetime_saving, traffic_shed_rate, traffic_qwait_p99)`` —
    means except for the failure count, which is a total — sorted by
    axis value.  New columns append at the end: downstream tooling
    (and the tests) index existing columns by position.
    """
    groups: dict[object, list[dict]] = {}
    for record in records:
        groups.setdefault(record.get(axis), []).append(record)

    def mean(rows: list[dict], key: str) -> float:
        return sum(row.get(key, 0) for row in rows) / len(rows)

    table = []
    for value in sorted(groups, key=str):
        rows = groups[value]
        table.append((
            value,
            len(rows),
            round(mean(rows, "fault_rate"), 4),
            round(mean(rows, "spacetime")),
            round(mean(rows, "cpu_utilization"), 3),
            round(mean(rows, "external_frag"), 3),
            round(mean(rows, "internal_frag"), 3),
            sum(row.get("alloc_failures", 0) for row in rows),
            round(mean(rows, "serve_dedup_ratio"), 3),
            round(mean(rows, "serve_spacetime_saving"), 3),
            round(mean(rows, "traffic_shed_rate"), 3),
            round(mean(rows, "traffic_queue_wait_p99"), 2),
        ))
    return table


__all__ = [
    "NONDETERMINISTIC_FIELDS",
    "TERMINAL_STATES",
    "CampaignResult",
    "canonical_lines",
    "deterministic_telemetry",
    "heartbeat_path",
    "marginals",
    "read_records",
    "read_results",
    "resolve_transport",
    "run_shard_safely",
    "run_specs",
    "run_sweep",
    "strip_nondeterministic",
    "write_heartbeat",
]
