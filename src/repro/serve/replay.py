"""Trace-driven replay over a shared frame pool.

The serving counterpart of :func:`repro.paging.simulate.simulate_trace`:
N tenants replay their reference strings round-robin over one
:class:`~repro.serve.pool.SharedFramePool`, each with its own
replacement policy and resident-page quota.  Local pages below
``shared_pages`` resolve to common content keys — the shared-library
region — so a tenant faulting on content another tenant already holds
attaches to the resident frame (a *share*: no fetch), and content still
cached zero-ref in the freed-dedup pool is revived by identity (a
*dedup hit*: no fetch).  Writes to shared pages break copy-on-write.
Each tenant steps through a :class:`~repro.serve.stepper.TenantStepper`,
the one per-reference step the traffic tier uses too.

The differential contract this driver is pinned to
(``tests/test_serve_differential.py``, 100 seeds): at sharing degree 1
with no shared pages, the per-tenant :class:`SimulationResult` and the
``replay.*`` counter stream are **bit-identical** to
``simulate_trace(trace, frames, policy, fast=False)``.  Sharing degree
1 *is* the unshared path; everything the serving tier adds happens only
when degree > 1 or shared pages exist, and its counters
(``serve.*``) are created only when the events they count occur.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Hashable, Sequence

from repro.errors import OutOfMemory
from repro.observe.counters import Counters
from repro.observe.telemetry.registry import TelemetryRegistry
from repro.observe.tracer import Tracer
from repro.paging.replacement.base import ReplacementPolicy
from repro.paging.simulate import SimulationResult, record_replay_telemetry
from repro.serve.pool import ServeStats, SharedFramePool
from repro.serve.stepper import STALL, TenantStepper
from repro.serve.tenant import TenantView


@dataclass(slots=True)
class SharedReplayResult:
    """Outcome of one multi-tenant shared replay."""

    sharing: int
    """Sharing degree: how many tenants replayed over the pool."""
    shared_pages: int
    pool_frames: int
    tenants: list[SimulationResult] = field(repr=False)
    """Per-tenant results, in tenant order — the degree-1 entry is the
    bit-identical twin of the unshared ``simulate_trace`` result."""
    pool_stats: ServeStats = field(repr=False)
    shares: int = 0
    dedup_hits: int = 0
    cow_breaks: int = 0
    shared_frame_cycles: int = 0
    """Pool-residency integral over virtual time: what the consolidated
    pool actually occupied — the storage half of space-time, shared."""
    private_frame_cycles: int = 0
    """Sum of the tenants' own residency integrals: what the same runs
    would have occupied without sharing."""

    @property
    def references(self) -> int:
        return sum(tenant.references for tenant in self.tenants)

    @property
    def faults(self) -> int:
        """Per-tenant misses (a share still misses the tenant's view)."""
        return sum(tenant.faults for tenant in self.tenants)

    @property
    def fetches(self) -> int:
        """Hard misses that paid a backing-store fetch."""
        return self.faults - self.shares - self.dedup_hits

    @property
    def evictions(self) -> int:
        return sum(tenant.evictions for tenant in self.tenants)

    @property
    def fault_rate(self) -> float:
        return self.faults / self.references if self.references else 0.0

    @property
    def fetch_rate(self) -> float:
        return self.fetches / self.references if self.references else 0.0

    @property
    def spacetime_saving(self) -> float:
        """Fraction of unshared space-time the shared pool avoided."""
        if not self.private_frame_cycles:
            return 0.0
        return 1.0 - self.shared_frame_cycles / self.private_frame_cycles


def simulate_shared(
    traces: Sequence[Sequence[Hashable]],
    frames: int,
    policy_factory: Callable[[int], ReplacementPolicy],
    shared_pages: int = 0,
    pool_frames: int | None = None,
    writes: Sequence[Sequence[bool]] | None = None,
    record_positions: bool = False,
    record_evictions: bool = False,
    tracer: Tracer | None = None,
    counters: Counters | None = None,
    checked: bool = False,
    telemetry: TelemetryRegistry | None = None,
) -> SharedReplayResult:
    """Replay ``traces`` (one per tenant) over one shared frame pool.

    Parameters
    ----------
    traces:
        One page-reference sequence per tenant; the number of traces is
        the sharing degree.
    frames:
        Each tenant's resident-page quota (the per-tenant allotment).
    policy_factory:
        ``policy_factory(tenant_index)`` returns a fresh replacement
        policy for that tenant.
    shared_pages:
        Local pages below this bound are common content across all
        tenants (the shared-library region); 0 shares nothing.
    pool_frames:
        Physical frames in the pool; defaults to ``frames × tenants``
        (no overcommit).  Smaller values overcommit: sharing is then
        what keeps the pool from exhaustion.  A tenant whose step finds
        every frame pinned evicts its own pages until the pool yields
        one; :class:`~repro.errors.OutOfMemory` is raised only when it
        has no page left to give.
    writes:
        Optional per-tenant write flags aligned with the traces; writes
        to shared pages break copy-on-write.
    tracer:
        Optional enabled tracer receiving ``Fault``/``Evict`` events
        (timestamped by the tenant's own reference index, exactly as the
        unshared driver does) and the pool's ``Share`` / ``DedupHit`` /
        ``CoWBreak`` events.  At degree 1 the streams are identical.
    counters:
        Optional registry; receives the unshared driver's ``replay.*``
        names plus — only when the events occur — ``serve.*`` totals and
        ``serve.tenant.<name>.*`` per-tenant accounting (degree > 1).
    checked:
        Audit the pool and every tenant view with the invariant suite
        (refcount conservation included) every 64 steps plus finally.
    telemetry:
        Optional :class:`~repro.observe.telemetry.TelemetryRegistry`.
        The pool times ``acquire`` / ``cow_break`` as wall spans and
        tracks ``serve.resident_frames``; the finished run lands as
        ``replay.*`` / ``serve.*`` counter totals, the per-tenant
        ``serve.tenant_faults`` sketch, and — with positions recorded —
        the ``replay.fault_gap`` sketch.  All aggregates are read off
        the result after the run; telemetry changes no simulation bits.
    """
    if not traces:
        raise ValueError("need at least one tenant trace")
    if frames <= 0:
        raise ValueError(f"frames must be positive, got {frames}")
    if shared_pages < 0:
        raise ValueError(f"shared_pages must be >= 0, got {shared_pages}")
    tenants = len(traces)
    if writes is not None and (
        len(writes) != tenants
        or any(len(flags) != len(trace)
               for flags, trace in zip(writes, traces))
    ):
        raise ValueError("writes must align with traces, tenant by tenant")
    if pool_frames is None:
        pool_frames = frames * tenants
    if pool_frames <= 0:
        raise ValueError(f"pool_frames must be positive, got {pool_frames}")

    tracing = tracer is not None and tracer.enabled
    counting = counters is not None and counters.enabled
    pool = SharedFramePool(
        pool_frames,
        tracer=tracer if tracing else None,
        telemetry=telemetry,
    )
    views = [
        TenantView(pool, f"t{index}", quota=frames, shared_pages=shared_pages)
        for index in range(tenants)
    ]
    steppers = [
        TenantStepper(
            views[index],
            policy_factory(index),
            traces[index],
            writes[index] if writes is not None else None,
            ordered=not (tracing or counting or checked),
            # Tenant labels ride the events only in actual multi-tenant
            # runs, so the degree-1 event stream stays byte-identical to
            # the unshared one.
            label=f"t{index}" if tenants > 1 else None,
            tracer=tracer if tracing else None,
            counters=counters if counting else None,
            record_positions=record_positions,
            record_evictions=record_evictions,
        )
        for index in range(tenants)
    ]

    suite = None
    if checked:
        from repro.check.invariants import InvariantSuite

        suite = InvariantSuite()

    shared_cycles = 0
    private_cycles = 0
    longest = max(len(trace) for trace in traces)
    step = 0
    for index in range(longest):
        for stepper in steppers:
            if index >= len(stepper.trace):
                continue
            if suite is not None and step % 64 == 0:
                suite.check_all([pool, *views])
            step += 1
            pool.now = index
            if stepper.advance(1)[1] is STALL:
                raise OutOfMemory(
                    1, f"all {pool_frames} frames are pinned and tenant "
                       f"{stepper.view.tenant} has no page left to evict"
                )
        # Space-time, both ways of counting it: what the consolidated
        # pool holds vs. what the tenants' views add up to.  One shared
        # frame referenced by k tenants costs 1 in the pool and k in the
        # per-tenant sum — the gap is the serving tier's storage saving.
        shared_cycles += pool.resident_count
        private_cycles += sum(view.resident_count for view in views)

    if suite is not None:
        suite.check_all([pool, *views])
    if counting:
        counters.increment(
            "replay.references", sum(len(trace) for trace in traces)
        )
    results = [
        SimulationResult(
            policy=stepper.policy.name,
            frames=frames,
            references=len(stepper.trace),
            faults=stepper.faults,
            evictions=stepper.evictions,
            cold_faults=stepper.cold_faults,
            fault_positions=stepper.fault_positions,
            victims=stepper.victims,
        )
        for stepper in steppers
    ]
    shared_result = SharedReplayResult(
        sharing=tenants,
        shared_pages=shared_pages,
        pool_frames=pool_frames,
        tenants=results,
        pool_stats=pool.stats,
        shares=pool.stats.shares,
        dedup_hits=pool.stats.dedup_hits,
        cow_breaks=pool.stats.cow_breaks,
        shared_frame_cycles=shared_cycles,
        private_frame_cycles=private_cycles,
    )
    record_shared_telemetry(telemetry, shared_result)
    return shared_result


def record_shared_telemetry(
    telemetry: TelemetryRegistry | None,
    result: SharedReplayResult,
) -> None:
    """Fold a finished shared replay into a telemetry registry.

    Per-tenant totals go through :func:`record_replay_telemetry` (so the
    ``replay.*`` names sum across tenants exactly as the ``Counters``
    stream does), pool accounting lands under ``serve.*``, and the
    per-tenant fault totals feed a sketch — the imbalance view the
    scalar sums cannot give.  Reads the result only.
    """
    if telemetry is None or not telemetry.enabled:
        return
    for tenant in result.tenants:
        record_replay_telemetry(telemetry, tenant)
    stats = result.pool_stats
    telemetry.counter("serve.acquires").increment(stats.acquires)
    telemetry.counter("serve.shares").increment(stats.shares)
    telemetry.counter("serve.dedup_hits").increment(stats.dedup_hits)
    telemetry.counter("serve.cow_breaks").increment(stats.cow_breaks)
    telemetry.counter("serve.releases").increment(stats.releases)
    telemetry.counter("serve.reclaims").increment(stats.reclaims)
    sketch = telemetry.histogram("serve.tenant_faults", unit="faults")
    for tenant in result.tenants:
        sketch.observe(tenant.faults)


def tenant_traces(
    tenants: int,
    pages: int,
    length: int,
    shared_fraction: float = 0.5,
    working_set: int = 4,
    phase_length: int = 100,
    locality: float = 0.95,
    seed: int = 0,
) -> tuple[list[list[int]], int]:
    """Per-tenant phased traces over a partially shared page space.

    Returns ``(traces, shared_pages)``: each tenant gets its own
    phased-locality trace (tenant-derived seeds) over the same ``pages``
    page space, of which the first ``shared_fraction`` are common
    content — the shared-library region the serving tier deduplicates.

    >>> traces, shared = tenant_traces(2, pages=16, length=50, seed=7)
    >>> len(traces), shared
    (2, 8)
    >>> traces[0] != traces[1]   # tenants have distinct access patterns
    True
    """
    if tenants <= 0:
        raise ValueError(f"tenants must be positive, got {tenants}")
    if not 0.0 <= shared_fraction <= 1.0:
        raise ValueError(
            f"shared_fraction must be in [0, 1], got {shared_fraction}"
        )
    from repro.workload.reference import phased_trace

    shared_pages = int(pages * shared_fraction)
    traces = [
        list(phased_trace(
            pages=pages,
            length=length,
            working_set=working_set,
            phase_length=phase_length,
            locality=locality,
            seed=(seed * 1_000_003 + tenant) & 0x7FFFFFFF,
        ))
        for tenant in range(tenants)
    ]
    return traces, shared_pages


def seeded_writes(
    length: int, fraction: float = 0.1, seed: int = 0
) -> list[bool]:
    """Deterministic per-reference write flags (drives CoW breaks)."""
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must be in [0, 1], got {fraction}")
    rng = random.Random(seed)
    return [rng.random() < fraction for _ in range(length)]


__all__ = [
    "SharedReplayResult",
    "record_shared_telemetry",
    "seeded_writes",
    "simulate_shared",
    "tenant_traces",
]
