"""The tenant stepper: one tenant's per-reference step over a shared pool.

:func:`~repro.serve.replay.simulate_shared` steps every tenant one
reference per trace index (``advance(1)``);
:func:`~repro.traffic.engine.simulate_traffic` advances each runnable
session up to ``refs_per_tick`` references or until its first hard
fetch (``advance(refs_per_tick)``).  A step is the whole protocol: hit,
copy-on-write break, fault, replacement victim, acquire, and — when
every frame is pinned — self-eviction until the pool yields a frame, or
a stall when the tenant has nothing left to give.  Self-eviction asks
the pool first (``can_acquire`` / ``can_cow_break``) instead of catching
a refused attempt.

For exact-type LRU and FIFO (the exact-type rule of
:data:`repro.fastpath.replay.FAST_KERNELS`) the stepper keeps the
resident pages in one insertion-ordered dict, as ``replay_lru`` /
``replay_fifo`` do, and never calls the policy: a tenant's ``now``
strictly increases, so the first key is the page with the least
``last_use`` / ``loaded_at``.  Every other policy, and every run with a
tracer, counters or invariant checks, goes through the policy
interface.  ``docs/SERVING.md`` ("One tenant stepper") is the contract.
"""

from __future__ import annotations

from typing import Hashable, Sequence

from repro.observe.counters import Counters
from repro.observe.events import Evict, Fault
from repro.observe.tracer import Tracer
from repro.paging.replacement.base import ReplacementPolicy
from repro.paging.replacement.simple import FifoPolicy, LruPolicy
from repro.serve.tenant import TenantView

#: Exact policy types whose victim order the stepper keeps itself,
#: mapped to whether a hit moves the page to the end (LRU) or not (FIFO).
ORDERED_POLICIES: dict[type, bool] = {LruPolicy: True, FifoPolicy: False}

FETCH = "fetch"
"""``advance`` stop: the last served reference was a hard fault, and the
caller owes its fetch."""

STALL = "stall"
"""``advance`` stop: the next reference found every frame pinned and the
tenant nothing left to evict; it was not served."""

_NOTHING = object()   # _victim: "exclude nothing" and "nothing to give"


class TenantStepper:
    """One tenant's reference stream, stepped over its view of the pool.

    Parameters
    ----------
    view:
        The tenant's :class:`~repro.serve.tenant.TenantView`, empty at
        the start; its quota is what makes the tenant replace.
    policy:
        The tenant's replacement policy.
    trace, writes:
        The reference string and its aligned write flags (None: reads).
    ordered:
        Allow the ordered victim path for exact LRU/FIFO; False sends
        every policy through the policy interface.
    label:
        The program label events and per-tenant counters carry (None in
        single-tenant runs, which keeps their streams unlabelled).
    tracer, counters:
        Optional enabled sinks for ``Fault`` / ``Evict`` events and the
        ``replay.*`` / ``serve.*`` counters.
    record_positions, record_evictions:
        Keep the fault positions and the victims, in order.
    """

    __slots__ = (
        "view", "policy", "trace", "writes", "position", "faults",
        "cold_faults", "evictions", "fetches", "stalls", "fault_positions",
        "victims", "_order", "_recency", "_seen", "_observed", "_tracer",
        "_counters", "_label", "_record_positions", "_record_evictions",
    )

    def __init__(
        self,
        view: TenantView,
        policy: ReplacementPolicy,
        trace: Sequence[Hashable],
        writes: Sequence[bool] | None = None,
        *,
        ordered: bool = True,
        label: str | None = None,
        tracer: Tracer | None = None,
        counters: Counters | None = None,
        record_positions: bool = False,
        record_evictions: bool = False,
    ) -> None:
        self.view = view
        self.policy = policy
        self.trace = trace
        self.writes = writes if writes is not None else bytes(len(trace))
        self.position = 0
        self.faults = 0
        self.cold_faults = 0
        self.evictions = 0
        self.fetches = 0
        """Faults that paid a backing-store fetch (no share, no dedup)."""
        self.stalls = 0
        self.fault_positions: list[int] = []
        self.victims: list[Hashable] = []
        recency = ORDERED_POLICIES.get(type(policy))
        self._order: dict[Hashable, None] | None = (
            {} if ordered and recency is not None else None
        )
        self._recency = bool(recency)
        self._seen: set[Hashable] = set()
        self._tracer = tracer
        self._counters = counters
        self._label = label
        self._record_positions = record_positions
        self._record_evictions = record_evictions
        self._observed = (
            tracer is not None or counters is not None
            or record_positions or record_evictions
        )

    @property
    def done(self) -> bool:
        return self.position >= len(self.trace)

    def advance(self, limit: int) -> tuple[int, str | None]:
        """Serve up to ``limit`` references; returns ``(served, stop)``.

        ``stop`` is None when the limit or the end of the trace was
        reached, :data:`FETCH` when the last served reference paid a
        hard fault, and :data:`STALL` when the next one could not be
        served.
        """
        trace = self.trace
        writes = self.writes
        order = self._order
        recency = self._recency
        policy = self.policy
        resident = order if order is not None else self.view
        start = position = self.position
        end = position + limit
        if end > len(trace):
            end = len(trace)
        stop = None
        while position < end:
            page = trace[position]
            write = writes[position]
            if page in resident:
                if write and not self._write(page, position):
                    stop = STALL
                    break
                if order is None:
                    policy.on_access(page, position, modified=bool(write))
                elif recency:
                    del order[page]
                    order[page] = None
                position += 1
                continue
            hit = self._fault(page, position, write)
            if hit is STALL:
                stop = STALL
                break
            position += 1
            if hit is None:
                stop = FETCH
                break
        self.position = position
        return position - start, stop

    # -- the step's pieces ----------------------------------------------------

    def _fault(self, page: Hashable, now: int, write) -> str | None:
        """A miss: make room under the quota, then acquire, evicting own
        pages while every frame is pinned.  Returns the hit kind (None
        for a hard fault) or :data:`STALL`."""
        view = self.view
        cold = page not in self._seen
        if cold:
            self._seen.add(page)
            self.cold_faults += 1
        if self._observed:
            self._observe_fault(page, now, write, cold)
        if view.is_full():
            self._evict(self._victim(now), now)
        pool = view.pool
        if pool.is_exhausted():   # else any key can be acquired
            key = view.key_for(page)
            while not pool.can_acquire(key):
                victim = self._victim(now)
                if victim is _NOTHING:
                    self.stalls += 1
                    return STALL
                self._evict(victim, now)
        hit = view.acquire_detail(page)[1]
        self.faults += 1
        if hit is None:
            self.fetches += 1
        elif self._counters is not None:
            name = "shares" if hit == "share" else "dedup_hits"
            self._count(name)
        if self._order is None:
            self.policy.on_load(page, now, modified=bool(write))
        else:
            self._order[page] = None
        return hit

    def _write(self, page: Hashable, now: int) -> bool:
        """A write hit: break copy-on-write if ``page`` maps shared
        content, evicting the tenant's other pages while the pool has no
        frame for the private copy.  False when the tenant stalls."""
        view = self.view
        key = view.key_for(page)
        if not view.is_shared_key(key):
            return True
        pool = view.pool
        while not pool.can_cow_break(key):
            victim = self._victim(now, exclude=page)
            if victim is _NOTHING:
                self.stalls += 1
                return False
            self._evict(victim, now)
            if victim == page:
                # A policy that ignores its candidates (clock) evicted
                # the page being written; note_write raises for it.
                break
        view.note_write(page)
        if self._counters is not None:
            self._count("cow_breaks")
        return True

    def _victim(self, now: int, exclude: Hashable = _NOTHING) -> Hashable:
        """The next page to give up (other than ``exclude``), or
        :data:`_NOTHING` when there is none."""
        order = self._order
        if order is not None:
            for page in order:
                if page != exclude:
                    return page
            return _NOTHING
        candidates = self.view.resident_pages()
        if exclude is not _NOTHING:
            candidates = [page for page in candidates if page != exclude]
        if not candidates:
            return _NOTHING
        return self.policy.choose_victim(candidates, now)

    def _evict(self, victim: Hashable, now: int) -> None:
        view = self.view
        order = self._order
        if order is not None:
            del order[victim]
            view.release(victim)
        else:
            if victim not in view:
                raise RuntimeError(
                    f"policy {self.policy.name} chose non-resident "
                    f"victim {victim!r}"
                )
            view.release(victim)
            self.policy.on_evict(victim)
        self.evictions += 1
        if self._observed:
            if self._counters is not None:
                self._counters.increment("replay.evictions")
            if self._tracer is not None:
                self._tracer.emit(Evict(
                    time=now, unit=victim, program=self._label,
                ))
            if self._record_evictions:
                self.victims.append(victim)

    def _observe_fault(self, page: Hashable, now: int, write,
                       cold: bool) -> None:
        counters = self._counters
        if counters is not None:
            counters.increment("replay.faults")
            if cold:
                counters.increment("replay.cold_faults")
            if self._label is not None:
                counters.increment(f"serve.tenant.{self._label}.faults")
        if self._tracer is not None:
            self._tracer.emit(Fault(
                time=now, unit=page, write=bool(write), program=self._label,
            ))
        if self._record_positions:
            self.fault_positions.append(now)

    def _count(self, name: str) -> None:
        self._counters.increment(f"serve.{name}")
        if self._label is not None:
            self._counters.increment(f"serve.tenant.{self._label}.{name}")


__all__ = ["FETCH", "ORDERED_POLICIES", "STALL", "TenantStepper"]
