"""Tenant sessions: spec-only until admitted, materialized lazily.

The scale story of the traffic tier lives here.  A :class:`SessionSpec`
is a handful of integers — no trace, no view, no policy — so millions
of arrived-but-not-admitted address spaces are just millions of small
frozen records in the queue.  Only when the
:class:`~repro.traffic.admission.AdmissionController` admits a spec
does :meth:`SessionSpec.materialize` build the expensive state: a
:class:`~repro.serve.tenant.TenantView` over the shared pool, a
replacement policy, and the reference stream (a generated phased trace,
or a window of an on-disk ``.rtrc`` columnar trace).  The engine's
tests pin that the number of materializations equals the number of
admissions — queued and shed sessions never pay.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.serve.stepper import TenantStepper
from repro.serve.tenant import TenantView

if TYPE_CHECKING:
    from repro.serve.pool import SharedFramePool

#: Per-process cache of opened columnar traces, keyed by path.  A trace
#: file is immutable once written, so sharing one mmap across sessions
#: changes no results — it only avoids reopening per session.
_OPEN_TRACES: dict[str, object] = {}


@dataclass(frozen=True, slots=True)
class SessionSpec:
    """One arrived session, before any storage is committed to it."""

    sid: int
    arrival: int
    """Arrival tick (virtual time)."""
    quota: int
    """Resident-page allotment the session will be admitted against."""
    pages: int
    length: int
    """References the session will replay."""
    shared_pages: int
    write_fraction: float
    seed: int
    """Trace/write seed, derived per session from the point id."""
    trace_file: str | None = None
    trace_offset: int = 0
    """Window start when replaying a ``.rtrc`` reference stream."""

    def materialize(
        self, pool: "SharedFramePool", replacement: str
    ) -> "ActiveSession":
        """Build the session's runtime state — admission's price tag."""
        from repro.paging.replacement import make_policy
        from repro.serve.replay import seeded_writes

        view = TenantView(
            pool, f"s{self.sid}", quota=self.quota,
            shared_pages=self.shared_pages,
        )
        trace = self._references()
        writes = seeded_writes(
            len(trace), fraction=self.write_fraction, seed=self.seed,
        )
        return ActiveSession(
            spec=self,
            view=view,
            policy=make_policy(replacement),
            trace=trace,
            writes=writes,
        )

    def _references(self) -> list[int]:
        if self.trace_file is not None:
            trace = _open_trace(self.trace_file)
            end = min(self.trace_offset + self.length, len(trace))
            return [trace[index] for index in range(self.trace_offset, end)]
        from repro.workload.reference import phased_trace

        return list(phased_trace(
            pages=self.pages,
            length=self.length,
            working_set=max(2, min(self.pages, self.quota)),
            phase_length=max(16, self.length // 4),
            locality=0.9,
            seed=self.seed,
        ))


class ActiveSession(TenantStepper):
    """A materialized session making progress over the shared pool.

    The session *is* its tenant stepper (:mod:`repro.serve.stepper`),
    plus the admission and backpressure state the engine keeps.
    """

    __slots__ = ("spec", "admitted_at", "blocked_until")

    def __init__(self, spec: SessionSpec, view: TenantView, policy,
                 trace: list[int], writes: list[bool]) -> None:
        super().__init__(view, policy, trace, writes)
        self.spec = spec
        self.admitted_at = -1
        self.blocked_until = 0
        """First tick the session may run again after a hard fetch —
        the backpressure that makes device saturation slow tenants."""

    def __repr__(self) -> str:
        return (
            f"ActiveSession(sid={self.spec.sid}, "
            f"position={self.position}/{len(self.trace)})"
        )


def _open_trace(path: str):
    trace = _OPEN_TRACES.get(path)
    if trace is None:
        from repro.trace import read_trace

        trace = read_trace(path)
        _OPEN_TRACES[path] = trace
    return trace


def trace_length(path: str) -> int:
    """Reference count of an ``.rtrc`` file (for window derivation)."""
    return len(_open_trace(path))


__all__ = ["ActiveSession", "SessionSpec", "trace_length"]
