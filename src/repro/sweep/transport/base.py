"""The transport contract: submit campaign specs, stream result records.

A :class:`Transport` is the worker boundary of the campaign engine —
sweep shards and traffic points alike; a spec's id field
(:data:`RUNNERS`) says which kind it is.  The contract is deliberately
narrow so every placement of workers — the calling process, a local
``multiprocessing`` pool, subprocesses on this host, SSH sessions on
other hosts — looks identical to the coordinator:

- ``run(specs)`` yields **exactly one record per spec**, in completion
  order (which is unspecified), and returns only when every spec is
  accounted for.
- A yielded record is either a result (a shard's, see
  :func:`repro.sweep.shard.run_shard`, or a traffic point's) or a
  failure record (``{"shard" or "point", "error", ...}``) — transports
  never raise for a worker that died; they raise only for programming
  errors (an unpicklable runner, a bad argument).
- Records are pure functions of their specs, so a retry after a lost
  worker reproduces the original record bit-for-bit and the engine's
  determinism contract holds across any transport mix.

Bounded retry lives here, in :class:`RetryLedger`, so every transport
applies the same policy: a spec whose worker is lost (killed, OOM'd,
connection dropped) is requeued at most ``retries`` times, then
converted to a failure record carrying the transport exception.  The
engine never checkpoints failure records, so a later ``--resume``
retries exactly the lost specs — a dropped connection can cost work,
never corrupt the checkpoint.
"""

from __future__ import annotations

import importlib
import os
from typing import Callable, Iterable, Iterator, Protocol, runtime_checkable

#: How many times a spec lost to transport death is requeued before it
#: is recorded as failed.  One retry distinguishes "a worker happened to
#: die under this spec" from "this spec kills every worker it meets".
DEFAULT_RETRIES = 1

#: Frame prefixes of the stream-worker wire protocol (shared with
#: :mod:`repro.sweep.worker`; they live here so the coordinator never
#: imports the worker module it launches with ``-m``).  Anything else a
#: worker — or the shell that launched it — writes to stdout (an SSH
#: banner, a stray print that escaped the shield) is skipped by the
#: coordinator, never parsed as a record.
HELLO_PREFIX = "HELO "
RESULT_PREFIX = "RSLT "

Runner = Callable[[dict], dict]


@runtime_checkable
class Transport(Protocol):
    """What the campaign engine requires of a worker boundary."""

    #: Short human-readable name, surfaced in the CLI summary.
    name: str

    def run(self, specs: Iterable[dict]) -> Iterator[dict]:
        """Execute every spec, yielding one record each as they finish."""
        ...


#: Each campaign kind's id field (a sweep's shards, a traffic campaign's
#: points) and safe runner.  Resume, sort order, canonical lines, retry
#: accounting, failure records and worker dispatch all read it here.
#: Runners resolve at call time from the module that builds the kind's
#: campaign, so a test that patches one there reaches every transport.
RUNNERS = {
    "shard": "repro.sweep.engine.run_shard_safely",
    "point": "repro.traffic.engine.run_point_safely",
}


def id_key(spec: dict) -> str:
    """The id field ``spec`` (or a record) carries; ``"shard"`` if none."""
    return next((key for key in RUNNERS if key in spec), "shard")


def spec_id(spec: dict) -> str:
    """The id of a spec or record, ``"?"`` when it carries none."""
    return spec.get(id_key(spec), "?")


def error_record(spec: dict, error: object) -> dict:
    """``{id key: id, "error": ...}`` — the engine counts it failed and
    never checkpoints it."""
    return {
        id_key(spec): spec_id(spec),
        "error": f"{type(error).__name__}: {error}"
        if isinstance(error, BaseException) else str(error),
    }


def failure_record(spec: dict, error: object, transport: str,
                   attempts: int = 1) -> dict:
    """The record a transport yields for a spec it could not complete:
    an :func:`error_record` plus the transport name and attempt count
    for the report."""
    return {**error_record(spec, error), "transport": transport,
            "attempts": attempts}


class RetryLedger:
    """Bounded-retry accounting shared by every transport.

    Tracks transport losses per spec id.  ``record_loss`` returns
    ``None`` while the spec still has retry budget (the caller should
    requeue it) and a failure record once the budget is spent (the
    caller should yield it and move on).
    """

    def __init__(self, retries: int = DEFAULT_RETRIES,
                 transport: str = "?") -> None:
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        self.retries = retries
        self.transport = transport
        self._losses: dict[str, int] = {}

    def losses(self, spec: dict) -> int:
        return self._losses.get(spec_id(spec), 0)

    def record_loss(self, spec: dict, error: object) -> dict | None:
        """Account one transport loss; requeue (None) or give up (record)."""
        count = self.losses(spec) + 1
        self._losses[spec_id(spec)] = count
        if count <= self.retries:
            return None
        return failure_record(spec, error, self.transport, attempts=count)


def run_safely(run: Runner, spec: dict) -> dict:
    """``run(spec)``, with failures returned as records, never raised.

    The transport's unit of work: a spec that dies (an invariant
    violation in checked mode, a bad configuration) must not tear down
    the whole campaign, so the error travels back as an ``{id key,
    "error"}`` record the engine counts as failed and does not
    checkpoint.

    Three fault-injection seams ride in the spec, in the same spirit as
    :mod:`repro.check`'s seeded fault plans — how the tests (and the CI
    transport smoke) exercise worker death without a real OOM killer:

    - ``inject_exit_once``: a marker-file path; if the file does not
      exist yet, create it and die *hard* (``os._exit``, no exception,
      no cleanup) — the next attempt finds the marker and runs
      normally.  Simulates a worker lost once to a transient kill.
    - ``inject_exit``: truthy — die hard on every attempt.  Simulates a
      spec that kills any worker it lands on, for the give-up path.
    - ``inject_print``: a string printed to stdout mid-run, for proving
      the stream worker's protocol channel is shielded.
    """
    marker = spec.get("inject_exit_once")
    if marker is not None and not os.path.exists(marker):
        open(marker, "w").close()
        os._exit(13)
    if spec.get("inject_exit"):
        os._exit(13)
    if spec.get("inject_print"):
        print(spec["inject_print"])
    try:
        return run(spec)
    except Exception as error:   # noqa: BLE001 — the boundary by design
        return error_record(spec, error)


def run_spec(spec: dict) -> dict:
    """Execute a spec with the safe runner of its kind: what every
    transport calls.  Runners resolve late, so importing the transports
    never imports the simulators."""
    module, _, name = RUNNERS[id_key(spec)].rpartition(".")
    return getattr(importlib.import_module(module), name)(spec)


__all__ = [
    "DEFAULT_RETRIES",
    "HELLO_PREFIX",
    "RESULT_PREFIX",
    "RUNNERS",
    "RetryLedger",
    "Runner",
    "Transport",
    "error_record",
    "failure_record",
    "id_key",
    "run_safely",
    "run_spec",
    "spec_id",
]
