"""In-process and local-pool transports.

:class:`InlineTransport` runs specs in the calling process — the
``workers=1`` path, and the reference all other transports are pinned
against.  :class:`PoolTransport` fans specs over a local process pool;
unlike the ``imap_unordered`` loop it replaces, it *detects* a worker
that dies hard (OOM-kill, ``os._exit``) instead of hanging: the broken
pool surfaces on every in-flight future, each lost spec is requeued
through the shared :class:`~repro.sweep.transport.base.RetryLedger`,
and a fresh pool finishes the campaign.
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor, as_completed
from typing import Iterable, Iterator

from repro.sweep.transport.base import DEFAULT_RETRIES, RetryLedger, run_spec


def _pool_context():
    """Prefer ``fork`` where offered — markedly faster to start; the
    runners are module-level functions, so spawn also works."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else None)


class InlineTransport:
    """Run every spec in the calling process, in submission order."""

    name = "inline"

    def run(self, specs: Iterable[dict]) -> Iterator[dict]:
        for spec in specs:
            yield run_spec(spec)


class PoolTransport:
    """A local process pool with broken-worker detection and retry.

    Built on :class:`concurrent.futures.ProcessPoolExecutor` rather
    than ``multiprocessing.Pool`` because the executor *notices* abrupt
    worker death: every unfinished future fails with
    :class:`~concurrent.futures.BrokenExecutor`, which this transport
    converts into requeues (bounded by the ledger) on a replacement
    pool instead of a hung campaign.  A spec that kills every pool it
    meets becomes a failure record carrying the pool exception.
    """

    name = "pool"

    def __init__(self, workers: int = 2,
                 retries: int = DEFAULT_RETRIES) -> None:
        if workers <= 0:
            raise ValueError(f"workers must be positive, got {workers}")
        self.workers = workers
        self.retries = retries

    def run(self, specs: Iterable[dict]) -> Iterator[dict]:
        pending = list(specs)
        ledger = RetryLedger(self.retries, transport=self.name)
        while pending:
            batch, pending = pending, []
            executor = ProcessPoolExecutor(
                max_workers=min(self.workers, len(batch)),
                mp_context=_pool_context(),
            )
            try:
                futures = {executor.submit(run_spec, spec): spec
                           for spec in batch}
                for future in as_completed(futures):
                    spec = futures[future]
                    try:
                        yield future.result()
                    except BrokenExecutor as error:
                        # One hard death breaks every in-flight future;
                        # the innocents ride the same requeue as the
                        # spec that was actually running.
                        failure = ledger.record_loss(spec, error)
                        if failure is None:
                            pending.append(spec)
                        else:
                            yield failure
            finally:
                executor.shutdown(wait=True, cancel_futures=True)


__all__ = ["InlineTransport", "PoolTransport"]
