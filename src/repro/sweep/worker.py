"""``python -m repro.sweep.worker`` — the stdio campaign worker.

The remote end of the stream transport
(:class:`repro.sweep.transport.stream.StreamTransport`).  The
coordinator starts this module over any byte pipe it likes — a local
subprocess, an SSH session — and speaks a line protocol over
stdin/stdout:

- **in**: one JSON spec per line — a sweep shard (the dict
  :meth:`repro.sweep.grid.Shard.spec` produces) or a traffic point
  (one of :func:`repro.traffic.engine.build_points`'s specs);
- **out**: first a hello line ``HELO {"schema": ..., "worker": ...}``,
  then one ``RSLT <record>`` line per spec, in request order, where
  ``<record>`` is the sorted-key JSON result record — bit-identical to
  what :func:`~repro.sweep.transport.base.run_spec` returns in process,
  because it *is* that call, serialized.  ``run_spec`` picks the safe
  runner of the spec's kind from its id field.

EOF on stdin ends the session.  Every reply line is flushed before the
next spec is read, so the coordinator sees a record as soon as it
exists and a killed worker can never leave a half-acknowledged spec.

Stdout is the protocol channel, so it must stay clean: while a spec
runs, ``sys.stdout`` is redirected to stderr, where stray prints from
simulator code pass harmlessly through to the coordinator's log
instead of tearing the record stream.
"""

from __future__ import annotations

import contextlib
import json
import sys
from typing import TextIO

from repro.sweep.transport.base import (
    HELLO_PREFIX,
    RESULT_PREFIX,
    error_record,
    run_spec,
)


def hello_line() -> str:
    """The session's first protocol line: who is serving, what schema."""
    from repro.sweep.grid import SCHEMA

    return HELLO_PREFIX + json.dumps(
        {"schema": SCHEMA, "worker": "repro.sweep.worker"}, sort_keys=True
    )


def serve(stdin: TextIO | None = None, stdout: TextIO | None = None) -> int:
    """Run the worker loop until EOF on ``stdin``.  Returns exit status."""
    stdin = stdin if stdin is not None else sys.stdin
    stdout = stdout if stdout is not None else sys.stdout
    stdout.write(hello_line() + "\n")
    stdout.flush()
    for line in stdin:
        line = line.strip()
        if not line:
            continue
        try:
            spec = json.loads(line)
        except json.JSONDecodeError as error:
            record = error_record({}, f"undecodable spec: {error}")
        else:
            # Shield the protocol channel: simulator code that prints
            # goes to stderr, not into the record stream.
            with contextlib.redirect_stdout(sys.stderr):
                record = run_spec(spec)
        stdout.write(RESULT_PREFIX + json.dumps(record, sort_keys=True) + "\n")
        stdout.flush()
    return 0


__all__ = ["HELLO_PREFIX", "RESULT_PREFIX", "hello_line", "serve"]


if __name__ == "__main__":
    raise SystemExit(serve())
