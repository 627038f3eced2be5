"""One measured repetition of one workload, in a fresh interpreter.

``run.py`` starts this script once per repetition and passes its own
monotonic clock reading taken just before the spawn, so set-up and wall
time count interpreter start, imports and input building.

Usage: ``child.py '<json options>'`` with keys ``workload``, ``seed``,
``size``, ``mode``, ``traced``, ``spawned``, ``tmp`` and ``out``.  The
result lands in ``out`` as one JSON object.
"""

import time

# The first statement after the clock import: everything before it is
# interpreter start-up, which set-up time includes.
STARTED = time.monotonic()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from dataclasses import asdict  # noqa: E402
from pathlib import Path  # noqa: E402


def peak_rss_mb(workers: int) -> float:
    """Peak resident memory of this process tree, in MiB.

    This process's own peak plus ``workers`` times the largest peak of
    any reaped child: an upper bound, since the kernel reports only the
    largest child.  An inline run reaps no child, so adds nothing.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers * child) / 1024


def main(options: dict) -> dict:
    from workloads import WORKLOADS

    spawned = options["spawned"]
    tmp = Path(options["tmp"])
    workload = WORKLOADS[options["workload"]](
        options["seed"], options["size"], tmp, mode=options["mode"])
    recorder = None
    if options["traced"]:
        import tracing

        recorder = tracing.Recorder()
        with recorder.span("import"):
            tracing.install(recorder)
        with recorder.span("setup"):
            workload.setup()
    else:
        workload.setup()
    setup_done = time.monotonic()
    result = workload.run()
    finished = time.monotonic()

    payload = {
        "started_s": STARTED - spawned,
        "setup_s": setup_done - spawned,
        "wall_s": finished - spawned,
        "run_s": finished - setup_done,
        "refs": result.refs,
        "status": result.status,
        "units": [asdict(unit) for unit in result.units],
        "workers": workload.workers,
        "peak_rss_mb": peak_rss_mb(workload.workers),
    }
    if recorder is not None:
        # The traced wall starts at this interpreter's first statement:
        # the spans cannot see the spawn before it.
        payload.update(recorder.layers(finished - STARTED))
        payload["counts"] = dict(recorder.counts)
        recorder.write(tmp / "spans.bin")
    return payload


if __name__ == "__main__":
    opts = json.loads(sys.argv[1])
    Path(opts["out"]).write_text(json.dumps(main(opts)), encoding="utf-8")
