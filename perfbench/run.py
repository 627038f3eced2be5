#!/usr/bin/env python3
"""Campaign benchmark: museum sweep, traffic knee and Figure-2 replay.

Usage::

    python3 perfbench/run.py --workload museum-sweep --seed 0 \\
        --seconds 25 --trace 0

Run from anywhere; the program is imported from ``src/`` next to this
directory.  Every repetition is a fresh child process (``child.py``)
that imports the program, builds the inputs and runs the workload
through the entry point users run.  With ``--trace 0`` the benchmark
repeats the workload for ``--seconds`` seconds (at least
``MIN_REPS`` times) and reports the end-to-end metrics as medians over
the repetitions.  With ``--trace 1`` it makes one traced inline run
beside an untraced one, prints the per-layer table and reports the
per-layer metrics.

Every unit of work is checked: against the digests in
``expected.json`` at the default seed, structurally at every seed, and
against the first repetition of the same run.  Any failure makes the
last line read ``"correct": false`` and the exit status 1.  Everything
the runs write goes to a temporary directory inside the checkout,
removed at exit.  See ``README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("museum-sweep", "traffic-knee", "fig2-replay")

#: Worker boundary of the timed runs; the traced run is always inline.
TIMED_MODE = {"museum-sweep": "pool", "traffic-knee": "inline",
              "fig2-replay": "inline"}

#: End-to-end metrics (``--trace 0``): name -> unit.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "sim_refs_per_s": "refs/s",
    "unit_p50_s": "s",
    "unit_tail_s": "s",
    "peak_rss_mb": "MiB",
}

#: Per-layer metrics (``--trace 1``): name -> unit.
PER_LAYER = {
    "import.repro_s": "s",
    "workload.traces_generated": "count",
    "workload.trace_gen_s": "s",
    "trace.stream_s": "s",
    "trace.read_s": "s",
    "paging.simulate_calls": "count",
    "paging.simulate_s": "s",
    "paging.ns_per_ref": "ns",
    "fastpath.columnar_attempts": "count",
    "fastpath.columnar_completed_ratio": "ratio",
    "paging.victim_choices": "count",
    "paging.victim_ns": "ns",
    "alloc.ops": "count",
    "alloc.ns_per_op": "ns",
    "sim.mix_s": "s",
    "serve.simulate_shared_s": "s",
    "serve.acquires": "count",
    "serve.acquire_ns": "ns",
    "serve.releases": "count",
    "serve.cow_breaks": "count",
    "traffic.materialize_s": "s",
    "traffic.admission_decisions": "count",
    "traffic.admit_ratio": "ratio",
    "traffic.simulate_self_s": "s",
    "observe.snapshot_s": "s",
    "observe.merge_s": "s",
    "sweep.checkpoint_appends": "count",
    "sweep.checkpoint_bytes_per_record": "bytes",
    "sweep.checkpoint_s": "s",
    "sweep.heartbeat_s": "s",
    "sweep.heartbeat_bytes": "bytes",
    "sweep.transport_overhead_s": "s",
    "unattributed_s": "s",
    "unattributed_share": "ratio",
    "tracing_overhead": "ratio",
}

#: Fewest repetitions a timed run makes, however long they take.
MIN_REPS = 3

#: No repetition starts once the run is this old; a run must end
#: within 180 s.
LAST_START_S = 100.0

#: A child still running at this run age is killed and counted failed.
DEADLINE_S = 170.0

#: Units beyond the tail percentile: the tail is the slowest unit but
#: ``TAIL_BEYOND`` (needs twice as many units; else the slowest unit).
TAIL_BEYOND = 10

#: Fresh interpreters timed for ``import.repro_s``.
IMPORT_PROBES = 5


class Failure(Exception):
    """A child that did not produce a result."""


def child_env(tmp: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    # Bytecode goes to the run's temp directory, never into the tree.
    env["PYTHONPYCACHEPREFIX"] = str(tmp / "pycache")
    env["PYTHONHASHSEED"] = "0"
    env["TMPDIR"] = str(tmp)
    return env


def spawn(options: dict, tmp: Path, env: dict, started: float) -> dict:
    """Run ``child.py`` once in a fresh process; returns its payload."""
    rep_tmp = Path(tempfile.mkdtemp(dir=tmp, prefix="rep-"))
    options = dict(options, tmp=str(rep_tmp), out=str(rep_tmp / "out.json"))
    options["spawned"] = time.monotonic()
    process = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), json.dumps(options)],
        cwd=rep_tmp, env=env, stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT, text=True, start_new_session=True,
    )
    try:
        output, _ = process.communicate(
            timeout=max(1.0, DEADLINE_S - (time.monotonic() - started)))
    except subprocess.TimeoutExpired:
        _kill_group(process)
        raise Failure("child timed out") from None
    finally:
        _kill_group(process)   # pool workers it may have left behind
    try:
        payload = json.loads((rep_tmp / "out.json").read_text("utf-8"))
    except (OSError, ValueError):
        raise Failure(f"child exited {process.returncode}:\n"
                      f"{output[-2000:]}") from None
    shutil.rmtree(rep_tmp, ignore_errors=True)
    return payload


def _kill_group(process: subprocess.Popen) -> None:
    try:
        os.killpg(process.pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass
    process.wait()


class Checker:
    """Counts attempted and failed units across a run's repetitions."""

    def __init__(self, expected: dict | None, unit_ids: list[str]) -> None:
        self.expected = expected
        self.unit_ids = unit_ids
        self.first: dict | None = None
        self.attempted = 0
        self.failed = 0

    def fail_all(self, why: str) -> None:
        count = max(1, len(self.unit_ids))
        self.attempted += count
        self.failed += count
        print(f"FAILED repetition ({count} units): {why}", file=sys.stderr)

    def check(self, payload: dict) -> None:
        values = {unit["id"]: unit["value"] for unit in payload["units"]}
        if self.first is None:
            self.first = values
        self.attempted += len(set(values) | set(self.unit_ids))
        # A nonzero CLI exit fails the units it names; with none named,
        # it fails them all.
        unexplained = payload["status"] != 0 and not any(
            unit["error"] for unit in payload["units"])
        for unit in payload["units"]:
            problem = unit["error"]
            if problem is None and unexplained:
                problem = f"CLI exited {payload['status']}"
            if problem is None and self.expected is not None \
                    and self.expected.get(unit["id"]) != unit["value"]:
                problem = "output does not match the expected digest"
            if problem is None and self.first.get(unit["id"]) != unit["value"]:
                problem = "output differs from the first repetition"
            if problem is not None:
                self.failed += 1
                print(f"FAILED {unit['id']}: {problem}", file=sys.stderr)
        missing = set(self.unit_ids) - set(values)
        self.failed += len(missing)
        for unit_id in sorted(missing):
            print(f"FAILED {unit_id}: no result", file=sys.stderr)


def load_expected(workload: str, size: str, seed: int,
                  plant_mismatch: bool) -> tuple[dict | None, list[str]]:
    """(digests to check or None, unit ids) for this run."""
    table = json.loads((HERE / "expected.json").read_text("utf-8"))
    recorded = table[workload][size]
    expected = dict(recorded) if seed == table["seed"] else None
    if plant_mismatch:
        if expected is None:
            raise SystemExit("--plant-mismatch needs the default seed")
        first = sorted(expected)[0]
        expected[first] = "planted-mismatch"
    return expected, sorted(recorded)


def tail(seconds: list[float]) -> float:
    """The slowest unit but ``TAIL_BEYOND``, or the slowest of few."""
    ordered = sorted(seconds)
    if len(ordered) >= 2 * TAIL_BEYOND:
        return ordered[-TAIL_BEYOND - 1]
    return ordered[-1]


def timed_run(args, options: dict, tmp: Path, env: dict, started: float,
              checker: Checker) -> dict:
    reps = []
    while len(reps) < MIN_REPS or time.monotonic() - started < args.seconds:
        if time.monotonic() - started > LAST_START_S:
            break
        try:
            payload = spawn(options, tmp, env, started)
        except Failure as error:
            checker.fail_all(str(error))
            break
        checker.check(payload)
        reps.append(payload)
        print(f"repetition {len(reps)}: setup {payload['setup_s']:.3f} s, "
              f"wall {payload['wall_s']:.3f} s, "
              f"{payload['refs'] / payload['run_s']:.0f} refs/s")
    if not reps:
        return {}
    units = sum(len(rep["units"]) for rep in reps)
    print(f"{len(reps)} repetitions, {units} units "
          f"({units // len(reps)} a repetition)")

    median = statistics.median
    return {
        "setup_s": median([rep["setup_s"] for rep in reps]),
        "wall_s": median([rep["wall_s"] for rep in reps]),
        "sim_refs_per_s": median([rep["refs"] / rep["run_s"] for rep in reps]),
        "unit_p50_s": median([
            median([unit["seconds"] for unit in rep["units"]])
            for rep in reps]),
        "unit_tail_s": median([
            tail([unit["seconds"] for unit in rep["units"]]) for rep in reps]),
        "peak_rss_mb": median([rep["peak_rss_mb"] for rep in reps]),
    }


def import_seconds(env: dict) -> float:
    """``import repro`` in a fresh interpreter, median of a few."""
    probe = ("import time; t = time.perf_counter(); import repro; "
             "print(time.perf_counter() - t)")
    samples = []
    for _ in range(IMPORT_PROBES):
        output = subprocess.run([sys.executable, "-c", probe], env=env,
                                capture_output=True, text=True, check=True,
                                timeout=60).stdout
        samples.append(float(output.strip().splitlines()[-1]))
    return statistics.median(samples)


def traced_run(args, options: dict, tmp: Path, env: dict, started: float,
               checker: Checker) -> dict:
    """One untraced inline run, one traced inline run, the layer table."""
    runs = {}
    plan = [("inline", False), ("traced", True)]
    if TIMED_MODE[args.workload] != "inline":
        plan.insert(0, ("timed", False))
    for label, traced in plan:
        mode = TIMED_MODE[args.workload] if label == "timed" else "inline"
        try:
            payload = spawn(dict(options, mode=mode, traced=traced),
                            tmp, env, started)
        except Failure as error:
            checker.fail_all(str(error))
            return {}
        checker.check(payload)
        runs[label] = payload
    traced = runs["traced"]
    layers = traced["layers"]
    counts = traced["counts"]
    wall = traced["wall_s"] - traced["started_s"]

    def calls(name):
        return layers.get(name, {}).get("calls", 0)

    def total(name):
        return layers.get(name, {}).get("total_s", 0.0)

    def ratio(part, whole):
        return part / whole if whole else 0.0

    transport = 0.0
    if "timed" in runs:
        timed = runs["timed"]
        transport = (timed["run_s"] * timed["workers"]
                     - sum(unit["seconds"] for unit in timed["units"]))
    alloc_ops = calls("alloc.allocate") + calls("alloc.free")
    metrics = {
        "import.repro_s": import_seconds(env),
        "workload.traces_generated": calls("workload.phased_trace"),
        "workload.trace_gen_s": total("workload.phased_trace"),
        "trace.stream_s": total("trace.stream_trace"),
        "trace.read_s": total("trace.read_trace"),
        "paging.simulate_calls": calls("paging.simulate_trace"),
        "paging.simulate_s": total("paging.simulate_trace"),
        "paging.ns_per_ref": ratio(total("paging.simulate_trace") * 1e9,
                                   counts.get("paging.refs", 0)),
        "fastpath.columnar_attempts": calls("fastpath.run_columnar"),
        "fastpath.columnar_completed_ratio": ratio(
            counts.get("fastpath.columnar_completed", 0),
            calls("fastpath.run_columnar")),
        "paging.victim_choices": calls("paging.choose_victim"),
        "paging.victim_ns": ratio(total("paging.choose_victim") * 1e9,
                                  calls("paging.choose_victim")),
        "alloc.ops": alloc_ops,
        "alloc.ns_per_op": ratio(
            (total("alloc.allocate") + total("alloc.free")) * 1e9, alloc_ops),
        "sim.mix_s": total("sim.mix"),
        "serve.simulate_shared_s": total("serve.simulate_shared"),
        "serve.acquires": calls("serve.acquire"),
        "serve.acquire_ns": ratio(total("serve.acquire") * 1e9,
                                  calls("serve.acquire")),
        "serve.releases": calls("serve.release"),
        "serve.cow_breaks": calls("serve.cow_break"),
        "traffic.materialize_s": total("traffic.materialize"),
        "traffic.admission_decisions": calls("traffic.decide"),
        "traffic.admit_ratio": ratio(counts.get("traffic.admits", 0),
                                     calls("traffic.decide")),
        "traffic.simulate_self_s": layers.get(
            "traffic.simulate_traffic", {}).get("self_s", 0.0),
        "observe.snapshot_s": total("observe.snapshot"),
        "observe.merge_s": total("observe.merge_snapshot"),
        "sweep.checkpoint_appends": calls("sweep.checkpoint_append"),
        "sweep.checkpoint_bytes_per_record": ratio(
            counts.get("sweep.checkpoint_bytes", 0),
            calls("sweep.checkpoint_append")),
        "sweep.checkpoint_s": total("sweep.checkpoint_append"),
        "sweep.heartbeat_s": total("sweep.write_heartbeat"),
        "sweep.heartbeat_bytes": counts.get("sweep.heartbeat_bytes", 0),
        "sweep.transport_overhead_s": transport,
        "unattributed_s": traced["unattributed_s"],
        "unattributed_share": ratio(traced["unattributed_s"], wall),
        "tracing_overhead": traced["run_s"] / runs["inline"]["run_s"] - 1,
    }
    print_layer_table(layers, traced["unattributed_s"], wall,
                      metrics["tracing_overhead"])
    return metrics


def print_layer_table(layers: dict, unattributed: float, wall: float,
                      overhead: float) -> None:
    print(f"{'layer':<28}{'calls':>10}{'total s':>11}{'self s':>11}"
          f"{'self %':>8}")
    for name, row in sorted(layers.items(),
                            key=lambda item: -item[1]["self_s"]):
        print(f"{name:<28}{row['calls']:>10}{row['total_s']:>11.4f}"
              f"{row['self_s']:>11.4f}{100 * row['self_s'] / wall:>8.2f}")
    print(f"{'unattributed':<28}{'':>10}{'':>11}{unattributed:>11.4f}"
          f"{100 * unattributed / wall:>8.2f}")
    print(f"{'wall':<28}{'':>10}{'':>11}{wall:>11.4f}{100.0:>8.2f}")
    print(f"tracing overhead (traced / untraced inline run phase - 1): "
          f"{overhead:.4f}")


def environment_stamp() -> str:
    import importlib.metadata
    import importlib.util
    import platform

    numpy = "absent"
    if importlib.util.find_spec("numpy") is not None:
        numpy = importlib.metadata.version("numpy")
    nproc = len(os.sched_getaffinity(0)) if hasattr(
        os, "sched_getaffinity") else os.cpu_count()
    return (f"python {platform.python_version()}, numpy {numpy}, "
            f"nproc {nproc}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("default", "tiny"),
                        default="default",
                        help="tiny: seconds-long inputs for the self-tests")
    parser.add_argument("--plant-mismatch", action="store_true",
                        help="corrupt one expected digest (self-test)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    started = time.monotonic()
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the program is missing: no {SRC}/repro package",
              file=sys.stderr)
        return 2
    expected, unit_ids = load_expected(args.workload, args.size, args.seed,
                                       args.plant_mismatch)
    scratch = ROOT / ".perfbench-tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        env = child_env(tmp)
        options = {"workload": args.workload, "seed": args.seed,
                   "size": args.size, "mode": TIMED_MODE[args.workload],
                   "traced": False}
        checker = Checker(expected, unit_ids)
        try:
            # Warm-up: fills the bytecode cache; checked, not timed.
            spawn(dict(options, size="tiny"), tmp, env, started)
        except Failure as error:
            print(f"warm-up failed: {error}", file=sys.stderr)
            return 1
        if args.trace:
            values = traced_run(args, options, tmp, env, started, checker)
            catalogue = PER_LAYER
        else:
            values = timed_run(args, options, tmp, env, started, checker)
            catalogue = END_TO_END
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass
    correct = checker.failed == 0 and bool(values)
    print(f"perfbench {args.workload} seed {args.seed}: "
          f"{environment_stamp()}; units {checker.attempted} attempted, "
          f"{checker.failed} failed")
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, checker.attempted),
        "failed": checker.failed,
        "metrics": {name: {"value": values.get(name, 0.0), "unit": unit}
                    for name, unit in catalogue.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
