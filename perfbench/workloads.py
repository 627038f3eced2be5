"""The three benchmark workloads, each split into set-up and run.

A workload runs inside one fresh child process (see ``child.py``).
``setup`` imports the program and builds the inputs; ``run`` drives
the program through the entry point a user would run and returns one
:class:`Unit` per unit of work (a sweep shard, a traffic point, a
replay cell) plus the number of references it simulated.

Nothing here imports ``repro`` at module level: the child times its
imports as part of set-up.

Every simulated statistic is a correctness check, never a metric.  A
unit's ``value`` is what the committed ``expected.json`` pins at the
default seed; ``error`` carries any structural failure, which is checked
at every seed.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, replace
from pathlib import Path

#: The seed the committed digests were recorded at.  Other seeds fall
#: back to the structural checks.
DEFAULT_SEED = 0

#: The program's own default base seed; benchmark seed ``s`` runs the
#: program at ``BASE_SEED + s``, so seed 0 is the campaign users get.
BASE_SEED = 1967

SIZES = ("default", "tiny")


@dataclass
class Unit:
    """One unit of work: its host time and its checked output."""

    id: str
    seconds: float
    value: object
    error: str | None = None


@dataclass
class RunResult:
    units: list[Unit]
    refs: int
    """Simulated references, summed over every leg of every unit."""
    status: int = 0
    """Exit status of the CLI entry point (0 for the library workload)."""


def digest(fields: dict) -> str:
    """A short stable digest of a flat result record."""
    line = json.dumps(fields, sort_keys=True)
    return hashlib.sha256(line.encode("utf-8")).hexdigest()[:16]


def _read_jsonl(path: Path) -> list[dict]:
    if not path.exists():
        return []
    return [json.loads(line) for line in path.read_text("utf-8").splitlines()
            if line.strip()]


def _run_cli(argv: list[str], log: Path) -> int:
    """``python -m repro <argv>`` in-process, its output sent to ``log``."""
    import contextlib

    from repro.__main__ import main

    with open(log, "a", encoding="utf-8") as handle, \
            contextlib.redirect_stdout(handle), \
            contextlib.redirect_stderr(handle):
        try:
            return main(argv)
        except SystemExit as exit_:   # argparse errors
            return exit_.code if isinstance(exit_.code, int) else 1


# -- museum-sweep ----------------------------------------------------------


class MuseumSweep:
    """``python -m repro sweep`` over the default museum grid."""

    name = "museum-sweep"

    #: Record fields that describe the record rather than the
    #: simulation; left out of the digest so a change of record format
    #: that keeps every result does not read as a wrong answer.
    NOT_SIMULATED = ("counters", "telemetry", "schema")

    #: Replacement policies left out of the museum grid.  ``clock``
    #: fails shards in the traffic leg at about half of all base seeds
    #: (``KeyError: page N is not resident``: its ``choose_victim``
    #: ignores the candidate list, so the engine's CoW self-eviction can
    #: evict the page being written; reproduce with ``python -m repro
    #: sweep --replacement clock --base-seed 1968``).  Restore it, and
    #: re-run ``record_expected.py``, once that is fixed.
    EXCLUDED_REPLACEMENT = ("clock",)

    def __init__(self, seed: int, size: str, tmp: Path,
                 mode: str = "pool") -> None:
        self.seed, self.size, self.tmp, self.mode = seed, size, tmp, mode
        self.workers = 2 if mode == "pool" else 1

    def setup(self) -> None:
        import repro.__main__  # noqa: F401 — the entry point users run
        import repro.sweep.cli  # noqa: F401
        from repro.sweep.grid import default_grid, quick_grid

        grid = quick_grid() if self.size == "tiny" else default_grid()
        grid = replace(grid, replacement=tuple(
            policy for policy in grid.replacement
            if policy not in self.EXCLUDED_REPLACEMENT))
        self.base_seed = grid.base_seed + self.seed
        self.grid = grid
        self.shards = [shard.id for shard in grid.shards()]

    def run(self) -> RunResult:
        results = self.tmp / "sweep.jsonl"
        canon = self.tmp / "sweep.canon"
        argv = [
            "sweep", "--no-report",
            "--workers", str(self.workers), "--transport", self.mode,
            "--results", str(results), "--canon", str(canon),
            "--base-seed", str(self.base_seed),
            "--replacement", *self.grid.replacement,
        ]
        if self.size == "tiny":
            argv.append("--quick")
        status = _run_cli(argv, self.tmp / "sweep.log")
        walls = {record["shard"]: record["wall_s"]
                 for record in _read_jsonl(results)}
        lines = {record["shard"]: record for record in _read_jsonl(canon)}
        grid = self.grid
        units, refs = [], 0
        for shard in self.shards:
            record = lines.get(shard)
            if record is None:
                units.append(Unit(shard, 0.0, None,
                                  "no record (the shard failed)"))
                continue
            refs += (grid.length
                     + grid.programs * grid.program_length
                     + record["sharing"] * grid.program_length
                     + record["traffic_refs"])
            fields = {key: value for key, value in record.items()
                      if key not in self.NOT_SIMULATED}
            units.append(Unit(shard, walls.get(shard, 0.0), digest(fields),
                              self._structural(record)))
        return RunResult(units, refs, status)

    @staticmethod
    def _structural(record: dict) -> str | None:
        if record["traffic_arrivals"] != (record["traffic_admitted"]
                                          + record["traffic_shed"]):
            return "traffic arrivals != admitted + shed"
        if not 0 < record["cold_faults"] <= record["faults"]:
            return "replay cold faults outside 1..faults"
        if record["faults"] - record["evictions"] != min(
                record["faults"], record["frames"]):
            return "replay evictions != faults - frames filled"
        return None


# -- traffic-knee ----------------------------------------------------------


class TrafficKnee:
    """``python -m repro traffic`` at loads below, at and past the knee.

    Always inline (``--workers 1``), whatever ``mode`` says.
    """

    name = "traffic-knee"
    workers = 1
    LOADS = ("0.5", "1.0", "1.5")
    SEEDS = tuple(str(seed) for seed in range(8))
    MEASURED = ("wall_s", "refs_per_s", "telemetry")

    def __init__(self, seed: int, size: str, tmp: Path,
                 mode: str = "inline") -> None:
        self.seed, self.size, self.tmp = seed, size, tmp

    def _sizing(self) -> list[str]:
        if self.size == "tiny":
            return ["--quick", "--loads", "0.5", "1.5", "--seeds", "0", "1"]
        return ["--loads", *self.LOADS, "--seeds", *self.SEEDS]

    def setup(self) -> None:
        import repro.__main__  # noqa: F401 — the entry point users run
        from repro.traffic.cli import build_parser
        from repro.traffic.engine import build_points

        options = build_parser().parse_args(self._sizing())
        self.base_seed = options.base_seed + self.seed
        self.points = [point["point"] for point in build_points(
            loads=tuple(options.loads), seeds=tuple(options.seeds),
            quick=options.quick, base_seed=self.base_seed,
        )]

    def run(self) -> RunResult:
        results = self.tmp / "traffic.jsonl"
        argv = ["traffic", "--no-report", "--workers", "1",
                "--results", str(results),
                "--base-seed", str(self.base_seed), *self._sizing()]
        status = _run_cli(argv, self.tmp / "traffic.log")
        records = {record["point"]: record
                   for record in _read_jsonl(results)}
        units, refs = [], 0
        for point in self.points:
            record = records.get(point)
            if record is None:
                units.append(Unit(point, 0.0, None,
                                  "no record (the point failed)"))
                continue
            refs += record["refs"]
            fields = {key: value for key, value in record.items()
                      if key not in self.MEASURED}
            error = None
            if record["arrivals"] != record["admitted"] + record["shed"]:
                error = "arrivals != admitted + shed"
            units.append(Unit(point, record["wall_s"], digest(fields), error))
        return RunResult(units, refs, status)


# -- fig2-replay -----------------------------------------------------------


class Fig2Replay:
    """The Figure 2 curve: one streamed trace through four policies.

    A library workload (Figure 2 has no CLI), always in-process.
    ``fast=False`` replays through the reference per-access loop, which
    is how ``expected.json`` is recorded.
    """

    name = "fig2-replay"
    workers = 1
    POLICIES = ("lru", "fifo", "clock", "opt")
    FRAMES = (32, 64, 96, 128)
    TRACE = {
        "default": dict(pages=512, length=2_000_000, working_set=64,
                        phase_length=50_000, locality=0.999),
        "tiny": dict(pages=512, length=200_000, working_set=64,
                     phase_length=5_000, locality=0.999),
    }

    def __init__(self, seed: int, size: str, tmp: Path,
                 mode: str = "inline", fast: bool = True) -> None:
        self.seed, self.size, self.tmp, self.fast = seed, size, tmp, fast

    def setup(self) -> None:
        import repro.paging  # noqa: F401
        import repro.trace

        path = repro.trace.stream_trace(
            self.tmp / "fig2.rtrc", "phased", seed=BASE_SEED + self.seed,
            **self.TRACE[self.size],
        )
        self.trace = repro.trace.read_trace(path)

    def run(self) -> RunResult:
        from repro.paging import simulate_trace
        from repro.paging.replacement import make_policy

        trace = self.trace
        units, cells = [], {}
        for name in self.POLICIES:
            for frames in self.FRAMES:
                started = time.perf_counter()
                policy = (make_policy(name, trace=trace) if name == "opt"
                          else make_policy(name))
                result = simulate_trace(trace, frames, policy,
                                        fast=self.fast)
                seconds = time.perf_counter() - started
                cell = [result.faults, result.cold_faults, result.evictions]
                cells[name, frames] = cell
                units.append(Unit(f"{name}/{frames}", seconds, cell))
        for unit in units:
            unit.error = self._structural(unit, cells)
        return RunResult(units, len(trace) * len(units))

    def _structural(self, unit: Unit, cells: dict) -> str | None:
        name, frames = unit.id.split("/")
        frames = int(frames)
        faults, cold, evictions = unit.value
        if faults - evictions != min(faults, frames):
            return "evictions != faults - frames filled"
        if cold != cells["opt", frames][1]:
            return "cold faults differ from OPT's (distinct pages)"
        if faults < cells["opt", frames][0]:
            return "fewer faults than OPT"
        if name in ("lru", "opt"):
            smaller = [f for f in self.FRAMES if f < frames]
            if smaller and faults > cells[name, smaller[-1]][0]:
                return "stack policy faulted more with more frames"
        return None


WORKLOADS = {w.name: w for w in (MuseumSweep, TrafficKnee, Fig2Replay)}
