"""``python -m repro sweep`` — run a campaign and report its marginals.

Grid sources, in precedence order: ``--grid FILE`` (a JSON
:meth:`~repro.sweep.grid.SweepGrid.to_dict` document), ``--quick`` (the
16-shard CI smoke grid), otherwise the default machine-museum grid.
Axis flags (``--machines``, ``--replacement``, ``--placement``,
``--frames``, ``--capacities``, ``--sharing``, ``--seeds``) override
whichever grid was selected.  ``--transport`` picks the worker
boundary (inline / pool / subprocess / ``ssh:host,...`` — see
``docs/SWEEP.md``); records are bit-identical across all of them,
which ``--canon FILE`` makes checkable: it writes the canonical
sorted, wall-time-stripped record lines that two runs of the same grid
must reproduce byte-for-byte.  The runner flags (``--workers``,
``--results``, ``--resume``, ``--transport``, ``--canon``, ``--live``,
``--no-report``) are defined once here and shared with ``repro
traffic``.

The report is three layers: a run summary (shard counts, the greppable
``executed N`` line the CI resume check keys on), one marginal table per
swept axis (axes with a single value are elided), and the merged
run-wide counters.  Exit status is 1 when any shard failed, 2 for bad
arguments.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import Callable

from repro.metrics.report import format_table, kv_table
from repro.sweep.checkpoint import canonical_lines
from repro.sweep.engine import CampaignResult, marginals, run_sweep
from repro.sweep.grid import SweepGrid, default_grid, quick_grid
from repro.sweep.transport.base import spec_id

#: Axes reported as marginal tables, in report order.
AXES = ("machine", "replacement", "placement", "frames", "capacity",
        "sharing", "offered", "seed")

#: Column order is append-only: tooling (and the tests) index the
#: existing columns by position, so new metrics go at the end.
MARGINAL_HEADERS = (
    "value", "shards", "fault rate", "space-time", "cpu util",
    "ext frag", "int frag", "alloc fails", "dedup ratio", "st saving",
    "shed rate", "qwait p99",
)


def default_workers() -> int:
    """Worker count when ``--workers`` is not given: cores, capped at 8."""
    return max(1, min(8, os.cpu_count() or 1))


def add_runner_arguments(parser: argparse.ArgumentParser, unit: str,
                         results: str) -> None:
    """The campaign-runner flags ``repro sweep`` and ``repro traffic``
    share; ``unit`` names what a campaign runs (shards, points)."""
    parser.add_argument("--workers", type=int, default=None, metavar="N",
                        help="worker processes (default: cores, max 8)")
    parser.add_argument("--results", default=results, metavar="FILE",
                        help="append-only results file "
                             "(default: %(default)s)")
    parser.add_argument("--resume", action="store_true",
                        help=f"skip {unit} already present in the "
                             "results file")
    parser.add_argument("--transport", default=None, metavar="NAME",
                        help="worker boundary: inline, pool, subprocess, "
                             "or ssh:HOST[,HOST...] (default: inline for "
                             "1 worker, pool otherwise)")
    parser.add_argument("--canon", default=None, metavar="FILE",
                        help="also write the canonical (sorted, "
                             "wall-time-stripped) record lines — the "
                             "byte-comparable form of the campaign")
    parser.add_argument("--no-report", action="store_true",
                        help="suppress the report tables")
    parser.add_argument("--live", action="store_true",
                        help=f"redraw a live dashboard as {unit} land "
                             "(plain-text frames when stdout is not a "
                             "TTY)")


def run_with_runner_flags(run: Callable[..., CampaignResult], target,
                          options: argparse.Namespace,
                          **arguments) -> CampaignResult | None:
    """``run(target, ...)`` under the runner flags (``arguments``
    override them); None after printing a bad flag value's ``error:``
    (exit 2).  Writes ``--canon`` and lists failed specs on stderr."""
    arguments = {
        "workers": options.workers or default_workers(),
        "results_path": options.results,
        "resume": options.resume,
        "transport": options.transport,
        **arguments,
    }
    try:
        result = run(target, **arguments)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return None
    if options.canon:
        lines = canonical_lines(result.records)
        Path(options.canon).write_text(
            "".join(line + "\n" for line in lines), encoding="utf-8")
    for failure in result.failures:
        print(f"FAILED {spec_id(failure)}: {failure['error']}",
              file=sys.stderr)
    return result


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro sweep",
        description="run a deterministic policy/machine sweep campaign",
    )
    parser.add_argument("--grid", metavar="FILE",
                        help="load the grid from a JSON file")
    parser.add_argument("--quick", action="store_true",
                        help="use the 16-shard smoke grid")
    add_runner_arguments(parser, "shards", "SWEEP_results.jsonl")
    parser.add_argument("--checked", action="store_true",
                        help="run every shard under the invariant suite")
    parser.add_argument("--machines", nargs="+", metavar="NAME")
    parser.add_argument("--replacement", nargs="+", metavar="POLICY")
    parser.add_argument("--placement", nargs="+", metavar="POLICY")
    parser.add_argument("--frames", nargs="+", type=int, metavar="N")
    parser.add_argument("--capacities", nargs="+", type=int, metavar="WORDS")
    parser.add_argument("--sharing", nargs="+", type=int, metavar="N",
                        help="sharing degrees (tenants per shared pool) "
                             "for the serve leg")
    parser.add_argument("--offered", nargs="+", type=float, metavar="X",
                        help="offered-load multipliers for the "
                             "open-arrival traffic leg")
    parser.add_argument("--seeds", nargs="+", type=int, metavar="SEED")
    parser.add_argument("--base-seed", type=int, default=None, metavar="N")
    parser.add_argument("--name", default=None,
                        help="grid name (keys resume matching)")
    return parser


def resolve_grid(options: argparse.Namespace) -> SweepGrid:
    """Pick the base grid, then fold in any axis overrides."""
    if options.grid:
        grid = SweepGrid.from_file(options.grid)
    elif options.quick:
        grid = quick_grid()
    else:
        grid = default_grid()

    overrides: dict[str, object] = {}
    for axis in ("machines", "replacement", "placement", "frames",
                 "capacities", "sharing", "offered", "seeds"):
        values = getattr(options, axis)
        if values is not None:
            overrides[axis] = tuple(values)
    if options.base_seed is not None:
        overrides["base_seed"] = options.base_seed
    if options.name is not None:
        overrides["name"] = options.name
    if overrides:
        grid = SweepGrid.from_dict({**grid.to_dict(), **overrides})
    return grid


def summary_line(kind: str, name: str, result: CampaignResult) -> str:
    """The greppable one-line outcome (``executed N`` is what the CI
    resume checks key on)."""
    return (f"{kind}: {name}  executed {result.executed}  "
            f"skipped {result.skipped}  failed {len(result.failures)}  "
            f"transport {result.transport}")


def print_summary(result: CampaignResult, title: str,
                  rows: list[tuple]) -> None:
    """The summary table a campaign report opens with: ``rows``, then
    the runner's counts, then a warning if the results file is damaged."""
    summary = [
        *rows,
        ("executed", result.executed),
        ("skipped (resumed)", result.skipped),
        ("failed", len(result.failures)),
        ("workers", result.workers),
        ("transport", result.transport),
        ("wall s", result.wall_s),
    ]
    if result.corrupt_lines:
        summary.append(("corrupt result lines", result.corrupt_lines))
    print(kv_table(summary, title=title))
    if result.corrupt_lines:
        print(f"warning: skipped {result.corrupt_lines} unreadable "
              "line(s) in the results file — it may be damaged")


def _print_report(result, grid: SweepGrid) -> None:
    print_summary(result, f"sweep: {grid.name}",
                  [("grid", grid.name), ("shards", grid.size)])

    swept = [axis for axis in AXES
             if len({record.get(axis) for record in result.records}) > 1]
    for axis in swept:
        print()
        print(format_table(
            MARGINAL_HEADERS,
            marginals(result.records, axis),
            title=f"marginal: {axis}",
        ))

    snapshot = result.counters.snapshot()
    if snapshot:
        print()
        print(kv_table(sorted(snapshot.items()), title="merged counters"))


def main(argv: list[str] | None = None) -> int:
    options = build_parser().parse_args(argv)
    try:
        grid = resolve_grid(options)
    except (ValueError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    progress = None
    if options.live:
        from repro.observe.telemetry.dashboard import SweepLiveView

        progress = SweepLiveView(grid.name).update

    result = run_with_runner_flags(run_sweep, grid, options,
                                   checked=options.checked,
                                   progress=progress)
    if result is None:
        return 2

    if options.no_report:
        print(summary_line("sweep", grid.name, result))
    else:
        _print_report(result, grid)
    return 0 if result.ok else 1


__all__ = [
    "add_runner_arguments",
    "build_parser",
    "default_workers",
    "main",
    "print_summary",
    "resolve_grid",
    "run_with_runner_flags",
    "summary_line",
]
