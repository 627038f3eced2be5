#!/usr/bin/env python3
"""Record ``expected.json``: every unit's output at the default seed.

Usage: ``python3 perfbench/record_expected.py`` from the repository
root, with ``src`` on ``PYTHONPATH``.  Takes a few minutes: the
Figure-2 cells are recorded from the reference per-access loop
(``fast=False``), not from the kernels the benchmark times, so the
benchmark checks the fast paths against the paper-faithful oracle.

Run it only when the program's results are meant to change; the
benchmark treats any difference as a wrong answer.
"""

from __future__ import annotations

import json
import re
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import DEFAULT_SEED, SIZES, WORKLOADS, Fig2Replay  # noqa: E402


def record(name: str, size: str) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        if name == Fig2Replay.name:
            workload = Fig2Replay(DEFAULT_SEED, size, Path(tmp), fast=False)
        else:
            workload = WORKLOADS[name](DEFAULT_SEED, size, Path(tmp),
                                       mode="inline")
        workload.setup()
        result = workload.run()
    problems = [f"{unit.id}: {unit.error}" for unit in result.units
                if unit.error]
    if result.status or problems:
        raise SystemExit(f"{name}/{size} failed (status {result.status}): "
                         f"{problems}")
    return {unit.id: unit.value for unit in result.units}


def main() -> None:
    table = {"seed": DEFAULT_SEED}
    for name in WORKLOADS:
        table[name] = {}
        for size in SIZES:
            print(f"recording {name} ({size})", file=sys.stderr)
            table[name][size] = record(name, size)
    text = json.dumps(table, indent=1, sort_keys=True)
    # One line per Figure-2 cell: [faults, cold faults, evictions].
    text = re.sub(r"\[\s+(\d+),\s+(\d+),\s+(\d+)\s+\]", r"[\1, \2, \3]", text)
    (HERE / "expected.json").write_text(text + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
