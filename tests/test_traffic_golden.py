"""Golden traffic records: quick points pinned field for field.

Every point below replays through the tenant stepper, on both of its
paths: lru and fifo on the ordered victim path, lfu, random and clock
through the policy interface.  The tight-pool override is sized so the
self-evict, copy-on-write self-evict and stall paths all run.  The
records are the deterministic form (``strip_nondeterministic``) of
``run_point_safely``, so a point that fails pins its error record: one
clock point pins the known candidate-ignoring defect, where clock's
copy-on-write self-eviction evicts the page it is about to write.

Re-record (only for an intended change of results) with::

    PYTHONPATH=src python tests/test_traffic_golden.py --record
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from repro.traffic.engine import (
    build_points,
    run_point_safely,
    strip_nondeterministic,
)

GOLDEN = Path(__file__).parent / "data" / "traffic_golden.json"

POLICIES = ("lru", "fifo", "lfu", "random", "clock")

#: A pool of 8 frames promised twice over to 2- and 3-page tenants that
#: share every page and write 30% of their references.
TIGHT = dict(pool_frames=8, overcommit=2.0, quotas=(2, 3), shared_pages=64,
             write_fraction=0.3)

POOLS = {"default": {}, "tight": TIGHT}


def golden_points() -> list[tuple[str, dict]]:
    points = []
    for pool, overrides in POOLS.items():
        for policy in POLICIES:
            for spec in build_points(loads=(1.5,), replacement=policy,
                                     seeds=(0, 1), quick=True, **overrides):
                points.append((f"{pool}/{spec['point']}", spec))
    return points


POINTS = golden_points()


def run_golden(spec: dict) -> dict:
    return strip_nondeterministic(run_point_safely(spec))


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text("utf-8"))


@pytest.mark.parametrize("key,spec", POINTS, ids=[key for key, _ in POINTS])
def test_point_matches_its_golden_record(golden, key, spec):
    assert run_golden(spec) == golden[key]


def test_golden_set_covers_every_stepper_path(golden):
    records = list(golden.values())
    assert len(records) == len(POINTS)
    assert any(record.get("stalls", 0) > 0 for record in records)
    assert any("KeyError" in record.get("error", "")
               for key, record in golden.items() if "clock" in key)
    assert all("error" not in record
               for key, record in golden.items() if "clock" not in key)


if __name__ == "__main__" and sys.argv[1:] == ["--record"]:
    GOLDEN.write_text(json.dumps(
        {key: run_golden(spec) for key, spec in POINTS},
        indent=1, sort_keys=True) + "\n", "utf-8")
