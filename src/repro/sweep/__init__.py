"""Parallel sweep engine: the one-shot simulator as a campaign runner.

The paper's quantitative claims (Figures 2–4) are statements about a
*design space* — fault rate against allotted space, space-time product
against fetch latency, fragmentation against placement policy — and any
reproduction of them is a many-configuration, many-seed campaign.  This
package executes such campaigns:

- :mod:`repro.sweep.grid` — a declarative :class:`SweepGrid` (machine
  presets × replacement × placement × frames × capacities × seeds) that
  expands into deterministic :class:`Shard` specs, each with
  SHA-256-derived per-channel seeds, so results are bit-identical
  regardless of worker count or completion order.
- :mod:`repro.sweep.shard` — :func:`run_shard` executes one grid cell:
  a trace replay (Figure 2), a multiprogrammed space-time mix
  (Figure 3), and an allocator churn with fragmentation measures
  (Figure 4), returning one flat record plus a counters snapshot.
- :mod:`repro.sweep.transport` — the pluggable worker boundary:
  ``inline``, a local process pool with broken-worker detection, and
  asyncio stdio workers (``python -m repro.sweep.worker``) reached as
  subprocesses or over SSH, all with bounded retry on transport loss.
- :mod:`repro.sweep.engine` — ``run_specs``, the one campaign runner
  (sweeps and traffic), fans specs over a transport, appends each
  record to a resumable results file through the torn-line-proof
  :class:`~repro.sweep.checkpoint.CheckpointWriter`, heartbeats, and
  merges every record's counters and telemetry; :func:`run_sweep`
  feeds it a grid's shards.
- :mod:`repro.sweep.scaling` — finite-size-scaling reductions:
  power-law fits of a metric against an axis, per machine preset
  (the ``EXPERIMENTS.md`` §SCALE study).
- :mod:`repro.sweep.cli` — ``python -m repro sweep``: grids from the
  command line or a JSON file, ``--workers`` / ``--resume`` /
  ``--checked`` / ``--transport``, and per-axis marginal tables.

Determinism contract: for a fixed grid (axes + sizes + ``base_seed``),
every shard's record is a pure function of its shard id — the engine's
only nondeterminism is completion *order* and wall-clock timings, which
is why any worker count over any transport mix produces the same
records and the same merged counters (asserted by
``tests/test_sweep_engine.py`` and ``tests/test_sweep_transport.py``,
and diffed byte-for-byte in CI).
"""

from repro.sweep.checkpoint import CheckpointWriter, canonical_lines
from repro.sweep.engine import CampaignResult, read_results, run_sweep
from repro.sweep.grid import (
    Shard,
    SweepGrid,
    default_grid,
    derive_seed,
    quick_grid,
)
from repro.sweep.scaling import (
    PowerLawFit,
    finite_size_scaling,
    fit_power_law,
)
from repro.sweep.shard import run_shard
from repro.sweep.transport import Transport, make_transport

__all__ = [
    "CampaignResult",
    "CheckpointWriter",
    "PowerLawFit",
    "Shard",
    "SweepGrid",
    "Transport",
    "canonical_lines",
    "default_grid",
    "derive_seed",
    "finite_size_scaling",
    "fit_power_law",
    "make_transport",
    "quick_grid",
    "read_results",
    "run_shard",
    "run_sweep",
]
