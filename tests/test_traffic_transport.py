"""Traffic campaigns on the campaign core: transports, loss, heartbeat.

Traffic points run through the same runner as sweep shards
(:func:`repro.sweep.engine.run_specs`), so they inherit its promises:
(1) canonical records are byte-identical whatever transport carries
the points; (2) a worker that dies hard under a point costs a retry,
never a hang — and retry accounting is per point, keyed by the
point's own id; (3) a campaign with a results file publishes a
heartbeat that ends in a terminal state.

The hard-kill cases run their campaign in a child process bounded by
a timeout, so a runner that hangs on worker death fails the test
instead of hanging the suite.
"""

import asyncio
import io
import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.observe.telemetry.cli import run_top
from repro.sweep.checkpoint import canonical_lines
from repro.sweep.engine import heartbeat_path
from repro.sweep.transport.stream import StreamTransport, repro_pythonpath
from repro.traffic.engine import build_points, run_campaign

#: A few milliseconds per point.
TINY = dict(pool_frames=16, quotas=(3, 4), pages=24, session_length=32,
            shared_pages=8, horizon=48)

#: Seconds a hard-kill campaign may take before it counts as hung.
HANG_TIMEOUT = 120

#: The child program: build TINY points, inject faults, run, report.
CHILD = """
import json, sys
from repro.traffic.engine import build_points, run_campaign
args = json.loads(sys.argv[1])
points = build_points(loads=(0.5, 1.0, 1.5), seeds=(0, 1), **args["tiny"])
points = points[:args["count"]]
for index, inject in args["inject"].items():
    points[int(index)] = dict(points[int(index)], **inject)
result = run_campaign(points, **args["run"])
print(json.dumps({
    "points": [point["point"] for point in points],
    "records": [record["point"] for record in result.records],
    "failures": result.failures,
}))
"""


def run_bounded(count, inject, **run):
    """Run a TINY campaign in a child process; its summary, or a test
    failure if it does not return within ``HANG_TIMEOUT`` seconds."""
    args = json.dumps({"tiny": TINY, "count": count, "inject": inject,
                       "run": run})
    env = dict(os.environ, PYTHONPATH=repro_pythonpath())
    child = subprocess.Popen(
        [sys.executable, "-c", CHILD, args], stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, env=env,
        start_new_session=True,
    )
    try:
        out, err = child.communicate(timeout=HANG_TIMEOUT)
    except subprocess.TimeoutExpired:
        # The whole session: the coordinator and any pool workers.
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        pytest.fail(f"campaign hung: no result within {HANG_TIMEOUT} s")
    assert child.returncode == 0, err
    return json.loads(out.splitlines()[-1])


class TestHardKill:
    def test_point_lost_once_is_retried_and_the_campaign_completes(
            self, tmp_path):
        summary = run_bounded(
            6, {"2": {"inject_exit_once": str(tmp_path / "died")}},
            workers=2)
        assert summary["failures"] == []
        assert summary["records"] == sorted(summary["points"])
        assert (tmp_path / "died").exists()

    def test_poison_point_becomes_one_point_keyed_failure(self):
        summary = run_bounded(1, {"0": {"inject_exit": True}},
                              workers=2, transport="pool")
        assert summary["records"] == []
        [failure] = summary["failures"]
        assert failure["point"] == summary["points"][0]
        assert "shard" not in failure
        assert failure["attempts"] == 2
        assert failure["transport"] == "pool"

    def test_two_points_each_lost_once_both_complete(self, tmp_path):
        """Retry budgets are per point id: two different points each
        lost once are two first losses, not one point lost twice.  The
        stream transport's slots die independently, so each loss is
        charged to exactly the point that caused it."""
        summary = run_bounded(2, {
            "0": {"inject_exit_once": str(tmp_path / "first")},
            "1": {"inject_exit_once": str(tmp_path / "second")},
        }, workers=2, transport="subprocess")
        assert summary["failures"] == []
        assert summary["records"] == sorted(summary["points"])


class TestTransportIdentity:
    def test_same_points_same_bytes_under_every_transport(self):
        points = build_points(loads=(0.5, 1.5), quick=True)
        lines = {
            name: canonical_lines(
                run_campaign(points, workers=2, transport=name).records)
            for name in ("inline", "pool", "subprocess")
        }
        assert len(lines["inline"]) == len(points)
        assert lines["pool"] == lines["inline"]
        assert lines["subprocess"] == lines["inline"]

    def test_transport_name_is_reported(self):
        points = build_points(loads=(1.0,), **TINY)
        assert run_campaign(points, transport="inline").transport == "inline"


class LateSecondSlot(StreamTransport):
    """Two stream slots; the second finishes its spawn only after the
    first has taken every spec off the shared queue."""

    def __init__(self):
        super().__init__(workers=2)
        self.spawns = 0
        self.work = None

    async def _slot(self, host, work, ledger, out, abort):
        self.work = work
        await super()._slot(host, work, ledger, out, abort)

    async def _spawn(self, host):
        self.spawns += 1
        late = self.spawns == 2
        proc = await super()._spawn(host)
        deadline = time.monotonic() + HANG_TIMEOUT
        while late and self.work and time.monotonic() < deadline:
            await asyncio.sleep(0.01)
        return proc


class TestStreamSlots:
    def test_slot_that_spawns_after_the_queue_drained_exits_cleanly(self):
        """A slot whose worker comes up after the other slots took the
        last spec has nothing to do: it must stop, not pop an empty
        queue and fail the campaign."""
        points = build_points(loads=(0.5, 1.5), **TINY)
        carrier = LateSecondSlot()
        records = list(carrier.run(points))
        assert carrier.spawns == 2
        assert not [record for record in records if "error" in record]
        assert sorted(record["point"] for record in records) == \
            sorted(point["point"] for point in points)


class TestHeartbeat:
    def test_finished_campaign_stamps_finished(self, tmp_path):
        path = tmp_path / "results.jsonl"
        points = build_points(loads=(0.5, 1.5), seeds=(0, 1), **TINY)
        run_campaign(points, results_path=path)
        beat = json.loads(heartbeat_path(path).read_text())
        assert beat["state"] == "finished"
        assert beat["sweep"] == "traffic"
        assert beat["done"] == beat["total"] == len(points)
        assert beat["failed"] == 0
        assert "traffic.queue_wait" in beat["telemetry"]["histograms"]

    def test_raising_progress_callback_stamps_aborted(self, tmp_path):
        path = tmp_path / "results.jsonl"
        points = build_points(loads=(0.5, 1.5), seeds=(0, 1), **TINY)

        def interrupt(done, total, record):
            if done == 2:
                raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            run_campaign(points, results_path=path, progress=interrupt)
        beat = json.loads(heartbeat_path(path).read_text())
        assert beat["state"] == "aborted"
        assert beat["done"] == 2
        # The records it was told about are durable and whole.
        assert len(path.read_text().splitlines()) == 2

    def test_top_renders_a_traffic_heartbeat(self, tmp_path):
        path = tmp_path / "results.jsonl"
        run_campaign(build_points(loads=(1.0,), **TINY), results_path=path)
        stream = io.StringIO()
        status = run_top(["--snapshot", str(heartbeat_path(path)),
                          "--once"], stream=stream)
        assert status == 0
        out = stream.getvalue()
        assert "state=finished" in out
        assert "traffic.queue_wait" in out
        assert "campaign finished" in out
