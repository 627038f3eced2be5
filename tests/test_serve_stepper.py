"""The stepper's ordered victim path against its policy-interface path.

Exact-type ``LruPolicy`` / ``FifoPolicy`` step through the stepper's own
insertion-ordered victim dict and are never called; a trivial subclass
does not match the exact-type dispatch, so it takes the
``ReplacementPolicy`` interface path.  The two must agree bit for bit:
shared replays at degrees 1–4 with writes and overcommitted pools, and
traffic point records, 100 seeds each.
"""

from __future__ import annotations

import pytest

from repro.errors import OutOfMemory
from repro.paging.replacement import REPLACEMENT_POLICIES, FifoPolicy, LruPolicy
from repro.serve import (
    SharedFramePool,
    TenantView,
    seeded_writes,
    simulate_shared,
    tenant_traces,
)
from repro.serve.stepper import FETCH, STALL, TenantStepper
from repro.traffic.engine import (
    build_points,
    run_point_safely,
    strip_nondeterministic,
)

SEEDS = range(100)


class InterfaceLru(LruPolicy):
    """LRU by another type: forced through the policy interface."""


class InterfaceFifo(FifoPolicy):
    """FIFO by another type: forced through the policy interface."""


INTERFACE = {LruPolicy: InterfaceLru, FifoPolicy: InterfaceFifo}


def shared_outcome(seed, policy_type):
    tenants = seed % 4 + 1
    frames = 4 + seed % 5
    traces, shared = tenant_traces(
        tenants, pages=24, length=240, shared_fraction=0.5,
        working_set=5, phase_length=60, locality=0.9, seed=seed,
    )
    writes = [seeded_writes(240, fraction=0.2, seed=seed * 7 + index)
              for index in range(tenants)]
    # Every third seed overcommits the pool, so the self-evict paths run.
    pool_frames = frames * tenants - (seed % 3 == 0) * (frames - 1)
    policies = []

    def factory(_index):
        policies.append(policy_type())
        return policies[-1]

    try:
        result = simulate_shared(
            traces, frames, factory, shared_pages=shared,
            pool_frames=pool_frames, writes=writes,
            record_positions=True, record_evictions=True,
        )
    except OutOfMemory as error:
        return ("OutOfMemory", str(error)), policies
    return result, policies


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("policy_type", [LruPolicy, FifoPolicy])
def test_shared_replay_paths_agree(seed, policy_type):
    ordered, ordered_policies = shared_outcome(seed, policy_type)
    interface, interface_policies = shared_outcome(
        seed, INTERFACE[policy_type])
    assert ordered == interface
    # The ordered path never called its policies; the interface did.
    assert all(not policy.loaded_at and not policy.last_use
               for policy in ordered_policies)
    assert any(policy.loaded_at for policy in interface_policies)


@pytest.mark.parametrize("seed", SEEDS)
def test_traffic_paths_agree(seed, monkeypatch):
    name = "lru" if seed % 2 == 0 else "fifo"
    overrides = dict(pool_frames=32, quotas=(4, 6), pages=48,
                     session_length=64, shared_pages=8, horizon=120)
    if seed % 4 >= 2:   # the tight pool: self-eviction and stalls
        overrides.update(pool_frames=8, overcommit=2.0, quotas=(2, 3),
                         shared_pages=48, write_fraction=0.3)
    spec = build_points(loads=(1.5,), replacement=name, seeds=(seed,),
                        quick=True, **overrides)[0]
    ordered = strip_nondeterministic(run_point_safely(spec))
    monkeypatch.setitem(REPLACEMENT_POLICIES, name,
                        INTERFACE[REPLACEMENT_POLICIES[name]])
    interface = strip_nondeterministic(run_point_safely(spec))
    assert "error" not in ordered
    assert ordered == interface


def test_ordered_dispatch_is_exact_type():
    pool = SharedFramePool(8)
    exact = TenantStepper(TenantView(pool, "a"), LruPolicy(), [0])
    subclass = TenantStepper(TenantView(pool, "b"), InterfaceLru(), [0])
    unordered = TenantStepper(TenantView(pool, "c"), LruPolicy(), [0],
                              ordered=False)
    assert exact._order is not None
    assert subclass._order is None
    assert unordered._order is None


@pytest.mark.parametrize("policy_type", [LruPolicy, InterfaceLru])
def test_advance_self_evicts_then_stalls(policy_type):
    pool = SharedFramePool(2)
    other = TenantView(pool, "other")
    other.acquire(9)                                # pins one of two frames
    stepper = TenantStepper(TenantView(pool, "t", quota=2), policy_type(),
                            [0, 0, 1])
    assert stepper.advance(8) == (1, FETCH)         # page 0 fetched
    assert stepper.advance(8) == (2, FETCH)         # a hit, then page 1
    assert stepper.evictions == 1                   # page 0 gave way

    pool = SharedFramePool(1)
    other = TenantView(pool, "other")
    other.acquire(9)                                # every frame pinned
    stepper = TenantStepper(TenantView(pool, "t"), policy_type(), [0])
    assert stepper.advance(8) == (0, STALL)         # nothing to give
    assert (stepper.position, stepper.stalls) == (0, 1)
    other.release(9)
    assert stepper.advance(8) == (1, FETCH)         # retried, served


def test_shared_replay_raises_when_a_tenant_has_nothing_to_give():
    # Tenant t0 pins the only frame; t1 faults with an empty view.
    with pytest.raises(OutOfMemory, match="tenant t1 has no page left"):
        simulate_shared([[0], [1]], 1, lambda _index: LruPolicy(),
                        pool_frames=1)


@pytest.mark.parametrize("seed", range(20))
@pytest.mark.parametrize("policy_type", [LruPolicy, InterfaceLru])
def test_advance_limit_does_not_change_the_step(seed, policy_type):
    # The same tenants run one after another, once a reference per call
    # and once in spans of 7: the limit only splits the work.
    def drive(limit):
        pool = SharedFramePool(9)
        traces, shared = tenant_traces(3, pages=16, length=200, seed=seed)
        steppers = [
            TenantStepper(
                TenantView(pool, f"t{index}", quota=3, shared_pages=shared),
                policy_type(), traces[index],
                seeded_writes(200, fraction=0.3, seed=seed + index),
            )
            for index in range(3)
        ]
        fetch_stops = 0
        for stepper in steppers:
            while not stepper.done:
                served, stop = stepper.advance(limit)
                assert served >= 1 and stop is not STALL
                fetch_stops += stop is FETCH
        counts = [(s.position, s.faults, s.cold_faults, s.evictions,
                   s.fetches, s.stalls) for s in steppers]
        return fetch_stops, counts, pool.stats

    assert drive(1) == drive(7)
