"""The inlined draws of ``iter_phased`` reproduce the method-call stream.

``iter_phased`` inlines ``random.Random._randbelow`` when its generator
is exactly ``random.Random``.  The reference below is a frozen copy of
the loop it replaced, which draws through ``choice`` and ``randrange``;
every trace must match it reference for reference, on every supported
Python version.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.trace import read_trace, stream_trace
from repro.workload.reference import iter_phased, phased_trace


def frozen_iter_phased(pages, length, working_set=4, phase_length=100,
                       locality=0.95, seed=0, rng=None):
    generator = rng if rng is not None else random.Random(seed)
    current_set = generator.sample(range(pages), working_set)
    for index in range(length):
        if index and index % phase_length == 0:
            current_set = generator.sample(range(pages), working_set)
        if generator.random() < locality:
            yield generator.choice(current_set)
        else:
            yield generator.randrange(pages)


@st.composite
def phased_params(draw):
    pages = draw(st.integers(1, 300))
    return dict(
        pages=pages,
        length=draw(st.integers(1, 400)),
        working_set=draw(st.one_of(
            st.just(1), st.just(pages), st.integers(1, pages))),
        phase_length=draw(st.integers(1, 500)),
        locality=draw(st.one_of(
            st.just(0.0), st.just(1.0), st.floats(0.0, 1.0))),
        seed=draw(st.integers(0, 2**32)),
    )


@settings(max_examples=300, deadline=None)
@given(phased_params())
def test_fast_stream_matches_the_frozen_loop(params):
    assert list(iter_phased(**params)) == list(frozen_iter_phased(**params))


@pytest.mark.parametrize("params", [
    dict(pages=1, length=50, working_set=1, seed=3),
    dict(pages=9, length=200, working_set=9, phase_length=7, seed=4),
    dict(pages=256, length=300, working_set=1, locality=1.0, seed=5),
    dict(pages=256, length=300, working_set=64, locality=0.0, seed=6),
    dict(pages=100, length=50, working_set=10, phase_length=1000, seed=7),
    dict(pages=2**40, length=100, working_set=3, locality=0.5, seed=8),
])
def test_edge_cases_match_the_frozen_loop(params):
    assert list(iter_phased(**params)) == list(frozen_iter_phased(**params))


def test_caller_owned_generator_continues_the_same_stream():
    fast, frozen = random.Random(11), random.Random(11)
    for _ in range(3):
        assert (list(iter_phased(40, 120, working_set=5, rng=fast))
                == list(frozen_iter_phased(40, 120, working_set=5,
                                           rng=frozen)))
    assert fast.random() == frozen.random()


class _Shifted(random.Random):
    """A subclass overriding a draw: iter_phased must call it."""

    def choice(self, seq):
        return seq[0]


def test_subclass_generators_keep_their_methods():
    params = dict(pages=30, length=200, working_set=4, locality=0.9)
    assert (list(iter_phased(**params, rng=_Shifted(2)))
            == list(frozen_iter_phased(**params, rng=_Shifted(2))))


@pytest.mark.parametrize("chunk_refs", [1, 33, 4096])
def test_stream_trace_chunks_match_the_frozen_loop(tmp_path, chunk_refs):
    params = dict(pages=128, length=2500, working_set=9, phase_length=300,
                  locality=0.97, seed=12)
    path = stream_trace(tmp_path / "phased.rtrc", "phased",
                        chunk_refs=chunk_refs, **params)
    trace = read_trace(path)
    try:
        assert trace == list(frozen_iter_phased(**params))
    finally:
        trace.close()
    assert phased_trace(**params) == list(frozen_iter_phased(**params))
