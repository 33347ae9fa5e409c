"""Packed int64 keys against the multi-key sorts they replace.

``first_occurrence`` (the schedule checks and the linter) and the
compile's record order group rows by one packed int64 key
(:func:`repro.schedules.schedule.packed_key`).  ``first_occurrence``
keeps ``np.lexsort`` as the fallback for keys that are negative or too
wide to pack; the compile's key always packs, because the schedule gate
caps ranks and steps.  The oracles here are the ``np.lexsort``
versions: on drawn keys, and on drawn and built schedules under both
exchange orders, the packed paths must give the same indices and the
same programs.
"""

from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.apps import paper_workload
from repro.machine import MachineConfig
from repro.schedules import (
    CommPattern,
    Schedule,
    balanced_exchange,
    linear_exchange,
    pairwise_exchange,
    recursive_exchange,
    execute_schedule,
    schedule_irregular,
    validate_schedule,
)
from repro.schedules import executor
from repro.schedules.irregular import IRREGULAR_ALGORITHMS
from repro.schedules.schedule import (
    LOWER_RECV_FIRST,
    LOWER_SEND_FIRST,
    first_occurrence,
    packed_key,
)

from .test_lint_oracles import step_sets

ORDERS = (LOWER_RECV_FIRST, LOWER_SEND_FIRST)


# ----------------------------------------------------------------------
# The multi-key sorts, kept as oracles.
# ----------------------------------------------------------------------
def old_first_occurrence(*keys, ordered=False):
    order = np.lexsort(keys[:0:-1] if ordered else keys[::-1])
    new = np.zeros(order.size, dtype=bool)
    new[:1] = True
    for key in keys:
        key = key[order]
        new[1:] |= key[1:] != key[:-1]
    if new.all():
        return np.arange(order.size)
    first = np.empty_like(order)
    first[order] = order[new][np.cumsum(new) - 1]
    return first


@contextmanager
def lexsort_compile():
    """``_compile`` sorting by its 4-key ``np.lexsort`` order, (rank,
    step, class, peer): each record's key is its place in that order."""
    real = executor.packed_key
    executor.packed_key = lambda *keys: np.argsort(np.lexsort(keys[::-1]))
    try:
        yield
    finally:
        executor.packed_key = real


def programs(schedule):
    """The packed compile's program and the lexsort one, each fresh."""
    packed = executor._compile(schedule)
    with lexsort_compile():
        reference = executor._compile(schedule)
    return packed, reference


def assert_same_program(got, want):
    assert got.ops.dtype == want.ops.dtype
    assert got.ops.tolist() == want.ops.tolist()
    assert got.starts.tolist() == want.starts.tolist()
    assert (got.sizes, got.copies) == (want.sizes, want.copies)
    assert got.live == want.live


# ----------------------------------------------------------------------
# packed_key and first_occurrence
# ----------------------------------------------------------------------
INT64 = np.iinfo(np.int64)


@st.composite
def key_columns(draw, least=1):
    """``least`` to three int64 key columns of equal length: small ranges
    with repeated rows, negatives, and values near the top of int64."""
    m = draw(st.integers(0, 40))
    columns = []
    for _ in range(draw(st.integers(least, 3))):
        kind = draw(st.sampled_from(("small", "small", "negative", "wide")))
        values = {
            "small": st.integers(0, 5),
            "negative": st.integers(-3, 3),
            "wide": st.sampled_from((0, 1, 2**31, 2**62, INT64.max)),
        }[kind]
        drawn = draw(st.lists(values, min_size=m, max_size=m))
        columns.append(np.array(drawn, dtype=np.int64))
    return columns


def assert_first_occurrence_matches_lexsort(keys, ordered):
    got = first_occurrence(*keys, ordered=ordered)
    want = old_first_occurrence(*keys, ordered=ordered)
    assert got.dtype == want.dtype
    assert got.tolist() == want.tolist()


@settings(max_examples=400, deadline=None)
@given(keys=key_columns())
@example(keys=[np.zeros(0, np.int64)])
@example(keys=[np.full(6, 3, np.int64), np.array([2, 2, 0, 2, 0, 1])])
def test_first_occurrence_matches_lexsort(keys):
    assert_first_occurrence_matches_lexsort(keys, ordered=False)


@settings(max_examples=400, deadline=None)
@given(keys=key_columns(least=2))
@example(keys=[np.zeros(0, np.int64), np.zeros(0, np.int64)])
def test_ordered_first_occurrence_matches_lexsort(keys):
    # Ordered mode: the first key is non-decreasing and is not sorted by.
    keys[0] = np.sort(keys[0])
    assert_first_occurrence_matches_lexsort(keys, ordered=True)


@settings(max_examples=200, deadline=None)
@given(keys=key_columns())
def test_packed_key_orders_rows_as_lexsort(keys):
    packed = packed_key(*keys)
    negative = any((key < 0).any() for key in keys)
    span = 1
    for key in keys:
        span *= int(key.max()) + 1 if key.size else 1
    if negative or span > 2**63:
        assert packed is None
        return
    assert packed.dtype == np.int64
    assert (packed >= 0).all() and (packed < span).all()
    assert np.argsort(packed, kind="stable").tolist() == np.lexsort(keys[::-1]).tolist()


def test_packed_key_refuses_an_overflowing_span():
    # 2**32 * 2**31 = 2**63 fits (its largest key is 2**63 - 1); one
    # more doubling of either column does not.
    a = np.array([0, 2**32 - 1], dtype=np.int64)
    b = np.array([2**31 - 1, 0], dtype=np.int64)
    key = packed_key(a, b)
    assert key.tolist() == [2**31 - 1, INT64.max - (2**31 - 1)]
    assert packed_key(a * 2 + 1, b) is None
    assert packed_key(a, np.array([-1, 0])) is None


@pytest.mark.parametrize("width", [10, 10_000], ids=["narrow", "wide"])
def test_unordered_first_occurrence_on_narrow_and_wide_spans(width):
    # A span of 100 or 10**8 against 200 rows.
    rng = np.random.default_rng(3)
    m = 200
    src = rng.integers(0, width, m)
    dst = rng.integers(0, width, m)
    src[150:], dst[150:] = src[:50], dst[:50]  # repeated rows
    got = first_occurrence(src, dst)
    assert got.tolist() == old_first_occurrence(src, dst).tolist()
    assert (got[150:] < 150).all()


# ----------------------------------------------------------------------
# The compile's record order
# ----------------------------------------------------------------------
@settings(max_examples=300, deadline=None)
@given(sched=step_sets())
def test_compile_matches_lexsort_on_drawn_schedules(sched):
    # Exchanges, linear and mixed steps, under both exchange orders.
    assert_same_program(*programs(sched))


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize(
    "build", [linear_exchange, pairwise_exchange, balanced_exchange, recursive_exchange]
)
def test_compile_matches_lexsort_on_exchanges(build, order):
    built = build(16, 64)
    assert_same_program(*programs(Schedule(16, built.columns, built.name, order)))


@pytest.mark.parametrize("algorithm", sorted(IRREGULAR_ALGORITHMS))
def test_compile_matches_lexsort_on_irregular_schedules(algorithm):
    pattern = CommPattern.synthetic(32, 0.5, 256, seed=11)
    sched = schedule_irregular(pattern, algorithm)
    for order in ORDERS:
        twin = Schedule(32, sched.columns, sched.name, order)
        assert_same_program(*programs(twin))


def test_halo_build_and_irregular_op_sort_no_multi_key(monkeypatch):
    """Building a Table 12 halo pattern, then an LS/PS/BS/GS op at N=32
    (build, lint against the pattern, execute) on it and on a 50 %
    Table 11-style pattern, calls neither ``np.lexsort`` nor a row-wise
    ``np.unique``."""
    calls = []
    lexsort, unique = np.lexsort, np.unique

    def counted_lexsort(*args, **kwargs):
        calls.append("lexsort")
        return lexsort(*args, **kwargs)

    def counted_unique(*args, **kwargs):
        if kwargs.get("axis") is not None:
            calls.append("unique(axis=...)")
        return unique(*args, **kwargs)

    monkeypatch.setattr(np, "lexsort", counted_lexsort)
    monkeypatch.setattr(np, "unique", counted_unique)
    halo = paper_workload("euler545").pattern
    synthetic = CommPattern.synthetic(32, 0.5, 256, seed=11)
    for pattern in (halo, synthetic):
        for algorithm in ("linear", "pairwise", "balanced", "greedy"):
            sched = schedule_irregular(pattern, algorithm)
            assert validate_schedule(sched, pattern).ok
            res = execute_schedule(sched, MachineConfig(32))
            assert res.sim.message_count == pattern.n_operations
    assert calls == []
