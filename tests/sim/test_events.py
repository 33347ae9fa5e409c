"""Unit tests for the event queue.

Every public-API test runs against both implementations: the
pure-Python reference :class:`repro.sim.EventQueue` and the compiled
twin in the kernel extension (skipped when the kernel is not loaded).
"""

import gc
import sys
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine import MachineConfig
from repro.machine._fastfill import kernel
from repro.sim import Delay, EventQueue, Send
from repro.sim.engine import Engine
from repro.sim.events import _TIME_ATOL

_COMPILED = kernel().EventQueue if kernel() is not None else None
_needs_kernel = pytest.mark.skipif(
    _COMPILED is None, reason="compiled kernel not loaded"
)
IMPLS = [
    pytest.param(EventQueue, id="python"),
    pytest.param(_COMPILED, id="compiled", marks=_needs_kernel),
]


class TestEventQueue:
    impl = EventQueue

    def test_orders_by_time(self):
        q = self.impl()
        fired = []
        q.push(2.0, lambda: fired.append("b"))
        q.push(1.0, lambda: fired.append("a"))
        q.push(3.0, lambda: fired.append("c"))
        while q:
            _, fn, args = q.pop()
            fn(*args)
        assert fired == ["a", "b", "c"]

    def test_fifo_among_simultaneous(self):
        q = self.impl()
        fired = []
        for name in "abcde":
            q.push(1.0, lambda n=name: fired.append(n))
        while q:
            q.pop()[1]()
        assert fired == list("abcde")

    def test_args_are_stored_not_closed_over(self):
        q = self.impl()
        fired = []
        q.push(1.0, fired.append, "x")
        q.push(0.5, fired.extend, ("y", "z"))
        while q:
            _, fn, args = q.pop()
            fn(*args)
        assert fired == ["y", "z", "x"]
        q.push(2.0, fired.append, 1)
        self.check_entry_layout(q, fired.append)

    def check_entry_layout(self, q, fn):
        # Entries are plain tuples: (time, seq, fn, args).
        time, seq, fn_, args = q.heap[0]
        assert (time, fn_, args) == (2.0, fn, (1,))

    def test_peek_time(self):
        q = self.impl()
        assert q.peek_time() is None
        q.push(5.0, lambda: None)
        q.push(4.0, lambda: None)
        assert q.peek_time() == 4.0

    def test_len_and_bool(self):
        q = self.impl()
        assert not q
        q.push(0.0, lambda: None)
        assert len(q) == 1 and q

    def test_pop_empty_raises(self):
        q = self.impl()
        with pytest.raises(IndexError):
            q.pop()

    def test_nan_time_rejected(self):
        q = self.impl()
        with pytest.raises(ValueError):
            q.push(float("nan"), lambda: None)


@_needs_kernel
class TestCompiledEventQueue(TestEventQueue):
    impl = _COMPILED

    def check_entry_layout(self, q, fn):
        # The C heap has no tuple view: the entry reads back through pop().
        assert q.pop() == (2.0, fn, (1,))

    def test_push_needs_time_and_fn(self):
        with pytest.raises(TypeError):
            self.impl().push(1.0)

    def test_drain_tolerance_matches_reference(self):
        assert kernel().TIME_ATOL == _TIME_ATOL


def test_engine_uses_compiled_queue_when_loaded():
    queue = Engine(MachineConfig(4)).queue
    assert type(queue) is (EventQueue if _COMPILED is None else _COMPILED)


# ----------------------------------------------------------------------
# run(engine): the drain loop, against a stand-in engine
# ----------------------------------------------------------------------
class _Recorder:
    """The attributes ``run`` uses: ``now``, ``_net_changed``, the arm."""

    def __init__(self, queue, arms=0):
        self.queue = queue
        self.now = 0.0
        self._net_changed = False
        self._arms_left = arms
        self.log = []

    def _arm_network_event(self):
        self._net_changed = False
        self.log.append(("arm", self.now))
        if self._arms_left:
            self._arms_left -= 1
            self.queue.push(self.now + 0.25, self.fire, "armed", ())

    def fire(self, label, children):
        self.log.append((label, self.now))
        for i, (delta, change) in enumerate(children):
            if change:
                self._net_changed = True
            self.queue.push(self.now + delta, self.fire, f"{label}.{i}", ())


def _drain(impl, events, arms):
    q = impl()
    eng = _Recorder(q, arms)
    for label, (t, children) in enumerate(events):
        q.push(t, eng.fire, label, tuple(children))
    q.run(eng)
    assert not q and q.peek_time() is None
    return eng.log


_TIMES = st.sampled_from([0.0, 1.0, 1.0 + 0.5 * _TIME_ATOL, 1.0 + _TIME_ATOL, 2.0])
_DELTAS = st.sampled_from([0.0, 0.5 * _TIME_ATOL, _TIME_ATOL, 3 * _TIME_ATOL, 0.5])
_CHILDREN = st.lists(st.tuples(_DELTAS, st.booleans()), max_size=3)


@_needs_kernel
@settings(max_examples=60, deadline=None)
@given(
    events=st.lists(st.tuples(_TIMES, _CHILDREN), max_size=25),
    arms=st.integers(0, 3),
)
def test_run_fires_in_the_same_order_on_both_queues(events, arms):
    """Tied times, atol-close times, cascades and arming agree exactly."""
    assert _drain(_COMPILED, events, arms) == _drain(EventQueue, events, arms)


@pytest.mark.parametrize("impl", IMPLS)
def test_run_rejects_an_event_in_the_past(impl):
    q = impl()
    eng = _Recorder(q)
    eng.now = 1.0
    q.push(0.5, eng.fire, "late", ())
    with pytest.raises(RuntimeError, match="event in the past: 0.5 < 1.0"):
        q.run(eng)


@pytest.mark.parametrize("impl", IMPLS)
def test_run_advances_now_only_forward(impl):
    q = impl()
    eng = _Recorder(q)
    eng.now = 1.0
    # Within the past tolerance: fires at the current instant.
    q.push(1.0 - 1e-10, eng.fire, "a", ())
    q.push(3.0, eng.fire, "b", ())
    q.run(eng)
    assert eng.log == [("a", 1.0), ("b", 3.0)]
    assert eng.now == 3.0


def _boom(*_):
    raise KeyError("handler failed")


@pytest.mark.parametrize("impl", IMPLS)
def test_raising_handler_propagates_and_leaves_the_rest_queued(impl):
    q = impl()
    eng = _Recorder(q)
    payload = object()
    baseline = sys.getrefcount(payload)
    q.push(1.0, eng.fire, "before", ())
    q.push(2.0, _boom, payload)
    q.push(3.0, eng.fire, "after", ())
    q.push(4.0, eng.fire, "later", ())
    try:
        q.run(eng)
    except KeyError:
        pass
    else:  # pragma: no cover
        pytest.fail("the handler's exception did not propagate")
    assert eng.log == [("before", 1.0)]
    assert eng.now == 2.0
    assert len(q) == 2 and q.peek_time() == 3.0
    # The popped event released its arguments.
    assert sys.getrefcount(payload) == baseline


def _abort_mid_run(impl):
    """An engine whose run dies on a bad Send dst with events queued."""
    eng = Engine(MachineConfig(4))
    eng.queue = impl()
    eng._schedule = eng.queue.push

    def prog(rank):
        if rank == 0:
            yield Send(dst=99, nbytes=8)
        yield Delay(1.0)

    try:
        eng.run([prog(r) for r in range(4)])
    except ValueError:
        pass
    else:  # pragma: no cover
        pytest.fail("the bad dst was accepted")
    assert len(eng.queue) > 0
    return weakref.ref(eng)


@pytest.mark.parametrize("impl", IMPLS)
def test_aborted_engine_with_queued_events_is_collected(impl):
    """Queued bound methods cycle back to the engine: GC must see them."""
    ref = _abort_mid_run(impl)
    gc.collect()
    assert ref() is None
