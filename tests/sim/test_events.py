"""Unit tests for the event queue."""

import pytest

from repro.sim import EventQueue


class TestEventQueue:
    def test_orders_by_time(self):
        q = EventQueue()
        fired = []
        q.push(2.0, lambda: fired.append("b"))
        q.push(1.0, lambda: fired.append("a"))
        q.push(3.0, lambda: fired.append("c"))
        while q:
            _, fn, args = q.pop()
            fn(*args)
        assert fired == ["a", "b", "c"]

    def test_fifo_among_simultaneous(self):
        q = EventQueue()
        fired = []
        for name in "abcde":
            q.push(1.0, lambda n=name: fired.append(n))
        while q:
            q.pop()[1]()
        assert fired == list("abcde")

    def test_args_are_stored_not_closed_over(self):
        q = EventQueue()
        fired = []
        q.push(1.0, fired.append, "x")
        q.push(0.5, fired.extend, ("y", "z"))
        while q:
            _, fn, args = q.pop()
            fn(*args)
        assert fired == ["y", "z", "x"]
        # Entries are plain tuples: (time, seq, fn, args).
        q.push(2.0, fired.append, 1)
        time, seq, fn, args = q.heap[0]
        assert (time, fn, args) == (2.0, fired.append, (1,))

    def test_peek_time(self):
        q = EventQueue()
        assert q.peek_time() is None
        q.push(5.0, lambda: None)
        q.push(4.0, lambda: None)
        assert q.peek_time() == 4.0

    def test_len_and_bool(self):
        q = EventQueue()
        assert not q
        q.push(0.0, lambda: None)
        assert len(q) == 1 and q

    def test_pop_empty_raises(self):
        q = EventQueue()
        with pytest.raises(IndexError):
            q.pop()

    def test_nan_time_rejected(self):
        q = EventQueue()
        with pytest.raises(ValueError):
            q.push(float("nan"), lambda: None)
