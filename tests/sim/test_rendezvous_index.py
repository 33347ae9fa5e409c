"""Property test: the indexed rendezvous table matches the list-scan rule.

:class:`repro.sim.channels.RendezvousTable` indexes pending sends as
``dst -> src -> [sends in seq order]``.  The reference below is the
original table, which kept one list per destination and scanned it on
every receive.  Hypothesis drives both through the same random
interleavings of sends, named/``ANY_SOURCE``/``ANY_TAG`` receives and
rank purges; every match, every purge result (including its order),
the pending counts and the deadlock description must agree.
"""

import itertools
from typing import Any, Dict, List, Optional, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.channels import PostedRecv, PostedSend, RendezvousTable
from repro.sim.process import ANY_SOURCE, ANY_TAG


class _ListScanTable:
    """The list-scan rendezvous table the indexed one replaced."""

    def __init__(self) -> None:
        self._sends: Dict[int, List[PostedSend]] = {}
        self._recvs: Dict[int, List[PostedRecv]] = {}
        self._seq = itertools.count()

    def post_send(
        self, src: int, dst: int, nbytes: int, payload: Any, tag: int, now: float
    ) -> Tuple[PostedSend, Optional[PostedRecv]]:
        send = PostedSend(next(self._seq), src, dst, nbytes, payload, tag, now)
        recvs = self._recvs.get(dst, [])
        for i, recv in enumerate(recvs):
            if self._compatible(send, recv):
                del recvs[i]
                return send, recv
        self._sends.setdefault(dst, []).append(send)
        return send, None

    def post_recv(
        self, dst: int, src: int, tag: int, now: float
    ) -> Tuple[PostedRecv, Optional[PostedSend]]:
        recv = PostedRecv(next(self._seq), dst, src, tag, now)
        sends = self._sends.get(dst, [])
        best_idx = -1
        for i, send in enumerate(sends):
            if self._compatible(send, recv):
                if best_idx < 0 or send.seq < sends[best_idx].seq:
                    best_idx = i
        if best_idx >= 0:
            send = sends.pop(best_idx)
            return recv, send
        self._recvs.setdefault(dst, []).append(recv)
        return recv, None

    @staticmethod
    def _compatible(send: PostedSend, recv: PostedRecv) -> bool:
        if recv.src != ANY_SOURCE and recv.src != send.src:
            return False
        if recv.tag != ANY_TAG and recv.tag != send.tag:
            return False
        return True

    def purge_rank(self, rank: int) -> Tuple[List[PostedSend], List[PostedRecv]]:
        sends: List[PostedSend] = list(self._sends.pop(rank, []))
        for dst, pending in list(self._sends.items()):
            kept = [s for s in pending if s.src != rank]
            if len(kept) != len(pending):
                sends.extend(s for s in pending if s.src == rank)
                if kept:
                    self._sends[dst] = kept
                else:
                    del self._sends[dst]
        self._recvs.pop(rank, None)
        recvs: List[PostedRecv] = []
        for dst, pending in list(self._recvs.items()):
            kept = [r for r in pending if r.src != rank]
            if len(kept) != len(pending):
                recvs.extend(r for r in pending if r.src == rank)
                if kept:
                    self._recvs[dst] = kept
                else:
                    del self._recvs[dst]
        return sends, recvs

    def pending_sends(self) -> int:
        return sum(len(v) for v in self._sends.values())

    def pending_recvs(self) -> int:
        return sum(len(v) for v in self._recvs.values())

    def describe_pending(self) -> str:
        parts = []
        for dst, sends in sorted(self._sends.items()):
            for s in sends:
                parts.append(f"send {s.src}->{s.dst} tag={s.tag} ({s.nbytes}B)")
        for dst, recvs in sorted(self._recvs.items()):
            for r in recvs:
                src = "ANY" if r.src == ANY_SOURCE else r.src
                parts.append(f"recv {src}->{r.dst} tag={r.tag}")
        return "; ".join(parts) if parts else "(none)"


# Rounds of a send burst, a receive burst and at most one purge, with
# few destinations, so wildcard receives often see several candidate
# sources and per-source queues grow past one entry.
_SEND = st.tuples(
    st.just("send"), st.integers(0, 5), st.integers(0, 2), st.integers(0, 2)
)
_RECV = st.tuples(
    st.just("recv"),
    st.integers(0, 2),
    st.one_of(st.just(ANY_SOURCE), st.integers(0, 5)),
    st.one_of(st.just(ANY_TAG), st.integers(0, 2)),
)
_PURGE = st.tuples(st.just("purge"), st.integers(0, 5))
_ROUND = st.tuples(
    st.lists(_SEND, min_size=1, max_size=8),
    st.lists(_RECV, min_size=1, max_size=4),
    st.lists(_PURGE, max_size=1),
)
_OPS = st.lists(_ROUND, min_size=1, max_size=10).map(
    lambda rounds: [op for r in rounds for part in r for op in part]
)


def _key(posting):
    return None if posting is None else (type(posting).__name__, vars(posting))


@settings(max_examples=300, deadline=None)
@given(_OPS)
def test_indexed_table_matches_list_scan(ops):
    table, ref = RendezvousTable(), _ListScanTable()
    for step, op in enumerate(ops):
        now = float(step)
        if op[0] == "send":
            _, src, dst, tag = op
            got = table.post_send(src, dst, 8 * step, f"m{step}", tag, now)
            want = ref.post_send(src, dst, 8 * step, f"m{step}", tag, now)
        elif op[0] == "recv":
            _, dst, src, tag = op
            got = table.post_recv(dst, src, tag, now)
            want = ref.post_recv(dst, src, tag, now)
        else:
            got = table.purge_rank(op[1])
            want = ref.purge_rank(op[1])
            got = tuple([_key(p) for p in side] for side in got)
            want = tuple([_key(p) for p in side] for side in want)
            assert got == want, (step, op)
            got = want = None
        if got is not None:
            assert tuple(map(_key, got)) == tuple(map(_key, want)), (step, op)
        assert table.pending_sends() == ref.pending_sends()
        assert table.pending_recvs() == ref.pending_recvs()
        assert table.describe_pending() == ref.describe_pending()


def test_named_source_receive_skips_other_sources():
    """A named receive takes the oldest send from its source only."""
    t = RendezvousTable()
    for src in (3, 1, 2, 1):
        t.post_send(src, 0, 64, f"from{src}", 0, now=0.0)
    _, got = t.post_recv(0, 1, ANY_TAG, now=1.0)
    assert (got.src, got.seq) == (1, 1)
    _, got = t.post_recv(0, ANY_SOURCE, ANY_TAG, now=1.0)
    assert got.src == 3
    assert t.pending_sends() == 2
