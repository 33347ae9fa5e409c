"""Rendezvous matching of synchronous sends and receives.

CMMD (in the software revision the paper used) supports only synchronous
point-to-point communication: a send does not complete until the
destination posts the matching receive and the data is transferred.
This module keeps the per-destination queues of *posted-but-unmatched*
sends and receives and pairs them up.

Matching rules (MPI-style non-overtaking, which CMMD also guaranteed):

* a receive names a source (or :data:`ANY_SOURCE`) and a tag (or
  :data:`ANY_TAG`);
* among candidate matches, the earliest-posted send wins (FIFO per
  ordered (src, dst) pair, and FIFO across sources for wildcard
  receives);
* the match happens at the instant the *later* of the two is posted —
  that instant is when the wire transfer begins.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from .process import ANY_SOURCE, ANY_TAG

__all__ = ["PostedSend", "PostedRecv", "RendezvousTable"]


@dataclass
class PostedSend:
    """A send that has completed its software setup and awaits a match."""

    seq: int
    src: int
    dst: int
    nbytes: int
    payload: Any
    tag: int
    posted_at: float


@dataclass
class PostedRecv:
    """A receive posted by the destination rank, awaiting a match."""

    seq: int
    dst: int
    src: int  # may be ANY_SOURCE
    tag: int  # may be ANY_TAG
    posted_at: float


class RendezvousTable:
    """Unmatched sends and receives, keyed by destination rank.

    Pending sends are indexed ``dst -> src -> [sends in seq order]``, so a
    named-source receive inspects one list and a wildcard receive only
    the per-source lists' first tag-compatible entries.  Pending receives
    are a plain per-destination list: a blocked rank posts one at a time.

    A match drops an emptied per-source list but never the destination
    key, so destination keys stay in order of each destination's first
    posted send; :meth:`purge_rank` groups its result in that order.
    """

    def __init__(self) -> None:
        self._sends: Dict[int, Dict[int, List[PostedSend]]] = {}
        self._recvs: Dict[int, List[PostedRecv]] = {}
        self._seq = itertools.count()

    # ------------------------------------------------------------------
    def post_send(
        self, src: int, dst: int, nbytes: int, payload: Any, tag: int, now: float
    ) -> Tuple[PostedSend, Optional[PostedRecv]]:
        """Register a send; return it plus the receive it matched, if any."""
        send = PostedSend(next(self._seq), src, dst, nbytes, payload, tag, now)
        recvs = self._recvs.get(dst)
        if recvs:
            for i, recv in enumerate(recvs):
                if (recv.src == ANY_SOURCE or recv.src == src) and (
                    recv.tag == ANY_TAG or recv.tag == tag
                ):
                    del recvs[i]
                    return send, recv
        self._sends.setdefault(dst, {}).setdefault(src, []).append(send)
        return send, None

    def post_recv(
        self, dst: int, src: int, tag: int, now: float
    ) -> Tuple[PostedRecv, Optional[PostedSend]]:
        """Register a receive; return it plus the send it matched, if any.

        FIFO: the lowest-sequence compatible send wins.  Each per-source
        list is in sequence order, so its first tag-compatible entry is
        that source's candidate.
        """
        recv = PostedRecv(next(self._seq), dst, src, tag, now)
        by_src = self._sends.get(dst)
        if by_src:
            if src == ANY_SOURCE:
                candidates = by_src.values()
            else:
                pending = by_src.get(src)
                candidates = (pending,) if pending else ()
            best: Optional[List[PostedSend]] = None
            best_i = 0
            for pending in candidates:
                for i, send in enumerate(pending):
                    if tag == ANY_TAG or send.tag == tag:
                        if best is None or send.seq < best[best_i].seq:
                            best, best_i = pending, i
                        break
            if best is not None:
                send = best.pop(best_i)
                if not best:
                    del by_src[send.src]
                return recv, send
        self._recvs.setdefault(dst, []).append(recv)
        return recv, None

    # ------------------------------------------------------------------
    def _sends_to(self, dst: int) -> List[PostedSend]:
        """Every pending send addressed to ``dst``, in posting order."""
        by_src = self._sends.get(dst)
        if not by_src:
            return []
        return sorted(
            (s for pending in by_src.values() for s in pending),
            key=lambda s: s.seq,
        )

    def purge_rank(
        self, rank: int
    ) -> Tuple[List[PostedSend], List[PostedRecv]]:
        """Remove every unmatched posting involving ``rank`` (it died).

        Returns ``(sends, recvs)``: the purged sends addressed to or
        posted by the dead rank, and the purged receives posted by live
        ranks that name the dead rank as their source.  (The dead rank's
        own receives are silently discarded.)  Sends addressed to the
        rank come first in posting order, then the rank's own sends
        grouped by destination in order of each destination's first
        ever posted send.
        """
        sends = self._sends_to(rank)
        self._sends.pop(rank, None)
        for dst, by_src in list(self._sends.items()):
            own = by_src.pop(rank, None)
            if own:
                sends.extend(own)
                if not by_src:
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

    # ------------------------------------------------------------------
    def pending_sends(self) -> int:
        return sum(
            len(pending)
            for by_src in self._sends.values()
            for pending in by_src.values()
        )

    def pending_recvs(self) -> int:
        return sum(len(v) for v in self._recvs.values())

    def describe_pending(self) -> str:
        """Summary of unmatched postings for deadlock diagnostics."""
        parts = []
        for dst in sorted(self._sends):
            for s in self._sends_to(dst):
                parts.append(f"send {s.src}->{s.dst} tag={s.tag} ({s.nbytes}B)")
        for dst, recvs in sorted(self._recvs.items()):
            for r in recvs:
                src = "ANY" if r.src == ANY_SOURCE else r.src
                parts.append(f"recv {src}->{r.dst} tag={r.tag}")
        return "; ".join(parts) if parts else "(none)"
