"""Recursive Exchange (REX): lg N-step store-and-forward all-to-all.

Paper Section 3.3 (Figure 3).  In step *i* (0-based) the machine is
split into groups of ``k = N / 2**i``; each processor exchanges with the
partner ``k/2`` away inside its group, sending *all* the data it
currently holds whose final destination lies in the partner's half —
``n * N / 2`` bytes when each processor owes every other ``n`` bytes.

Fewer steps than PEX (lg N vs N-1), but each step moves N/2 blocks and
requires the node to *reshuffle* its buffers (pack before the send,
unpack after the receive) — the two overheads the paper identifies as
the reason REX loses for large messages on small machines yet wins for
small messages and large machines.

Figure 3's deadlock-free ordering is the opposite of Figure 2's: the
lower-numbered processor of each pair packs and *sends* first
(``exchange_order=LOWER_SEND_FIRST``).
"""

from __future__ import annotations

from typing import Dict, Set, Tuple

import numpy as np

from .. import obs
from .schedule import LOWER_SEND_FIRST, Schedule, ScheduleError, transfer_columns

__all__ = ["recursive_exchange", "rex_partner", "verify_block_routing"]


def rex_partner(rank: int, step: int, nprocs: int) -> int:
    """Partner of ``rank`` in 0-based ``step`` (Figure 3's arithmetic)."""
    k = nprocs >> step
    if k < 2:
        raise ValueError(f"step {step} out of range for {nprocs} processors")
    half = k >> 1
    return rank + half if rank % k < half else rank - half


def recursive_exchange(nprocs: int, nbytes: int) -> Schedule:
    """Recursive Exchange schedule for a uniform complete exchange.

    ``nbytes`` is the per-destination payload *n*; every transfer in the
    schedule carries ``n * N / 2`` bytes and charges the same amount of
    pack and unpack work (the store-and-forward reshuffle).
    """
    if nprocs < 2 or nprocs & (nprocs - 1):
        raise ValueError(f"REX needs a power-of-two size >= 2, got {nprocs}")
    if nbytes < 0:
        raise ValueError(f"nbytes must be non-negative, got {nbytes}")
    staged = nbytes * (nprocs // 2)
    with obs.span("build/REX", category="build", nprocs=nprocs):
        # Step i pairs each rank with the one half a group of N / 2**i
        # away: the partner differs in the bit N / 2**(i + 1).
        step, rank = np.divmod(np.arange((nprocs.bit_length() - 1) * nprocs), nprocs)
        partner = rank ^ (nprocs >> (step + 1))
        return Schedule(
            nprocs,
            transfer_columns(step, rank, partner, staged, staged),
            name="REX",
            exchange_order=LOWER_SEND_FIRST,
        )


def verify_block_routing(nprocs: int) -> Dict[int, Set[Tuple[int, int]]]:
    """Check REX's store-and-forward routing delivers every block.

    Simulates the movement of all ``(src, dst)`` blocks through the
    lg N steps: at the step with group size ``k`` a processor forwards to
    its partner every held block whose destination lies in the partner's
    half of the group.  Verifies that (a) each processor sends exactly
    ``N/2`` blocks per step — the paper's ``n * N / 2`` message size —
    and (b) after the last step every processor holds exactly the blocks
    destined to it.  Returns the final holdings (for tests).
    """
    if nprocs < 2 or nprocs & (nprocs - 1):
        raise ValueError(f"REX needs a power-of-two size >= 2, got {nprocs}")
    holdings: Dict[int, Set[Tuple[int, int]]] = {
        p: {(p, d) for d in range(nprocs) if d != p} for p in range(nprocs)
    }
    nsteps = nprocs.bit_length() - 1
    for i in range(nsteps):
        k = nprocs >> i
        half = k >> 1
        outgoing: Dict[int, Set[Tuple[int, int]]] = {}
        for p in range(nprocs):
            partner = rex_partner(p, i, nprocs)
            p_low = p % k < half
            # Blocks whose destination sits in the partner's half.
            send = {
                blk
                for blk in holdings[p]
                if (blk[1] % k < half) != p_low
            }
            if len(send) != nprocs // 2:
                raise ScheduleError(
                    f"REX routing: rank {p} sends {len(send)} blocks in "
                    f"step {i + 1}, expected {nprocs // 2}"
                )
            outgoing[p] = send
        for p in range(nprocs):
            partner = rex_partner(p, i, nprocs)
            holdings[p] -= outgoing[p]
            holdings[p] |= outgoing[partner]
    for p in range(nprocs):
        expect = {(s, p) for s in range(nprocs) if s != p}
        if holdings[p] != expect:
            raise ScheduleError(
                f"REX routing: rank {p} ended with wrong blocks "
                f"(missing {expect - holdings[p]}, extra {holdings[p] - expect})"
            )
    return holdings
