"""Optimal-step scheduling by bipartite edge coloring (extension).

The paper's schedulers are heuristics; scheduling an irregular pattern
with each processor limited to one send and one receive per step is
exactly *edge coloring* of the bipartite multigraph senders x receivers.
König's theorem gives the exact optimum: the chromatic index equals the
maximum degree, i.e. ::

    min steps = max(max messages sent by any processor,
                    max messages received by any processor)

This module implements the classical alternating-path algorithm (the
constructive proof of König's theorem) and exposes the result as an
ordinary :class:`Schedule`, giving the repository a provably
step-optimal baseline to measure GS/PS/BS against — the
``bench_ablation_greedy`` benchmark quantifies how close the paper's
greedy heuristic gets.

Note that step-optimal is not always time-optimal on a real machine:
the coloring ignores message sizes and network locality, which is
precisely the gap the ablation exposes.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from .pattern import CommPattern
from .schedule import LOWER_RECV_FIRST, Schedule, compact_steps, transfer_columns

__all__ = ["coloring_schedule", "optimal_step_count"]


def optimal_step_count(pattern: CommPattern) -> int:
    """König bound: the exact minimum number of steps for ``pattern``."""
    m = pattern.matrix
    out_deg = int((m > 0).sum(axis=1).max(initial=0))
    in_deg = int((m > 0).sum(axis=0).max(initial=0))
    return max(out_deg, in_deg)


def coloring_schedule(pattern: CommPattern, name: str = "OPT") -> Schedule:
    """Schedule ``pattern`` in the provably minimal number of steps.

    Classical bipartite edge coloring: insert edges one at a time; when
    sender and receiver have no common free color, flip an alternating
    (Kempe) chain between the two candidate colors to make one.
    """
    n = pattern.nprocs
    ncolors = optimal_step_count(pattern)
    if ncolors == 0:
        return Schedule(n, np.zeros((6, 0), dtype=np.int64), name=name)

    # sender_color[u][c] = v if edge u->v has color c (and mirror).
    sender_color: List[Dict[int, int]] = [dict() for _ in range(n)]
    recv_color: List[Dict[int, int]] = [dict() for _ in range(n)]

    def free_color(used: Dict[int, int]) -> int:
        for c in range(ncolors):
            if c not in used:
                return c
        raise AssertionError("degree exceeded the König bound")  # pragma: no cover

    for src, dst, _nbytes in pattern.operations():
        cu = free_color(sender_color[src])
        cv = free_color(recv_color[dst])
        if cu == cv:
            sender_color[src][cu] = dst
            recv_color[dst][cu] = src
            continue
        # Kempe chain: walk the alternating (cu, cv) path starting from
        # dst's cu-edge, collecting the edges on it; then recolor them
        # all at once (cu <-> cv).  Afterwards cu is free at dst, and cu
        # is still free at src (the chain cannot reach src via a cu-edge
        # because src has none), so src->dst takes cu.
        chain: List[Tuple[int, int, int]] = []  # (sender, receiver, color)
        node, node_is_recv, color = dst, True, cu
        while True:
            if node_is_recv:
                partner = recv_color[node].get(color)
                if partner is None:
                    break
                chain.append((partner, node, color))
            else:
                partner = sender_color[node].get(color)
                if partner is None:
                    break
                chain.append((node, partner, color))
            node = partner
            node_is_recv = not node_is_recv
            color = cv if color == cu else cu
        for s, r, col in chain:
            del sender_color[s][col]
            del recv_color[r][col]
        for s, r, col in chain:
            other = cv if col == cu else cu
            sender_color[s][other] = r
            recv_color[r][other] = s
        sender_color[src][cu] = dst
        recv_color[dst][cu] = src

    # Step by color, senders ascending within a step; colors no edge
    # kept are dropped.
    color, src, dst = np.array(
        [(c, u, v) for u in range(n) for c, v in sender_color[u].items()],
        dtype=np.int64,
    ).T
    order = np.argsort(color * n + src, kind="stable")
    color, src, dst = color[order], src[order], dst[order]
    return Schedule(
        n,
        transfer_columns(compact_steps(color), src, dst, pattern.matrix[src, dst]),
        name=name,
        exchange_order=LOWER_RECV_FIRST,
    )
