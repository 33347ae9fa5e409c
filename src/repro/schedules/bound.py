"""Bytes-aware lower bounds on irregular-pattern makespan.

The König chromatic index (:func:`repro.schedules.coloring.optimal_step_count`)
bounds the *step count* of any schedule, but steps are free in that model:
it says nothing about bytes or locality, so it cannot anchor a *time*
optimality gap.  This module derives lower bounds on the makespan of any
direct-delivery schedule of a :class:`CommPattern` on the CM-5 machine
model — schedule-independent quantities every backend (analytic
estimator, fluid DES, packet simulation) must exceed, in the spirit of
the certified optimal-schedule constructions of Träff's broadcast work
(PAPERS.md).

A *direct-delivery* schedule sends each pattern message once, as its
own wire message, from its source to its destination: no transfer
stages data (``pack_bytes == 0``).  Every builder here but REX is one
(LEX/PEX/BEX, LIB/REB, LS/PS/BS/GS, coloring, ``local``).  REX combines
messages: a rank sends log2 N messages rather than N - 1 and pays log2 N
overheads, so it undercuts the endpoint bound (at no jitter, the least
of its three backend times is 0.24-0.50 of the bound at 16 B and
0.56-0.65 at 64 B on 8-64 nodes).  A bound sound under combining is
left open.

Two bounds, each sound for all three cost backends on direct-delivery
schedules:

* **endpoint** — each rank's software layer is serial, so a rank pays its
  per-message overheads (``send_overhead`` per send, ``recv_overhead``
  per receive, pack/unpack memcpy) in full, and its injection (drain)
  link moves at most ``bw_level1`` bytes/s, so the larger of its total
  sent and received wire bytes is serialized at peak bandwidth.  The
  *max* form (not send+recv summed) is what stays sound under the packet
  backend, which overlaps a rank's send and receive wire time within a
  step while still serializing its software.
* **bisection** — every fat-tree link is a shared resource: the wire
  bytes of all messages routed through it cannot drain faster than the
  link's aggregate capacity (``4**(l-1) * level_bandwidth(l)`` for a
  level-``l`` link, the same profile the fluid and packet networks use;
  contention penalties only lower it).  The binding cut under the CM-5
  profile is usually a root link — the bisection.

Both hold for every direct-delivery schedule, so their max does too.  The fat tree routes
deterministically (up-over-down), so every load is data, not a variable:
the LP relaxation ``min T s.t. T >= load`` over both families has exactly
that max as its optimum, and combining them yields nothing tighter.
``makespan_lower_bound`` returns that max with its breakdown;
``repro.analysis.optgap`` divides measured makespans by it to report
per-pattern optimality gaps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from ..machine.params import (
    FAT_TREE_ARITY,
    CM5Params,
    MachineConfig,
    wire_bytes,
)
from .pattern import CommPattern

__all__ = [
    "LowerBound",
    "endpoint_bound",
    "bisection_bound",
    "makespan_lower_bound",
]

#: Cut identifier: (direction, level, subtree index) — the fat tree's
#: LinkId convention (:mod:`repro.machine.fattree`).
CutKey = Tuple[str, int, int]


@dataclass(frozen=True)
class LowerBound:
    """A makespan lower bound with its per-family breakdown."""

    #: The combined bound (seconds): ``max(endpoint, bisection)``.
    seconds: float
    #: Tightest per-rank serialized-work bound and the rank it binds on.
    endpoint: float
    endpoint_rank: int
    #: Tightest per-link cut bound and the link it binds on.
    bisection: float
    bisection_cut: Optional[CutKey]
    #: Which family binds: "endpoint" or "bisection".
    binding: str

    def describe(self) -> str:
        cut = (
            f"{self.bisection_cut[0]}/L{self.bisection_cut[1]}"
            f"[{self.bisection_cut[2]}]"
            if self.bisection_cut is not None
            else "-"
        )
        return (
            f"bound {self.seconds * 1e3:.3f} ms "
            f"(endpoint {self.endpoint * 1e3:.3f} ms @ rank "
            f"{self.endpoint_rank}, bisection {self.bisection * 1e3:.3f} ms "
            f"@ {cut}; {self.binding} binds)"
        )


# ----------------------------------------------------------------------
# Endpoint bound
# ----------------------------------------------------------------------
def endpoint_bound(
    pattern: CommPattern,
    config: MachineConfig,
    params: Optional[CM5Params] = None,
) -> Tuple[float, int]:
    """Max over ranks of serialized endpoint work: ``(seconds, rank)``.

    Per rank ``r``::

        n_sends(r) * send_overhead + n_recvs(r) * recv_overhead
        + max(sent wire bytes, received wire bytes) / bw_level1

    Sound for every backend: software service is serial per node in all
    three models, each message costs at least its overhead constant, and
    a node's injection/drain link peaks at ``bw_level1`` even for
    cluster-local routes.  The wire term takes the *max* of the two
    directions because the packet backend lets a rank's send and receive
    wire time overlap within a step (the fluid executor's synchronous
    rendezvous would support the sum, but the bound must hold for all
    backends).  Pack/unpack staging is not charged: the paper's
    irregular schedules move payload directly (``pack_bytes == 0``).
    """
    if pattern.nprocs != config.nprocs:
        raise ValueError(
            f"pattern is for {pattern.nprocs} procs, machine has "
            f"{config.nprocs}"
        )
    params = params or config.params
    m = pattern.matrix
    # Wire bytes per message: packetization inflates and floors at one
    # packet, so apply wire_bytes entry-wise on the nonzero slots.
    wires = np.zeros_like(m, dtype=np.float64)
    nz = m > 0
    if nz.any():
        wires[nz] = np.vectorize(wire_bytes, otypes=[np.int64])(m[nz])
    sent = wires.sum(axis=1)
    recvd = wires.sum(axis=0)
    n_sends = nz.sum(axis=1)
    n_recvs = nz.sum(axis=0)
    software = (
        n_sends * params.send_overhead + n_recvs * params.recv_overhead
    )
    per_rank = software + np.maximum(sent, recvd) / params.bw_level1
    rank = int(per_rank.argmax())
    return float(per_rank[rank]), rank


# ----------------------------------------------------------------------
# Bisection / cut bound
# ----------------------------------------------------------------------
def _cut_loads(pattern: CommPattern, params: CM5Params) -> Dict[CutKey, float]:
    """Seconds of traffic per fat-tree link: wire bytes / aggregate cap.

    A message from ``src`` to ``dst`` whose route peaks at level ``top``
    ascends the up-links of ``src``'s enclosing subtrees at levels
    ``1..top`` and descends the mirror down-links of ``dst``'s — the
    same deterministic up-over-down paths the fluid and packet networks
    route on.
    """
    loads: Dict[CutKey, float] = {}
    for src, dst, nbytes in pattern.operations():
        w = float(wire_bytes(nbytes))
        s, d = src, dst
        level = 1
        while True:
            up_cap = (
                FAT_TREE_ARITY ** (level - 1) * params.level_bandwidth(level)
            )
            key = ("up", level, s)
            loads[key] = loads.get(key, 0.0) + w / up_cap
            key = ("down", level, d)
            loads[key] = loads.get(key, 0.0) + w / up_cap
            s //= FAT_TREE_ARITY
            d //= FAT_TREE_ARITY
            if s == d:
                break
            level += 1
    return loads


def bisection_bound(
    pattern: CommPattern,
    config: MachineConfig,
    params: Optional[CM5Params] = None,
) -> Tuple[float, Optional[CutKey]]:
    """Max over fat-tree links of (wire bytes through) / (aggregate cap).

    Returns ``(seconds, link)``; the link is ``None`` for an empty
    pattern.  Sound for all backends: the packet network serves one
    packet per ``PACKET_BYTES / capacity`` per link, the fluid network's
    max-min allocation never exceeds a link's (contention-degraded)
    capacity, and the estimator's per-step contention model charges at
    least the shared-capacity drain time of each step's cut traffic.
    """
    if pattern.nprocs != config.nprocs:
        raise ValueError(
            f"pattern is for {pattern.nprocs} procs, machine has "
            f"{config.nprocs}"
        )
    params = params or config.params
    loads = _cut_loads(pattern, params)
    if not loads:
        return 0.0, None
    cut = max(loads, key=lambda k: (loads[k], k))
    return loads[cut], cut


# ----------------------------------------------------------------------
# Combined
# ----------------------------------------------------------------------
def makespan_lower_bound(
    pattern: CommPattern,
    config: MachineConfig,
    params: Optional[CM5Params] = None,
) -> LowerBound:
    """The combined makespan lower bound of a direct-delivery schedule
    of ``pattern`` (module docstring), with its breakdown.

    ``seconds`` is ``max(endpoint, bisection)``; ``binding`` names the
    family that achieves it.
    """
    params = params or config.params
    ep, rank = endpoint_bound(pattern, config, params)
    bi, cut = bisection_bound(pattern, config, params)
    return LowerBound(
        seconds=max(ep, bi),
        endpoint=ep,
        endpoint_rank=rank,
        bisection=bi,
        bisection_cut=cut,
        binding="endpoint" if ep >= bi else "bisection",
    )
