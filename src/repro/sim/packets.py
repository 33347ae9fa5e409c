"""Packet-level network simulation — the fluid model's validator.

The production path models in-flight messages as fluids with max-min
fair rates (:class:`repro.machine.contention.FluidNetwork`) because a
256-node sweep cannot afford simulating every 20-byte packet.  This
module *does* simulate every packet, for small configurations: messages
are segmented into 20-byte packets, injected at the source's route-level
pace, and forwarded store-and-forward through per-link FIFO queues whose
service rates are the fat tree's link capacities.

It exists to validate the fluid abstraction: the cross-check tests
require the two models to agree on completion times within a modest
tolerance for single messages (where the fluid model should be nearly
exact) and for contended scenarios (where FIFO interleaving approximates
fair sharing).  It is intentionally independent code — no shared
arithmetic with the fluid path beyond the topology.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Tuple

import numpy as np

from ..machine.fattree import FatTree, LinkId
from ..machine.params import PACKET_BYTES, MachineConfig, wire_bytes

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..schedules.schedule import Schedule

__all__ = [
    "PacketMessage",
    "PacketNetwork",
    "simulate_packets",
    "packet_schedule_time",
]


@dataclass(frozen=True)
class PacketMessage:
    """One message to simulate at packet granularity."""

    src: int
    dst: int
    payload: int
    start: float = 0.0

    @property
    def n_packets(self) -> int:
        return wire_bytes(self.payload) // PACKET_BYTES


@dataclass
class _Packet:
    msg_idx: int
    seq: int
    path: Tuple[LinkId, ...]
    hop: int = 0


class PacketNetwork:
    """Store-and-forward packet simulation over one fat tree."""

    #: Per-hop switch latency (seconds) — a small constant so the first
    #: packet's pipeline fill resembles the fluid model's wire_latency.
    HOP_LATENCY = 0.5e-6

    def __init__(self, tree: FatTree):
        self.tree = tree

    def run(self, messages: List[PacketMessage]) -> List[float]:
        """Return each message's completion time (last packet delivered)."""
        # Per-link availability time (one packet in service at a time
        # per capacity-normalized slot).
        link_free: Dict[LinkId, float] = {}
        events: List[Tuple[float, int, _Packet]] = []
        counter = itertools.count()
        completion = [m.start for m in messages]
        remaining = [m.n_packets for m in messages]

        for idx, m in enumerate(messages):
            if m.src == m.dst:
                raise ValueError(f"message {idx}: src == dst")
            path = self.tree.path(m.src, m.dst)
            # Injection pacing: the source streams at its route's level
            # bandwidth — the same per-message cap the fluid model uses.
            pace = PACKET_BYTES / self.tree.message_rate_cap(m.src, m.dst)
            for seq in range(m.n_packets):
                t_inject = m.start + seq * pace
                heapq.heappush(
                    events,
                    (t_inject, next(counter), _Packet(idx, seq, path)),
                )

        from .. import obs

        obs.count("packet.messages", len(messages))
        obs.count("packet.packets", sum(m.n_packets for m in messages))
        while events:
            t, _, pkt = heapq.heappop(events)
            if pkt.hop >= len(pkt.path):
                # Delivered.
                completion[pkt.msg_idx] = max(completion[pkt.msg_idx], t)
                remaining[pkt.msg_idx] -= 1
                continue
            link = pkt.path[pkt.hop]
            service = PACKET_BYTES / self.tree.capacity(link)
            start = max(t, link_free.get(link, 0.0))
            done = start + service
            link_free[link] = done
            pkt.hop += 1
            heapq.heappush(
                events, (done + self.HOP_LATENCY, next(counter), pkt)
            )

        if any(r != 0 for r in remaining):  # pragma: no cover - invariant
            raise RuntimeError("packets lost in simulation")
        return completion


def simulate_packets(
    config: MachineConfig, messages: List[PacketMessage]
) -> List[float]:
    """Convenience wrapper: packet-simulate messages on a partition."""
    from ..machine.fattree import fat_tree_for

    return PacketNetwork(fat_tree_for(config)).run(messages)


def packet_schedule_time(schedule: "Schedule", config: MachineConfig) -> float:
    """Packet-level price of a whole schedule (conformance backend).

    Steps are treated as barrier-synchronized: each step's messages are
    injected together at time zero, the wire cost is the last packet's
    delivery time from the FIFO store-and-forward simulation, and the
    software cost is the busiest processor's serialized endpoint work
    (send/receive overheads plus pack/unpack memcpy — a node's CMMD
    layer handles one message at a time).  That is deliberately *not*
    the fluid executor's barrier-free pipeline: the point of this
    backend is an independent arithmetic path whose absolute times agree
    within a modest factor and whose algorithm *rankings* agree exactly,
    which the conformance harness (:mod:`repro.analysis.conformance`)
    enforces.
    """
    if schedule.nprocs != config.nprocs:
        raise ValueError(
            f"schedule is for {schedule.nprocs} procs, machine has "
            f"{config.nprocs}"
        )
    from .. import obs
    from ..machine.fattree import fat_tree_for
    from ..schedules.estimate import busiest_rank

    params = config.params
    net = PacketNetwork(fat_tree_for(config))
    step, _, _, _, pack, unpack = cols = schedule.columns
    software = busiest_rank(
        cols,
        (params.send_overhead + pack / params.memcpy_bandwidth,),
        (params.recv_overhead + unpack / params.memcpy_bandwidth,),
        schedule.nsteps,
        config.nprocs,
    )
    bounds = np.searchsorted(step, np.arange(schedule.nsteps + 1)).tolist()
    messages = [PacketMessage(*fields) for fields in zip(*cols[1:4].tolist())]
    total = 0.0
    with obs.span(
        f"execute/packet[{schedule.name}]",
        category="execute",
        nprocs=config.nprocs,
    ):
        for lo, hi, busy in zip(bounds, bounds[1:], software.tolist()):
            total += max(net.run(messages[lo:hi]), default=0.0) + busy
    return total
