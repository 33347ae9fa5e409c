"""CM-5 machine constants and the calibrated software-cost model.

All timing constants in this module are expressed in **seconds** and all
sizes in **bytes**.  The hardware-level numbers come straight from the
paper's Section 2 (and the CM-5 Technical Summary it cites):

* data-network packet: 20 bytes, of which 16 bytes carry user payload;
* peak data-network bandwidth 20 MB/s between nodes in the same cluster
  of four, with a guaranteed system-wide minimum of 5 MB/s (we model the
  standard CM-5 fat-tree level bandwidths of 20 / 10 / 5 MB/s per node at
  tree distances of 1 / 2 / >=3 levels);
* end-to-end latency of a zero-byte message: 88 microseconds;
* control-network latency: 2--5 microseconds per operation.

The *software* constants (CPU time a node spends starting a send,
servicing a receive, copying a byte during pack/unpack) are not published
as scalars in the paper, so they are calibrated once against the paper's
anchor measurements (Table 11 and Figure 5 behaviour) and frozen here.
``repro.analysis.calibrate`` re-derives them and documents the fit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Any, Tuple

#: Branching factor of the CM-5 data network.  Each internal switch of the
#: fat tree serves four children; processing nodes sit at the leaves.
FAT_TREE_ARITY = 4

#: Bytes per data-network packet on the wire.
PACKET_BYTES = 20

#: Bytes of user payload carried per packet (remaining 4 bytes are header).
PACKET_PAYLOAD_BYTES = 16


def wire_bytes(payload: int) -> int:
    """Bytes actually moved on the wire for ``payload`` bytes of user data.

    The CM-5 data network segments every message into 20-byte packets with
    16 bytes of payload each, so a message is inflated by 25% plus the
    padding of the final partial packet.  A zero-byte message still costs
    one packet (the rendezvous/ack traffic).

    >>> wire_bytes(0)
    20
    >>> wire_bytes(16)
    20
    >>> wire_bytes(17)
    40
    """
    if payload < 0:
        raise ValueError(f"payload must be non-negative, got {payload}")
    packets = max(1, math.ceil(payload / PACKET_PAYLOAD_BYTES))
    return packets * PACKET_BYTES


@dataclass(frozen=True)
class CM5Params:
    """Calibrated performance parameters of one CM-5 partition.

    Instances are immutable; use :meth:`scaled` or :func:`dataclasses.replace`
    to derive variants (the ablation benchmarks do this to probe
    sensitivity to individual constants).
    """

    #: Per-node bandwidth (bytes/second) when the route stays inside a
    #: cluster of 4 (one fat-tree level).
    bw_level1: float = 20e6
    #: Per-node bandwidth when the route crosses one intermediate level
    #: (within a group of 16 nodes).
    bw_level2: float = 10e6
    #: Guaranteed per-node bandwidth for routes crossing >= 3 levels
    #: (anywhere in the system, through the root).
    bw_level3: float = 5e6

    #: CPU time the sender spends initiating a (synchronous) send before
    #: any data moves: argument marshalling, CMMD bookkeeping, rendezvous
    #: request.  Split of the measured 88 us zero-byte latency.
    send_overhead: float = 30e-6
    #: CPU time the receiver spends accepting one message: matching the
    #: envelope, draining the network FIFO, completion bookkeeping.  The
    #: receiver services messages one at a time -- this constant is what
    #: serializes the linear (LEX/LS) algorithms under synchronous sends.
    recv_overhead: float = 55e-6
    #: Residual wire/switch latency of a minimal packet crossing the
    #: network (88 us = send_overhead + recv_overhead + wire_latency).
    wire_latency: float = 3e-6

    #: Node memcpy rate (bytes/second) for packing/unpacking message
    #: buffers.  Charged by the recursive exchange (REX) algorithm, which
    #: must reshuffle N/2 blocks at every store-and-forward step; a 1992
    #: SPARC node copies on the order of tens of MB/s.
    memcpy_bandwidth: float = 20e6

    #: Control-network latency for one combine/broadcast wave-front.
    control_latency: float = 4e-6
    #: Control-network (system broadcast) per-node bandwidth.  The control
    #: network broadcasts at a modest fixed rate independent of partition
    #: size -- this is why the system broadcast curve in Figure 11 is flat
    #: in machine size and why user-level REB overtakes it for >~1-2 KB
    #: messages.
    control_broadcast_bandwidth: float = 0.8e6
    #: Fixed software cost of entering the system broadcast primitive.
    control_broadcast_overhead: float = 40e-6

    #: Barrier cost via the control network (participating in a global
    #: synchronization).  Used between schedule steps when an executor is
    #: asked for barrier-synchronized stepping.
    barrier_latency: float = 8e-6

    #: Switch contention penalty: when ``n`` flows share a fat-tree link,
    #: its usable aggregate capacity degrades to ``cap / (1 + c*(n-1))``.
    #: Models the arbitration and random-routing packet conflicts that
    #: the guaranteed-bandwidth figure hides under bursty permutation
    #: loads — the effect Section 3.4 attributes root contention to, and
    #: the reason BEX's balanced steps beat PEX's all-remote steps.
    #: Leaf links never carry more than one flow per direction (a node
    #: services one send and one receive at a time), so the penalty only
    #: bites on shared upper links.
    switch_contention: float = 0.12
    #: Upper bound on the contention penalty factor: the data network's
    #: guaranteed-minimum bandwidth keeps heavily shared links from
    #: degrading without limit.
    contention_cap: float = 4.0

    #: Randomized-routing variance.  The CM-5 router sprays packets over
    #: random up-paths, so individual message times vary; a message of p
    #: packets sees a relative wire-time inflation of about
    #: ``jitter * |N(0,1)| / sqrt(p)`` (per-packet conflicts average out
    #: over long messages).  Step-synchronized algorithms pay the *max*
    #: of this over all concurrent pairs every step — the straggler tax
    #: that grows with machine size and message count, and the reason
    #: the few-large-messages REX overtakes the many-small-messages PEX
    #: on large partitions (Figure 6).
    routing_jitter: float = 1.0

    #: Node floating-point rate (FLOP/s) used to charge *compute* time in
    #: the application reproductions (Table 5's FFT).  A CM-5 node without
    #: vector units sustains a few MFLOPS on FFT butterflies.
    node_flops: float = 1.7e6

    def __post_init__(self) -> None:
        for name in (
            "bw_level1",
            "bw_level2",
            "bw_level3",
            "memcpy_bandwidth",
            "control_broadcast_bandwidth",
            "node_flops",
        ):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        for name in (
            "send_overhead",
            "recv_overhead",
            "wire_latency",
            "control_latency",
            "control_broadcast_overhead",
            "barrier_latency",
            "switch_contention",
            "routing_jitter",
        ):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if self.contention_cap < 1:
            raise ValueError("contention_cap must be >= 1")
        if not (self.bw_level1 >= self.bw_level2 >= self.bw_level3):
            raise ValueError(
                "fat-tree level bandwidths must be non-increasing: "
                f"{self.bw_level1} >= {self.bw_level2} >= {self.bw_level3}"
            )

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    @property
    def zero_byte_latency(self) -> float:
        """End-to-end time of a 0-byte synchronous message (paper: 88 us)."""
        return self.send_overhead + self.recv_overhead + self.wire_latency

    def level_bandwidth(self, level: int) -> float:
        """Per-node bandwidth for a route whose highest switch is ``level``.

        ``level`` counts fat-tree levels above the leaves: 1 means both
        endpoints share a level-1 switch (same cluster of 4), 2 means they
        share a level-2 switch (same group of 16), and anything deeper is
        pinned at the guaranteed system bandwidth.
        """
        if level < 1:
            raise ValueError(f"level must be >= 1, got {level}")
        if level == 1:
            return self.bw_level1
        if level == 2:
            return self.bw_level2
        return self.bw_level3

    def transfer_time(self, payload: int, level: int) -> float:
        """Uncontended time for one message of ``payload`` bytes at ``level``.

        Includes software overheads at both endpoints and the packetized
        wire time at the level's bandwidth.  Contention between concurrent
        messages is handled by :mod:`repro.machine.contention`, not here.
        """
        wire = wire_bytes(payload) / self.level_bandwidth(level)
        return self.zero_byte_latency + wire

    def memcpy_time(self, nbytes: int) -> float:
        """Time for a node to copy ``nbytes`` through memory (pack/unpack)."""
        if nbytes < 0:
            raise ValueError(f"nbytes must be non-negative, got {nbytes}")
        return nbytes / self.memcpy_bandwidth

    def compute_time(self, flops: float) -> float:
        """Time to execute ``flops`` floating-point operations on one node."""
        if flops < 0:
            raise ValueError(f"flops must be non-negative, got {flops}")
        return flops / self.node_flops

    def system_broadcast_time(self, payload: int, nprocs: int) -> float:
        """Modeled time of the CMMD system broadcast over the control network.

        The control network is a pipelined combine tree: cost is a fixed
        entry overhead plus payload streaming at the (machine-size
        independent) control-network rate, plus a shallow log-depth term.
        """
        if nprocs < 1:
            raise ValueError(f"nprocs must be >= 1, got {nprocs}")
        if payload < 0:
            raise ValueError(f"payload must be non-negative, got {payload}")
        depth = max(1, math.ceil(math.log2(nprocs))) if nprocs > 1 else 1
        return (
            self.control_broadcast_overhead
            + depth * self.control_latency
            + payload / self.control_broadcast_bandwidth
        )

    def scaled(self, **overrides: float) -> "CM5Params":
        """Return a copy with the given fields replaced (for ablations)."""
        return replace(self, **overrides)


#: The default, calibrated parameter set used throughout the repository.
DEFAULT_PARAMS = CM5Params()


@dataclass(frozen=True)
class MachineConfig:
    """A CM-5 partition: a parameter set plus a node count.

    The CM-5 allocates nodes in partitions whose sizes are powers of two
    (the paper measures 16--256 nodes); we additionally allow any power of
    two >= 2 so unit tests can run tiny configurations.
    """

    nprocs: int
    params: CM5Params = field(default_factory=lambda: DEFAULT_PARAMS)

    def __post_init__(self) -> None:
        if self.nprocs < 2:
            raise ValueError(f"a partition needs >= 2 nodes, got {self.nprocs}")
        if self.nprocs & (self.nprocs - 1):
            raise ValueError(
                f"partition size must be a power of two, got {self.nprocs}"
            )

    @property
    def levels(self) -> int:
        """Number of fat-tree levels above the leaves for this partition."""
        return max(1, math.ceil(math.log(self.nprocs, FAT_TREE_ARITY)))

    def cluster_of(self, rank: int) -> int:
        """Index of the 4-node cluster containing ``rank``."""
        self._check_rank(rank)
        return rank // FAT_TREE_ARITY

    def route_level(self, src: int, dst: int) -> int:
        """Fat-tree level of the lowest common switch between two nodes.

        Level 1 is the switch directly above a cluster of four leaves.
        ``src == dst`` is reported as level 1 (purely local, never used
        for actual traffic).
        """
        self._check_rank(src)
        self._check_rank(dst)
        a, b = src // FAT_TREE_ARITY, dst // FAT_TREE_ARITY
        level = 1
        while a != b:
            a //= FAT_TREE_ARITY
            b //= FAT_TREE_ARITY
            level += 1
        return level

    def is_global(self, src: int, dst: int) -> bool:
        """True when the (src, dst) route leaves the 4-node cluster."""
        return self.route_level(src, dst) > 1

    def route_levels(self, src: Any, dst: Any) -> Any:
        """:meth:`route_level` elementwise over integer rank arrays (ranks
        unchecked): one plus the levels whose subtrees part the ends."""
        level = 1
        for _ in range(self.levels):
            src, dst = src // FAT_TREE_ARITY, dst // FAT_TREE_ARITY
            level = level + (src != dst)
        return level

    def _check_rank(self, rank: int) -> None:
        if not 0 <= rank < self.nprocs:
            raise ValueError(
                f"rank {rank} out of range for {self.nprocs}-node partition"
            )

    def pairs(self) -> Tuple[Tuple[int, int], ...]:
        """All ordered (src, dst) pairs with src != dst."""
        return tuple(
            (i, j)
            for i in range(self.nprocs)
            for j in range(self.nprocs)
            if i != j
        )
