"""Declarative, reproducible fault plans for the simulated CM-5.

The paper's measurements assume a *healthy* machine: every fat-tree link
at its published 20/10/5 MB/s, every node equally fast, every message
delivered.  Real machines degrade, and schedule optimality is fragile
under heterogeneous costs (Traff's optimal-broadcast work makes the same
point for trees).  A :class:`FaultPlan` describes one reproducible
deviation from the healthy machine:

* :class:`LinkDegrade` — scale a fat-tree link's bandwidth;
* :class:`NodeStraggler` — multiply a rank's local compute/pack time
  (and optionally its per-message software overheads);
* :class:`MessageDelay` — seeded per-message latency spikes;
* :class:`MessageDrop` — seeded per-message losses, detected by the
  sender after a timeout and repaired by the retry layer
  (:meth:`repro.cmmd.api.Comm.reliable_send`);
* :class:`NodeFailure` — a rank dies outright at a given simulated
  time; its pending and future messages resolve through the DROPPED
  path so surviving ranks terminate instead of deadlocking.

Plans are pure data: frozen dataclasses plus a seed.  All randomness is
derived by hashing ``(seed, fault kind, src, dst, attempt)`` into a
fresh generator, so decisions are independent of event ordering and two
runs of the same plan produce byte-identical traces (the determinism
regression test relies on this).  Plans serialize to/from JSON for the
``faults`` CLI subcommand.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from typing import Optional, Tuple, Union

__all__ = [
    "LinkDegrade",
    "NodeStraggler",
    "MessageDelay",
    "MessageDrop",
    "NodeFailure",
    "FaultPlan",
    "HEALTHY",
]

#: Link direction selectors for :class:`LinkDegrade`.
_DIRECTIONS = ("up", "down", "both")


@dataclass(frozen=True)
class LinkDegrade:
    """Scale the capacity of one fat-tree link by ``factor`` (0 < f <= 1).

    ``level``/``index`` follow the link identities of
    :mod:`repro.machine.fattree`: ``("up", level, index)`` is the link
    carrying traffic from the ``index``-th level-``level - 1`` subtree up
    into its parent switch (``level == 1`` means node ``index``'s
    injection link).  ``direction`` selects the up link, the down link,
    or both.  Links absent from a smaller partition are ignored, so one
    plan can drive a machine-size sweep.
    """

    level: int
    index: int
    factor: float
    direction: str = "both"

    def __post_init__(self) -> None:
        if self.level < 1:
            raise ValueError(f"link level must be >= 1, got {self.level}")
        if self.index < 0:
            raise ValueError(f"link index must be >= 0, got {self.index}")
        if not 0.0 < self.factor <= 1.0:
            raise ValueError(f"degrade factor must be in (0, 1], got {self.factor}")
        if self.direction not in _DIRECTIONS:
            raise ValueError(
                f"direction must be one of {_DIRECTIONS}, got {self.direction!r}"
            )


@dataclass(frozen=True)
class NodeStraggler:
    """Multiply one rank's local processing time by ``factor`` (>= 1).

    ``factor`` scales everything charged on the node's own clock through
    :class:`~repro.sim.process.Delay` — compute, memcpy pack/unpack, the
    store-and-forward reshuffles of REX.  ``overhead_factor`` optionally
    also scales the per-message software overheads (send setup, receive
    service); it defaults to 1.0 because the paper's straggler story is
    about *data* handling, not envelope handling.
    """

    rank: int
    factor: float
    overhead_factor: float = 1.0

    def __post_init__(self) -> None:
        if self.rank < 0:
            raise ValueError(f"rank must be >= 0, got {self.rank}")
        # Written so NaN fails too (every comparison with NaN is False).
        if not 1.0 <= self.factor < math.inf:
            raise ValueError(
                f"straggler factor must be finite and >= 1, got {self.factor}"
            )
        if not 1.0 <= self.overhead_factor < math.inf:
            raise ValueError(
                "overhead_factor must be finite and >= 1, "
                f"got {self.overhead_factor}"
            )


@dataclass(frozen=True)
class MessageDelay:
    """With probability ``probability``, add ``seconds`` to a message's
    wire latency (a routing hiccup / ECC retry spike).

    ``src``/``dst`` restrict the fault to one endpoint (``None`` = any).
    The decision is per delivery attempt, hashed from the plan seed.
    """

    probability: float
    seconds: float
    src: Optional[int] = None
    dst: Optional[int] = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {self.probability}")
        if not 0.0 <= self.seconds < math.inf:
            raise ValueError(
                f"delay seconds must be finite and >= 0, got {self.seconds}"
            )


@dataclass(frozen=True)
class MessageDrop:
    """With probability ``probability``, lose a message in flight.

    The wire time is still spent (the packets went somewhere); the sender
    detects the loss ``detect_seconds`` after the transfer would have
    drained (its ack timeout) and is resumed with the
    :data:`~repro.sim.process.DROPPED` sentinel, which the
    :meth:`~repro.cmmd.api.Comm.reliable_send` retry loop turns into a
    backoff + resend.  At most ``max_consecutive`` attempts of the same
    message are dropped, so seeded runs provably complete within the
    retry budget.  Drops apply to blocking (rendezvous) sends only; the
    asynchronous ablation's ``Isend`` path is delivered reliably.
    """

    probability: float
    detect_seconds: float = 150e-6
    max_consecutive: int = 3
    src: Optional[int] = None
    dst: Optional[int] = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {self.probability}")
        if not 0.0 <= self.detect_seconds < math.inf:
            raise ValueError(
                "detect_seconds must be finite and >= 0, "
                f"got {self.detect_seconds}"
            )
        if self.max_consecutive < 1:
            raise ValueError(
                f"max_consecutive must be >= 1, got {self.max_consecutive}"
            )


@dataclass(frozen=True)
class NodeFailure:
    """Rank ``rank`` dies (fail-stop) at simulated time ``at``.

    The engine tears the rank's program down at ``at``: its pending
    rendezvous posts are purged, in-flight transfers touching it resolve
    through the drop path, and peers blocked on it are resumed with the
    :data:`~repro.sim.process.DROPPED` sentinel ``detect_seconds``
    later (their software timeout).  Barriers and control-network
    collectives complete over the survivors.  The run then *terminates*
    with an explicit list of failed ranks instead of deadlocking; the
    resilience layer turns that into a delivery manifest.
    """

    rank: int
    at: float
    detect_seconds: float = 300e-6

    def __post_init__(self) -> None:
        if self.rank < 0:
            raise ValueError(f"rank must be >= 0, got {self.rank}")
        if not self.at >= 0:
            raise ValueError(f"failure time must be >= 0, got {self.at}")
        if not 0.0 <= self.detect_seconds < math.inf:
            raise ValueError(
                "detect_seconds must be finite and >= 0, "
                f"got {self.detect_seconds}"
            )


Fault = Union[LinkDegrade, NodeStraggler, MessageDelay, MessageDrop, NodeFailure]

_FAULT_KINDS = {
    "link_degrade": LinkDegrade,
    "node_straggler": NodeStraggler,
    "message_delay": MessageDelay,
    "message_drop": MessageDrop,
    "node_failure": NodeFailure,
}
_KIND_NAMES = {cls: name for name, cls in _FAULT_KINDS.items()}


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, reproducible set of faults to inject into one run."""

    faults: Tuple[Fault, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "faults", tuple(self.faults))
        for f in self.faults:
            if not isinstance(f, tuple(_FAULT_KINDS.values())):
                raise TypeError(f"not a fault spec: {f!r}")

    # ------------------------------------------------------------------
    @property
    def is_healthy(self) -> bool:
        return not self.faults

    def of_kind(self, kind: type) -> Tuple[Fault, ...]:
        return tuple(f for f in self.faults if isinstance(f, kind))

    @property
    def stragglers(self) -> Tuple[NodeStraggler, ...]:
        return self.of_kind(NodeStraggler)  # type: ignore[return-value]

    @property
    def link_degrades(self) -> Tuple[LinkDegrade, ...]:
        return self.of_kind(LinkDegrade)  # type: ignore[return-value]

    @property
    def node_failures(self) -> Tuple[NodeFailure, ...]:
        return self.of_kind(NodeFailure)  # type: ignore[return-value]

    @property
    def delays(self) -> Tuple[MessageDelay, ...]:
        return self.of_kind(MessageDelay)  # type: ignore[return-value]

    @property
    def drops(self) -> Tuple[MessageDrop, ...]:
        return self.of_kind(MessageDrop)  # type: ignore[return-value]

    def describe(self) -> str:
        """One-line human summary (CLI/benchmark headers)."""
        if self.is_healthy:
            return "healthy"
        parts = []
        for f in self.faults:
            if isinstance(f, NodeStraggler):
                parts.append(f"straggler rank {f.rank} x{f.factor:g}")
            elif isinstance(f, LinkDegrade):
                parts.append(
                    f"link {f.direction} L{f.level}#{f.index} x{f.factor:g}"
                )
            elif isinstance(f, MessageDrop):
                parts.append(f"drop p={f.probability:g}")
            elif isinstance(f, NodeFailure):
                parts.append(f"failure rank {f.rank} @{f.at:.0e}s")
            else:
                parts.append(f"delay p={f.probability:g} +{f.seconds:.0e}s")
        return ", ".join(parts)

    def check_machine(self, config) -> None:
        """Raise ``ValueError`` on the first fault the machine lacks.

        The fault model silently skips ranks and links that a partition
        does not have (one plan may drive a machine-size sweep); an
        input boundary that runs a plan on one known machine calls this
        instead, so a typo'd rank or link cannot pass as a healthy run.
        """
        from ..machine.fattree import fat_tree_for

        n = config.nprocs
        for f in self.faults:
            if isinstance(f, (NodeStraggler, NodeFailure)) and f.rank >= n:
                raise ValueError(
                    f"{_KIND_NAMES[type(f)]} rank {f.rank} is outside the "
                    f"{n}-node machine (ranks 0..{n - 1})"
                )
            if isinstance(f, LinkDegrade):
                if ("up", f.level, f.index) not in fat_tree_for(config).links:
                    raise ValueError(
                        f"link_degrade L{f.level}#{f.index} is not a link of "
                        f"the {n}-node fat tree ({config.levels} levels)"
                    )

    # ------------------------------------------------------------------
    # JSON round-trip (the CLI accepts plan files)
    # ------------------------------------------------------------------
    def to_json(self) -> str:
        payload = {
            "seed": self.seed,
            "faults": [
                {"kind": _KIND_NAMES[type(f)], **asdict(f)} for f in self.faults
            ],
        }
        return json.dumps(payload, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        payload = json.loads(text)
        faults = []
        for entry in payload.get("faults", []):
            entry = dict(entry)
            kind = entry.pop("kind", None)
            if kind not in _FAULT_KINDS:
                raise ValueError(f"unknown fault kind: {kind!r}")
            faults.append(_FAULT_KINDS[kind](**entry))
        return cls(faults=tuple(faults), seed=int(payload.get("seed", 0)))


#: The no-fault plan (every injection hook short-circuits).
HEALTHY = FaultPlan()
