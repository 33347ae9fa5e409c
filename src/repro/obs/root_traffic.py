"""Per-step root-of-fat-tree traffic: the paper's BEX-vs-PEX argument.

Section 3.4 of the paper explains BEX's win over PEX at scale: both move
the same total volume, but PEX concentrates its cross-cluster ("global",
route level > 1) traffic into the few steps whose XOR distance crosses
cluster boundaries, while BEX spreads it evenly over all N-1 steps.
The root links are the fat tree's scarce resource, so PEX's spikes
serialize and BEX's flat profile doesn't.

The schedule executors tag every transfer with its step index, so the
per-step series falls straight out of a traced run's message records.
``classify`` turns the series into the qualitative claim:

* ``flat``   — every step moves global bytes and max/mean stays small
  (measured: BEX ≈ 1.11 at 32 ranks, ≈ 1.25 at 16);
* ``spiked`` — some steps move *zero* global bytes, i.e. the traffic is
  concentrated in the remainder (PEX at any power-of-two size);
* ``uneven`` — no zero steps but a large max/mean ratio.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Sequence, Tuple

from ..campaign import write_artifacts

if TYPE_CHECKING:  # pragma: no cover — avoid an import cycle with repro.sim
    from ..sim.trace import MessageRecord

__all__ = [
    "RootTraffic",
    "root_traffic_from_trace",
    "render_root_traffic",
    "write_root_traffic",
    "FLAT_BALANCE_THRESHOLD",
]

#: max/mean ratio below which a zero-free series counts as flat.
FLAT_BALANCE_THRESHOLD = 1.5


@dataclass
class RootTraffic:
    """Per-step byte series for one (algorithm, nprocs) run."""

    algorithm: str
    nprocs: int
    #: Step indices (transfer tags), sorted ascending.
    steps: List[int]
    #: Bytes per step crossing a cluster boundary (route level > 1).
    global_bytes: List[int]
    #: Bytes per step crossing the tree's top level observed in the run.
    top_bytes: List[int]

    @property
    def total_global(self) -> int:
        return sum(self.global_bytes)

    @property
    def zero_steps(self) -> int:
        return sum(1 for b in self.global_bytes if b == 0)

    @property
    def balance(self) -> float:
        """max/mean of the global series (1.0 = perfectly even)."""
        if not self.global_bytes:
            return 0.0
        mean = self.total_global / len(self.global_bytes)
        if mean <= 0:
            return 0.0
        return max(self.global_bytes) / mean

    def classify(self) -> str:
        if not self.global_bytes or self.total_global == 0:
            return "empty"
        if self.zero_steps > 0:
            return "spiked"
        if self.balance <= FLAT_BALANCE_THRESHOLD:
            return "flat"
        return "uneven"

    def to_dict(self) -> Dict:
        return {
            "algorithm": self.algorithm,
            "nprocs": self.nprocs,
            "steps": self.steps,
            "global_bytes": self.global_bytes,
            "top_bytes": self.top_bytes,
            "total_global": self.total_global,
            "zero_steps": self.zero_steps,
            "balance": self.balance,
            "classification": self.classify(),
        }


def root_traffic_from_trace(
    messages: Sequence["MessageRecord"],
    algorithm: str,
    nprocs: int,
) -> RootTraffic:
    """Bin delivered bytes by transfer tag (= schedule step index)."""
    top_level = max((m.route_level for m in messages), default=1)
    per_step_global: Dict[int, int] = {}
    per_step_top: Dict[int, int] = {}
    for m in messages:
        per_step_global.setdefault(m.tag, 0)
        per_step_top.setdefault(m.tag, 0)
        if m.route_level > 1:
            per_step_global[m.tag] += m.nbytes
        if m.route_level >= top_level and top_level > 1:
            per_step_top[m.tag] += m.nbytes
    steps = sorted(per_step_global)
    return RootTraffic(
        algorithm=algorithm,
        nprocs=nprocs,
        steps=steps,
        global_bytes=[per_step_global[s] for s in steps],
        top_bytes=[per_step_top[s] for s in steps],
    )


def _bar(value: int, peak: int, width: int = 40) -> str:
    if peak <= 0:
        return ""
    n = round(width * value / peak)
    return "#" * n


def render_root_traffic(results: Sequence[RootTraffic]) -> str:
    """Text report: one bar chart of global bytes per step per run."""
    lines = ["Root-link traffic per schedule step (global = route level > 1)"]
    for rt in results:
        lines.append("")
        lines.append(
            f"{rt.algorithm} n={rt.nprocs}: {rt.total_global} global B over "
            f"{len(rt.steps)} steps, zero-steps={rt.zero_steps}, "
            f"max/mean={rt.balance:.3f} -> {rt.classify()}"
        )
        peak = max(rt.global_bytes, default=0)
        for step, gbytes in zip(rt.steps, rt.global_bytes):
            lines.append(f"  step {step:>3} {gbytes:>10} B |{_bar(gbytes, peak)}")
    return "\n".join(lines)


def write_root_traffic(
    results: Sequence[RootTraffic], outdir="results"
) -> Tuple[Path, Path]:
    """Write results/obs_root_traffic.{txt,json}; returns the paths."""
    return write_artifacts(
        outdir,
        "obs_root_traffic",
        render_root_traffic(results),
        {
            "schema": "repro-root-traffic/1",
            "metric": "root_link_bytes_per_step",
            "runs": [rt.to_dict() for rt in results],
        },
    )
