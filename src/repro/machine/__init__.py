"""CM-5 machine model: parameters, fat-tree topology, contention, costs.

The public surface of this subpackage:

* :class:`CM5Params` / :data:`DEFAULT_PARAMS` — calibrated constants,
* :class:`MachineConfig` — a partition (node count + params),
* :class:`FatTree` / :func:`fat_tree_for` — the data-network topology,
* :class:`FluidNetwork` — max-min fair contention among in-flight
  messages,
* :class:`NodeCostModel` — per-node software costs,
* :class:`ControlNetwork` — control-network collectives,
* :func:`wire_bytes` — packetization (20-byte packets, 16-byte payload).
"""

from .params import (
    FAT_TREE_ARITY,
    PACKET_BYTES,
    PACKET_PAYLOAD_BYTES,
    CM5Params,
    DEFAULT_PARAMS,
    MachineConfig,
    wire_bytes,
)
from .fattree import FatTree, Link, LinkId, fat_tree_for
from .bandwidth import AllocationWorkspace, build_incidence, max_min_rates
from .contention import FluidNetwork, NetworkStallError
from .node import NodeCostModel
from .control import ControlNetwork

__all__ = [
    "FAT_TREE_ARITY",
    "PACKET_BYTES",
    "PACKET_PAYLOAD_BYTES",
    "CM5Params",
    "DEFAULT_PARAMS",
    "MachineConfig",
    "wire_bytes",
    "FatTree",
    "Link",
    "LinkId",
    "fat_tree_for",
    "AllocationWorkspace",
    "build_incidence",
    "max_min_rates",
    "FluidNetwork",
    "NetworkStallError",
    "NodeCostModel",
    "ControlNetwork",
]
