"""Explicit 4-ary fat-tree topology of the CM-5 data network.

The CM-5 data network is a 4-ary fat tree: processing nodes are leaves,
each internal switch serves four children, and link capacity grows toward
the root so that the *per-node* bandwidth available at tree level ``l``
follows the published 20 / 10 / 5 MB/s profile (level 1 / level 2 /
level >= 3).

This module gives every link a stable hashable identity and a capacity,
and computes the up-over-down path any message takes.  The fluid
contention model (:mod:`repro.machine.contention`) and the discrete-event
network (:mod:`repro.sim.network`) both consume these paths.

Link identities
---------------
``("up", level, subtree)`` is the link carrying traffic from the
``subtree``-th level-``level - 1`` subtree up into its level-``level``
parent switch (``("up", 1, i)`` is node *i*'s injection link).
``("down", level, subtree)`` is the mirror-image link for descending
traffic.  Up and down links are separate resources: the network is full
duplex, so an exchange between two nodes does not self-contend.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Tuple

import numpy as np

from .params import FAT_TREE_ARITY, CM5Params, MachineConfig

LinkId = Tuple[str, int, int]


@dataclass(frozen=True)
class Link:
    """One directed fat-tree link with an aggregate capacity in bytes/s."""

    link_id: LinkId
    capacity: float

    def __post_init__(self) -> None:
        if self.capacity <= 0:
            raise ValueError(f"link capacity must be positive: {self.link_id}")


class FatTree:
    """The fat tree for one CM-5 partition.

    Parameters
    ----------
    config:
        The partition (node count + machine parameters).

    Notes
    -----
    Capacities follow the per-node level-bandwidth profile: the up link
    out of a level-``l - 1`` subtree into level ``l`` aggregates
    ``4**(l-1)`` leaves, each entitled to ``level_bandwidth(l)`` through
    that level, so its capacity is ``4**(l-1) * level_bandwidth(l)``.
    With the default parameters a 32-node partition therefore has 20 MB/s
    injection links, 40 MB/s cluster up-links, and 80 MB/s links into the
    root — reproducing the guaranteed 5 MB/s per node through the root
    under all-to-all load while letting intra-cluster traffic run at
    20 MB/s.
    """

    def __init__(self, config: MachineConfig):
        self.config = config
        self.nprocs = config.nprocs
        self.params: CM5Params = config.params
        self.levels = config.levels
        self._links: Dict[LinkId, Link] = {}
        self._build()
        # Canonical dense link numbering shared by every consumer (the
        # fluid network, the fault layer's scale vectors, benchmarks):
        # sorted LinkId order, frozen at construction.
        self._sorted_link_ids: Tuple[LinkId, ...] = tuple(sorted(self._links))
        self._link_index: Dict[LinkId, int] = {
            l: i for i, l in enumerate(self._sorted_link_ids)
        }
        caps = np.array(
            [self._links[l].capacity for l in self._sorted_link_ids], dtype=float
        )
        caps.setflags(write=False)
        self._link_caps_array = caps
        # Dense-index bases of the regular link layout: within one
        # (direction, level) block the node ids are contiguous from 0,
        # so index(("up", level, node)) == up_base[level] + node.
        # route_slot builds routes by this arithmetic instead of
        # string-tuple construction plus dict lookups per hop.
        self._up_base = [0] * (self.levels + 1)
        self._down_base = [0] * (self.levels + 1)
        for level in range(1, self.levels + 1):
            self._up_base[level] = self._link_index[("up", level, 0)]
            self._down_base[level] = self._link_index[("down", level, 0)]
        # Cross-run caches: FatTree instances are shared via
        # :func:`fat_tree_for`, so routes derived during one simulation
        # are reused by every later run on the same partition.
        #: Flat route table: route (src, dst) is ``table[off:off +
        #: length]`` with ``(off, length) = route_slots[(src, dst)]`` and
        #: ``(table, address) = route_buffer``.  Routes are appended on
        #: first use; growth replaces ``route_buffer`` in one assignment,
        #: so a reader that looks up a route and then reads the pair gets
        #: a table holding that route, and keeps it alive while it holds
        #: the pair.
        self.route_slots: Dict[Tuple[int, int], Tuple[int, int]] = {}
        table = np.empty(max(64, 2 * self.levels * self.nprocs), dtype=np.int64)
        self.route_buffer: Tuple[np.ndarray, int] = (
            table,
            table.__array_interface__["data"][0],
        )
        self._route_used = 0
        self._route_lock = threading.Lock()
        self._route_level_cache: Dict[Tuple[int, int], int] = {}
        self._rate_cap_cache: Dict[Tuple[int, int], float] = {}

    # ------------------------------------------------------------------
    def _build(self) -> None:
        params = self.params
        for node in range(self.nprocs):
            cap = params.level_bandwidth(1)
            self._add(("up", 1, node), cap)
            self._add(("down", 1, node), cap)
        for level in range(2, self.levels + 1):
            subtree_leaves = FAT_TREE_ARITY ** (level - 1)
            n_subtrees = -(-self.nprocs // subtree_leaves)  # ceil div
            cap = subtree_leaves * params.level_bandwidth(level)
            for subtree in range(n_subtrees):
                self._add(("up", level, subtree), cap)
                self._add(("down", level, subtree), cap)

    def _add(self, link_id: LinkId, capacity: float) -> None:
        self._links[link_id] = Link(link_id, capacity)

    # ------------------------------------------------------------------
    @property
    def links(self) -> Dict[LinkId, Link]:
        """All links, keyed by id."""
        return dict(self._links)

    def capacity(self, link_id: LinkId) -> float:
        return self._links[link_id].capacity

    @property
    def sorted_link_ids(self) -> Tuple[LinkId, ...]:
        """All link ids in the canonical (sorted) dense order."""
        return self._sorted_link_ids

    @property
    def link_index(self) -> Dict[LinkId, int]:
        """LinkId -> dense index in the canonical order (do not mutate)."""
        return self._link_index

    @property
    def link_caps_array(self) -> np.ndarray:
        """Read-only ``(L,)`` capacity vector in canonical link order."""
        return self._link_caps_array

    def route_level(self, src: int, dst: int) -> int:
        """Level of the lowest common switch (cached across runs)."""
        level = self._route_level_cache.get((src, dst))
        if level is None:
            level = self.config.route_level(src, dst)
            self._route_level_cache[(src, dst)] = level
        return level

    def route_slot(self, src: int, dst: int) -> Tuple[int, int]:
        """``(offset, length)`` of the ``src -> dst`` route in the
        :attr:`route_buffer` table, appending the route on first use.

        The route holds the dense link indices of :meth:`path`.
        """
        slot = self.route_slots.get((src, dst))
        if slot is not None:
            return slot
        if src == dst:
            raise ValueError(f"no self-path: src == dst == {src}")
        self.config._check_rank(src)
        self.config._check_rank(dst)
        s, d, top = src, dst, 0
        while s != d:
            s //= FAT_TREE_ARITY
            d //= FAT_TREE_ARITY
            top += 1
        with self._route_lock:  # trees are shared: appends must not race
            slot = self.route_slots.get((src, dst))
            if slot is not None:
                return slot
            off = self._route_used
            table = self.route_buffer[0]
            if off + 2 * top > len(table):
                grown = np.empty(2 * len(table), dtype=np.int64)
                grown[:off] = table[:off]
                table = grown
            up_base, down_base = self._up_base, self._down_base
            s, d = src, dst
            for level in range(1, top + 1):
                table[off + level - 1] = up_base[level] + s
                table[off + 2 * top - level] = down_base[level] + d
                s //= FAT_TREE_ARITY
                d //= FAT_TREE_ARITY
            if table is not self.route_buffer[0]:
                self.route_buffer = (table, table.__array_interface__["data"][0])
            self._route_used = off + 2 * top
            slot = (off, 2 * top)
            self.route_slots[(src, dst)] = slot
        return slot

    def path(self, src: int, dst: int) -> Tuple[LinkId, ...]:
        """The up-over-down sequence of links from ``src`` to ``dst``.

        The CM-5 router picks an up-path at random among equivalent
        choices; because our link capacities aggregate the parallel
        physical channels at each level, the randomization is already
        averaged into the capacity and the path is deterministic.
        """
        if src == dst:
            raise ValueError(f"no self-path: src == dst == {src}")
        self.config._check_rank(src)
        self.config._check_rank(dst)
        top = self.route_level(src, dst)
        up: List[LinkId] = []
        down: List[LinkId] = []
        s, d = src, dst
        for level in range(1, top + 1):
            up.append(("up", level, s))
            down.append(("down", level, d))
            s //= FAT_TREE_ARITY
            d //= FAT_TREE_ARITY
        return tuple(up + list(reversed(down)))

    def message_rate_cap(self, src: int, dst: int) -> float:
        """Intrinsic per-message bandwidth cap for the (src, dst) route.

        Even without competing traffic a message crossing level ``l``
        streams at ``level_bandwidth(l)`` — the paper's observation that
        peak bandwidth is only achieved within a cluster of four.
        """
        cached = self._rate_cap_cache.get((src, dst))
        if cached is None:
            cached = self.params.level_bandwidth(self.route_level(src, dst))
            self._rate_cap_cache[(src, dst)] = cached
        return cached

    def subtree_paths_through(self, link_id: LinkId) -> int:
        """Number of leaves whose traffic can use ``link_id`` (diagnostic)."""
        kind, level, _ = link_id
        if kind not in ("up", "down"):
            raise ValueError(f"unknown link kind: {kind}")
        return FAT_TREE_ARITY ** (level - 1)


@lru_cache(maxsize=64)
def _cached_tree(nprocs: int, params: CM5Params) -> FatTree:
    return FatTree(MachineConfig(nprocs, params))


def fat_tree_for(config: MachineConfig) -> FatTree:
    """Shared, cached :class:`FatTree` for a configuration.

    Topologies are immutable per (nprocs, params), so schedule executions
    across a parameter sweep reuse one instance.
    """
    return _cached_tree(config.nprocs, config.params)
