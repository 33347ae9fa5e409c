"""Fluid-flow model of concurrent message transfers on the fat tree.

Packet-level simulation of every 20-byte packet would be prohibitively
slow at 256 nodes, and the CM-5's randomized routing makes the *average*
behaviour of a message well described by a fluid: each in-flight message
is a flow with a remaining wire-byte count, draining at the max-min fair
rate given all concurrently active flows (see
:mod:`repro.machine.bandwidth`).  Rates are piecewise constant between
flow arrivals and departures; the :class:`FluidNetwork` advances that
piecewise-linear system and reports completion times.

The discrete-event engine (:mod:`repro.sim.engine`) owns simulated time;
this class is passive.  The engine's protocol is::

    net.begin_flow(now, key, src, dst, payload)  # drain to now, add a flow
    ...                                          # possibly several, same time
    t = net.earliest_completion()                # engine schedules an event
    done = net.pop_completed_keys(t)             # at that event

Batching matters: the synchronized exchange algorithms start whole waves
of messages at identical times, and rates are recomputed once per wave,
not once per message.

Flow state lives in struct-of-arrays form: parallel NumPy columns for
the remaining wire bytes, rate, rate cap, endpoints and key of each
flow, plus a persistent CSR flow->link incidence that is appended to
on each flow start and compacted in bulk on retirement, instead of
being rebuilt from Python lists on every rate reallocation.  Draining
and earliest-completion scans are O(active) vectorized operations, and
timelines are bit-identical to the original per-flow-object
implementation.

The flow store's scalar state (live count, clock, dirty and changed
flags, memoized next completion, arm generation) lives in one object,
:attr:`FluidNetwork.store`: the compiled kernel's ``FlowStore`` when it
is loaded, else the pure-Python :class:`FlowStore` below.  With the
kernel, :meth:`FluidNetwork.begin_flow` is one kernel call and the
engine's compiled drain loop runs the rest of the protocol (rate
reallocation, completion scan, retirement) on the store itself.
:meth:`~FluidNetwork.advance_to`,
:meth:`~FluidNetwork.earliest_completion`,
:meth:`~FluidNetwork.pop_completed_keys` and
:meth:`~FluidNetwork.snapshot_rates` are the NumPy reference: the
kernel-less build runs them, and the compiled cycle matches them to
the bit (same operations, same order, same doubles).
"""

from __future__ import annotations

import math
from array import array
from typing import Dict, Hashable, List, Optional, Tuple

import numpy as np

from . import _fastfill
from .bandwidth import AllocationWorkspace, max_min_rates
from .fattree import FatTree, LinkId
from .params import FAT_TREE_ARITY, wire_bytes

__all__ = ["FluidNetwork", "FlowStore", "NetworkStallError"]

#: Remaining-byte threshold below which a flow counts as complete.
_DONE_EPS = 1e-6

#: Initial slot capacity of the struct-of-arrays flow store.
_MIN_SLOTS = 16

#: Jitter normals drawn per RNG call.
_Z_BLOCK = 256

#: The per-slot flow columns (FluidNetwork attributes), which grow and
#: compact together.
_COLUMNS = ("_wire", "_rate", "_rate_cap", "_srcs", "_dsts", "_keys")


class NetworkStallError(RuntimeError):
    """Active flows cannot make progress: their fair rate is zero.

    Raised by :meth:`FluidNetwork.earliest_completion` instead of a bare
    ``RuntimeError`` so fault-plan debugging can see *which* transfers
    stalled without a debugger.  ``stalled`` lists the offending flows
    as ``(src, dst, key)`` triples.
    """

    def __init__(self, stalled: List[Tuple[int, int, Hashable]]):
        self.stalled = list(stalled)
        shown = ", ".join(
            f"({src}->{dst}, key={key!r})" for src, dst, key in self.stalled[:8]
        )
        more = (
            f" (and {len(self.stalled) - 8} more)" if len(self.stalled) > 8 else ""
        )
        super().__init__(
            f"{len(self.stalled)} active flow(s) stalled with zero rate: "
            f"{shown}{more}"
        )


class FlowStore:
    """Scalar state of a flow store: the pure-Python twin of the
    kernel's ``FlowStore`` (used when the kernel is not loaded).

    ``n`` flows are in flight, drained up to ``now``.  ``dirty``: the
    flow set changed since the last rate reallocation.  ``changed``: it
    changed since the engine last armed a completion check.  ``next``:
    the memoized absolute time of the next completion, or None.
    ``gen``: the arm generation; a check armed under an older one is
    stale.
    """

    __slots__ = ("n", "now", "dirty", "changed", "next", "gen")

    def __init__(self) -> None:
        self.n = 0
        self.now = 0.0
        self.dirty = False
        self.changed = False
        self.next: Optional[float] = None
        self.gen = 0


class FluidNetwork:
    """Tracks active flows and their max-min fair rates over a fat tree.

    ``seed`` drives the randomized-routing jitter (see
    :attr:`CM5Params.routing_jitter`): each flow's wire volume is
    inflated by a per-flow factor drawn deterministically, so runs are
    exactly reproducible for a given seed.
    """

    def __init__(
        self,
        tree: FatTree,
        seed: int = 0,
        link_scales: Optional[Dict[LinkId, float]] = None,
    ):
        self.tree = tree
        self._link_caps = tree.link_caps_array
        nlinks = len(self._link_caps)
        # Degraded-link injection (repro.faults): capacity multipliers
        # applied inside the max-min allocation, leaving the healthy
        # capacities untouched for diagnostics.
        self._link_scales: Optional[np.ndarray] = None
        if link_scales:
            self._link_scales = np.array(
                [link_scales.get(l, 1.0) for l in tree.sorted_link_ids],
                dtype=float,
            )
        self._jitter = tree.params.routing_jitter
        self._rng = np.random.default_rng(seed)
        #: Pre-drawn |N(0, 1)| jitter normals, consumed one per flow.
        #: ``standard_normal(k)`` yields the same doubles as k scalar
        #: draws, so blocks leave every flow's jitter unchanged.
        self._z: List[float] = []
        self._z_next = 0

        # Struct-of-arrays flow store.  Slots [0, store.n) are in
        # flight; arrays grow by doubling and are compacted on
        # retirement.  Slots [store.n, _cap) of the key column hold None.
        self._cap = _MIN_SLOTS
        self._wire = np.zeros(self._cap)
        self._rate = np.zeros(self._cap)
        self._rate_cap = np.zeros(self._cap)
        self._srcs = np.zeros(self._cap, dtype=np.int64)
        self._dsts = np.zeros(self._cap, dtype=np.int64)
        self._keys = np.empty(self._cap, dtype=object)
        self._key_set: set = set()
        # Persistent CSR incidence: slot i uses link indices
        # _csr_links[_ptr[i]:_ptr[i+1]].  Appended on flow start, compacted
        # on retirement.  No route exceeds _max_path links, so sizing it
        # at _max_path per slot means it only grows with the slots.
        self._max_path = 2 * tree.levels
        self._csr_links = np.zeros(self._max_path * self._cap, dtype=np.int64)
        self._ptr = np.zeros(self._cap + 1, dtype=np.int64)

        # Reused per-recompute workspaces (contention penalty pipeline
        # plus the progressive-filling buffers shared with max_min_rates);
        # the flow-sized ones always cover every slot.
        self._pen_int = np.zeros(nlinks, dtype=np.int64)
        self._penalty = np.zeros(nlinks)
        self._eff_caps = np.zeros(nlinks)
        self._alloc_ws = AllocationWorkspace(nlinks)
        self._alloc_ws.ensure_flows(self._cap)

        # The compiled kernel (None -> NumPy reference) and the store
        # its begin and drain loop take: the scalar state plus a table of
        # every buffer, in the kernel's TABLE order, handed over again
        # only when an array is reallocated (_grow_slots).  Each begin
        # then converts a handful of scalars.
        self._k = _fastfill.kernel()
        if self._k is not None:
            # The kernel reallocation's private buffers (row layouts in
            # _fastfill.c): per link a live-list entry, a memo row
            # (count 0: empty) and a saturation flag (all zero between
            # reallocations); per flow slot a live-list entry, a cap
            # class index and a class row.
            self._live_links = np.empty(nlinks, dtype=np.int64)
            self._link_memo = np.zeros((nlinks, 4))
            self._link_sat = np.zeros(nlinks, dtype=np.uint8)
            self._kernel_flow_buffers()
            self.store = self._k.FlowStore(
                self._key_set,
                float(tree.params.switch_contention),
                float(tree.params.contention_cap),
                _DONE_EPS,
            )
            self._refresh_table()
        else:
            self.store = FlowStore()
        self._route_slots = tree.route_slots
        self._wire_cache: Dict[int, Tuple[float, float]] = {}
        #: Rate cap by route level; a path of 2k links peaks at level k,
        #: so begin_flow reads caps from here instead of the tree's
        #: per-(src, dst) cache (same floats: level_bandwidth is pure).
        self._level_bw = [0.0] + [
            tree.params.level_bandwidth(lvl)
            for lvl in range(1, tree.levels + 1)
        ]

        self.observer = None

    # ------------------------------------------------------------------
    @property
    def observer(self):
        """Optional ``observer(now, per_link_rates)`` callback invoked
        after every rate reallocation with the aggregate bytes/s on each
        link (dense ``sorted_link_ids`` order), effective from ``now``
        until the next reallocation; an all-zero sample marks the
        network going idle.  Used by ``repro.obs`` to build the
        link-utilization time series; None costs nothing."""
        return self._observer

    @observer.setter
    def observer(self, fn) -> None:
        self._observer = fn
        if self._k is not None:
            # The kernel store calls _observe after its reallocations,
            # wherever they run (begin or the compiled drain loop).
            self.store.observer = None if fn is None else self._observe

    def _observe(self, now: float) -> None:
        """Hand the observer the per-link rates of the current flows."""
        n = self.store.n
        lengths = np.diff(self._ptr[: n + 1])
        link_rates = np.bincount(
            self._csr_links[: int(self._ptr[n])],
            weights=np.repeat(self._rate[:n], lengths),
            minlength=len(self._link_caps),
        )
        # An empty bincount is int64 even with weights.
        self._observer(now, link_rates.astype(float, copy=False))

    @property
    def now(self) -> float:
        return self.store.now

    @property
    def active_count(self) -> int:
        return self.store.n

    def native_store(self):
        """The kernel's store, which the compiled drain loop runs this
        network's arm–check–retire cycle on, or None without the
        kernel."""
        return self.store if self._k is not None else None

    def _executor_part(self, sizes: List[int]) -> tuple:
        """This network's half of a compiled schedule program (see
        ``Engine._run_compiled``): per payload size in ``sizes`` the
        wire bytes and sqrt(packet count) :meth:`begin_flow` uses, the
        jitter scale and normals stream, the slot-growth callback, and
        the fat tree's per-level link bases and level bandwidths, from
        which the kernel builds :meth:`FatTree.route_slot`'s routes."""
        wire = [self._wire_size(b) for b in sizes]
        tree = self.tree
        return (
            array("d", [w for w, _ in wire]),
            array("d", [sqrt_packets for _, sqrt_packets in wire]),
            self._jitter,
            self._z,
            self._z_next,
            self._z_block,
            self._grow_slots,
            array("q", tree._up_base),
            array("q", tree._down_base),
            array("d", self._level_bw),
            FAT_TREE_ARITY,
        )

    def _wire_size(self, payload: int) -> Tuple[float, float]:
        """Wire bytes and sqrt(packet count) of a ``payload``-byte
        message, cached: both depend only on the payload size, and
        exchanges reuse a handful of sizes ~10^5 times."""
        cached = self._wire_cache.get(payload)
        if cached is None:
            w = float(wire_bytes(payload))
            cached = self._wire_cache[payload] = (w, math.sqrt(w / 20.0))
        return cached

    def _z_block(self) -> List[float]:
        """Draw the next block of jitter normals (for begin_flow and the
        compiled schedule executor) and return it."""
        self._z = np.abs(self._rng.standard_normal(_Z_BLOCK)).tolist()
        self._z_next = 0
        return self._z

    def _kernel_flow_buffers(self) -> None:
        """(Re)allocate the kernel reallocation's per-slot buffers."""
        self._live_flows = np.empty(self._cap, dtype=np.int64)
        self._flow_class = np.empty(self._cap, dtype=np.int64)
        self._cap_classes = np.empty((self._cap, 4))

    def _refresh_table(self) -> None:
        """Repoint the kernel store's table (layout: ``kernel().TABLE``)."""
        ws = self._alloc_ws
        arrays = {
            "link_caps": self._link_caps,
            "link_scales": self._link_scales,
            "flow_ptr": self._ptr,
            "csr_links": self._csr_links,
            "rate_cap": self._rate_cap,
            "rate": self._rate,
            "remaining": ws.remaining,
            "counts": ws.counts,
            "live_links": self._live_links,
            "link_memo": self._link_memo,
            "link_sat": self._link_sat,
            "live_flows": self._live_flows,
            "flow_class": self._flow_class,
            "cap_classes": self._cap_classes,
            "wire": self._wire,
            "srcs": self._srcs,
            "dsts": self._dsts,
            "keys": self._keys,
        }
        self.store.set_table(
            tuple(arrays[name] for name in self._k.TABLE), self._cap
        )

    def _grow_slots(self, need: int) -> None:
        new_cap = max(2 * self._cap, need)
        n = self.store.n
        for name in _COLUMNS:
            old = getattr(self, name)
            fresh = np.empty(new_cap, dtype=old.dtype)  # object -> None
            fresh[:n] = old[:n]
            setattr(self, name, fresh)
        ptr = np.zeros(new_cap + 1, dtype=np.int64)
        ptr[: n + 1] = self._ptr[: n + 1]
        self._ptr = ptr
        used = int(ptr[n])
        csr = np.empty(self._max_path * new_cap, dtype=np.int64)
        csr[:used] = self._csr_links[:used]
        self._csr_links = csr
        self._alloc_ws.ensure_flows(new_cap)
        self._cap = new_cap
        if self._k is not None:
            self._kernel_flow_buffers()
            self._refresh_table()

    # ------------------------------------------------------------------
    def begin_flow(
        self, t: float, key: Hashable, src: int, dst: int, payload: int
    ) -> None:
        """Drain to ``t`` (:meth:`advance_to`), then start a message
        transfer of ``payload`` user bytes from ``src`` to ``dst``.

        The engine's flow start: one kernel call when the kernel is
        loaded.  The flow carries the packetized wire size, inflated by
        the routing jitter.
        """
        if key in self._key_set:
            raise ValueError(f"duplicate flow key: {key!r}")
        cached = self._wire_cache.get(payload)
        if cached is None:
            cached = self._wire_size(payload)
        wire, sqrt_packets = cached
        if self._jitter > 0:
            # Random-routing variance: relative inflation ~ j*|Z|/sqrt(p)
            # over p packets (conflicts average out for long messages).
            i = self._z_next
            if i == len(self._z):
                self._z_block()
                i = 0
            self._z_next = i + 1
            wire *= 1.0 + self._jitter * self._z[i] / sqrt_packets
        route = self._route_slots.get((src, dst))
        if route is None:
            route = self.tree.route_slot(src, dst)
        off, length = route
        # Read after the route lookup: this table holds the route, and
        # the local reference keeps it alive through the copy.
        routes, routes_addr = self.tree.route_buffer
        rate_cap = self._level_bw[length >> 1]
        st = self.store
        k = self._k
        if k is not None:
            while not k.begin(
                st, t, key, wire, rate_cap, src, dst, routes_addr, off, length
            ):
                # Refused, nothing changed: the slot columns are full.
                self._grow_slots(st.n + 1)
            return
        self.advance_to(t)
        slot = st.n
        if slot == self._cap:
            self._grow_slots(slot + 1)
        used = int(self._ptr[slot])
        self._csr_links[used : used + length] = routes[off : off + length]
        self._ptr[slot + 1] = used + length
        self._wire[slot] = wire
        self._rate[slot] = 0.0
        self._rate_cap[slot] = rate_cap
        self._srcs[slot] = src
        self._dsts[slot] = dst
        self._keys[slot] = key
        self._key_set.add(key)
        st.n = slot + 1
        st.dirty = True
        st.changed = True
        st.next = None

    def advance_to(self, t: float) -> None:
        """Drain all active flows up to time ``t`` at their current rates.

        ``wire_remaining`` is clamped at zero: if the caller advances
        past a flow's true completion instant the flow reads as exactly
        finished rather than drifting negative, keeping
        :meth:`snapshot_remaining` diagnostics and the completion test
        against ``_DONE_EPS`` meaningful.
        """
        st = self.store
        if t < st.now - 1e-12:
            raise ValueError(f"time moved backwards: {t} < {st.now}")
        n = st.n
        dt = t - st.now
        if dt > 0 and n:
            if st.dirty:
                self._recompute()
            wire = self._wire[:n]
            wire -= self._rate[:n] * dt
            np.maximum(wire, 0.0, out=wire)
        st.now = max(st.now, t)

    def earliest_completion(self) -> Optional[float]:
        """Absolute time the next flow (if any) finishes at current rates.

        Memoized while the flow set and rates are unchanged (completion
        instants are invariant under advance_to, which is why the
        engine's repeated re-arming costs O(1)).  Raises
        :class:`NetworkStallError` naming the stalled ``(src, dst,
        key)`` triples if any unfinished flow has zero rate (impossible
        on a healthy network: max-min allocations are strictly
        positive).
        """
        st = self.store
        if st.dirty:
            self._recompute()
        n = st.n
        if not n:
            return None
        if st.next is not None:
            # A flow already past its instant (the caller overshot)
            # reads as finishing "now", as it would on a fresh scan.
            return max(st.next, st.now)
        wire = self._wire[:n]
        rate = self._rate[:n]
        # Done-flows first, zero rates second — consistently, in one pass.
        if (wire <= _DONE_EPS).any():
            return st.now
        stalled = rate <= 0.0
        if stalled.any():
            idx = np.nonzero(stalled)[0]
            raise NetworkStallError(
                [
                    (int(self._srcs[i]), int(self._dsts[i]), self._keys[i])
                    for i in idx
                ]
            )
        st.next = st.now + float((wire / rate).min())
        return st.next

    def pop_completed_keys(self, t: float) -> List[Hashable]:
        """Advance to ``t`` and retire every finished flow; return their
        keys in start order."""
        self.advance_to(t)
        st = self.store
        n = st.n
        if n == 0:
            return []
        done = self._wire[:n] <= _DONE_EPS
        if not done.any():
            return []
        keys = self._keys[:n][done].tolist()
        self._key_set.difference_update(keys)
        self._compact(~done)
        st.dirty = True
        st.changed = True
        st.next = None
        return keys

    def _compact(self, keep: np.ndarray) -> None:
        """Drop slots where ``keep`` is False, preserving insertion order."""
        n = self.store.n
        m = int(keep.sum())
        lengths = np.diff(self._ptr[: n + 1])
        seg_keep = np.repeat(keep, lengths)
        used = int(self._ptr[n])
        kept_links = self._csr_links[:used][seg_keep]
        self._csr_links[: len(kept_links)] = kept_links
        np.cumsum(lengths[keep], out=self._ptr[1 : m + 1])
        for name in _COLUMNS:
            arr = getattr(self, name)
            arr[:m] = arr[:n][keep]
        self._keys[m:n] = None
        self.store.n = m

    # ------------------------------------------------------------------
    def _recompute(self) -> None:
        st = self.store
        n = st.n
        if n:
            used = int(self._ptr[n])
            flow_links = self._csr_links[:used]
            flow_ptr = self._ptr[: n + 1]
            # Switch contention: a link shared by n concurrent flows loses
            # arbitration/conflict efficiency, degrading its usable
            # capacity to cap / (1 + c*(n-1)).  This is what makes
            # concentrated permutation steps (PEX's all-remote steps)
            # slower than balanced ones (BEX) beyond plain fair sharing.
            caps = self._link_caps
            c = self.tree.params.switch_contention
            if c > 0:
                counts = np.bincount(flow_links, minlength=len(caps))
                np.subtract(counts, 1, out=self._pen_int)
                np.maximum(self._pen_int, 0, out=self._pen_int)
                np.multiply(self._pen_int, c, out=self._penalty)
                np.add(self._penalty, 1.0, out=self._penalty)
                np.minimum(
                    self._penalty, self.tree.params.contention_cap,
                    out=self._penalty,
                )
                np.divide(caps, self._penalty, out=self._eff_caps)
                caps = self._eff_caps
            max_min_rates(
                caps,
                flow_ptr,
                flow_links,
                self._rate_cap[:n],
                self._link_scales,
                check=False,
                workspace=self._alloc_ws,
                out=self._rate[:n],
            )
        st.dirty = False
        st.next = None
        if self._observer is not None:
            self._observe(st.now)

    # ------------------------------------------------------------------
    def snapshot_rates(self) -> Dict[Hashable, float]:
        """Current fair rate of every active flow (diagnostics/tests)."""
        if self.store.dirty:
            self._recompute()
        n = self.store.n
        return {self._keys[i]: float(self._rate[i]) for i in range(n)}

    def snapshot_remaining(self) -> Dict[Hashable, float]:
        """Remaining wire bytes of every active flow (diagnostics/tests)."""
        n = self.store.n
        return {self._keys[i]: float(self._wire[i]) for i in range(n)}
