"""Trace equivalence: optimized hot path vs the reference fluid network.

The struct-of-arrays :class:`repro.machine.contention.FluidNetwork` (plus
the compiled allocation kernel behind it) promises *byte-identical*
simulation output versus the original per-flow-object implementation.
This test embeds that original implementation verbatim as
``ReferenceFluidNetwork``, runs the engine against both on Fig. 5 and
Table 11 workloads, and compares ``Trace.event_stream()`` — the
JSON-lines rendering where floats are serialized via ``repr``, so
equality is bit-level equality of every simulated timestamp.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Tuple

import numpy as np
import pytest

import repro.sim.engine as engine_mod
from repro.machine import MachineConfig
from repro.machine.bandwidth import max_min_rates
from repro.machine.contention import FlowStore
from repro.machine.params import wire_bytes
from repro.schedules import (
    CommPattern,
    balanced_exchange,
    execute_schedule,
    greedy_schedule,
    pairwise_exchange,
    recursive_exchange,
)


@dataclass
class _RefFlowState:
    key: Hashable
    src: int
    dst: int
    wire_remaining: float
    path_idx: np.ndarray
    rate_cap: float
    rate: float = 0.0
    started_at: float = 0.0
    payload_bytes: int = 0


class ReferenceFluidNetwork:
    """The pre-optimization dict-of-FlowState implementation, verbatim."""

    _DONE_EPS = 1e-6

    def __init__(self, tree, seed: int = 0, link_scales=None):
        self.tree = tree
        link_ids = sorted(tree.links)
        self._link_index = {l: i for i, l in enumerate(link_ids)}
        self._link_caps = np.array(
            [tree.capacity(l) for l in link_ids], dtype=float
        )
        self._link_scales: Optional[np.ndarray] = None
        if link_scales:
            self._link_scales = np.array(
                [link_scales.get(l, 1.0) for l in link_ids], dtype=float
            )
        self._flows: Dict[Hashable, _RefFlowState] = {}
        self._now = 0.0
        self._dirty = False
        self._path_cache: Dict[Tuple[int, int], np.ndarray] = {}
        self._rng = np.random.default_rng(seed)
        self._seed = seed

    @property
    def now(self) -> float:
        return self._now

    @property
    def active_count(self) -> int:
        return len(self._flows)

    def _path_indices(self, src: int, dst: int) -> np.ndarray:
        cached = self._path_cache.get((src, dst))
        if cached is None:
            cached = np.array(
                [self._link_index[l] for l in self.tree.path(src, dst)],
                dtype=np.int64,
            )
            self._path_cache[(src, dst)] = cached
        return cached

    def add_flow(self, key, src, dst, payload) -> None:
        if key in self._flows:
            raise ValueError(f"duplicate flow key: {key!r}")
        wire = float(wire_bytes(payload))
        jitter = self.tree.params.routing_jitter
        if jitter > 0:
            packets = wire / 20.0
            z = abs(self._rng.standard_normal())
            wire *= 1.0 + jitter * z / math.sqrt(packets)
        self._flows[key] = _RefFlowState(
            key=key,
            src=src,
            dst=dst,
            wire_remaining=wire,
            path_idx=self._path_indices(src, dst),
            rate_cap=self.tree.message_rate_cap(src, dst),
            started_at=self._now,
            payload_bytes=payload,
        )
        self._dirty = True

    def advance_to(self, t: float) -> None:
        if t < self._now - 1e-12:
            raise ValueError(f"time moved backwards: {t} < {self._now}")
        if self._dirty:
            self._recompute()
        dt = t - self._now
        if dt > 0 and self._flows:
            for f in self._flows.values():
                f.wire_remaining -= f.rate * dt
        self._now = max(self._now, t)

    def earliest_completion(self) -> Optional[float]:
        if self._dirty:
            self._recompute()
        if not self._flows:
            return None
        best = math.inf
        for f in self._flows.values():
            if f.wire_remaining <= self._DONE_EPS:
                return self._now
            if f.rate > 0:
                best = min(best, f.wire_remaining / f.rate)
        if math.isinf(best):
            raise RuntimeError("active flows with zero rate")
        return self._now + best

    def pop_completed(self, t: float) -> List[_RefFlowState]:
        self.advance_to(t)
        done = [
            f for f in self._flows.values() if f.wire_remaining <= self._DONE_EPS
        ]
        for f in done:
            del self._flows[f.key]
        if done:
            self._dirty = True
        return done

    def pop_completed_keys(self, t: float) -> List[Hashable]:
        return [f.key for f in self.pop_completed(t)]

    def _recompute(self) -> None:
        flows = list(self._flows.values())
        if flows:
            lengths = np.fromiter(
                (len(f.path_idx) for f in flows), dtype=np.int64, count=len(flows)
            )
            flow_ptr = np.zeros(len(flows) + 1, dtype=np.int64)
            np.cumsum(lengths, out=flow_ptr[1:])
            flow_links = np.concatenate([f.path_idx for f in flows])
            flow_caps = np.fromiter(
                (f.rate_cap for f in flows), dtype=float, count=len(flows)
            )
            caps = self._link_caps
            c = self.tree.params.switch_contention
            if c > 0:
                counts = np.bincount(flow_links, minlength=len(caps))
                penalty = np.minimum(
                    1.0 + c * np.maximum(counts - 1, 0),
                    self.tree.params.contention_cap,
                )
                caps = caps / penalty
            rates = max_min_rates(
                caps, flow_ptr, flow_links, flow_caps, self._link_scales
            )
            for f, r in zip(flows, rates):
                f.rate = float(r)
        self._dirty = False

    def snapshot_rates(self) -> Dict[Hashable, float]:
        if self._dirty:
            self._recompute()
        return {k: f.rate for k, f in self._flows.items()}

    def reset(self) -> None:
        self._flows.clear()
        self._now = 0.0
        self._dirty = False
        self._rng = np.random.default_rng(self._seed)


class EngineFacingReference(ReferenceFluidNetwork):
    """The reference behind the engine-facing surface added since: the
    one-call flow start and the flow store's changed flag and arm
    generation.  No native store, so the engine arms in Python."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.store = FlowStore()

    def native_store(self):
        return None

    def begin_flow(self, t, key, src, dst, payload):
        self.advance_to(t)
        self.add_flow(key, src, dst, payload)
        self.store.changed = True

    def pop_completed_keys(self, t):
        keys = super().pop_completed_keys(t)
        if keys:
            self.store.changed = True
        return keys


def _stream(schedule, config, monkeypatch=None, reference=False):
    if reference:
        res = None
        # Swap the engine's network class for the reference for one run.
        orig = engine_mod.FluidNetwork
        engine_mod.FluidNetwork = EngineFacingReference
        try:
            res = execute_schedule(schedule, config, trace=True)
        finally:
            engine_mod.FluidNetwork = orig
    else:
        res = execute_schedule(schedule, config, trace=True)
    return res.sim.trace.event_stream()


FIG5_CASES = [
    ("PEX", pairwise_exchange, 16, 256),
    ("BEX", balanced_exchange, 16, 256),
    ("REX", recursive_exchange, 16, 256),
    ("PEX", pairwise_exchange, 16, 1024),
]


@pytest.mark.parametrize("label,build,n,nbytes", FIG5_CASES)
def test_fig5_exchange_traces_byte_identical(label, build, n, nbytes):
    schedule = build(n, nbytes)
    config = MachineConfig(n)
    assert _stream(schedule, config) == _stream(
        schedule, config, reference=True
    ), f"{label} n={n} b={nbytes}: optimized trace diverged from reference"


@pytest.mark.parametrize("density", [0.25, 0.75])
def test_table11_irregular_traces_byte_identical(density):
    pattern = CommPattern.synthetic(32, density, 512, seed=42)
    schedule = greedy_schedule(pattern)
    config = MachineConfig(32)
    assert _stream(schedule, config) == _stream(
        schedule, config, reference=True
    ), f"irregular d={density}: optimized trace diverged from reference"
