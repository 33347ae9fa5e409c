"""Max-min fair bandwidth allocation over shared fat-tree links.

When several messages are in flight, each message receives the max-min
fair rate subject to (a) every link's aggregate capacity being shared by
the flows crossing it and (b) each flow's intrinsic rate cap (the
per-message level bandwidth from :meth:`FatTree.message_rate_cap`).

This is the classic *progressive filling* computation: the rates of all
unfrozen flows rise together until a link saturates or a flow reaches its
cap; those flows freeze, and filling continues on the rest.  It runs on
every flow arrival/departure wave inside the fluid network simulation —
~10^5 times per 256-node exchange sweep.

:func:`max_min_rates` is the validated NumPy reference: vectorized over
the CSR flow->link incidence, with per-link flow counts maintained
incrementally across rounds (one ``bincount`` up front, frozen paths
subtracted per round) and the freeze thresholds hoisted out of the
loop.  The fluid network runs it when the compiled kernel
(:mod:`repro.machine._fastfill`) is not loaded, passing an
:class:`AllocationWorkspace` plus ``check=False`` so repeated calls over
one topology reuse every buffer and skip input validation; the
kernel's ``recompute`` computes the same doubles with fewer operations
(memoized link penalties, one rate per round, saturation flags; see
``_fastfill.c``) and yields bit-identical rates.  Each call counts one
``net.allocations`` and its rounds as ``net.fill_rounds``.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .. import obs

__all__ = ["AllocationWorkspace", "max_min_rates", "build_incidence"]

_INF = float("inf")
#: Relative slack used to decide that a constraint is binding.
_REL_EPS = 1e-12


class AllocationWorkspace:
    """Reusable buffers for repeated allocations over one topology.

    One instance per :class:`FluidNetwork`; link-sized arrays are fixed,
    flow-sized arrays grow by doubling as waves get larger.
    """

    def __init__(self, nlinks: int):
        self.nlinks = nlinks
        self.remaining = np.empty(nlinks)
        # The C kernel keeps counts at all-zero between calls (every
        # fill decrements what it incremented), letting its fused
        # recompute skip the O(nlinks) re-zeroing — so start it zeroed.
        self.counts = np.zeros(nlinks, dtype=np.int64)
        self.link_incr = np.empty(nlinks)
        self.sat_thresh = np.empty(nlinks)
        self._fcap = 0
        self.cap_left = np.empty(0)
        self.cap_thresh = np.empty(0)
        self.ensure_flows(1)

    def ensure_flows(self, nflows: int) -> None:
        if nflows > self._fcap:
            self._fcap = max(16, 2 * self._fcap, nflows)
            self.cap_left = np.empty(self._fcap)
            self.cap_thresh = np.empty(self._fcap)


def max_min_rates(
    link_caps: np.ndarray,
    flow_ptr: np.ndarray,
    flow_links: np.ndarray,
    flow_caps: np.ndarray,
    link_scales: "np.ndarray | None" = None,
    *,
    check: bool = True,
    workspace: Optional[AllocationWorkspace] = None,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Compute max-min fair rates for a set of flows.

    Parameters
    ----------
    link_caps:
        ``(L,)`` array of link capacities (bytes/s).
    flow_ptr:
        ``(F + 1,)`` CSR row pointer: flow ``f`` uses link indices
        ``flow_links[flow_ptr[f]:flow_ptr[f + 1]]``.  Every flow must use
        at least one link.
    flow_links:
        Concatenated link indices of all flow paths.
    flow_caps:
        ``(F,)`` per-flow intrinsic rate caps (may be ``inf``).
    link_scales:
        Optional ``(L,)`` capacity multipliers in ``(0, 1]`` — the fault
        layer's degraded-link injection (:mod:`repro.faults`).  ``None``
        means a healthy network.
    check:
        Validate inputs (positive capacities, non-empty paths, scale
        range).  Hot callers pass ``False`` to skip the per-call scans
        and array normalization; they must then guarantee C-contiguous
        arrays of the right dtypes and *finite* flow caps.
    workspace:
        Optional :class:`AllocationWorkspace` to reuse across calls.
    out:
        Optional ``(F,)`` float64 array to receive the rates.

    Returns
    -------
    ``(F,)`` array of allocated rates.

    The result satisfies the max-min property: no flow's rate can be
    increased without decreasing the rate of another flow that already
    has an equal or smaller rate, and no link's capacity is exceeded.

    >>> import numpy as np
    >>> # two flows share link 0 (cap 10); flow 1 also crosses link 1 (cap 3)
    >>> rates = max_min_rates(
    ...     np.array([10.0, 3.0]),
    ...     np.array([0, 1, 3]),
    ...     np.array([0, 0, 1]),
    ...     np.array([np.inf, np.inf]),
    ... )
    >>> rates.tolist()
    [7.0, 3.0]
    """
    obs.count("net.allocations")
    if check:
        # The hot path (check=False) trusts its caller to pass
        # C-contiguous arrays of the right dtypes; the public path
        # normalizes and validates.
        flow_ptr = np.ascontiguousarray(flow_ptr, dtype=np.int64)
        flow_links = np.ascontiguousarray(flow_links, dtype=np.int64)
        flow_caps = np.ascontiguousarray(flow_caps, dtype=np.float64)
        link_caps = np.ascontiguousarray(link_caps, dtype=np.float64)
    nflows = len(flow_ptr) - 1
    if nflows == 0:
        return np.zeros(0)
    if check and np.any(np.diff(flow_ptr) < 1):
        raise ValueError("every flow must traverse at least one link")
    if check and np.any(link_caps <= 0):
        raise ValueError("link capacities must be positive")
    if link_scales is not None:
        scales = np.asarray(link_scales, dtype=float)
        if check:
            if scales.shape != link_caps.shape:
                raise ValueError(
                    f"link_scales shape {scales.shape} != link_caps shape "
                    f"{link_caps.shape}"
                )
            if np.any(scales <= 0) or np.any(scales > 1):
                raise ValueError("link_scales must lie in (0, 1]")
        link_caps = link_caps * scales
    if check and np.any(flow_caps <= 0):
        raise ValueError("flow caps must be positive")

    nlinks = len(link_caps)
    ws = workspace
    if ws is None or ws.nlinks != nlinks:
        ws = AllocationWorkspace(nlinks)
    ws.ensure_flows(nflows)

    # Freeze thresholds are loop-invariant: hoist them out of the rounds.
    np.multiply(link_caps, _REL_EPS, out=ws.sat_thresh)
    ws.sat_thresh += 1e-15
    cap_thresh = ws.cap_thresh[:nflows]
    if check:
        np.multiply(
            np.where(np.isfinite(flow_caps), flow_caps, 1.0),
            _REL_EPS,
            out=cap_thresh,
        )
    else:
        # Finite caps guaranteed: the where(isfinite) is the identity.
        np.multiply(flow_caps, _REL_EPS, out=cap_thresh)
    cap_thresh += 1e-15

    rates = np.empty(nflows) if out is None else out
    path_lens = np.diff(flow_ptr)
    starts = flow_ptr[:-1]

    remaining_cap = ws.remaining
    np.copyto(remaining_cap, link_caps)
    rates[:] = 0.0
    active = np.ones(nflows, dtype=bool)
    cap_left = ws.cap_left[:nflows]
    np.copyto(cap_left, flow_caps)

    # Per-link load of the *active* flows.  Counting every flow once up
    # front and subtracting the newly frozen paths each round replaces a
    # per-round repeat+bincount over the full incidence; integer
    # arithmetic keeps the counts exact, so the allocation is bit-for-bit
    # the same as recounting from scratch.
    counts = ws.counts
    counts[:] = np.bincount(flow_links, minlength=nlinks)
    link_incr = ws.link_incr
    denom = np.empty(nlinks, dtype=np.int64)
    remaining = nflows

    # Each round freezes at least one flow, so nflows rounds suffice.
    for rounds in range(nflows + 1):
        if remaining == 0:
            break
        # Allowable uniform rate increment through each link.
        np.maximum(counts, 1, out=denom)
        np.divide(remaining_cap, denom, out=link_incr)
        link_incr[counts == 0] = _INF
        # Per-flow allowable increment: path bottleneck vs remaining cap.
        path_incr = np.minimum.reduceat(link_incr[flow_links], starts)
        incr = np.minimum(path_incr, cap_left)
        delta = np.where(active, incr, _INF).min()
        if not np.isfinite(delta):
            raise RuntimeError("unbounded flow: a path has no finite constraint")

        np.add(rates, delta, out=rates, where=active)
        np.subtract(cap_left, delta, out=cap_left, where=active)
        remaining_cap -= counts * delta

        # Freeze flows that hit their cap or whose path saturated a link.
        saturated = remaining_cap <= ws.sat_thresh
        flow_hits_sat = np.bitwise_or.reduceat(saturated[flow_links], starts)
        freeze = active & (flow_hits_sat | (cap_left <= cap_thresh))
        nfrozen = int(np.count_nonzero(freeze))
        if nfrozen == 0:  # pragma: no cover - defensive: delta was binding
            raise RuntimeError("progressive filling made no progress")
        active ^= freeze
        remaining -= nfrozen
        counts -= np.bincount(
            flow_links[np.repeat(freeze, path_lens)], minlength=nlinks
        )
    else:  # pragma: no cover - loop bound is provably sufficient
        raise RuntimeError("max-min allocation failed to converge")

    obs.count("net.fill_rounds", rounds)
    return rates


def build_incidence(paths: Sequence[Sequence[int]]) -> "tuple[np.ndarray, np.ndarray]":
    """Pack a list of link-index paths into CSR ``(flow_ptr, flow_links)``."""
    lengths = np.fromiter((len(p) for p in paths), dtype=np.int64, count=len(paths))
    flow_ptr = np.zeros(len(paths) + 1, dtype=np.int64)
    np.cumsum(lengths, out=flow_ptr[1:])
    if len(paths):
        flow_links = np.concatenate([np.asarray(p, dtype=np.int64) for p in paths])
    else:
        flow_links = np.zeros(0, dtype=np.int64)
    return flow_ptr, flow_links
