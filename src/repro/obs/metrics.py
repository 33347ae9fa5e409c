"""Metric primitives and the per-link utilization time series.

Counters, gauges and histograms live in a :class:`MetricsRegistry`
(one per :class:`~repro.obs.span.Tracer`); instrumented code reaches
them through :func:`repro.obs.count` / :func:`repro.obs.observe`, which
are no-ops when no tracer is installed.

:class:`LinkUtilization` is the fluid network's observer: every time
the max-min rate allocation changes, it receives the instant and the
per-link aggregate flow rate, and an all-zero sample when the network
goes idle.  Rates are piecewise constant between samples, so the
series is an exact record of where bytes were on which links at which
times — the quantity the paper's BEX-vs-PEX root-traffic argument is
about.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "LinkUtilization",
    "bucket_index",
    "bucket_bounds",
]


@dataclass
class Counter:
    """Monotonic event count."""

    value: int = 0

    def inc(self, n: int = 1) -> None:
        self.value += n


@dataclass
class Gauge:
    """Last-written value."""

    value: float = 0.0

    def set(self, v: float) -> None:
        self.value = v


#: Sub-buckets per power-of-two octave.  Eight slices of the mantissa
#: give bucket bounds with ratio at most 17/16, so a quantile read off a
#: bucket midpoint is within ~6 % of the true sample — tight enough for
#: latency SLOs while keeping a histogram a handful of integers.
_SUBBUCKETS = 8

#: A histogram sum counts units of ``2**-_SUM_BITS``, the least
#: subnormal double, of which every finite double is a whole multiple.
_SUM_BITS = 1074
_SUM_UNIT = 1 << _SUM_BITS
#: ``math.frexp(v)[0] * 2**_MANT_BITS`` is ``v``'s exact integer mantissa.
_MANT_BITS = 53
_MANT_SCALE = float(1 << _MANT_BITS)


def bucket_index(v: float) -> int:
    """Deterministic fixed-log bucket index of a positive value.

    ``v = m * 2**e`` with ``m in [0.5, 1)`` (:func:`math.frexp` — exact
    float decomposition, no logarithms, so the index is bit-stable
    across platforms); the mantissa selects one of ``_SUBBUCKETS``
    equal slices of the octave.
    """
    m, e = math.frexp(v)
    return (e << 3) | int((m - 0.5) * 16.0)


def bucket_bounds(k: int) -> Tuple[float, float]:
    """Inclusive-lower / exclusive-upper bounds of bucket ``k``."""
    e, sub = k >> 3, k & 7
    return (
        math.ldexp(0.5 + sub / 16.0, e),
        math.ldexp(0.5 + (sub + 1) / 16.0, e),
    )


class Histogram:
    """Streaming log-bucket summary: exact count/sum, p50/p90/p99.

    Observations land in deterministic fixed-log buckets (see
    :func:`bucket_index`); non-positive values are kept in a dedicated
    ``zero_count`` bucket that sorts below every log bucket.  The sum is
    exact: every finite double is an integer multiple of ``2**-1074``
    (the least subnormal), so it is a Python int in those units.
    ``observe`` keeps one small-int sum of 53-bit mantissas per binary
    exponent; they are folded into those units only when read.
    That makes it *order-independent*: merging two histograms yields
    bit-identical state to observing the concatenated stream in any
    order — the property that lets worker processes ship histogram
    deltas to the parent (:mod:`repro.obs.telemetry`) without the merge
    order perturbing the serialized bytes.
    """

    __slots__ = ("count", "minimum", "maximum", "zero_count", "buckets", "_sums")

    def __init__(self) -> None:
        self.count = 0
        self.minimum = float("inf")
        self.maximum = float("-inf")
        #: Observations <= 0 (a latency histogram should never see them,
        #: but a histogram must not silently drop what it is handed).
        self.zero_count = 0
        #: bucket index -> observation count.
        self.buckets: Dict[int, int] = {}
        #: Binary exponent ``e`` -> sum of the integer mantissas ``n``
        #: of the observations ``n * 2**(e - 53)``.
        self._sums: Dict[int, int] = {}

    def observe(self, v: float) -> None:
        v = float(v)
        self.count += 1
        m, e = math.frexp(v)
        try:
            n = int(m * _MANT_SCALE)  # exact for every finite double
        except (OverflowError, ValueError):
            v.as_integer_ratio()  # NaN and infinities raise as Fraction does
            raise
        sums = self._sums
        sums[e] = sums.get(e, 0) + n
        # The zeros compare equal, so -0.0 is ranked below 0.0: min and
        # max then do not depend on the order the zeros arrive in.
        if v < self.minimum or (v == self.minimum and math.copysign(1.0, v) < 0.0):
            self.minimum = v
        if v > self.maximum or (v == self.maximum and math.copysign(1.0, v) > 0.0):
            self.maximum = v
        if v > 0.0:
            k = (e << 3) | int((m - 0.5) * 16.0)  # bucket_index(v)
            self.buckets[k] = self.buckets.get(k, 0) + 1
        else:
            self.zero_count += 1

    # -- derived views --------------------------------------------------
    @property
    def _sum(self) -> int:
        """The exact sum in units of ``2**-1074``."""
        # A copy of the items: an observe in another thread may add a
        # key.  The shifted sum is a whole multiple of 2**53 (the lowest
        # exponent, -1073, still shifts by one).
        scaled = sum(
            n << (e + _SUM_BITS) for e, n in list(self._sums.items())
        )
        return scaled >> _MANT_BITS

    @property
    def total(self) -> float:
        # Int true division rounds correctly: the double nearest the
        # exact sum.
        return self._sum / _SUM_UNIT

    @property
    def mean(self) -> float:
        return self._sum / (self.count * _SUM_UNIT) if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Nearest-rank quantile estimate from the bucket counts.

        Exact for the zero bucket and for min/max (``q`` of 0 or 1);
        otherwise the midpoint of the bucket holding the target rank,
        clamped to the observed ``[minimum, maximum]``.
        """
        if not self.count:
            return 0.0
        if q <= 0.0:
            return self.minimum
        if q >= 1.0:
            return self.maximum
        rank = max(1, math.ceil(q * self.count))
        cum = self.zero_count
        if cum >= rank:
            return self.minimum if self.minimum < 0.0 else 0.0
        for k in sorted(self.buckets):
            cum += self.buckets[k]
            if cum >= rank:
                lo, hi = bucket_bounds(k)
                mid = 0.5 * (lo + hi)
                return min(max(mid, self.minimum), self.maximum)
        return self.maximum  # pragma: no cover - counts always cover

    @property
    def p50(self) -> float:
        return self.quantile(0.50)

    @property
    def p90(self) -> float:
        return self.quantile(0.90)

    @property
    def p99(self) -> float:
        return self.quantile(0.99)

    # -- merge / serialization ------------------------------------------
    def merge(self, other: "Histogram") -> None:
        """Fold ``other`` into this histogram (exact, order-independent).

        ``merge(h1, h2)`` leaves ``h1`` bit-identical to a histogram
        that observed both streams back to back: counts and buckets are
        integers, min/max are order-free, and the exact integer sums
        add associatively.
        """
        self.count += other.count
        for e, n in list(other._sums.items()):
            self._sums[e] = self._sums.get(e, 0) + n
        lo, hi = other.minimum, other.maximum
        if lo < self.minimum or (lo == self.minimum and math.copysign(1.0, lo) < 0.0):
            self.minimum = lo
        if hi > self.maximum or (hi == self.maximum and math.copysign(1.0, hi) > 0.0):
            self.maximum = hi
        self.zero_count += other.zero_count
        for k, n in other.buckets.items():
            self.buckets[k] = self.buckets.get(k, 0) + n

    def state(self) -> Dict[str, object]:
        """Exact JSON-able state (the wire format for worker deltas).

        The sum travels as a reduced integer ``[numerator, denominator]``
        pair (the denominator a power of two) so a state round-trip loses
        nothing; bucket keys are stringified in sorted order for
        byte-stable serialization.
        """
        total = self._sum
        # Cancel the common powers of two: the trailing zero bits of the
        # numerator, at most _SUM_BITS of them (all of them for 0).
        shift = _SUM_BITS
        if total:
            shift = min((total & -total).bit_length() - 1, shift)
        return {
            "count": self.count,
            "zero": self.zero_count,
            "min": self.minimum if self.count else None,
            "max": self.maximum if self.count else None,
            "sum": [total >> shift, 1 << (_SUM_BITS - shift)],
            "buckets": {str(k): self.buckets[k] for k in sorted(self.buckets)},
        }

    @classmethod
    def from_state(cls, state: Dict[str, object]) -> "Histogram":
        """The histogram a :meth:`state` document describes.

        Raises :class:`ValueError` for any malformed state: a missing or
        mistyped field, or a sum whose denominator is not a power of two
        no larger than ``2**1074`` (no stream of doubles sums to that).
        """
        h = cls()
        try:
            h.count = int(state["count"])  # type: ignore[call-overload]
            h.zero_count = int(state["zero"])  # type: ignore[call-overload]
            if state["min"] is not None:
                h.minimum = float(state["min"])  # type: ignore[arg-type]
            if state["max"] is not None:
                h.maximum = float(state["max"])  # type: ignore[arg-type]
            num, den = state["sum"]  # type: ignore[misc]
            num, den = int(num), int(den)
            h.buckets = {
                int(k): int(n)
                for k, n in state["buckets"].items()  # type: ignore[union-attr]
            }
        except (KeyError, TypeError, AttributeError) as exc:
            raise ValueError(f"malformed histogram state: {exc!r}") from exc
        if den <= 0 or den & (den - 1) or den > _SUM_UNIT:
            raise ValueError(
                f"histogram sum denominator {den} is not a power of two "
                f"in 1..2**{_SUM_BITS}"
            )
        # At exponent 53 - 1074 a mantissa counts units of 2**-1074.
        h._sums = {_MANT_BITS - _SUM_BITS: num * (_SUM_UNIT // den)}
        return h


class MetricsRegistry:
    """Name -> metric, created on first use.  Creation is one
    ``dict.setdefault``, so threads that ask for a new name at once all
    get the one metric the registry keeps."""

    def __init__(self) -> None:
        self.counters: Dict[str, Counter] = {}
        self.gauges: Dict[str, Gauge] = {}
        self.histograms: Dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        c = self.counters.get(name)
        if c is None:
            c = self.counters.setdefault(name, Counter())
        return c

    def gauge(self, name: str) -> Gauge:
        g = self.gauges.get(name)
        if g is None:
            g = self.gauges.setdefault(name, Gauge())
        return g

    def histogram(self, name: str) -> Histogram:
        h = self.histograms.get(name)
        if h is None:
            h = self.histograms.setdefault(name, Histogram())
        return h

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        """Flat, JSON-friendly view of every metric."""
        out: Dict[str, Dict[str, float]] = {"counters": {}, "gauges": {}, "histograms": {}}
        for name, c in sorted(self.counters.items()):
            out["counters"][name] = c.value
        for name, g in sorted(self.gauges.items()):
            out["gauges"][name] = g.value
        for name, h in sorted(self.histograms.items()):
            out["histograms"][name] = {
                "count": h.count,
                "sum": h.total,
                "min": h.minimum if h.count else 0.0,
                "max": h.maximum if h.count else 0.0,
                "mean": h.mean,
                "p50": h.p50,
                "p90": h.p90,
                "p99": h.p99,
            }
        return out


class LinkUtilization:
    """Piecewise-constant per-link flow-rate series from the fluid net.

    One sample per rate reallocation: ``(t, rates)`` where ``rates[i]``
    is the aggregate bytes/s through link ``i`` (canonical dense link
    order of the tree) from ``t`` until the next sample; all zeros from
    an instant that emptied the network.
    """

    def __init__(self, tree) -> None:
        self.link_ids: Tuple = tuple(tree.sorted_link_ids)
        self.caps: np.ndarray = np.asarray(tree.link_caps_array, dtype=float)
        self.samples: List[Tuple[float, np.ndarray]] = []

    def record(self, now: float, link_rates: np.ndarray) -> None:
        self.samples.append((now, np.array(link_rates, dtype=float)))

    # ------------------------------------------------------------------
    def binned_utilization(
        self, nbins: int, t_end: Optional[float] = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Time-weighted mean utilization per link per bin.

        Returns ``(edges, util)`` where ``util`` is ``(L, nbins)`` with
        entries in ``[0, 1]`` (fraction of link capacity in use) and
        ``edges`` the ``nbins + 1`` bin boundaries.  The last sample's
        rates extend to ``t_end`` (default: the last sample time).
        """
        L = len(self.caps)
        if t_end is None:
            t_end = self.samples[-1][0] if self.samples else 0.0
        edges = np.linspace(0.0, max(t_end, 1e-30), nbins + 1)
        util = np.zeros((L, nbins))
        if not self.samples or t_end <= 0:
            return edges, util
        widths = np.diff(edges)
        times = [t for t, _ in self.samples] + [t_end]
        for i, (t0, rates) in enumerate(self.samples):
            t1 = times[i + 1]
            if t1 <= t0:
                continue
            lo = np.searchsorted(edges, t0, side="right") - 1
            hi = np.searchsorted(edges, min(t1, t_end), side="left")
            for b in range(max(lo, 0), min(hi, nbins)):
                overlap = min(t1, edges[b + 1]) - max(t0, edges[b])
                if overlap > 0:
                    util[:, b] += rates * overlap
        util /= widths[np.newaxis, :]
        util /= self.caps[:, np.newaxis]
        return edges, np.clip(util, 0.0, None)

    def level_groups(self) -> Dict[Tuple[str, int], List[int]]:
        """Dense link indices grouped by (kind, level), sorted."""
        groups: Dict[Tuple[str, int], List[int]] = {}
        for i, (kind, level, _) in enumerate(self.link_ids):
            groups.setdefault((kind, level), []).append(i)
        return dict(sorted(groups.items(), key=lambda kv: (-kv[0][1], kv[0][0])))

    def peak_utilization(self) -> float:
        """Largest instantaneous single-link utilization seen."""
        peak = 0.0
        for _, rates in self.samples:
            peak = max(peak, float((rates / self.caps).max()))
        return peak
