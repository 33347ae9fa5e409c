"""Metrics exposition and cross-process merge (`repro metrics`).

One :class:`~repro.obs.metrics.MetricsRegistry` holds a run's counters,
gauges and log-bucket histograms; this module turns a registry into the
two exchange formats the outside world reads —

* **Prometheus text format** (:func:`render_prom`): sanitized names
  (``service.latency.cold`` -> ``service_latency_cold``), ``# HELP`` /
  ``# TYPE`` headers from the frozen name registry, histograms as
  cumulative ``_bucket{le=...}`` series over the deterministic log
  bucket bounds.  Output ordering is fully sorted, so two runs with the
  same metric values emit byte-identical text (the golden-bytes test
  pins this).
* **JSON snapshot** (:func:`metrics_to_json`, schema ``repro-metrics/1``):
  derived views (mean, p50/p90/p99) *plus* the exact histogram state
  (integer bucket counts and the sum as an integer ratio), so snapshots
  from different processes merge losslessly with
  :func:`merge_state` — the worker-pool tier ships exactly this state
  back to the parent with every cold build.

The frozen name registry (:data:`METRIC_NAMES`) is the contract: every
metric the library emits is declared here with its kind and help text,
a tier-1 test scans the source tree for emission sites and fails on any
name not in the table (and on any table entry nothing emits), so a
metric rename is a deliberate, reviewed act rather than a silent
dashboard breakage.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Tuple

from .metrics import Histogram, MetricsRegistry, bucket_bounds

__all__ = [
    "METRICS_SCHEMA",
    "METRIC_NAMES",
    "SERVICE_TIERS",
    "metric_help",
    "render_prom",
    "check_prom",
    "metrics_to_json",
    "validate_metrics_json",
    "registry_state",
    "merge_state",
]

METRICS_SCHEMA = "repro-metrics/1"

#: Serving tiers of the scheduling service, cheapest first; each gets a
#: tier-labeled latency histogram ``service.latency.<tier>``.
SERVICE_TIERS = ("hit", "isomorphic", "warm", "cold")

#: The frozen metric-name registry: every name the library emits, with
#: its kind and help text.  MODEL.md §15 renders this table; the tier-1
#: freeze test (tests/obs/test_telemetry.py) diffs it against the
#: emission sites found in the source tree.  Add a row *and* the MODEL
#: line when introducing a metric; never rename casually.
METRIC_NAMES: Dict[str, Tuple[str, str]] = {
    # -- simulation engine ---------------------------------------------
    "sim.messages": ("counter", "point-to-point messages delivered"),
    "sim.bytes_delivered": ("counter", "payload bytes delivered"),
    "sim.drops": ("counter", "messages dropped in flight (fault layer)"),
    "sim.node_failures": ("counter", "ranks killed by NodeFailure faults"),
    "sim.makespan_seconds": ("gauge", "simulated makespan of the last run"),
    # -- fluid network --------------------------------------------------
    "net.allocations": ("counter", "max-min rate reallocations"),
    "net.fill_rounds": ("counter", "progressive-fill rounds of those reallocations"),
    # -- fault injection ------------------------------------------------
    "faults.delays": ("counter", "messages delayed by the fault plan"),
    "faults.delay_seconds": ("histogram", "injected per-message delay"),
    "faults.drops": ("counter", "messages selected for in-flight drop"),
    # -- packet backend -------------------------------------------------
    "packet.messages": ("counter", "messages priced by the packet backend"),
    "packet.packets": ("counter", "packets priced by the packet backend"),
    # -- scheduling service ---------------------------------------------
    "service.requests": ("counter", "requests accepted by the scheduler"),
    "service.hits": ("counter", "exact content-addressed cache hits"),
    "service.iso_hits": ("counter", "isomorphic relabel hits"),
    "service.iso_rejects": ("counter", "relabeled schedules failing lint"),
    "service.warm_hits": ("counter", "warm-start adaptations served"),
    "service.warm_rejects": ("counter", "warm adaptations failing lint"),
    "service.cold_builds": ("counter", "cold builds executed"),
    "service.inflight_dedup": ("counter", "requests coalesced in flight"),
    "service.store.hit": ("counter", "store lookups that found an entry"),
    "service.store.miss": ("counter", "store lookups that found nothing"),
    "service.store.insert": ("counter", "entries inserted into the store"),
    "service.store.quarantined": (
        "counter",
        "corrupt/forged disk entries moved to corrupt/ at load",
    ),
    "service.guard.deadline_exceeded": (
        "counter",
        "requests failed with DeadlineExceeded",
    ),
    "service.guard.shed": (
        "counter",
        "requests rejected by admission control (ServiceOverloaded)",
    ),
    "service.guard.retries": (
        "counter",
        "build attempts retried after a transient failure or crash",
    ),
    "service.guard.backoff_seconds": (
        "counter",
        "total seconds slept in retry backoff",
    ),
    "service.guard.worker_crashes": (
        "counter",
        "worker-pool crashes detected mid-build",
    ),
    "service.guard.inline_failovers": (
        "counter",
        "cold builds failed over from the pool to inline execution",
    ),
    "service.guard.breaker_trips": (
        "counter",
        "circuit-breaker transitions into the open state",
    ),
    "service.guard.breaker_probes": (
        "counter",
        "half-open probe builds admitted to the worker tier",
    ),
    "service.guard.breaker_state": (
        "gauge",
        "breaker state index: 0=closed 1=open 2=half-open",
    ),
    "service.guard.admission_wait_seconds": (
        "counter",
        "total seconds requests queued at the admission gate",
    ),
    "service.guard.chaos_injections": (
        "counter",
        "faults injected by a chaos hook (serve-chaos only)",
    ),
    "service.latency": ("histogram", "end-to-end request latency, all tiers"),
    "service.latency.hit": ("histogram", "request latency served exact-hit"),
    "service.latency.isomorphic": (
        "histogram",
        "request latency served by relabeling",
    ),
    "service.latency.warm": (
        "histogram",
        "request latency served by warm-start repair",
    ),
    "service.latency.cold": ("histogram", "request latency served cold"),
    "service.singleflight_wait_seconds": (
        "histogram",
        "time a deduped request waited on the owning build",
    ),
    "service.build_seconds": (
        "histogram",
        "parent-side cold-build time (incl. pool round-trip)",
    ),
    "service.worker_build_seconds": (
        "histogram",
        "child-process build-span seconds shipped back with the result",
    ),
    "service.lint_seconds": (
        "histogram",
        "time spent linting responses before they leave the service",
    ),
}


def metric_help(name: str) -> Optional[Tuple[str, str]]:
    """(kind, help) for a frozen name, or None for an ad-hoc metric."""
    return METRIC_NAMES.get(name)


# ----------------------------------------------------------------------
# Prometheus text format
# ----------------------------------------------------------------------
_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")


def _prom_name(name: str) -> str:
    """Sanitize a dotted metric name for Prometheus."""
    return _NAME_RE.sub("_", name)


def _prom_float(v: float) -> str:
    """Prometheus sample value: repr round-trips floats exactly."""
    if v != v:
        return "NaN"
    if v == float("inf"):
        return "+Inf"
    if v == float("-inf"):
        return "-Inf"
    return repr(v)


def render_prom(registry: MetricsRegistry) -> str:
    """The registry in Prometheus text exposition format (byte-stable).

    Counters and gauges are one sample each; histograms emit cumulative
    ``_bucket{le="..."}`` series at the upper bounds of their occupied
    log buckets (plus ``le="0.0"`` for the zero bucket when occupied and
    the mandatory ``le="+Inf"``), then ``_sum`` and ``_count``.  Names
    are emitted in sorted order and floats via ``repr``, so equal metric
    values render byte-identically.
    """
    lines: List[str] = []

    def _header(name: str, fallback_kind: str) -> str:
        pname = _prom_name(name)
        known = METRIC_NAMES.get(name)
        kind = known[0] if known else fallback_kind
        if known:
            lines.append(f"# HELP {pname} {known[1]}")
        lines.append(f"# TYPE {pname} {kind}")
        return pname

    for name in sorted(registry.counters):
        pname = _header(name, "counter")
        lines.append(f"{pname} {registry.counters[name].value}")
    for name in sorted(registry.gauges):
        pname = _header(name, "gauge")
        lines.append(f"{pname} {_prom_float(registry.gauges[name].value)}")
    for name in sorted(registry.histograms):
        h = registry.histograms[name]
        pname = _header(name, "histogram")
        cum = 0
        if h.zero_count:
            cum += h.zero_count
            lines.append(f'{pname}_bucket{{le="0.0"}} {cum}')
        for k in sorted(h.buckets):
            cum += h.buckets[k]
            _, hi = bucket_bounds(k)
            lines.append(f'{pname}_bucket{{le="{_prom_float(hi)}"}} {cum}')
        lines.append(f'{pname}_bucket{{le="+Inf"}} {h.count}')
        lines.append(f"{pname}_sum {_prom_float(h.total)}")
        lines.append(f"{pname}_count {h.count}")
    return "\n".join(lines) + "\n"


_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r" (?P<value>[+-]?(?:[0-9.eE+-]+|Inf)|NaN)$"
)


def check_prom(text: str) -> Tuple[int, int]:
    """Validate Prometheus text exposition; returns (metrics, samples).

    Checks line grammar, that every sample's base metric name was
    declared by a preceding ``# TYPE`` line, and that histogram
    ``_count`` equals the ``+Inf`` bucket.  Raises :class:`ValueError`
    with a one-line message on the first violation.
    """
    typed: Dict[str, str] = {}
    samples = 0
    inf_buckets: Dict[str, int] = {}
    counts: Dict[str, int] = {}
    for i, line in enumerate(text.splitlines(), 1):
        if not line:
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) >= 4 and parts[1] == "TYPE":
                typed[parts[2]] = parts[3]
            elif len(parts) >= 2 and parts[1] not in ("HELP", "TYPE"):
                raise ValueError(f"line {i}: unknown comment {line!r}")
            continue
        m = _SAMPLE_RE.match(line)
        if m is None:
            raise ValueError(f"line {i}: not a valid prometheus sample: {line!r}")
        name = m.group("name")
        base = name
        for suffix in ("_bucket", "_sum", "_count"):
            if name.endswith(suffix) and name[: -len(suffix)] in typed:
                base = name[: -len(suffix)]
                break
        if base not in typed:
            raise ValueError(f"line {i}: sample {name!r} has no # TYPE header")
        if name.endswith("_bucket") and 'le="+Inf"' in (m.group("labels") or ""):
            inf_buckets[base] = int(float(m.group("value")))
        if name.endswith("_count") and typed.get(base) == "histogram":
            counts[base] = int(float(m.group("value")))
        samples += 1
    for base, n in counts.items():
        if inf_buckets.get(base) != n:
            raise ValueError(
                f"histogram {base}: _count {n} != +Inf bucket "
                f"{inf_buckets.get(base)}"
            )
    return len(typed), samples


# ----------------------------------------------------------------------
# JSON snapshot
# ----------------------------------------------------------------------
def _histogram_doc(h: Histogram) -> Dict[str, object]:
    doc: Dict[str, object] = {
        "count": h.count,
        "sum": h.total,
        "min": h.minimum if h.count else 0.0,
        "max": h.maximum if h.count else 0.0,
        "mean": h.mean,
        "p50": h.p50,
        "p90": h.p90,
        "p99": h.p99,
    }
    doc["state"] = h.state()
    return doc


def metrics_to_json(
    registry: MetricsRegistry, meta: Optional[Dict[str, object]] = None
) -> Dict[str, object]:
    """The registry as a ``repro-metrics/1`` document.

    Counters and gauges are plain values; histograms carry both the
    derived summary (count/sum/min/max/mean/p50/p90/p99) and their exact
    ``state`` so documents from different processes can be merged
    losslessly with :func:`merge_state`.  Key order is sorted throughout
    — ``json.dumps(doc, sort_keys=True)`` of two equal registries is
    byte-identical.
    """
    doc: Dict[str, object] = {
        "schema": METRICS_SCHEMA,
        "counters": {
            name: registry.counters[name].value
            for name in sorted(registry.counters)
        },
        "gauges": {
            name: registry.gauges[name].value
            for name in sorted(registry.gauges)
        },
        "histograms": {
            name: _histogram_doc(registry.histograms[name])
            for name in sorted(registry.histograms)
        },
    }
    if meta:
        doc["meta"] = {k: meta[k] for k in sorted(meta)}
    return doc


def validate_metrics_json(doc: object) -> Tuple[int, int]:
    """Validate a ``repro-metrics/1`` document; returns (metrics, obs).

    Raises :class:`ValueError` on schema violations: wrong schema tag,
    missing sections, non-numeric values, or a histogram whose exact
    state disagrees with its summary count.
    """
    if not isinstance(doc, dict):
        raise ValueError("metrics document is not a JSON object")
    schema = doc.get("schema")
    if schema != METRICS_SCHEMA:
        raise ValueError(f"unknown metrics schema {schema!r}")
    metrics = 0
    observations = 0
    for section in ("counters", "gauges", "histograms"):
        block = doc.get(section)
        if not isinstance(block, dict):
            raise ValueError(f"missing or malformed {section!r} section")
        for name, value in block.items():
            metrics += 1
            if section == "histograms":
                if not isinstance(value, dict) or "state" not in value:
                    raise ValueError(f"histogram {name!r}: missing state")
                h = Histogram.from_state(value["state"])
                if h.count != value.get("count"):
                    raise ValueError(
                        f"histogram {name!r}: state count {h.count} != "
                        f"summary count {value.get('count')}"
                    )
                observations += h.count
            elif not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ValueError(f"{section[:-1]} {name!r}: non-numeric value")
            else:
                observations += int(section == "counters" and value)
    return metrics, observations


# ----------------------------------------------------------------------
# Cross-process state (worker-pool deltas)
# ----------------------------------------------------------------------
def registry_state(registry: MetricsRegistry) -> Dict[str, object]:
    """Exact, picklable/JSON-able state of a whole registry."""
    return {
        "counters": {
            name: registry.counters[name].value
            for name in sorted(registry.counters)
        },
        "gauges": {
            name: registry.gauges[name].value
            for name in sorted(registry.gauges)
        },
        "histograms": {
            name: registry.histograms[name].state()
            for name in sorted(registry.histograms)
        },
    }


def merge_state(registry: MetricsRegistry, state: Dict[str, object]) -> None:
    """Fold a :func:`registry_state` delta into ``registry`` in place.

    Deterministic: names are merged in sorted order; counters add,
    gauges last-write (the delta wins — it is the more recent process),
    histograms merge exactly.  Merging the same deltas in any order
    yields identical registry state (histogram sums are exact
    fractions), so a parent draining worker results out of completion
    order still serializes byte-identically.
    """
    for name in sorted(state.get("counters", {})):  # type: ignore[arg-type]
        registry.counter(name).inc(int(state["counters"][name]))  # type: ignore[index]
    for name in sorted(state.get("gauges", {})):  # type: ignore[arg-type]
        registry.gauge(name).set(float(state["gauges"][name]))  # type: ignore[index]
    for name in sorted(state.get("histograms", {})):  # type: ignore[arg-type]
        delta = Histogram.from_state(state["histograms"][name])  # type: ignore[index]
        registry.histogram(name).merge(delta)
