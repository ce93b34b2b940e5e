"""Aggregated results of one simulation run.

:class:`RunResult` is the single ledger of run-level outcomes: each
counter is declared once, as a field, together with the rule that folds
one shard's value into another's. :meth:`RunResult.merge` and
:meth:`RunResult.to_dict` are derived from those declarations.
"""

from __future__ import annotations

import copy
import operator
from dataclasses import dataclass, field, fields
from typing import Dict, List, Optional

from repro.sim.metrics import Histogram, MetricRegistry

#: Field-metadata key of a field's merge rule: ``rule(ours, theirs)``
#: returns the merged value. Every field declares one; ``None`` marks
#: the scenario name, which :meth:`RunResult.merge` checks instead.
MERGE = "merge"
#: Field-metadata key; ``False`` keeps a field out of ``to_dict()``.
RECORD = "record"


def merge_keywise(ours: dict, theirs: dict) -> dict:
    """Sum *theirs* into *ours* key by key (nested maps recurse)."""
    for key, value in theirs.items():
        if isinstance(value, dict):
            merge_keywise(ours.setdefault(key, {}), value)
        else:
            ours[key] = ours.get(key, 0) + value
    return ours


def merge_histograms(
    ours: Dict[str, Histogram], theirs: Dict[str, Histogram]
) -> Dict[str, Histogram]:
    """Fold *theirs* into *ours* histogram by histogram (copying)."""
    for key, hist in theirs.items():
        mine = ours.get(key)
        if mine is None:
            mine = ours[key] = Histogram(hist.name)
        mine.merge(hist)
    return ours


def _optional(rule):
    """Lift *rule* to values that are ``None`` when absent."""

    def merged(ours, theirs):
        if theirs is None:
            return ours
        return rule(type(theirs)() if ours is None else ours, theirs)

    return merged


def _field(rule, record=True, **kwargs):
    """A dataclass field carrying its merge rule and ``to_dict`` flag."""
    return field(metadata={MERGE: rule, RECORD: record}, **kwargs)


def counter(rule=operator.add, default=0, record=True):
    """A scalar ledger field; shards sum unless *rule* says otherwise
    (``max`` for extrema: each shard saw only its own)."""
    return _field(rule, record, default=default)


def tally():
    """A per-key count map; shards sum key by key."""
    return _field(merge_keywise, default_factory=dict)


def _share(part, whole) -> float:
    return part / whole if whole else 0.0


@dataclass
class RunResult:
    """Everything measured during one trace replay."""

    #: Checked by :meth:`merge` and kept out of ``to_dict()``.
    scenario_name: str = _field(None, False)
    #: Telemetry no ledger field holds (per-tier counters, latency
    #: sketches, time series).
    metrics: MetricRegistry = _field(
        MetricRegistry.merge, False, default_factory=MetricRegistry
    )
    #: Page load times, overall and per connection profile.
    plt: Histogram = _field(
        Histogram.merge, False, default_factory=lambda: Histogram("plt")
    )
    plt_by_connection: Dict[str, Histogram] = _field(
        merge_histograms, False, default_factory=dict
    )
    #: Request counts by serving layer ("origin", "edge-1",
    #: "browser:<node>"→"browser", "sw:<node>"→"sw").
    served_by_layer: Dict[str, int] = tally()
    #: Request counts by (layer, resource kind).
    served_by_kind: Dict[str, Dict[str, int]] = tally()
    #: Degraded servings (stale-if-error, offline mode) per layer — a
    #: subset of ``served_by_layer``. Kept separate so hit ratios can
    #: exclude availability fallbacks from the fresh-hit numerator.
    served_degraded_by_layer: Dict[str, int] = tally()
    #: Coherence outcome.
    reads_checked: int = counter()
    stale_reads: int = counter()
    delta_violations: int = counter()
    max_staleness: float = counter(max, 0.0)
    #: Worst staleness among users NOT covered by the Δ guarantee
    #: (non-consenting users running the plain browser stack).
    uncovered_max_staleness: float = counter(max, 0.0)
    #: Sketch accounting (Speed Kit only).
    sketch_fetches: int = counter()
    sketch_bytes: int = counter()
    #: Scrubbing accounting (Speed Kit only).
    requests_scrubbed: int = counter()
    #: Origin load.
    origin_requests: int = counter()
    #: Sessions (home-page entries), for per-session statistics.
    page_views: int = counter()
    #: Requests answered with a 5xx (origin outages).
    failed_responses: int = counter()
    #: Egress bandwidth: bytes the origin served vs. bytes edges served.
    origin_egress_bytes: int = counter()
    edge_egress_bytes: int = counter()
    #: Personalization correctness: page/query responses to logged-in
    #: users that carried the right personalization (their segment, or
    #: a full identity-personalized render) vs. anonymous fallbacks.
    #: Archived only as :meth:`personalization_rate`.
    personalization_checks: int = counter(record=False)
    personalization_misses: int = counter(record=False)
    #: GDPR accounting: data-subject requests served and the erasure
    #: outcome. ``erasure_residuals`` is the compliance gate — any
    #: nonzero value means user bytes survived an erase somewhere.
    erasures: int = counter()
    accesses: int = counter()
    erasure_removed: int = counter()
    erasure_residuals: int = counter()
    erasure_replicas_dropped: int = counter()
    erasure_queued_scrubbed: int = counter()
    #: Exported span records rewritten by the erasure scrubbing pass.
    spans_scrubbed: int = counter()
    #: Multi-key transaction accounting. ``txn_fractured_reads``,
    #: ``txn_serialization_violations``, and ``txn_silent_downgrades``
    #: are the ladder's compliance gates — all must be zero.
    txns: int = counter()
    txn_aborts: int = counter()
    txn_validation_retries: int = counter()
    txn_refetches: int = counter()
    txn_degraded: int = counter()
    txn_erase_conflicts: int = counter()
    txn_fractured_reads: int = counter()
    txn_serialization_violations: int = counter()
    txn_silent_downgrades: int = counter()
    txn_buffers_scrubbed: int = counter()
    #: Overload-plane accounting (zero unless an
    #: ``overload_profile`` governed the run). ``offered_requests``
    #: counts every arrival at a governor, ``admitted_requests`` those
    #: that got a slot (queued or not), ``shed_requests`` the
    #: governor-side refusals, ``shed_responses`` the synthesized
    #: ``X-Load-Shed`` answers that reached clients — the property
    #: suite pins the two shed counts equal.
    offered_requests: int = counter()
    admitted_requests: int = counter()
    queued_requests: int = counter()
    shed_requests: int = counter()
    shed_responses: int = counter()
    #: Shed counts by priority class label ("personalized", "static");
    #: "control" must never appear.
    shed_by_class: Dict[str, int] = tally()
    #: Page views whose every response was fresh, unmarked, and whose
    #: PLT met the profile's SLO — the goodput numerator. Counted only
    #: when an overload profile is active (otherwise 0).
    goodput_pages: int = counter()
    #: Deepest any governed queue got.
    queue_depth_peak: int = counter(max)
    #: Autoscaler decisions and control-lane tickets.
    scale_ups: int = counter()
    scale_downs: int = counter()
    control_events: int = counter()
    #: Per-tier latency attribution (tier -> total critical-path
    #: seconds across all traced page views); ``None`` unless the run
    #: recorded traces.
    tier_breakdown: Optional[Dict[str, float]] = _field(
        _optional(merge_keywise), False, default=None
    )
    #: Exported span records of the whole run (``None`` unless the run
    #: recorded traces); the JSONL exporter serializes exactly these.
    trace_records: Optional[List[dict]] = _field(
        _optional(operator.iadd), False, default=None, repr=False
    )
    #: Throughput accounting: trace events replayed and kernel events
    #: (event-queue pops) executed — the numerator of events/second.
    events_processed: int = counter()
    kernel_events: int = counter()
    #: How many sim-kernel shards produced this result (1 = serial).
    n_shards: int = counter(default=1)
    #: Wall-clock seconds spent producing this result. Serial runs
    #: stamp the replay duration; the sharded orchestrator re-stamps
    #: the merged result with end-to-end elapsed time so
    #: :meth:`events_per_second` reports real aggregate throughput.
    #: Excluded from :meth:`to_dict` (host-dependent) and equality.
    wall_seconds: float = _field(operator.add, False, default=0.0, compare=False)

    # -- derived ----------------------------------------------------------

    def _served(self) -> int:
        return sum(self.served_by_layer.values())

    def cache_hit_ratio(self) -> float:
        """Fraction of requests answered *fresh* without touching the
        origin.

        Degraded servings (stale-if-error, offline mode) did avoid the
        origin, but only by serving a copy known to be past its
        freshness promise — counting them as hits would let an outage
        inflate the hit ratio. They count in the denominator only (see
        :meth:`degraded_serve_ratio`).
        """
        total = self._served()
        cached = (
            total
            - self.served_by_layer.get("origin", 0)
            - sum(self.served_degraded_by_layer.values())
        )
        return _share(cached, total)

    def degraded_serve_ratio(self) -> float:
        """Fraction of requests answered by degraded fallbacks."""
        degraded = sum(self.served_degraded_by_layer.values())
        return _share(degraded, self._served())

    def layer_share(self, layer: str) -> float:
        return _share(self.served_by_layer.get(layer, 0), self._served())

    def hit_ratio_for_kind(self, kind: str) -> float:
        """Cache hit ratio restricted to one resource kind."""
        total = sum(kinds.get(kind, 0) for kinds in self.served_by_kind.values())
        origin = self.served_by_kind.get("origin", {}).get(kind, 0)
        return _share(total - origin, total)

    def stale_read_fraction(self) -> float:
        return _share(self.stale_reads, self.reads_checked)

    def error_rate(self) -> float:
        """Fraction of responses that were 5xx failures."""
        failed = self.failed_responses
        return _share(failed, self._served() + failed)

    def availability(self) -> float:
        """Fraction of responses served successfully (1 − error rate).

        Degraded servings (stale-if-error, offline mode) count as
        successes — that trade is exactly the availability story the
        fault experiments measure.
        """
        return 1.0 - self.error_rate()

    def personalization_rate(self) -> float:
        """Fraction of logged-in page views personalized correctly."""
        checks = self.personalization_checks
        return 1.0 - _share(self.personalization_misses, checks)

    def goodput_ratio(self) -> float:
        """Fraction of page views that were *good*: every response
        fresh and unmarked (no shed, no stale-if-error, no offline
        fallback, no 5xx) and the PLT within the profile's SLO."""
        return _share(self.goodput_pages, self.page_views)

    def shed_ratio(self) -> float:
        """Fraction of offered requests the governors refused."""
        return _share(self.shed_requests, self.offered_requests)

    def events_per_second(self) -> float:
        """Kernel events executed per wall-clock second (0 if untimed)."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.kernel_events / self.wall_seconds

    def merge(self, other: "RunResult") -> "RunResult":
        """Fold one shard's result into self (the exact-merge path).

        Every field but the scenario name folds by the rule declared
        on it: sums, maxima, key-wise sums, concatenation, and the
        exact registry and histogram merges (raw values concatenate,
        quantile sketches bucket-merge).
        """
        if other.scenario_name != self.scenario_name:
            raise ValueError(
                f"cannot merge run of {other.scenario_name!r} into "
                f"{self.scenario_name!r}"
            )
        for f in fields(self):
            rule = f.metadata[MERGE]
            if rule is not None:
                merged = rule(getattr(self, f.name), getattr(other, f.name))
                setattr(self, f.name, merged)
        return self

    def to_dict(self) -> Dict[str, object]:
        """A JSON-serializable record of the run (for result archives)."""
        record: Dict[str, object] = {"scenario": self.scenario_name}
        for f in fields(self):
            if f.metadata.get(RECORD, True):
                record[f.name] = copy.deepcopy(getattr(self, f.name))
        record.update(
            cache_hit_ratio=self.cache_hit_ratio(),
            degraded_serve_ratio=self.degraded_serve_ratio(),
            stale_read_fraction=self.stale_read_fraction(),
            error_rate=self.error_rate(),
            availability=self.availability(),
            personalization_rate=self.personalization_rate(),
            goodput_ratio=self.goodput_ratio(),
            shed_ratio=self.shed_ratio(),
        )
        if len(self.plt):
            record["plt"] = {
                "p50": self.plt.percentile(50),
                "p95": self.plt.percentile(95),
                "p99": self.plt.percentile(99),
                "mean": self.plt.mean(),
                "count": self.plt.count,
            }
        if self.tier_breakdown is not None:
            record["tier_breakdown"] = dict(self.tier_breakdown)
        return record

    def summary_row(self) -> Dict[str, object]:
        """The standard comparison row printed by benchmarks."""
        row: Dict[str, object] = {"scenario": self.scenario_name}
        if len(self.plt):
            row.update(
                {
                    "plt_p50_ms": round(self.plt.percentile(50) * 1000, 1),
                    "plt_p95_ms": round(self.plt.percentile(95) * 1000, 1),
                    "plt_mean_ms": round(self.plt.mean() * 1000, 1),
                }
            )
        row.update(
            {
                "hit_ratio": round(self.cache_hit_ratio(), 3),
                "origin_reqs": self.origin_requests,
                "stale_frac": round(self.stale_read_fraction(), 4),
                "violations": self.delta_violations,
            }
        )
        return row
