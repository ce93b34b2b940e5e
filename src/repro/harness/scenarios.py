"""Scenario definitions: what client/server stack handles the traffic."""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Optional

from repro.storage import BackendSpec

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycle
    from repro.faults import FaultProfile, RetryPolicy
    from repro.overload import OverloadProfile


class Scenario(enum.Enum):
    """The client/server configurations under comparison."""

    NO_CACHE = "no-cache"
    BROWSER_ONLY = "browser-only"
    CLASSIC_CDN = "classic-cdn"
    SPEED_KIT = "speed-kit"
    #: Ablation: Speed Kit without segment rewriting — personalized
    #: pages carry identity and become uncacheable, like the baseline.
    SPEED_KIT_NO_SEGMENTS = "speed-kit-no-segments"
    #: Ablation: purges only, no Cache Sketch — client caches rely on
    #: TTL expiry alone (staleness up to the TTL).
    SPEED_KIT_PURGE_ONLY = "speed-kit-purge-only"
    #: Ablation: sketch only, no CDN purges — edges serve stale until
    #: expiry; clients still revalidate via the sketch.
    SPEED_KIT_SKETCH_ONLY = "speed-kit-sketch-only"

    @property
    def uses_speed_kit(self) -> bool:
        return self.value.startswith("speed-kit")

    @property
    def uses_cdn(self) -> bool:
        return self is not Scenario.NO_CACHE and (
            self is not Scenario.BROWSER_ONLY
        )


@dataclass
class ScenarioSpec:
    """A scenario plus its tunable parameters."""

    scenario: Scenario
    #: Sketch refresh interval (Speed Kit variants only).
    delta: float = 60.0
    #: Page TTL for the classic CDN / the static parts of Speed Kit.
    page_ttl: float = 300.0
    #: Use the adaptive (Quaestor-style) TTL estimator instead of
    #: static TTLs (Speed Kit variants only).
    adaptive_ttl: bool = False
    #: Invalidation pipeline latencies (Speed Kit variants only).
    detection_latency: float = 0.025
    purge_latency: float = 0.080
    #: CDN PoPs.
    pop_names: tuple = ("edge-1",)
    #: Regional deployment: split users round-robin into this many
    #: regions, each with its own PoP (overrides ``pop_names``).
    n_regions: Optional[int] = None
    #: Root seed for all simulation randomness.
    seed: int = 0
    #: Inject one origin outage window (start, end) in simulated
    #: seconds — the offline-resilience experiment.
    outage: Optional[tuple] = None
    #: Serve revalidation-flagged entries stale-while-revalidate
    #: (Speed Kit variants only).
    stale_while_revalidate: bool = False
    #: Predictive prefetching of likely-next pages (Speed Kit variants
    #: only): a site-wide navigation model drives background fetches.
    prefetch: bool = False
    #: Personalization granularity (Speed Kit variants only):
    #: ``None`` keeps the default tier×locale scheme; otherwise the
    #: runner builds a scheme with (approximately) this many segments
    #: (1 = everyone shares one variant, larger = finer slices).
    n_segments: Optional[int] = None
    #: Storage engine for every cache tier and the origin store
    #: (``None`` keeps the classic in-memory engine everywhere).
    backend: Optional[BackendSpec] = None
    #: Multiplex each page-load wave slot as one multi-asset lookup
    #: (fetcher ``fetch_many``) instead of independent connections.
    batch_waves: bool = False
    #: Asynchronously replicate admitted entries between PoPs (needs a
    #: multi-PoP deployment to do anything). The Δ bound widens by
    #: ``replication_delay`` — the in-flight replica window.
    replicate_pops: bool = False
    #: PoP-to-PoP propagation delay in simulated seconds.
    replication_delay: float = 0.05
    #: Fault regime for the run (see :mod:`repro.faults`): origin
    #: outages/brownouts, PoP failures, link loss/latency spikes,
    #: storage read errors. ``None`` keeps the perfect world. Composes
    #: with the single-window ``outage`` knob.
    fault_profile: Optional["FaultProfile"] = None
    #: Grace window (seconds) for bounded stale-if-error serving at the
    #: edge and in the service worker; widens the checked Δ bound by
    #: exactly this amount. ``None`` disables it.
    stale_if_error: Optional[float] = None
    #: Retry-with-backoff policy for origin exchanges; ``None`` keeps
    #: the historical single-attempt fail-fast behaviour.
    retry: Optional["RetryPolicy"] = None
    #: Consistency level multi-key read transactions are executed at:
    #: ``"delta"`` (per-key Δ-atomicity only), ``"snapshot"`` (version
    #: cut certification with origin re-fetch of violators), or
    #: ``"serializable"`` (adds an optimistic validation round trip).
    #: Stored as the string form to avoid an import cycle; parsed by
    #: the runner via :meth:`repro.txn.ConsistencyLevel.parse`.
    consistency: str = "delta"
    #: Serializable validation retries before an explicit, marked
    #: degradation to snapshot.
    txn_retry_limit: int = 3
    #: Time-compression factor carried by a rate-scaled replay
    #: (``--replay-rate R`` sets this to ``1/R`` after dividing every
    #: trace timestamp by ``R``). The runner folds it into the
    #: wall-time-gap knobs via :meth:`time_scaled` so the compressed
    #: replay reproduces the original cache dynamics.
    time_scale: float = 1.0
    #: Capacity model for the overload control plane (see
    #: :mod:`repro.overload`): per-PoP and origin concurrency slots,
    #: service times, and queue bounds. ``None`` leaves every node
    #: ungoverned — draw-for-draw the historical transport.
    overload_profile: Optional["OverloadProfile"] = None
    #: Offered-load amplification: replay the trace with this many
    #: copies of every read event (fractional part hash-sampled), the
    #: flash-crowd dial for the E25 overload experiment. Writes,
    #: erasure, and access requests are never amplified.
    load_multiplier: float = 1.0
    #: Turn on priority admission control: bounded queues shed
    #: personalized traffic first, then statics, never control-lane
    #: work. Off = unbounded FIFO (the uncontrolled baseline).
    admission: bool = False
    #: Close the loop: scale PoP capacity from the metrics stream with
    #: hysteresis (needs ``overload_profile`` with governed PoPs).
    autoscale: bool = False
    #: Record request-path spans (see :mod:`repro.obs`): every page
    #: view, worker decision, transport hop, edge lookup, and origin
    #: exchange gets a span with sim-clock timings and cache verdicts.
    #: Off by default — the no-op tracer keeps the hot path free.
    trace_requests: bool = False
    label: Optional[str] = None

    def __post_init__(self) -> None:
        if self.outage is None:
            return
        try:
            start, end = self.outage
            valid = 0 <= start < end
        except (TypeError, ValueError):
            valid = False
        if not valid:
            raise ValueError(
                "ScenarioSpec.outage must be a (start, end) pair with "
                f"0 <= start < end: {self.outage!r}"
            )

    @property
    def name(self) -> str:
        return self.label or self.scenario.value

    def time_scaled(self) -> "ScenarioSpec":
        """Fold ``time_scale`` into the wall-time-gap knobs.

        A trace compressed by rate ``R`` (timestamps divided by ``R``)
        only reproduces the recorded cache dynamics if everything
        measured *against* wall-time gaps compresses identically: the
        Δ/sketch-refresh interval, page TTLs, the invalidation
        pipeline's detection/purge latencies, the stale-if-error grace
        window, and any configured outage window. Infrastructure
        latencies — network transit, PoP replication delay, write-
        behind flush cadence, retry budgets — model how fast the
        *system* is, not how fast the recorded timeline plays, so they
        stay unscaled (the checker's in-flight slack covers them).
        Overload-plane knobs (capacities, service times, the SLO, the
        autoscaler interval) are infrastructure too and stay unscaled.
        """
        ts = self.time_scale
        if ts == 1.0:
            return self
        if ts <= 0:
            raise ValueError(f"time_scale must be positive: {ts}")
        return replace(
            self,
            delta=self.delta * ts,
            page_ttl=self.page_ttl * ts,
            detection_latency=self.detection_latency * ts,
            purge_latency=self.purge_latency * ts,
            stale_if_error=(
                None
                if self.stale_if_error is None
                else self.stale_if_error * ts
            ),
            outage=(
                None
                if self.outage is None
                else tuple(instant * ts for instant in self.outage)
            ),
            time_scale=1.0,
        )
