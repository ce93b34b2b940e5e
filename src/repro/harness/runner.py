"""Replays one workload trace against one scenario."""

from __future__ import annotations

from typing import Dict, Generator, Optional

from repro.baselines.clients import CookieJarFetcher, NoCacheClient
from repro.browser.client import BrowserClient, TransportMode
from repro.browser.page import PageLoadEngine
from repro.browser.transport import Transport
from repro.cdn.network import Cdn
from repro.coherence.checker import DeltaAtomicityChecker
from repro.coherence.client import SketchClient
from repro.http.messages import Method, Request, Status, degraded_mark
from repro.http.url import URL
from repro.invalidation.pipeline import InvalidationPipeline
from repro.obs import MetricsRegistry, NOOP_TRACER, RecordingTracer
from repro.origin.server import OriginServer
from repro.origin.site import ResourceKind
from repro.sim.environment import Environment
from repro.sim.rng import RngStreams
from repro.simnet.profiles import build_web_topology
from repro.sketch.cache_sketch import ServerCacheSketch
from repro.speedkit.config import SpeedKitConfig
from repro.speedkit.gdpr import ConsentManager, PiiVault
from repro.speedkit.segments import SegmentResolver, SegmentScheme
from repro.speedkit.worker import ServiceWorkerProxy
from repro.origin.server import StaticTtlPolicy
from repro.ttl.policy import AdaptiveTtlPolicy
from repro.harness.results import RunResult
from repro.harness.scenarios import Scenario, ScenarioSpec
from repro.storage import BackendSpec
from repro.workload.catalog import Catalog
from repro.workload.pages import PageBuilder
from repro.workload.sitebuilder import build_ecommerce_site
from repro.txn import (
    ConsistencyLevel,
    TxnConfig,
    TxnCoordinator,
    TxnRegistry,
)
from repro.coherence.txn import TxnConsistencyChecker
from repro.workload.trace import (
    AccessUser,
    CartAdd,
    EraseUser,
    PageView,
    ProductUpdate,
    TxnRead,
    WorkloadTrace,
)
from repro.workload.users import User, UserPopulation

#: Checker slack for in-flight delivery: a response can be one network
#: transit old by the time the client records the read (an edge may
#: serve a copy that a concurrent write supersedes while the bytes are
#: on the wire). One second generously covers the slowest modeled link.
_SLACK = 1.0


class SimulationRunner:
    """Builds the full stack for a scenario and replays a trace."""

    def __init__(
        self,
        spec: ScenarioSpec,
        catalog: Catalog,
        users: UserPopulation,
        trace: WorkloadTrace,
        site_factory=None,
        page_builder=None,
    ) -> None:
        """``site_factory(catalog) -> Site`` and ``page_builder`` (an
        object with ``for_view(page_kind, target) -> PageSpec``) default
        to the e-commerce shop; pass alternatives to replay the same
        trace format against a different site (e.g. the media site in
        :mod:`repro.workload.mediasite`)."""
        # Rate-scaled replay: fold the spec's time-compression factor
        # into its wall-time-gap knobs (Δ, TTLs, purge pipeline, …) so
        # the Δ-bound accounting matches the compressed trace; see
        # ScenarioSpec.time_scaled for what scales and what does not.
        self.spec = spec.time_scaled()
        self.catalog = catalog
        self.users = users
        # Flash-crowd amplification: clone read events per the load
        # multiplier. Clones are keyed on event identity (not a running
        # counter), so amplifying a per-user shard partition equals
        # partitioning the amplified trace — sharded replay stays exact.
        if self.spec.load_multiplier != 1.0:
            from repro.workload.ingest import amplify_trace

            trace = amplify_trace(trace, self.spec.load_multiplier)
        self.trace = trace
        self.site_factory = site_factory or build_ecommerce_site
        self.pages = page_builder or PageBuilder()

    # -- assembly ---------------------------------------------------------

    def _ttl_policy(self):
        overrides = {
            ResourceKind.PAGE: self.spec.page_ttl,
            ResourceKind.QUERY: self.spec.page_ttl,
            ResourceKind.API: self.spec.page_ttl,
        }
        if self.spec.adaptive_ttl and self.spec.scenario.uses_speed_kit:
            return AdaptiveTtlPolicy()
        return StaticTtlPolicy(overrides=overrides)

    def _async_propagation_slack(self) -> float:
        """Extra staleness budget opened by asynchronous propagation.

        Two knobs defer remotely-visible effects past their
        acknowledgement, and each widens the Δ bound by its worst-case
        lag:

        * a **write-behind** storage engine acknowledges a purge's
          removal before the background flusher applies it to the
          wrapped store (local readers are covered by the overlay, but
          the remote copy lives up to ``flush_interval`` longer);
        * **async PoP replication** can have a just-superseded replica
          in flight when the purge lands; the purge cancels replicas
          sent before it, but a copy admitted during the in-flight
          origin-fetch window may replicate afterwards and serve for up
          to one ``replication_delay`` longer than its source.
        """
        slack = 0.0
        backend = self.spec.backend
        if backend is not None and backend.kind == "write-behind":
            slack += backend.flush_interval
        if self.spec.replicate_pops:
            slack += self.spec.replication_delay
        return slack

    def _stale_if_error_grace(self) -> float:
        """Extra staleness budget opened by bounded stale-if-error.

        A degraded serving re-issues a copy *verified current* within
        the grace window, so its version staleness exceeds the normal
        bound by at most that window. (Unbounded offline-mode servings
        are excluded from checking instead.)
        """
        return self.spec.stale_if_error or 0.0

    def _overload_queue_slack(self) -> float:
        """Extra staleness budget opened by governed queueing.

        Delivery delay is staleness to the checker: a response that
        sat in a governor queue is recorded at its delayed arrival.
        With admission control on, bounded queues bound that delay
        (:meth:`OverloadProfile.queue_delay_bound`); with admission
        off the FIFO is unbounded, so — exactly like the
        expiration-based stacks below — the checker records staleness
        without judging violations.
        """
        profile = self.spec.overload_profile
        if profile is None:
            return 0.0
        if not self.spec.admission:
            return float("inf")
        return profile.queue_delay_bound()

    def _checker_delta(self) -> float:
        scenario = self.spec.scenario
        if scenario in (
            Scenario.SPEED_KIT,
            Scenario.SPEED_KIT_NO_SEGMENTS,
        ):
            bound = self.spec.delta + self.spec.purge_latency + _SLACK
            if self.spec.stale_while_revalidate:
                # SWR's bound is the verification-age budget (plus the
                # purge window, during which a 304 restamp may verify
                # against a not-yet-purged edge copy).
                bound = max(
                    bound,
                    2 * self.spec.delta
                    + self.spec.purge_latency
                    + _SLACK,
                )
            return (
                bound
                + self._async_propagation_slack()
                + self._stale_if_error_grace()
                + self._overload_queue_slack()
            )
        if scenario is Scenario.SPEED_KIT_SKETCH_ONLY:
            # Without purges, edges serve (and 304-confirm) stale copies
            # until shared expiry: the bound degrades by the TTL.
            return (
                self.spec.delta
                + self.spec.page_ttl
                + _SLACK
                + self._async_propagation_slack()
                + self._stale_if_error_grace()
                + self._overload_queue_slack()
            )
        # Expiration-based stacks are bounded by TTL accumulation only;
        # the checker records staleness without judging violations.
        return float("inf")

    def _cache_backend_spec(self) -> Optional[BackendSpec]:
        """The storage spec every *cache* tier builds engines from.

        A fault profile with storage read errors wraps the scenario's
        spec (or the default in-memory engine) in the flaky wrapper, so
        edges, browser caches, and service workers all fail reads at
        the profile's rate — each with its own salted failure stream.
        The origin document store stays unwrapped: it is the source of
        truth, and origin failure is modeled by outages/brownouts.
        """
        profile = self.spec.fault_profile
        if profile is None or profile.storage_error_rate <= 0:
            return self.spec.backend
        from repro.faults import FaultyBackendSpec

        return FaultyBackendSpec.wrapping(
            self.spec.backend or BackendSpec(),
            error_rate=profile.storage_error_rate,
            fault_seed=self.spec.seed,
        )

    def _build_faults(self):
        """The run's fault injector (or ``None`` in the perfect world).

        A configured fault profile builds a seeded
        :class:`~repro.faults.injector.FaultInjector`; the single-window
        ``outage`` knob adds one origin window to it (to an injector of
        the inactive ``FaultProfile()`` when no profile is set).
        """
        spec = self.spec
        profile = spec.fault_profile
        if spec.outage is None and (profile is None or not profile.is_active):
            return None
        if profile is None:
            from repro.faults import FaultProfile

            profile = FaultProfile()
        injector = profile.build(
            duration=self.trace.duration,
            pop_names=self._pop_names if spec.scenario.uses_cdn else (),
            seed=spec.seed,
        )
        if spec.outage is not None:
            injector.add_outage("origin", *spec.outage)
        return injector

    def _build(self) -> None:
        spec = self.spec
        self.env = Environment()
        self.streams = RngStreams(spec.seed)
        self.metrics = MetricsRegistry()
        # Tracing is opt-in: the no-op tracer hands every caller the
        # shared null span, so the request path pays one attribute
        # lookup per hop when disabled.
        self.tracer = (
            RecordingTracer() if spec.trace_requests else NOOP_TRACER
        )

        seen = self.trace.users_seen()
        profiles = {
            user_id: self.users.by_id(user_id).connection
            for user_id in seen
        }
        client_regions = edge_regions = None
        pop_names = list(spec.pop_names)
        if spec.n_regions is not None:
            if spec.n_regions <= 0:
                raise ValueError(
                    f"n_regions must be positive: {spec.n_regions}"
                )
            pop_names = [f"edge-r{i}" for i in range(spec.n_regions)]
            edge_regions = {
                name: f"region-{i}" for i, name in enumerate(pop_names)
            }
            client_regions = {
                user_id: f"region-{index % spec.n_regions}"
                for index, user_id in enumerate(sorted(seen))
            }
        self._pop_names = pop_names
        self.topology = build_web_topology(
            clients=seen,
            profiles=profiles,
            edges=pop_names,
            client_regions=client_regions,
            edge_regions=edge_regions,
        )

        self._cache_spec = self._cache_backend_spec()
        site = self._build_site()
        self.server = OriginServer(site, ttl_policy=self._ttl_policy())
        self.cdn: Optional[Cdn] = None
        self.sketch: Optional[ServerCacheSketch] = None
        scenario = spec.scenario
        if scenario.uses_cdn:
            self.cdn = Cdn(
                self._pop_names,
                metrics=self.metrics,
                backend_spec=self._cache_spec,
            )
            if spec.replicate_pops and len(self._pop_names) > 1:
                from repro.cdn.replication import PopReplicator

                PopReplicator(
                    self.env,
                    self.cdn,
                    delay=spec.replication_delay,
                    metrics=self.metrics,
                    tracer=self.tracer,
                )
        # The overload control plane: governors in front of the origin
        # and every PoP, the never-shed control lane, and (opted in)
        # the closed autoscaling loop reading the metrics stream.
        self._overload = None
        self._autoscaler = None
        self._overload_slo: Optional[float] = None
        if spec.overload_profile is not None:
            from repro.overload import ControlPlane, PopAutoscaler

            self._overload = ControlPlane(
                self.env,
                spec.overload_profile,
                pop_names=self._pop_names if scenario.uses_cdn else (),
                admission=spec.admission,
                metrics=self.metrics,
                tracer=self.tracer,
            )
            self._overload_slo = spec.overload_profile.slo
            if spec.autoscale:
                self._autoscaler = PopAutoscaler(
                    self.env,
                    self._overload,
                    self.metrics,
                    rng=self.streams.stream("autoscale"),
                    horizon=self.trace.duration,
                    tracer=self.tracer,
                )
        if scenario.uses_speed_kit:
            use_sketch = scenario is not Scenario.SPEED_KIT_PURGE_ONLY
            use_purge = scenario is not Scenario.SPEED_KIT_SKETCH_ONLY
            self.sketch = ServerCacheSketch(capacity=20_000)
            self.pipeline = InvalidationPipeline(
                self.env,
                self.server,
                cdn=self.cdn if use_purge else None,
                sketch=self.sketch if use_sketch else None,
                detection_latency=spec.detection_latency,
                purge_latency=spec.purge_latency,
                metrics=self.metrics,
                tracer=self.tracer,
                overload=self._overload,
            )
        faults = self._build_faults()
        self._faults = faults
        breaker = None
        if (
            scenario.uses_cdn
            and spec.fault_profile is not None
            and spec.fault_profile.is_active
        ):
            from repro.faults import CircuitBreaker

            breaker = CircuitBreaker(metrics=self.metrics)
        self.breaker = breaker
        self.transport = Transport(
            self.env,
            self.topology,
            self.server,
            self.streams.stream("network"),
            faults=faults,
            metrics=self.metrics,
            retry=spec.retry,
            breaker=breaker,
            stale_if_error=spec.stale_if_error,
            tracer=self.tracer,
            overload=self._overload,
        )
        self.checker = DeltaAtomicityChecker(
            self.server, delta=self._checker_delta(), metrics=self.metrics
        )
        # Non-consenting users on a Speed Kit site run the plain
        # browser stack: their staleness is bounded by TTLs, not Δ.
        # Their reads are recorded separately so violations are only
        # counted where the protocol actually promises the bound.
        self.baseline_checker = DeltaAtomicityChecker(
            self.server, delta=float("inf")
        )
        # Multi-key transaction machinery: the level every TxnRead
        # event runs at, the ground-truth ladder checker, and the
        # registry that makes in-flight buffers visible to erasure.
        self._txn_level = ConsistencyLevel.parse(spec.consistency)
        self.txn_checker = TxnConsistencyChecker(
            self.server, metrics=self.metrics
        )
        self.txn_registry = TxnRegistry()
        self._txn_coordinators: Dict[str, TxnCoordinator] = {}
        self._stacks: Dict[str, object] = {}
        # The erasure/access coordinator sees the whole assembled
        # stack; client caches are resolved lazily (stacks are built
        # on first traffic), so an erase always walks every cache that
        # exists at that instant.
        from repro.gdpr import ErasureCoordinator

        self.gdpr = ErasureCoordinator(
            store=self.server.site.store,
            cdn=self.cdn,
            sketch=self.sketch,
            client_stores=self._client_cache_stores,
            metrics=self.metrics,
            tracer=self.tracer,
            now_fn=lambda: self.env.now,
            txn_registry=self.txn_registry,
            overload=self._overload,
        )
        self._engines: Dict[str, PageLoadEngine] = {}
        self._prefetchers: Dict[str, object] = {}
        self._navigation_model = None
        if spec.prefetch and spec.scenario.uses_speed_kit:
            from repro.speedkit.prefetch import NavigationPredictor

            # One site-wide model: in production it is trained on
            # anonymized navigation statistics across all users.
            self._navigation_model = NavigationPredictor()
        self.result = RunResult(
            scenario_name=spec.name,
            metrics=self.metrics,
            plt=self.metrics.histogram("plt.all"),
        )

    def _build_site(self):
        """Build the site, injecting the scenario's storage engine into
        the origin document store when the factory supports it."""
        if self.spec.backend is not None:
            try:
                return self.site_factory(
                    self.catalog,
                    store_backend=self.spec.backend.build(salt="origin"),
                )
            except TypeError:
                pass  # custom factory without backend injection
        return self.site_factory(self.catalog)

    def _browser_cache(self, node: str):
        """A browser cache on the scenario's storage engine (or the
        client default when no backend is selected)."""
        if self._cache_spec is None:
            return None
        from repro.browser.cache import BrowserCache

        return BrowserCache(
            f"browser:{node}",
            metrics=self.metrics,
            backend=self._cache_spec.build(salt=f"browser:{node}"),
        )

    def _speedkit_config(self) -> SpeedKitConfig:
        config = SpeedKitConfig.ecommerce_default()
        config.sketch_refresh_interval = self.spec.delta
        config.stale_while_revalidate = self.spec.stale_while_revalidate
        config.swr_staleness_budget = 2 * self.spec.delta
        config.stale_if_error_window = self.spec.stale_if_error
        if self._cache_spec is not None:
            config.backend = self._cache_spec
        if self.spec.scenario is Scenario.SPEED_KIT_NO_SEGMENTS:
            config.segment_personalized = []
        return config

    def _stack_for(self, user: User):
        """The (cached) client stack of one user."""
        existing = self._stacks.get(user.user_id)
        if existing is not None:
            return existing
        stack = self._build_stack(user)
        self._stacks[user.user_id] = stack
        return stack

    def _build_stack(self, user: User):
        node = user.user_id
        cookie_user = user.user_id if user.logged_in else None
        scenario = self.spec.scenario
        if scenario is Scenario.NO_CACHE:
            inner = NoCacheClient(node, self.transport)
        elif scenario is Scenario.BROWSER_ONLY:
            inner = BrowserClient(
                node,
                self.transport,
                mode=TransportMode.DIRECT,
                cache=self._browser_cache(node),
                metrics=self.metrics,
                tracer=self.tracer,
            )
        elif scenario is Scenario.CLASSIC_CDN:
            inner = BrowserClient(
                node,
                self.transport,
                mode=TransportMode.CDN,
                cdn=self.cdn,
                cache=self._browser_cache(node),
                metrics=self.metrics,
                tracer=self.tracer,
            )
        elif not user.consents:
            # A non-consenting user keeps the plain browser stack even
            # on a Speed Kit site (the worker never activates).
            inner = BrowserClient(
                node,
                self.transport,
                mode=TransportMode.DIRECT,
                cache=self._browser_cache(node),
                metrics=self.metrics,
                tracer=self.tracer,
            )
        else:
            inner = self._build_worker(user)
        return CookieJarFetcher(inner, cookie_user)

    def _segment_scheme(self) -> SegmentScheme:
        """The segmentation scheme for this run's granularity setting."""
        n = self.spec.n_segments
        if n is None:
            return SegmentScheme.ecommerce_default()
        if n <= 1:
            return SegmentScheme().add_dimension("all", lambda attrs: "all")
        if n <= 3:
            return SegmentScheme().add_dimension(
                "tier", lambda attrs: str(attrs.get("tier", "standard"))
            )
        scheme = SegmentScheme.ecommerce_default()  # tier×locale ≈ 9
        if n > 9:
            buckets = max(1, n // 9)

            def bucket_of(attrs) -> str:
                # User ids are "u<number>"; a stable modulo beats
                # hash(), which Python randomizes per process.
                uid = str(attrs.get("uid", "u0"))
                try:
                    number = int(uid[1:])
                except ValueError:
                    number = 0
                return str(number % buckets)

            scheme.add_dimension("bucket", bucket_of)
        return scheme

    def _build_worker(self, user: User) -> ServiceWorkerProxy:
        attributes = dict(user.attributes)
        attributes["uid"] = user.user_id
        vault = PiiVault(
            user_id=user.user_id if user.logged_in else None,
            attributes=attributes,
        )
        consent = ConsentManager.all_granted()
        sketch_client = SketchClient(
            self.env,
            self.sketch,
            self.topology,
            client_node=user.user_id,
            rng=self.streams.fork(user.user_id).stream("sketch"),
            refresh_interval=self.spec.delta,
            faults=self._faults,
            tracer=self.tracer,
        )
        fallback = BrowserClient(
            user.user_id,
            self.transport,
            mode=TransportMode.DIRECT,
            cache=self._browser_cache(user.user_id),
            metrics=self.metrics,
            tracer=self.tracer,
        )
        return ServiceWorkerProxy(
            node=user.user_id,
            transport=self.transport,
            cdn=self.cdn,
            config=self._speedkit_config(),
            vault=vault,
            consent=consent,
            segments=SegmentResolver(
                self._segment_scheme(), vault, consent
            ),
            sketch_client=sketch_client,
            metrics=self.metrics,
            fallback=fallback,
            tracer=self.tracer,
        )

    def _client_cache_stores(self) -> Dict[str, object]:
        """Every client-side cache store, by tier label.

        Covers both halves of a Speed Kit stack: the service-worker
        cache *and* the fallback browser cache behind it (pass-through
        and user-blocklisted requests land there).
        """
        tiers: Dict[str, object] = {}

        def add(label: str, cache) -> None:
            store = getattr(cache, "store", None)
            if store is not None:
                tiers[label] = store

        for user_id, stack in self._stacks.items():
            inner = getattr(stack, "inner", stack)
            if isinstance(inner, ServiceWorkerProxy):
                add(f"sw:{user_id}", inner.cache)
                add(
                    f"browser:{user_id}",
                    getattr(inner.fallback, "cache", None),
                )
            else:
                add(f"browser:{user_id}", getattr(inner, "cache", None))
        return tiers

    def _engine_for(self, user: User) -> PageLoadEngine:
        engine = self._engines.get(user.user_id)
        if engine is None:
            engine = PageLoadEngine(
                self.env,
                self._stack_for(user),
                batch_waves=self.spec.batch_waves,
                tracer=self.tracer,
            )
            self._engines[user.user_id] = engine
        return engine

    # -- replay ----------------------------------------------------------------

    def run(self) -> RunResult:
        """Replay the whole trace; returns aggregated results."""
        import time

        started = time.perf_counter()
        self._build()
        self.env.process(self._dispatcher())
        self.env.run()
        self._finalize()
        self.result.events_processed = len(self.trace)
        self.result.kernel_events = self.env.steps
        self.result.wall_seconds = time.perf_counter() - started
        return self.result

    def _dispatcher(self) -> Generator:
        for event in self.trace.events:
            delay = event.at - self.env.now
            if delay > 0:
                yield self.env.timeout(delay)
            if isinstance(event, PageView):
                self.env.process(self._handle_page_view(event))
            elif isinstance(event, ProductUpdate):
                self.server.update(
                    "products",
                    event.product_id,
                    event.changes_dict,
                    at=self.env.now,
                )
            elif isinstance(event, CartAdd):
                self.env.process(self._handle_cart_add(event))
            elif isinstance(event, TxnRead):
                self.env.process(self._handle_txn(event))
            elif isinstance(event, EraseUser):
                self.env.process(self._handle_erase(event))
            elif isinstance(event, AccessUser):
                self.env.process(self._handle_access(event))

    def _handle_page_view(self, event: PageView) -> Generator:
        user = self.users.by_id(event.user_id)
        stack = self._stack_for(user)
        engine = self._engine_for(user)
        navigate = getattr(stack, "on_navigate", None)
        if navigate is not None:
            yield from navigate()
        inner = getattr(stack, "inner", stack)
        # On baseline scenarios the main checker (bound = ∞) covers
        # everyone; on Speed Kit scenarios only worker-served users are
        # under the Δ promise.
        delta_covered = not self.spec.scenario.uses_speed_kit or (
            isinstance(inner, ServiceWorkerProxy)
        )
        # The pageview span starts *after* the navigation hook (eager
        # sketch refresh) so its start coincides with the instant the
        # engine stamps as PLT start — per-tier attribution then sums
        # to the PLT exactly.
        span = self.tracer.start(
            "pageview",
            self.env.now,
            node=user.user_id,
            tier="client",
            user=event.user_id,
            page_kind=event.page_kind,
            target=event.target,
            covered=delta_covered,
        )
        page = self.pages.for_view(event.page_kind, event.target)
        result = yield from engine.load(page, trace=span.context)
        if self._navigation_model is not None and isinstance(
            inner, ServiceWorkerProxy
        ):
            prefetcher = self._prefetchers.get(user.user_id)
            if prefetcher is None:
                from repro.speedkit.prefetch import Prefetcher

                prefetcher = Prefetcher(inner, self._navigation_model)
                self._prefetchers[user.user_id] = prefetcher
            prefetcher.on_navigation(event.page_kind, event.target)
        self._record_page_load(user, event, result, delta_covered)
        span.set(plt=result.plt)
        self.tracer.finish(span, self.env.now)
        return None

    def _handle_cart_add(self, event: CartAdd) -> Generator:
        user = self.users.by_id(event.user_id)
        stack = self._stack_for(user)
        span = self.tracer.start(
            "cart-add",
            self.env.now,
            node=event.user_id,
            tier="client",
            user=event.user_id,
            product=event.product_id,
        )
        request = Request(
            method=Method.POST,
            url=URL.parse(f"/api/documents/carts/{event.user_id}"),
            body={"items": [event.product_id]},
            client_id=event.user_id,
        )
        request.trace = span.context
        yield from stack.fetch(request)
        self.tracer.finish(span, self.env.now)
        return None

    def _txn_coordinator_for(self, user: User) -> TxnCoordinator:
        coordinator = self._txn_coordinators.get(user.user_id)
        if coordinator is None:
            coordinator = TxnCoordinator(
                self.env,
                self._stack_for(user),
                self.transport,
                client_node=user.user_id,
                user_id=user.user_id,
                registry=self.txn_registry,
                tracer=self.tracer,
                config=TxnConfig(
                    validation_retries=self.spec.txn_retry_limit
                ),
            )
            self._txn_coordinators[user.user_id] = coordinator
        return coordinator

    def _handle_txn(self, event: TxnRead) -> Generator:
        user = self.users.by_id(event.user_id)
        stack = self._stack_for(user)
        inner = getattr(stack, "inner", stack)
        delta_covered = not self.spec.scenario.uses_speed_kit or (
            isinstance(inner, ServiceWorkerProxy)
        )
        coordinator = self._txn_coordinator_for(user)
        urls = [
            URL.parse(f"/api/products/{product_id}")
            for product_id in event.product_ids
        ]
        result = yield from coordinator.execute(urls, self._txn_level)
        self._record_txn(user, result, delta_covered)
        return None

    def _record_txn(self, user: User, outcome, delta_covered: bool) -> None:
        result = self.result
        result.txns += 1
        result.txn_aborts += outcome.aborts
        result.txn_validation_retries += outcome.validation_retries
        result.txn_refetches += outcome.refetches
        result.txn_degraded += outcome.degraded
        result.txn_erase_conflicts += outcome.erase_conflict
        level = outcome.requested.value
        self.metrics.counter(f"txn.level.{level}").inc()
        # Per-level latency sketches: the consistency-vs-PLT curve is a
        # quantile query away, and shards merge exactly.
        self.metrics.sketch(f"txn.plt.{level}").observe(outcome.plt)
        self.metrics.sketch("txn.aborts.per_txn").observe(float(outcome.aborts))
        for read in outcome.reads:
            self._record_response(
                read.response,
                delta_covered,
                client=user.user_id,
                read_at=read.read_at,
                issued_at=outcome.started_at,
            )
        self.txn_checker.record_txn(
            requested=outcome.requested,
            achieved=outcome.achieved,
            degraded=outcome.degraded,
            reads=tuple(
                (read.version_key, read.version, read.read_at)
                for read in outcome.reads
                if read.certifiable and read.response.status == Status.OK
            ),
            validated_at=outcome.validated_at,
            finished_at=outcome.finished_at,
            client=user.user_id,
        )

    def _handle_erase(self, event: EraseUser) -> Generator:
        """Serve one Art. 17 request: walk, verify, charge the latency."""
        report = self.gdpr.erase(event.user_id)
        self.result.erasures += 1
        self.result.erasure_removed += report.entries_removed
        self.result.erasure_residuals += report.residual_count
        self.result.erasure_replicas_dropped += report.replicas_dropped
        self.result.erasure_queued_scrubbed += sum(
            report.queued_scrubbed.values()
        )
        yield self.env.timeout(max(0.0, report.simulated_latency))

    def _handle_access(self, event: AccessUser) -> Generator:
        """Serve one Art. 15 request (read-only walk)."""
        report = self.gdpr.access(event.user_id)
        self.result.accesses += 1
        yield self.env.timeout(max(0.0, report.simulated_latency))

    # -- recording ---------------------------------------------------------------

    def _record_page_load(
        self, user: User, event: PageView, result, delta_covered: bool = True
    ) -> None:
        self.result.page_views += 1
        self.result.plt.observe(result.plt)
        kind_hist = self.result.plt_by_page_kind.setdefault(
            event.page_kind,
            self.metrics.histogram(f"plt.page.{event.page_kind}"),
        )
        kind_hist.observe(result.plt)
        conn_hist = self.result.plt_by_connection.setdefault(
            user.connection,
            self.metrics.histogram(f"plt.conn.{user.connection}"),
        )
        conn_hist.observe(result.plt)
        # Timeline for phase-based analyses (flash sale, outages).
        self.metrics.series("plt.timeline").record(
            result.started_at, result.plt
        )
        if self._overload_slo is not None:
            # Goodput: every response clean (no 5xx, no shed, no
            # degraded fallback) *and* the page met the profile's SLO.
            clean = not any(
                response.status.is_server_error
                or degraded_mark(response) is not None
                for response in result.responses
            )
            if clean and result.plt <= self._overload_slo:
                self.result.goodput_pages += 1
        for response in result.responses:
            self._record_response(
                response,
                delta_covered,
                client=user.user_id,
                issued_at=result.started_at,
            )
        if result.responses:
            self._record_personalization(user, result.responses[0])

    def _record_personalization(self, user: User, html_response) -> None:
        """Did a logged-in user get correctly personalized HTML?

        Correct means either identity-personalized by the origin
        (classic path: the response is private/no-store) or the user's
        segment variant (Speed Kit path). An anonymous fallback served
        to a logged-in user counts as a personalization miss — the
        failure mode of caching personalized pages naively.
        """
        from repro.origin.server import SEGMENT_PARAM

        if not user.logged_in or html_response.status != Status.OK:
            return
        kind = html_response.headers.get("X-Resource-Kind")
        if kind not in ("page", "query"):
            return
        self.result.personalization_checks += 1
        cc = html_response.cache_control
        if cc.no_store or cc.private:
            return  # identity-personalized render: correct
        segment = (
            html_response.url.params.get(SEGMENT_PARAM)
            if html_response.url is not None
            else None
        )
        if segment is not None and segment != "anonymous":
            return  # segment variant: correct
        self.result.personalization_misses += 1

    @staticmethod
    def _layer_of(served_by: str) -> str:
        if served_by.startswith("browser:"):
            return "browser"
        if served_by.startswith("sw:"):
            return "sw"
        if served_by.startswith("edge"):
            return "edge"
        return served_by

    def _record_response(
        self,
        response,
        delta_covered: bool = True,
        client: Optional[str] = None,
        read_at: Optional[float] = None,
        issued_at: Optional[float] = None,
    ) -> None:
        if response.status.is_server_error:
            self.result.failed_responses += 1
            return
        mark = degraded_mark(response)
        if mark == "shed":
            # A synthesized shed answer: marked, versionless, and
            # counted on its own — it must not pollute the serve/hit
            # ledgers or the coherence read log.
            self.result.shed_responses += 1
            return
        if response.status != Status.OK or response.version is None:
            return
        layer = self._layer_of(response.served_by)
        served = self.result.served_by_layer
        served[layer] = served.get(layer, 0) + 1
        kind = response.headers.get("X-Resource-Kind", "unknown")
        per_kind = self.result.served_by_kind.setdefault(layer, {})
        per_kind[kind] = per_kind.get(kind, 0) + 1
        if mark is not None:
            # Degraded servings (stale-if-error, offline mode) are
            # availability wins, not fresh cache hits — they are
            # tallied separately so hit ratios stay honest.
            degraded = self.result.served_degraded_by_layer
            degraded[layer] = degraded.get(layer, 0) + 1
        if mark == "offline":
            # Offline serving explicitly trades Δ-atomicity for
            # availability; these reads are accounted, not checked.
            return
        if "X-Version-Key" in response.headers:
            checker = self.checker if delta_covered else self.baseline_checker
            checker.record_read(
                response,
                read_at if read_at is not None else self.env.now,
                client=client,
                issued_at=issued_at,
            )

    def _finalize(self) -> None:
        result = self.result
        checkers = (self.checker, self.baseline_checker)
        result.reads_checked = sum(c.read_count for c in checkers)
        result.stale_reads = sum(
            1
            for checker in checkers
            for record in checker.records
            if record.staleness > 0
        )
        # Violations are only meaningful where the protocol promises
        # the Δ bound (worker-served users); the baseline checker's
        # bound is infinite by construction. max_staleness likewise
        # refers to the covered population; non-consenting plain-
        # browser users are reported separately.
        result.delta_violations = self.checker.violation_count
        result.max_staleness = self.checker.max_staleness()
        result.uncovered_max_staleness = self.baseline_checker.max_staleness()
        result.origin_requests = self.server.requests_served
        result.txn_fractured_reads = self.txn_checker.fractured_count
        result.txn_serialization_violations = (
            self.txn_checker.serialization_violation_count
        )
        result.txn_silent_downgrades = (
            self.txn_checker.silent_downgrade_count
        )
        result.txn_buffers_scrubbed = self.txn_registry.buffers_scrubbed
        if self._overload is not None:

            def overload_counter(name: str) -> int:
                counter = self.metrics.get_counter(name)
                return int(counter.value) if counter is not None else 0

            result.offered_requests = overload_counter(
                "overload.offered.total"
            )
            result.admitted_requests = overload_counter(
                "overload.admitted.total"
            )
            result.queued_requests = overload_counter(
                "overload.queued.total"
            )
            result.shed_requests = overload_counter("overload.shed.total")
            for label in ("control", "static", "personalized"):
                shed = overload_counter(f"overload.shed.{label}")
                if shed:
                    result.shed_by_class[label] = shed
            result.control_events = overload_counter(
                "overload.control.total"
            )
            result.scale_ups = overload_counter("overload.scale_ups")
            result.scale_downs = overload_counter("overload.scale_downs")
            result.queue_depth_peak = self._overload.queue_depth_peak()
        for name, attr in (
            ("bytes.origin_egress", "origin_egress_bytes"),
            ("bytes.edge_egress", "edge_egress_bytes"),
        ):
            counter = self.metrics.get_counter(name)
            if counter is not None:
                setattr(result, attr, int(counter.value))
        for stack in self._stacks.values():
            sketch_client = getattr(stack, "sketch_client", None)
            if sketch_client is not None:
                result.sketch_fetches += sketch_client.stats.fetches
                result.sketch_bytes += sketch_client.stats.bytes_transferred
            inner = getattr(stack, "inner", stack)
            if isinstance(inner, ServiceWorkerProxy):
                counter = self.metrics.get_counter(
                    f"speedkit.{inner.node}.scrubbed"
                )
                if counter is not None:
                    result.requests_scrubbed += int(counter.value)
        if self.tracer.enabled:
            self._finalize_trace()

    def _finalize_trace(self) -> None:
        """Attach the recorded trace and its per-tier attribution."""
        from repro.obs import (
            pageview_attributions,
            span_records,
            tier_breakdown,
        )

        records = span_records(self.tracer.spans)
        if self.gdpr.erased_users:
            # Right to erasure extends to telemetry: rewrite exported
            # records so no span carries an erased user's id. Scrubbed
            # copies are new objects, so the rewrite count is exact.
            from repro.gdpr import scrub_span_records

            scrubbed = scrub_span_records(records, self.gdpr.erased_users)
            self.result.spans_scrubbed += sum(
                1
                for before, after in zip(records, scrubbed)
                if before is not after
            )
            records = scrubbed
        result = self.result
        result.trace_records = records
        result.tier_breakdown = tier_breakdown(records)
        # Streaming per-tier latency sketches: each page view's
        # critical-path seconds per tier, quantile-queryable without
        # retaining the per-page attributions.
        for _, attribution in pageview_attributions(records):
            for tier, seconds in attribution.items():
                self.metrics.sketch(f"tier.plt.{tier}").observe(seconds)
