"""HTTP cache node logic shared by edges, browser caches, and the SW.

Every caching node in the stack — CDN edge PoPs (shared), the browser
HTTP cache and the service worker cache (private) — follows the same
interaction protocol around a :class:`~repro.cdn.cache.CacheStore`:

1. :meth:`serve` — a fresh copy, or ``None``;
2. :meth:`revalidation_base` — a stale ETag'd entry worth a
   conditional request;
3. :meth:`admit` / :meth:`refresh` — fold an upstream 200 / 304 back in.

Nodes are passive: they never touch the network or the clock. The
transport layer owns time.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

from repro.http.freshness import is_cacheable
from repro.http.headers import STALE_IF_ERROR_HEADER
from repro.http.messages import Request, Response, Status, degraded_mark
from repro.sim.metrics import MetricRegistry

#: Called with ``(cache_key, response, now)`` after every admission.
AdmitObserver = Callable[[str, Response, float], None]


class HttpCache:
    """A passive caching node wrapping a :class:`CacheStore`."""

    #: Metric name prefix; subclasses override ("edge", "browser", "sw").
    METRIC_SCOPE = "cache"

    def __init__(
        self,
        name: str,
        store,
        metrics: Optional[MetricRegistry] = None,
    ) -> None:
        self.name = name
        self.store = store
        self.metrics = metrics or MetricRegistry()
        #: Notified after each stored admission (PoP replication hooks
        #: in here; the node itself stays passive).
        self.admit_observers: List[AdmitObserver] = []

    @property
    def shared(self) -> bool:
        return self.store.shared

    def _count(self, which: str) -> None:
        self.metrics.counter(
            f"{self.METRIC_SCOPE}.{self.name}.{which}"
        ).inc()

    # -- request protocol ---------------------------------------------------

    def serve(self, request: Request, now: float) -> Optional[Response]:
        """A fresh cached copy for ``request``, or ``None``."""
        key = request.url.cache_key()
        entry = self.store.get_fresh(key, now)
        if entry is None:
            self._count("miss")
            return None
        self._count("hit")
        response = entry.response.copy()
        response.served_by = self.name
        return response

    def serve_many(
        self, requests: Sequence[Request], now: float
    ) -> List[Optional[Response]]:
        """Batched :meth:`serve`: one response (or ``None``) per
        request, in order.

        All cache keys are looked up through the store's batched read,
        so a multi-asset wave against a batched storage engine costs
        ~one backend round trip instead of one per asset. Hit/miss
        accounting matches N single serves exactly.
        """
        keys = [request.url.cache_key() for request in requests]
        entries = self.store.get_fresh_many(keys, now)
        responses: List[Optional[Response]] = []
        for key in keys:
            entry = entries.get(key)
            if entry is None:
                self._count("miss")
                responses.append(None)
                continue
            self._count("hit")
            response = entry.response.copy()
            response.served_by = self.name
            responses.append(response)
        return responses

    def serve_even_stale(self, request: Request, now: float) -> Optional[Response]:
        """Any stored copy regardless of freshness (for SWR and the
        sketch-based decision procedure, which has its own staleness
        rules)."""
        entry = self.store.get(request.url.cache_key(), now)
        if entry is None:
            return None
        response = entry.response.copy()
        response.served_by = self.name
        return response

    def serve_stale_if_error(
        self, request: Request, now: float, grace: float
    ) -> Optional[Response]:
        """A bounded-stale copy after a failed upstream fetch.

        Serves the stored entry — expired or not — provided it was
        last verified against the origin (stored or 304-restamped)
        within ``grace`` seconds, so its version staleness stays within
        the normal bound plus ``grace``. The copy is marked
        ``X-Stale-If-Error`` so downstream caches refuse to re-admit it
        (admission would restamp the verification time and double the
        window) and the Δ-checker can account for it under the widened
        bound.
        """
        if grace < 0:
            return None
        entry = self.store.peek(request.url.cache_key())
        if entry is None or now - entry.stored_at > grace:
            return None
        response = entry.response.copy()
        response.served_by = self.name
        response.headers[STALE_IF_ERROR_HEADER] = "1"
        self._count("stale_if_error")
        return response

    def revalidation_base(
        self, request: Request, now: float
    ) -> Optional[Response]:
        """A stored response usable as the base of a conditional request."""
        entry = self.store.peek(request.url.cache_key())
        if entry is None or entry.response.etag is None:
            return None
        return entry.response

    def admit(
        self, request: Request, response: Response, now: float
    ) -> Response:
        """Store a fetched response if allowed; return a forwardable copy.

        Degraded stale-if-error servings are never admitted: their
        verification time lies with the cache that served them, and
        restamping them here would let the grace window compound across
        tiers. Load-shed syntheses are never admitted either — they are
        already ``no-store``, but the explicit guard keeps a marked
        placeholder out of every tier even if the mark and the cache
        directives ever disagree.
        """
        if (
            response.status == Status.OK
            and degraded_mark(response) not in ("shed", "stale-if-error")
            and is_cacheable(response, shared=self.shared)
        ):
            key = request.url.cache_key()
            self.store.put(key, response.copy(), now)
            self._count("fill")
            for observer in self.admit_observers:
                observer(key, response, now)
        return response.copy()

    def refresh(
        self, request: Request, not_modified: Response, now: float
    ) -> Optional[Response]:
        """Apply a 304: restamp the stored entry as fresh again.

        Returns the refreshed full response, or ``None`` if the entry
        vanished meanwhile (caller falls back to a full fetch).
        """
        if not_modified.status != Status.NOT_MODIFIED:
            raise ValueError(f"refresh expects a 304, got {not_modified}")
        key = request.url.cache_key()
        entry = self.store.peek(key)
        if entry is None:
            return None
        refreshed = entry.response.copy()
        refreshed.generated_at = not_modified.generated_at
        cache_control = not_modified.headers.get("Cache-Control")
        if cache_control is not None:
            refreshed.headers["Cache-Control"] = cache_control
        self.store.put(key, refreshed, now)
        self._count("revalidated")
        response = refreshed.copy()
        response.served_by = self.name
        return response

    # -- invalidation ----------------------------------------------------------

    def purge(self, key: str) -> bool:
        removed = self.store.remove(key)
        if removed:
            self._count("purge")
        return removed

    def purge_many(self, keys: Sequence[str]) -> int:
        """Batched :meth:`purge`; returns how many entries existed.

        The removals travel as one batched store operation, so a
        pipelined engine charges ~one round trip for the whole purge.
        """
        purged = self.store.remove_many(list(keys))
        if purged:
            self.metrics.counter(
                f"{self.METRIC_SCOPE}.{self.name}.purge"
            ).inc(purged)
        return purged

    def purge_prefix(self, prefix: str) -> int:
        purged = self.store.remove_prefix(prefix)
        if purged:
            self.metrics.counter(
                f"{self.METRIC_SCOPE}.{self.name}.purge"
            ).inc(purged)
        return purged

    def purge_all(self) -> None:
        self.store.clear()

    # -- stats --------------------------------------------------------------------

    def hit_ratio(self) -> float:
        """Fraction of lookups served from cache so far."""
        scope = f"{self.METRIC_SCOPE}.{self.name}"
        hits = self.metrics.counter(f"{scope}.hit").value
        misses = self.metrics.counter(f"{scope}.miss").value
        total = hits + misses
        return hits / total if total else 0.0
