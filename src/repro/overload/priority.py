"""Request priority classes for admission control and load shedding.

The shedding order encodes the product decision the paper's flash-sale
story implies: when a node saturates, *personalization* degrades first
(a shopper seeing the anonymous variant of a page is a quality loss,
not an outage), *cached statics* degrade last (they are what keeps the
site up), and *control traffic* — writes, transaction validation,
invalidation purges, GDPR erasure walks — is never shed at all: a
dropped purge or erase would trade a latency problem for a correctness
or compliance violation.

Classification mirrors the edge's pass rule
(:attr:`repro.cdn.edge.EdgeCache.PASS_HEADERS`): a credentialed GET is
personalized traffic, any other GET is (potentially) cached static
content, and every non-GET is control/write traffic.

A shed request resolves to a synthesized, explicitly marked response —
``X-Load-Shed: 1`` plus ``Cache-Control: no-store`` — following the
same degraded-response contract as ``X-Stale-If-Error`` and
``X-Txn-Degraded``: the mark travels with the bytes, no cache tier may
admit it, and it can never be 304-converted into a freshness
confirmation.
"""

from __future__ import annotations

import enum

from repro.http.headers import LOAD_SHED_HEADER
from repro.http.messages import Method, Request

__all__ = [
    "LOAD_SHED_HEADER",
    "PASS_REQUEST_HEADERS",
    "PriorityClass",
    "classify_request",
]

#: The personalization signal, mirroring
#: :attr:`repro.cdn.edge.EdgeCache.PASS_HEADERS`. Kept as a local copy
#: (pinned equal by the overload test suite) so this leaf module stays
#: importable from the cache layer without a cycle.
PASS_REQUEST_HEADERS = ("Cookie", "Authorization")


class PriorityClass(enum.Enum):
    """Admission priority; lower ``rank`` is served first, shed last."""

    CONTROL = 0
    STATIC = 1
    PERSONALIZED = 2

    @property
    def rank(self) -> int:
        return self.value

    @property
    def label(self) -> str:
        return self.name.lower()

    @property
    def sheddable(self) -> bool:
        """Control traffic is never shed, whatever the queue depth."""
        return self is not PriorityClass.CONTROL


def classify_request(request: Request) -> PriorityClass:
    """The priority class one request is admitted (or shed) at.

    * non-GET → :attr:`PriorityClass.CONTROL` — cart writes,
      transaction validation RPCs, anything that mutates state;
    * credentialed GET (the edge pass rule) →
      :attr:`PriorityClass.PERSONALIZED`;
    * everything else → :attr:`PriorityClass.STATIC`.
    """
    if request.method is not Method.GET:
        return PriorityClass.CONTROL
    if any(header in request.headers for header in PASS_REQUEST_HEADERS):
        return PriorityClass.PERSONALIZED
    return PriorityClass.STATIC
