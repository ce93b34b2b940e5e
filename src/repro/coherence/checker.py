"""Runtime verification of the Δ-atomicity guarantee.

Every simulated read is checked against the origin's ground-truth
version history: the returned version must have been current at some
instant within ``[t − Δ, t]``. Violations are collected (not raised)
so experiments can report a violation *count* — the paper's guarantee
corresponds to that count being zero — alongside the measured staleness
distribution.
"""

from __future__ import annotations

import bisect
from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.http.messages import Response
from repro.origin.server import OriginServer


@dataclass(frozen=True)
class ReadRecord:
    """One checked read."""

    resource_key: str
    version: int
    read_at: float
    staleness: float
    violation: bool
    #: The client (user id) that performed the read, when known.
    #: Session-consistency invariants (e.g. per-client monotonic reads)
    #: group records by this field.
    client: Optional[str] = None
    #: When the client *issued* the operation that produced this read
    #: (page-load start, transaction start). Session guarantees order
    #: only non-concurrent operations, so the monotonic-read check
    #: compares a read against earlier reads that completed before
    #: this instant. ``None`` means unknown and is treated as
    #: ``read_at`` (the strict sequential interpretation).
    issued_at: Optional[float] = None


def version_regressions(
    records: List[ReadRecord],
) -> List[Tuple[ReadRecord, ReadRecord]]:
    """Per-client monotonic-read violations, concurrency-aware.

    Monotonic reads is a *session* guarantee: it orders only operations
    the client performed one after another. Under queueing, a user's
    overlapping page loads may complete out of issue order, so a read
    that returns an older version than a *concurrent* read is legal.
    A regression is therefore a pair ``(newer, older)`` on the same
    ``(client, resource_key)`` where the operation that produced the
    *older*-version read was issued **after** the newer-version read
    had already completed. Records with ``issued_at=None`` fall back
    to ``read_at`` — the strict sequential interpretation.
    """
    groups: Dict[
        Tuple[Optional[str], str], List[ReadRecord]
    ] = defaultdict(list)
    for record in records:
        groups[(record.client, record.resource_key)].append(record)
    regressions: List[Tuple[ReadRecord, ReadRecord]] = []
    for group in groups.values():
        completions = sorted(group, key=lambda r: r.read_at)
        times = [r.read_at for r in completions]
        # prefix[i]: the highest-version record completed by times[i].
        prefix: List[ReadRecord] = []
        best = completions[0]
        for record in completions:
            if record.version > best.version:
                best = record
            prefix.append(best)
        for record in completions:
            issued = (
                record.issued_at
                if record.issued_at is not None
                else record.read_at
            )
            idx = bisect.bisect_right(times, issued) - 1
            if idx < 0:
                continue
            seen = prefix[idx]
            if seen is not record and seen.version > record.version:
                regressions.append((seen, record))
    regressions.sort(key=lambda pair: pair[1].read_at)
    return regressions


class DeltaAtomicityChecker:
    """Checks reads against ground truth; accumulates statistics."""

    def __init__(self, server: OriginServer, delta: float) -> None:
        if delta < 0:
            raise ValueError(f"delta must be non-negative: {delta}")
        self.server = server
        self.delta = delta
        self.records: List[ReadRecord] = []
        self.violations: List[ReadRecord] = []

    def record_read(
        self,
        response: Response,
        read_at: float,
        user_id: Optional[str] = None,
        client: Optional[str] = None,
        issued_at: Optional[float] = None,
    ) -> ReadRecord:
        """Check one read; returns its record (and stores it)."""
        if response.url is None or response.version is None:
            raise ValueError(
                f"response lacks url/version metadata: {response!r}"
            )
        resource_key = response.headers.get("X-Version-Key")
        if resource_key is None:
            resource_key = self.server.version_key_for(response.url, user_id)
        versions = self.server.versions
        superseded = versions.superseded_at(resource_key, response.version)
        staleness = 0.0
        if superseded is not None and superseded < read_at:
            staleness = read_at - superseded
        # Δ-atomicity: the returned version must have been current at
        # some instant within [t − Δ, t] — equivalently, its staleness
        # may not exceed Δ.
        violation = staleness > self.delta
        record = ReadRecord(
            resource_key=resource_key,
            version=response.version,
            read_at=read_at,
            staleness=staleness,
            violation=violation,
            client=client if client is not None else user_id,
            issued_at=issued_at,
        )
        self.records.append(record)
        if violation:
            self.violations.append(record)
        return record

    # -- summaries ---------------------------------------------------------------

    @property
    def read_count(self) -> int:
        return len(self.records)

    @property
    def violation_count(self) -> int:
        return len(self.violations)

    def stale_read_fraction(self) -> float:
        """Fraction of reads that returned any outdated version."""
        if not self.records:
            return 0.0
        stale = sum(1 for record in self.records if record.staleness > 0)
        return stale / len(self.records)

    def max_staleness(self) -> float:
        """The worst staleness observed (0 when all reads were current)."""
        if not self.records:
            return 0.0
        return max(record.staleness for record in self.records)

    def assert_delta_atomic(self) -> None:
        """Raise if any read violated the Δ bound (for tests)."""
        if self.violations:
            worst = max(self.violations, key=lambda r: r.staleness)
            raise AssertionError(
                f"{len(self.violations)} of {len(self.records)} reads "
                f"violated Δ-atomicity (Δ={self.delta}); worst: "
                f"{worst.resource_key} v{worst.version} read at "
                f"{worst.read_at:.3f} with staleness {worst.staleness:.3f}"
            )
