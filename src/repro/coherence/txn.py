"""Runtime verification of the multi-key consistency ladder.

Every completed transaction is checked against the origin's
ground-truth version histories at its *achieved* level:

- ``snapshot`` and above — the returned versions must have coexisted
  at some origin instant. Version *v* of key *k* is current over the
  half-open interval ``[born(k, v), born(k, v+1))`` (open-ended while
  still current); a common instant exists iff
  ``max(born) < min(superseded)``. Its absence is a *fractured read*.
- ``serializable`` — the validation instant returned by the origin
  must see exactly the returned versions: ``version_at(k,
  validated_at) == v`` for every key. Disagreement with the origin's
  serial order is a *serialization violation*.

Independently of level, a transaction that achieved less than it was
asked for **must** say so (the ``degraded`` mark); one that does not is
a *silent downgrade* — the broken-promise class of bug the fault-path
tests hunt for.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.origin.server import OriginServer
from repro.txn.levels import ConsistencyLevel

#: One read inside a transaction record: (version_key, version, read_at).
TxnRead = Tuple[str, int, float]


@dataclass(frozen=True)
class TxnRecord:
    """One checked transaction."""

    requested: ConsistencyLevel
    achieved: ConsistencyLevel
    degraded: bool
    reads: Tuple[TxnRead, ...]
    validated_at: Optional[float]
    finished_at: float
    client: Optional[str] = None


class TxnConsistencyChecker:
    """Checks transactions against ground truth; accumulates verdicts."""

    def __init__(self, server: OriginServer) -> None:
        self.server = server
        self.records: List[TxnRecord] = []
        self.fractured: List[TxnRecord] = []
        self.serialization_violations: List[TxnRecord] = []
        self.silent_downgrades: List[TxnRecord] = []

    # -- recording ---------------------------------------------------------

    def record_txn(
        self,
        requested: ConsistencyLevel,
        achieved: ConsistencyLevel,
        degraded: bool,
        reads: Tuple[TxnRead, ...],
        validated_at: Optional[float],
        finished_at: float,
        client: Optional[str] = None,
    ) -> TxnRecord:
        """Check one transaction; returns its record (and stores it)."""
        record = TxnRecord(
            requested=ConsistencyLevel.parse(requested),
            achieved=ConsistencyLevel.parse(achieved),
            degraded=degraded,
            reads=tuple(reads),
            validated_at=validated_at,
            finished_at=finished_at,
            client=client,
        )
        self.records.append(record)
        if record.achieved < record.requested and not record.degraded:
            self.silent_downgrades.append(record)
        if (
            record.achieved >= ConsistencyLevel.SNAPSHOT
            and self._is_fractured(record)
        ):
            self.fractured.append(record)
        if (
            record.achieved is ConsistencyLevel.SERIALIZABLE
            and not record.degraded
            and self._violates_serial_order(record)
        ):
            self.serialization_violations.append(record)
        return record

    # -- ground-truth invariants -------------------------------------------

    def _is_fractured(self, record: TxnRecord) -> bool:
        """No origin instant at which all returned versions coexisted."""
        if len(record.reads) < 2:
            return False
        versions = self.server.versions
        latest_birth = float("-inf")
        earliest_death = float("inf")
        for version_key, version, _read_at in record.reads:
            birth = versions.born_at(version_key, version)
            death = versions.superseded_at(version_key, version)
            latest_birth = max(latest_birth, birth)
            if death is not None:
                earliest_death = min(earliest_death, death)
        return latest_birth >= earliest_death

    def _violates_serial_order(self, record: TxnRecord) -> bool:
        """The validation instant disagrees with the returned versions."""
        if record.validated_at is None:
            return bool(record.reads)
        versions = self.server.versions
        for version_key, version, _read_at in record.reads:
            try:
                current = versions.version_at(
                    version_key, record.validated_at
                )
            except (KeyError, ValueError):
                return True
            if current != version:
                return True
        return False

    # -- summaries ---------------------------------------------------------

    @property
    def txn_count(self) -> int:
        return len(self.records)

    @property
    def fractured_count(self) -> int:
        return len(self.fractured)

    @property
    def serialization_violation_count(self) -> int:
        return len(self.serialization_violations)

    @property
    def silent_downgrade_count(self) -> int:
        return len(self.silent_downgrades)

    def signature(self) -> Tuple[int, int, int, int]:
        """Compact verdict for cross-checking a rebuilt checker."""
        return (
            self.txn_count,
            self.fractured_count,
            self.serialization_violation_count,
            self.silent_downgrade_count,
        )

    def assert_txn_consistent(self) -> None:
        """Raise if any ladder invariant was violated (for tests)."""
        problems = []
        if self.fractured:
            worst = self.fractured[0]
            problems.append(
                f"{len(self.fractured)} fractured reads (first: "
                f"{worst.achieved.value} txn at {worst.finished_at:.3f} "
                f"over {[r[0] for r in worst.reads]})"
            )
        if self.serialization_violations:
            worst = self.serialization_violations[0]
            problems.append(
                f"{len(self.serialization_violations)} serialization "
                f"violations (first validated_at={worst.validated_at})"
            )
        if self.silent_downgrades:
            worst = self.silent_downgrades[0]
            problems.append(
                f"{len(self.silent_downgrades)} silent downgrades (first: "
                f"requested {worst.requested.value}, achieved "
                f"{worst.achieved.value}, unmarked)"
            )
        if problems:
            raise AssertionError(
                f"txn consistency violated across {self.txn_count} "
                "transactions: " + "; ".join(problems)
            )
