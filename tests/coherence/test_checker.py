"""Tests for the Δ-atomicity checker."""

import pytest

from repro.coherence import DeltaAtomicityChecker
from repro.http import Headers, Request, Response, Status, URL
from repro.origin import (
    OriginServer,
    ResourceKind,
    ResourceSpec,
    Site,
)


@pytest.fixture
def server():
    site = Site()
    site.add_route(
        ResourceSpec(
            name="page",
            pattern="/p/{id}",
            kind=ResourceKind.PAGE,
            doc_keys=lambda p: [f"docs/{p['id']}"],
        )
    )
    site.store.put("docs", "1", {"x": 1})
    server = OriginServer(site)
    # Render once so the resource is registered at t=0.
    server.handle(Request.get(URL.parse("/p/1")), now=0.0)
    return server


def response(version, url="/p/1"):
    return Response(
        status=Status.OK,
        headers=Headers({"Cache-Control": "max-age=60"}),
        url=URL.parse(url),
        version=version,
        generated_at=0.0,
    )


class TestChecker:
    def test_current_version_is_never_a_violation(self, server):
        checker = DeltaAtomicityChecker(server, delta=0.0)
        record = checker.record_read(response(1), read_at=5.0)
        assert not record.violation
        assert record.staleness == 0.0

    def test_stale_read_within_delta_is_allowed(self, server):
        checker = DeltaAtomicityChecker(server, delta=10.0)
        server.update("docs", "1", {"x": 2}, at=20.0)
        record = checker.record_read(response(1), read_at=25.0)
        assert record.staleness == pytest.approx(5.0)
        assert not record.violation
        assert checker.violation_count == 0

    def test_stale_read_beyond_delta_is_a_violation(self, server):
        checker = DeltaAtomicityChecker(server, delta=10.0)
        server.update("docs", "1", {"x": 2}, at=20.0)
        record = checker.record_read(response(1), read_at=35.0)
        assert record.staleness == pytest.approx(15.0)
        assert record.violation
        assert checker.violation_count == 1

    def test_boundary_read_exactly_delta_is_allowed(self, server):
        checker = DeltaAtomicityChecker(server, delta=10.0)
        server.update("docs", "1", {"x": 2}, at=20.0)
        record = checker.record_read(response(1), read_at=30.0)
        assert not record.violation

    def test_assert_delta_atomic_raises_on_violation(self, server):
        checker = DeltaAtomicityChecker(server, delta=1.0)
        server.update("docs", "1", {"x": 2}, at=20.0)
        checker.record_read(response(1), read_at=50.0)
        with pytest.raises(AssertionError, match="violated"):
            checker.assert_delta_atomic()

    def test_assert_delta_atomic_passes_when_clean(self, server):
        checker = DeltaAtomicityChecker(server, delta=1.0)
        checker.record_read(response(1), read_at=5.0)
        checker.assert_delta_atomic()

    def test_statistics(self, server):
        checker = DeltaAtomicityChecker(server, delta=100.0)
        server.update("docs", "1", {"x": 2}, at=10.0)
        checker.record_read(response(2), read_at=20.0)  # current
        checker.record_read(response(1), read_at=20.0)  # stale by 10
        assert checker.read_count == 2
        assert checker.stale_read_fraction() == 0.5
        assert checker.max_staleness() == pytest.approx(10.0)

    def test_empty_checker_statistics(self, server):
        checker = DeltaAtomicityChecker(server, delta=1.0)
        assert checker.stale_read_fraction() == 0.0
        assert checker.max_staleness() == 0.0

    def test_metadata_required(self, server):
        checker = DeltaAtomicityChecker(server, delta=1.0)
        with pytest.raises(ValueError):
            checker.record_read(
                Response(status=Status.OK), read_at=0.0
            )

    def test_negative_delta_rejected(self, server):
        with pytest.raises(ValueError):
            DeltaAtomicityChecker(server, delta=-1.0)

    def test_stale_violating_read_is_counted(self, server):
        checker = DeltaAtomicityChecker(server, delta=5.0)
        server.update("docs", "1", {"x": 2}, at=10.0)
        checker.record_read(response(1), read_at=30.0)
        assert checker.violation_count == 1
        assert checker.stale_read_fraction() == 1.0
