"""Degraded servings must not inflate the cache hit ratio.

Regression for a double-counting bug: the service worker's graceful-
degradation path counted every stale-if-error/offline serving as a
fresh cache "hit", so outages *raised* the reported hit ratio. Now
degraded servings are tallied separately (``served_degraded_by_layer``)
and excluded from the fresh-hit numerator.
"""

import pytest

from repro.harness import RunResult
from repro.http.headers import Headers
from repro.http.messages import Response, Status, degraded_mark
from repro.obs import MetricsRegistry


def result_with(served, degraded):
    registry = MetricsRegistry()
    result = RunResult(
        scenario_name="test",
        metrics=registry,
        plt=registry.histogram("plt.all"),
    )
    result.served_by_layer = dict(served)
    result.served_degraded_by_layer = dict(degraded)
    return result


class TestHitRatioExcludesDegraded:
    def test_degraded_servings_are_not_hits(self):
        result = result_with(
            {"sw": 60, "edge": 20, "origin": 20}, {"sw": 10}
        )
        # 100 total, 80 avoided the origin, but 10 of those were
        # degraded fallbacks: only 70 are verified-fresh hits.
        assert result.cache_hit_ratio() == 0.70
        assert result.degraded_serve_ratio() == 0.10

    def test_no_degraded_keeps_historical_ratio(self):
        result = result_with({"sw": 60, "origin": 40}, {})
        assert result.cache_hit_ratio() == 0.60
        assert result.degraded_serve_ratio() == 0.0

    def test_all_degraded_run_has_zero_hit_ratio(self):
        result = result_with({"sw": 10}, {"sw": 10})
        assert result.cache_hit_ratio() == 0.0
        assert result.degraded_serve_ratio() == 1.0

    def test_to_dict_reports_both_ratios(self):
        result = result_with({"sw": 8, "origin": 2}, {"sw": 3})
        record = result.to_dict()
        assert record["cache_hit_ratio"] == 0.5
        assert record["degraded_serve_ratio"] == 0.3
        assert record["served_degraded_by_layer"] == {"sw": 3}


@pytest.mark.parametrize(
    "header, mark",
    [
        (None, None),
        ("X-Stale-If-Error", "stale-if-error"),
        ("X-SpeedKit-Offline", "offline"),
        ("X-Load-Shed", "shed"),
        ("X-Txn-Degraded", None),
    ],
)
def test_degraded_mark(header, mark):
    """One predicate names the mark cache admission, 304 conversion,
    the degraded tally, goodput's clean check and span attributes act
    on; a degraded transaction outcome is not a degraded serving."""
    headers = Headers({header: "1"} if header else {})
    response = Response(status=Status.OK, headers=headers, version=1)
    assert degraded_mark(response) == mark


def test_degraded_mark_precedence():
    response = Response(
        status=Status.OK,
        headers=Headers(
            {"X-SpeedKit-Offline": "1", "X-Stale-If-Error": "1"}
        ),
    )
    assert degraded_mark(response) == "stale-if-error"
    response.headers["X-Load-Shed"] = "1"
    assert degraded_mark(response) == "shed"
