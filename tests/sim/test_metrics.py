"""Tests for metric collectors."""

import pytest

import repro.sim.metrics as metrics
from repro.sim import Counter, Gauge, Histogram, MetricRegistry, TimeSeries


class TestCounter:
    def test_starts_at_zero(self):
        assert Counter("c").value == 0.0

    def test_increments(self):
        c = Counter("c")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Counter("c").inc(-1)


class TestGauge:
    def test_set_and_add(self):
        g = Gauge("g")
        g.set(10)
        g.add(-3)
        assert g.value == 7.0


class TestHistogram:
    @pytest.mark.parametrize("query", ("min", "max", "mean", "median"))
    def test_empty_queries_raise_value_error(self, query):
        with pytest.raises(ValueError, match="histogram 'h' is empty"):
            getattr(Histogram("h"), query)()

    def test_empty_percentile_raises(self):
        with pytest.raises(ValueError):
            Histogram("h").percentile(50)

    def test_single_value(self):
        h = Histogram("h")
        h.observe(5.0)
        assert h.percentile(0) == 5.0
        assert h.percentile(100) == 5.0
        assert h.median() == 5.0

    def test_median_of_odd_count(self):
        h = Histogram("h")
        h.extend([1, 2, 3, 4, 5])
        assert h.median() == 3.0

    def test_median_interpolates_even_count(self):
        h = Histogram("h")
        h.extend([1, 2, 3, 4])
        assert h.median() == 2.5

    def test_percentile_bounds_checked(self):
        h = Histogram("h")
        h.observe(1.0)
        with pytest.raises(ValueError):
            h.percentile(101)
        with pytest.raises(ValueError):
            h.percentile(-1)

    def test_unsorted_input_handled(self):
        h = Histogram("h")
        h.extend([9, 1, 5, 3, 7])
        assert h.min() == 1
        assert h.max() == 9
        assert h.median() == 5

    def test_mean_and_stddev(self):
        h = Histogram("h")
        h.extend([2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0])
        assert h.mean() == 5.0
        assert h.stddev() == pytest.approx(2.138, abs=1e-3)

    def test_stddev_of_single_value_is_zero(self):
        h = Histogram("h")
        h.observe(3.0)
        assert h.stddev() == 0.0

    def test_summary_keys(self):
        h = Histogram("h")
        h.extend(range(100))
        summary = h.summary()
        assert set(summary) == {"count", "mean", "p50", "p95", "p99", "min", "max"}
        assert summary["count"] == 100
        assert summary["p95"] == pytest.approx(94.05)

    def test_summary_of_empty_histogram(self):
        assert Histogram("h").summary() == {"count": 0}

    def test_observe_after_percentile_query(self):
        h = Histogram("h")
        h.extend([5, 1, 3])
        assert h.median() == 3
        h.observe(0)
        assert h.min() == 0


class TestTimeSeries:
    def test_record_keeps_points_in_order(self):
        ts = TimeSeries("s")
        ts.record(1.0, 10)
        ts.record(2.0, 20)
        ts.record(3.0, 30)
        assert ts.points == [(1.0, 10.0), (2.0, 20.0), (3.0, 30.0)]
        assert len(ts) == 3


class TestMetricRegistry:
    def test_same_name_returns_same_object(self):
        reg = MetricRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.histogram("h") is reg.histogram("h")
        assert reg.gauge("g") is reg.gauge("g")
        assert reg.series("s") is reg.series("s")

    @pytest.mark.parametrize(
        "kind, collector",
        [
            ("counter", "Counter"),
            ("gauge", "Gauge"),
            ("histogram", "Histogram"),
            ("series", "TimeSeries"),
            ("sketch", "QuantileSketch"),
        ],
    )
    def test_lookup_of_an_existing_metric_allocates_nothing(
        self, kind, collector, monkeypatch
    ):
        reg = MetricRegistry()
        existing = getattr(reg, kind)("m")

        def allocate(*args, **kwargs):
            raise AssertionError(f"{kind}() built a throwaway {collector}")

        monkeypatch.setattr(metrics, collector, allocate)
        assert getattr(reg, kind)("m") is existing
