"""Tests for the quantile sketches the metrics registry keeps."""

from repro.obs import QuantileSketch
from repro.sim.metrics import MetricRegistry


class TestRegistrySketches:
    def test_sketches_sit_beside_the_other_collectors(self):
        registry = MetricRegistry()
        registry.counter("transport.retries").inc(3)
        registry.sketch("transport.retries").observe(0.5)
        assert registry.counter("transport.retries").value == 3
        assert registry.sketch("transport.retries").count == 1

    def test_sketch_create_or_get(self):
        registry = MetricRegistry()
        sketch = registry.sketch("tier.plt.edge")
        assert isinstance(sketch, QuantileSketch)
        assert registry.sketch("tier.plt.edge") is sketch
        sketch.observe(0.25)
        assert registry.sketch("tier.plt.edge").count == 1
