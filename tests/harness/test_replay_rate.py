"""Rate-scaled replay: compressed time, identical cache dynamics.

The metamorphic property under test: replaying a trace whose
timestamps were divided by ``R`` with ``time_scale = 1/R`` (so the
Δ bound, TTLs, and the invalidation pipeline compress identically)
must reproduce the recorded run's workload-exact metrics. Verified at
rate 2 on speed-kit, where the unscaled infrastructure latencies
(network transit, origin service time) stay far enough from every
TTL/freshness boundary that the verdict stream is bit-identical.
"""

import dataclasses
import random

import pytest

from repro.harness import Scenario, ScenarioSpec, SimulationRunner
from repro.harness.scenarios import ScenarioSpec as Spec
from repro.workload import (
    CatalogConfig,
    UserPopulationConfig,
    WorkloadConfig,
    WorkloadGenerator,
    generate_catalog,
    generate_users,
    rescale_trace,
)

RATE = 2.0


@pytest.fixture(scope="module")
def workload():
    # Pinned to a configuration where rate-2 compression is verified
    # bit-exact (see module docstring): 30 products, 12 users, the
    # CLI's quick-run traffic rates, seed chain 5/6/7.
    catalog = generate_catalog(
        CatalogConfig(n_products=30), random.Random(5)
    )
    users = generate_users(
        UserPopulationConfig(n_users=12), random.Random(6)
    )
    config = WorkloadConfig(
        duration=900.0, session_rate=0.05, write_rate=0.05
    )
    trace = WorkloadGenerator(catalog, users, config).generate(
        random.Random(7)
    )
    return catalog, users, trace


@pytest.fixture(scope="module")
def base_runner(workload):
    catalog, users, trace = workload
    runner = SimulationRunner(
        ScenarioSpec(scenario=Scenario.SPEED_KIT, seed=5),
        catalog,
        users,
        trace,
    )
    runner.run()
    return runner


@pytest.fixture(scope="module")
def compressed_runner(workload):
    catalog, users, trace = workload
    runner = SimulationRunner(
        ScenarioSpec(
            scenario=Scenario.SPEED_KIT, seed=5, time_scale=1.0 / RATE
        ),
        catalog,
        users,
        rescale_trace(trace, RATE),
    )
    runner.run()
    return runner


def test_compressed_replay_preserves_exact_metrics(
    base_runner, compressed_runner
):
    base = base_runner.result
    fast = compressed_runner.result
    assert fast.page_views == base.page_views
    assert fast.cache_hit_ratio() == base.cache_hit_ratio()
    assert fast.origin_requests == base.origin_requests
    assert fast.reads_checked == base.reads_checked
    assert fast.delta_violations == base.delta_violations == 0


def test_compressed_timeline_runs_at_double_speed(
    base_runner, compressed_runner
):
    """Each page load completes at (event time)/R plus its *unscaled*
    load latency: the recorded timeline compresses by R while the
    per-load PLT observations stay identical."""
    base = sorted(
        t for t, _ in base_runner.metrics.series("plt.timeline").points
    )
    fast = sorted(
        t for t, _ in compressed_runner.metrics.series(
            "plt.timeline"
        ).points
    )
    assert len(fast) == len(base)
    # Completion = start/R + load latency; starts compress exactly,
    # the latency tail does not (it is unscaled infrastructure time,
    # well under a second here), so each completion lands within that
    # slack of the compressed original and the span halves.
    for t_base, t_fast in zip(base, fast):
        assert t_fast == pytest.approx(t_base / RATE, abs=2.0)
    span_base = base[-1] - base[0]
    span_fast = fast[-1] - fast[0]
    assert span_fast == pytest.approx(span_base / RATE, rel=0.01)


def test_time_scaled_is_identity_at_one():
    spec = Spec(scenario=Scenario.SPEED_KIT)
    assert spec.time_scaled() is spec


def test_time_scaled_compresses_wall_time_gap_knobs():
    spec = Spec(
        scenario=Scenario.SPEED_KIT,
        delta=60.0,
        page_ttl=300.0,
        detection_latency=0.04,
        purge_latency=0.08,
        stale_if_error=30.0,
        outage=(100.0, 200.0),
        replication_delay=0.05,
        time_scale=0.5,
    )
    scaled = spec.time_scaled()
    assert scaled.delta == 30.0
    assert scaled.page_ttl == 150.0
    assert scaled.detection_latency == 0.02
    assert scaled.purge_latency == 0.04
    assert scaled.stale_if_error == 15.0
    assert scaled.outage == (50.0, 100.0)
    # Infrastructure speed is not the timeline: replication stays put.
    assert scaled.replication_delay == 0.05
    # Applied once: a second call is a no-op.
    assert scaled.time_scale == 1.0
    assert scaled.time_scaled() is scaled


def test_time_scaled_preserves_none_knobs():
    spec = Spec(scenario=Scenario.SPEED_KIT, time_scale=0.25)
    scaled = spec.time_scaled()
    assert scaled.stale_if_error is None
    assert scaled.outage is None
    assert scaled.delta == spec.delta * 0.25


def test_time_scaled_rejects_nonpositive():
    spec = Spec(scenario=Scenario.SPEED_KIT, time_scale=-1.0)
    with pytest.raises(ValueError, match="positive"):
        spec.time_scaled()


@pytest.mark.parametrize(
    "outage",
    [(200.0, 100.0), (100.0, 100.0), (-5.0, 10.0), (1.0, 2.0, 3.0), 5.0],
)
def test_bad_outage_rejected_at_construction(outage):
    with pytest.raises(ValueError, match=r"ScenarioSpec\.outage"):
        Spec(scenario=Scenario.SPEED_KIT, outage=outage)


def test_time_scaled_outage_is_validated():
    # ``time_scaled`` rebuilds through ``replace``, so the scaled
    # window passes the same check as a hand-written one.
    spec = Spec(
        scenario=Scenario.SPEED_KIT, outage=(10.0, 20.0), time_scale=0.5
    )
    assert spec.time_scaled().outage == (5.0, 10.0)
    # The smallest subnormal window halves to the empty [0, 0).
    tiny = dataclasses.replace(spec, outage=(0.0, 5e-324))
    with pytest.raises(ValueError, match=r"ScenarioSpec\.outage"):
        tiny.time_scaled()


def test_runner_folds_time_scale_on_construction(workload):
    catalog, users, trace = workload
    runner = SimulationRunner(
        ScenarioSpec(
            scenario=Scenario.SPEED_KIT, delta=60.0, time_scale=0.5
        ),
        catalog,
        users,
        rescale_trace(trace, 2.0),
    )
    assert runner.spec.delta == 30.0
    assert runner.spec.time_scale == 1.0
