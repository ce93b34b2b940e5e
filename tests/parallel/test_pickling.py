"""Worker payloads must cross the process boundary as plain data.

Every scenario-spec variant the CLI can construct — fault profiles,
retry policies, storage backends, replication, tracing — must pickle
inside a :class:`~repro.parallel.ShardTask` and build an identical
runner on the other side. Live objects (generators, tracers, fault
injectors, backend instances) are constructed *inside* the worker from
this plain data, never shipped.
"""

import pickle

import pytest

from repro.faults import FaultProfile, RetryPolicy
from repro.harness.scenarios import Scenario, ScenarioSpec
from repro.parallel import ShardTask, ShardedSimulationRunner, run_shard
from repro.storage import BackendSpec

SPEC_VARIANTS = {
    "plain": dict(scenario=Scenario.SPEED_KIT),
    "classic-cdn": dict(scenario=Scenario.CLASSIC_CDN),
    "no-cache": dict(scenario=Scenario.NO_CACHE),
    "ablation-sketch-only": dict(
        scenario=Scenario.SPEED_KIT_SKETCH_ONLY
    ),
    "adaptive-ttl": dict(scenario=Scenario.SPEED_KIT, adaptive_ttl=True),
    "swr-prefetch": dict(
        scenario=Scenario.SPEED_KIT,
        stale_while_revalidate=True,
        prefetch=True,
    ),
    "segments": dict(scenario=Scenario.SPEED_KIT, n_segments=27),
    "outage": dict(
        scenario=Scenario.SPEED_KIT, outage=(100.0, 200.0)
    ),
    "backend-sharded": dict(
        scenario=Scenario.SPEED_KIT,
        backend=BackendSpec(kind="sharded", n_shards=8, seed=3),
    ),
    "backend-batched-overlap": dict(
        scenario=Scenario.SPEED_KIT,
        backend=BackendSpec(kind="batched", overlap=True),
    ),
    "backend-write-behind": dict(
        scenario=Scenario.SPEED_KIT,
        backend=BackendSpec(kind="write-behind", flush_interval=2.0),
    ),
    "replication": dict(
        scenario=Scenario.SPEED_KIT,
        replicate_pops=True,
        n_regions=3,
    ),
    "faults-retry-stale": dict(
        scenario=Scenario.SPEED_KIT,
        fault_profile=FaultProfile.named("flaky"),
        retry=RetryPolicy(budget=2.0),
        stale_if_error=30.0,
    ),
    "tracing": dict(scenario=Scenario.SPEED_KIT, trace_requests=True),
}


@pytest.mark.parametrize("variant", sorted(SPEC_VARIANTS))
def test_every_spec_variant_round_trips(variant, workload):
    catalog, users, trace = workload
    spec = ScenarioSpec(**SPEC_VARIANTS[variant])
    tasks = ShardedSimulationRunner(
        spec, catalog, users, trace, n_shards=2
    ).tasks()
    for task in tasks:
        clone = pickle.loads(pickle.dumps(task))
        assert isinstance(clone, ShardTask)
        assert clone.index == task.index
        assert clone.spec == task.spec
        assert clone.shard_spec().seed == task.shard_spec().seed
        assert len(clone.trace) == len(task.trace)
        assert len(clone.users) == len(task.users)


def test_pickled_task_replays_identically(workload):
    """A round-tripped payload produces the same result as the
    original — the property the worker pool relies on."""
    catalog, users, trace = workload
    spec = ScenarioSpec(scenario=Scenario.SPEED_KIT, delta=60.0)
    task = ShardedSimulationRunner(
        spec, catalog, users, trace, n_shards=2
    ).tasks()[0]
    original = run_shard(task).result
    clone = run_shard(pickle.loads(pickle.dumps(task))).result
    assert clone.to_dict() == original.to_dict()
    assert clone.plt.values == original.plt.values


def test_results_pickle_back(workload):
    """The return leg: a RunResult (with its registry and PLT
    histograms) survives pickling with every value intact."""
    catalog, users, trace = workload
    spec = ScenarioSpec(scenario=Scenario.SPEED_KIT, delta=60.0)
    task = ShardedSimulationRunner(
        spec, catalog, users, trace, n_shards=2
    ).tasks()[0]
    outcome = run_shard(task)
    clone = pickle.loads(pickle.dumps(outcome))
    assert clone.result.plt.values == outcome.result.plt.values
    assert {
        conn: hist.values
        for conn, hist in clone.result.plt_by_connection.items()
    } == {
        conn: hist.values
        for conn, hist in outcome.result.plt_by_connection.items()
    }
    assert clone.result.to_dict() == outcome.result.to_dict()
