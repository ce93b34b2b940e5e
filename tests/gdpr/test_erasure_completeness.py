"""The completeness property behind the GDPR compliance gate.

Two complementary attacks on the same claim — after ``erase(user)``,
no tier of the stack can serve that user's bytes:

1. **Full-stack replays.** A GDPRbench-style workload (erase and
   subject-access requests interleaved with organic traffic) runs
   under every asynchronous-propagation configuration — synchronous
   remote storage, batched pipelining, write-behind drains, async PoP
   replication, fault injection, and combinations. Every erase must
   report zero residuals, and a post-run deep re-walk must still come
   back empty.

2. **Adversarial injection.** The organic workload keeps identity out
   of shared caches by design (that is the paper's scrubber at work),
   so these tests plant user-keyed and user-valued entries directly
   into every tier — edge PoPs, browser and service-worker caches,
   write-behind flush queues, in-flight replicas, the Cache Sketch —
   and prove one ``erase`` call hunts all of them down.
"""

import random

import pytest

from repro.faults import PROFILES, RetryPolicy
from repro.harness import Scenario, ScenarioSpec, SimulationRunner
from repro.http.messages import Response, Status
from repro.storage import BackendSpec
from repro.workload import (
    CatalogConfig,
    UserPopulationConfig,
    WorkloadConfig,
    WorkloadGenerator,
    generate_catalog,
    generate_users,
)

SEEDS = (3, 11)

CONFIGS = {
    "sync-remote": dict(backend=BackendSpec(kind="remote")),
    "batched-overlap": dict(
        backend=BackendSpec(kind="batched", overlap=True)
    ),
    "write-behind": dict(backend=BackendSpec(kind="write-behind")),
    "replicated": dict(replicate_pops=True, n_regions=3),
    "write-behind-replicated": dict(
        backend=BackendSpec(kind="write-behind"),
        replicate_pops=True,
        n_regions=3,
    ),
    "faulted": dict(
        fault_profile=PROFILES["outage"],
        stale_if_error=60.0,
        retry=RetryPolicy(),
    ),
    "chaos-replicated": dict(
        fault_profile=PROFILES["chaos"],
        stale_if_error=60.0,
        retry=RetryPolicy(),
        replicate_pops=True,
        n_regions=3,
    ),
}

_RUNS = {}


def _workload(seed):
    catalog = generate_catalog(
        CatalogConfig(n_products=30), random.Random(seed)
    )
    users = generate_users(
        UserPopulationConfig(n_users=12, consent_fraction=1.0),
        random.Random(seed + 1),
    )
    config = WorkloadConfig(
        duration=600.0,
        session_rate=0.1,
        mean_session_length=4.0,
        think_time_mean=8.0,
        write_rate=0.08,
        cart_add_prob=0.5,
        erase_fraction=0.5,
        access_rate=0.02,
    )
    trace = WorkloadGenerator(catalog, users, config).generate(
        random.Random(seed + 2)
    )
    return catalog, users, trace


def run_config(config, seed):
    """One (config, seed) replay, cached — returns the live runner."""
    cached = _RUNS.get((config, seed))
    if cached is not None:
        return cached
    catalog, users, trace = _workload(seed)
    spec = ScenarioSpec(
        scenario=Scenario.SPEED_KIT,
        delta=30.0,
        seed=seed,
        **CONFIGS[config],
    )
    runner = SimulationRunner(spec, catalog, users, trace)
    runner.run()
    _RUNS[(config, seed)] = runner
    return runner


@pytest.fixture(params=sorted(CONFIGS))
def config(request):
    return request.param


@pytest.fixture(params=SEEDS, ids=lambda seed: f"seed{seed}")
def runner(request, config):
    return run_config(config, request.param)


class TestWorkloadErasure:
    def test_schedule_exercises_the_gdpr_path(self, runner):
        """Guard against vacuous passes: erasures and accesses really
        replayed, and the erased users had origin data to remove."""
        assert runner.result.erasures > 0
        assert runner.result.accesses > 0
        assert runner.result.erasure_removed > 0

    def test_every_erase_reported_zero_residuals(self, runner):
        assert runner.result.erasure_residuals == 0

    def test_post_run_deep_walk_finds_nothing(self, runner):
        """Re-audit after the run: drained queues, arrived replicas and
        expiries must not have resurrected a single byte."""
        assert runner.gdpr.erased_users
        for user_id in runner.gdpr.erased_users:
            assert runner.gdpr.residuals(user_id) == {}

    def test_erasure_latency_was_accounted(self, runner):
        """One latency observation per erase call. Compared against the
        coordinator's erase log, not ``result.erasures``: other test
        modules may have issued further manual erases on this cached
        runner."""
        sketch = runner.metrics.sketch("gdpr.erase.latency")
        count = len(runner.gdpr.erased_users)
        assert count >= runner.result.erasures > 0
        assert sketch.count == count

    def test_staleness_guarantee_survives_the_gdpr_mix(self, runner):
        """Interleaved erasures must not cost coherence elsewhere."""
        runner.checker.assert_delta_atomic()


def _inject_everywhere(runner, user_id):
    """Plant user-identifying bytes in every tier; return the labels
    that received an injection."""
    now = runner.env.now
    key = f"/injected/carts/{user_id}"
    tiers = []
    for name, pop in runner.cdn.pops.items():
        response = Response(
            status=Status.OK,
            body=f"cart of {user_id}",
            version=1,
            served_by=name,
            generated_at=now,
        )
        pop.store.put(key, response, now)
        tiers.append(f"edge:{name}")
    for label, store in runner._client_cache_stores().items():
        response = Response(
            status=Status.OK,
            body={"viewer": user_id},
            version=1,
            generated_at=now,
        )
        store.put(key, response, now)
        tiers.append(label)
    if runner.sketch is not None:
        runner.sketch.report_read(key, expires_at=now + 300.0, now=now)
    return tiers


class TestInjectedErasure:
    """Defense in depth: even bytes that bypassed the scrubber die."""

    @pytest.mark.parametrize("seed", SEEDS, ids=lambda s: f"seed{s}")
    def test_planted_entries_are_hunted_down_in_every_tier(self, seed):
        runner = run_config("write-behind-replicated", seed)
        user_id = "uinjected"
        tiers = _inject_everywhere(runner, user_id)
        assert runner.gdpr.residuals(user_id)  # they are really there
        report = runner.gdpr.erase(user_id)
        assert report.complete, report.residuals
        assert runner.gdpr.residuals(user_id) == {}
        for label in tiers:
            assert report.cache_removed.get(label, 0) >= 1, label
        assert report.sketch_keys_forgotten >= 1

    @pytest.mark.parametrize("seed", SEEDS, ids=lambda s: f"seed{s}")
    def test_planted_in_flight_replicas_are_dropped(self, seed):
        runner = run_config("replicated", seed)
        user_id = "uinjected2"
        replicator = runner.cdn.replicator
        key = f"/inflight/carts/{user_id}"
        response = Response(
            status=Status.OK, body=f"cart of {user_id}", version=1
        )
        source = next(iter(runner.cdn.pops))
        replicator.on_admit(source, key, response, runner.env.now)
        assert replicator.in_flight_matching(lambda k: user_id in k)
        report = runner.gdpr.erase(user_id)
        assert report.replicas_dropped >= 1
        assert report.complete, report.residuals

    @pytest.mark.parametrize("seed", SEEDS, ids=lambda s: f"seed{s}")
    def test_bystander_entries_survive_a_targeted_erase(self, seed):
        runner = run_config("write-behind-replicated", seed)
        now = runner.env.now
        victim, bystander = "uvictim", "uvictim2"
        pop = next(iter(runner.cdn.pops.values()))
        for uid in (victim, bystander):
            pop.store.put(
                f"/injected/carts/{uid}",
                Response(
                    status=Status.OK, body=f"cart of {uid}", version=1
                ),
                now,
            )
        runner.gdpr.erase(victim)
        assert runner.gdpr.residuals(victim) == {}
        # The prefix-sharing bystander's entry is untouched.
        assert pop.store.peek(f"/injected/carts/{bystander}") is not None

    @pytest.mark.parametrize("seed", SEEDS, ids=lambda s: f"seed{s}")
    def test_erase_is_idempotent(self, seed):
        runner = run_config("sync-remote", seed)
        user_id = "uinjected3"
        pop = next(iter(runner.cdn.pops.values()))
        pop.store.put(
            f"/injected/carts/{user_id}",
            Response(
                status=Status.OK, body=f"cart of {user_id}", version=1
            ),
            runner.env.now,
        )
        first = runner.gdpr.erase(user_id)
        second = runner.gdpr.erase(user_id)
        assert first.complete and second.complete
        assert second.entries_removed == 0
