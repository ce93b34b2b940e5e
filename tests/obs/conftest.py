"""Shared traced runs for the observability test suite.

One small deterministic workload replayed through the full Speed Kit
stack with tracing on, under the perfect world ("none") and a chaotic
fault regime ("chaos").  Runs are cached per profile so the golden,
invariant, and coherence-bridge tests all analyze the same traces.
"""

import dataclasses
import random

from repro.harness import Scenario, ScenarioSpec, SimulationRunner
from repro.workload import (
    CatalogConfig,
    UserPopulationConfig,
    WorkloadConfig,
    WorkloadGenerator,
    generate_catalog,
    generate_users,
)

#: Regimes the traced regression runs cover: the perfect world, a
#: chaotic fault profile, and a saturated overload control plane.
TRACE_PROFILES = ("none", "chaos", "overload")

SEED = 5

_RUNNERS = {}


def small_workload(seed=SEED, **config):
    """The fixed-seed workload; *config* overrides ``WorkloadConfig``
    fields (transaction or GDPR mixes) on top of the defaults."""
    catalog = generate_catalog(
        CatalogConfig(n_products=15), random.Random(seed)
    )
    users = generate_users(
        UserPopulationConfig(n_users=6, consent_fraction=1.0),
        random.Random(seed + 1),
    )
    config = dataclasses.replace(
        WorkloadConfig(
            duration=240.0,
            session_rate=0.06,
            mean_session_length=3.0,
            think_time_mean=6.0,
            write_rate=0.06,
        ),
        **config,
    )
    trace = WorkloadGenerator(catalog, users, config).generate(
        random.Random(seed + 2)
    )
    return catalog, users, trace


def spec_for(profile, seed=SEED):
    kwargs = {}
    if profile == "chaos":
        from repro.faults import PROFILES, RetryPolicy

        kwargs = dict(
            fault_profile=PROFILES["chaos"],
            stale_if_error=60.0,
            retry=RetryPolicy(),
        )
    elif profile == "overload":
        from repro.overload import OverloadProfile

        # Both the origin and the (single-slot) PoP are governed and
        # the autoscaler is on, so the trace records every overload
        # span kind: queue waits, sheds, and scale decisions.
        kwargs = dict(
            overload_profile=OverloadProfile(
                name="golden-overload",
                origin_capacity=2,
                origin_service_time=0.25,
                pop_capacity=1,
                pop_service_time=0.25,
                queue_limit=16,
                personalized_queue_limit=4,
                slo=2.0,
            ),
            load_multiplier=6.0,
            admission=True,
            autoscale=True,
        )
    return ScenarioSpec(
        scenario=Scenario.SPEED_KIT,
        delta=30.0,
        seed=seed,
        trace_requests=True,
        **kwargs,
    )


def traced_runner(profile, seed=SEED):
    """The (cached) live runner of one traced profile replay."""
    cached = _RUNNERS.get((profile, seed))
    if cached is None:
        catalog, users, trace = small_workload(seed)
        cached = SimulationRunner(
            spec_for(profile, seed), catalog, users, trace
        )
        cached.run()
        _RUNNERS[(profile, seed)] = cached
    return cached
