"""The benchmark's workloads and how their inputs are built from a seed.

Every workload runs the ``speed-kit`` scenario. Inputs are built the way
``repro run --seed S`` builds them (catalog seed S, users seed S + 1,
trace seed S + 2), and the scenario's root seed is S as well, so one
seed fixes every modeled result.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass, replace
from typing import Optional

#: A page view counts toward goodput only if it met this PLT limit with
#: every response fresh and unmarked (the overload profiles' SLO).
GOODPUT_SLO_S = 2.0


@dataclass(frozen=True)
class Workload:
    name: str
    #: Why the workload exists: the layers it loads and leaves idle.
    why: str
    users: int
    #: Session arrivals per simulated second (open loop).
    session_rate: float
    #: Simulated seconds of traffic.
    duration: float
    #: Background product updates per simulated second.
    write_rate: float
    #: Distinct replay seeds one timed run pools: enough that the
    #: run's modeled metrics and throughput steady across seeds.
    replays: int
    products: int = 60
    txn_mix: float = 0.0
    consistency: Optional[str] = None
    #: GDPRbench-style mix as ``repro run --gdpr-mix`` sets it: erasure
    #: fraction, and subject-access requests at mix x session rate.
    gdpr_mix: float = 0.0
    overload_profile: Optional[str] = None
    load_multiplier: float = 1.0
    admission: bool = False
    autoscale: bool = False

    def scaled(self, factor: float) -> "Workload":
        """The same traffic shape over ``factor`` times the duration."""
        return replace(self, duration=self.duration * factor)

    def config(self) -> dict:
        record = asdict(self)
        del record["why"]
        return record


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload(
            name="population",
            why=(
                "Many users, about one session each, read-mostly: per-user "
                "state (speedkit and browser stacks, sketch snapshots, "
                "simnet nearest-edge scans, coherence records) does the "
                "work; gdpr, txn and overload stay idle."
            ),
            users=1500,
            session_rate=6.0,
            duration=225.0,
            write_rate=0.05,
            replays=4,
        ),
        Workload(
            name="write-mix",
            why=(
                "Few returning users, heavy writes, serializable txns and "
                "GDPR erasure/access: origin writes, invalidation, cdn "
                "purges, txn validation and gdpr walks do the work; "
                "overload stays idle."
            ),
            users=100,
            session_rate=2.0,
            duration=100.0,
            write_rate=2.0,
            replays=16,
            txn_mix=0.3,
            consistency="serializable",
            gdpr_mix=0.05,
        ),
        Workload(
            name="flash-crowd",
            why=(
                "Flash-crowd overload profile at 10x load with admission "
                "and autoscale: overload governors, bounded queues and "
                "shedding do the work; gdpr and txn stay idle."
            ),
            users=250,
            session_rate=0.08,
            duration=1500.0,
            write_rate=0.05,
            replays=6,
            overload_profile="flash-crowd",
            load_multiplier=10.0,
            admission=True,
            autoscale=True,
        ),
    )
}


def build_world(workload: Workload, seed: int):
    """The catalog and user population for ``seed``."""
    from repro.workload import CatalogConfig, UserPopulationConfig, WorldSpec

    return WorldSpec(
        catalog=CatalogConfig(n_products=workload.products),
        users=UserPopulationConfig(n_users=workload.users),
        seed=seed,
        catalog_seed=seed,
        users_seed=seed + 1,
    ).build()


def generate_trace(workload: Workload, catalog, users, seed: int):
    """The workload's event trace for ``seed``."""
    from repro.workload import WorkloadConfig, WorkloadGenerator

    config = WorkloadConfig(
        duration=workload.duration,
        session_rate=workload.session_rate,
        write_rate=workload.write_rate,
        txn_mix=workload.txn_mix,
        erase_fraction=workload.gdpr_mix,
        access_rate=workload.gdpr_mix * workload.session_rate,
    )
    return WorkloadGenerator(catalog, users, config).generate(
        random.Random(seed + 2)
    )


def scenario_spec(workload: Workload, seed: int):
    """The ``ScenarioSpec`` the workload replays under."""
    from repro.harness import Scenario, ScenarioSpec
    from repro.overload import OVERLOAD_PROFILES

    kwargs = {}
    if workload.consistency is not None:
        kwargs["consistency"] = workload.consistency
    if workload.overload_profile is not None:
        kwargs.update(
            overload_profile=OVERLOAD_PROFILES[workload.overload_profile],
            load_multiplier=workload.load_multiplier,
            admission=workload.admission,
            autoscale=workload.autoscale,
        )
    return ScenarioSpec(scenario=Scenario.SPEED_KIT, seed=seed, **kwargs)
