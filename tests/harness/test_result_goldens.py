"""Golden ``RunResult.to_dict()`` records.

The run-level ledger — every counter, tally, extremum, and derived
ratio a report or benchmark reads — is pinned per configuration,
replayed serially and through the sharded orchestrator (two shards,
in-process). Any change to how an event is counted or how shards
merge shows up here as a key-level diff. Refresh with::

    pytest tests/harness/test_result_goldens.py --update-goldens
"""

import dataclasses
import json
from pathlib import Path

import pytest

from repro.harness import SimulationRunner
from repro.parallel import ShardedSimulationRunner
from repro.storage import BackendSpec

from tests.obs.conftest import small_workload, spec_for

GOLDEN_DIR = Path(__file__).parent / "goldens"


def _config(name):
    """``(spec, workload overrides)`` of one golden configuration."""
    if name in ("none", "chaos", "overload"):
        return spec_for(name), {}
    if name == "overload-10x":
        return (
            dataclasses.replace(spec_for("overload"), load_multiplier=10.0),
            {},
        )
    if name == "serializable":
        # Under chaos so the ledger also carries 5xx failures and
        # degraded (stale-if-error / offline) servings.
        return (
            dataclasses.replace(spec_for("chaos"), consistency="serializable"),
            {"txn_mix": 0.5},
        )
    base = spec_for("none")
    if name == "gdpr":
        return base, {"erase_fraction": 0.5, "access_rate": 0.02}
    if name == "write-behind":
        return (
            dataclasses.replace(base, backend=BackendSpec(kind="write-behind")),
            {},
        )
    if name == "outage":
        # One origin window long enough that the ledger carries both
        # stale-if-error and offline servings next to 5xx failures.
        return (
            dataclasses.replace(
                base, outage=(80.0, 200.0), stale_if_error=120.0
            ),
            {},
        )
    if name == "remote":
        return (
            dataclasses.replace(base, backend=BackendSpec(kind="remote")),
            {},
        )
    if name == "replicated":
        return dataclasses.replace(base, replicate_pops=True), {}
    raise ValueError(name)


CONFIGS = (
    "none",
    "chaos",
    "overload",
    "serializable",
    "gdpr",
    "write-behind",
    "outage",
    "remote",
    "replicated",
    "overload-10x",
)


def _run(name, mode):
    spec, overrides = _config(name)
    catalog, users, trace = small_workload(**overrides)
    if mode == "serial":
        return SimulationRunner(spec, catalog, users, trace).run()
    return ShardedSimulationRunner(
        spec, catalog, users, trace, n_shards=2, workers=1
    ).run()


@pytest.mark.parametrize("mode", ("serial", "sharded"))
@pytest.mark.parametrize("name", CONFIGS)
def test_result_matches_golden(name, mode, request):
    record = _run(name, mode).to_dict()
    path = GOLDEN_DIR / f"result-{name}-{mode}.json"
    if request.config.getoption("--update-goldens"):
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
        pytest.skip(f"updated golden {path.name}")
    assert path.exists(), (
        f"missing golden {path}; generate it with --update-goldens"
    )
    golden = json.loads(path.read_text())
    diff = sorted(
        key
        for key in record.keys() | golden.keys()
        if record.get(key) != golden.get(key)
    )
    assert record == golden, f"to_dict() deviates from golden at {diff}"
    # Dict equality treats 5 == 5.0; the archive format does not.
    assert json.dumps(record, sort_keys=True) == json.dumps(
        golden, sort_keys=True
    )
