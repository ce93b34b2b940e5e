"""Every ``RunResult`` field declares how shards merge, and merges so.

The cases are built from ``dataclasses.fields(RunResult)``: a field
added without a merge rule fails here, and a field added with one is
checked against that rule without touching this file.
"""

import dataclasses
import operator
import typing

import pytest

from repro.harness import RunResult
from repro.harness.results import MERGE, merge_histograms, merge_keywise
from repro.parallel import ShardedSimulationRunner
from repro.parallel.worker import run_shard
from repro.sim.metrics import Histogram, MetricRegistry

from tests.obs.conftest import small_workload, spec_for

#: The field ``merge`` checks instead of folding: the scenario name.
BY_HAND = {"scenario_name"}

FIELDS = dataclasses.fields(RunResult)
RULES = {f.name: f.metadata.get(MERGE) for f in FIELDS}
HINTS = typing.get_type_hints(RunResult)


def fresh():
    return RunResult(scenario_name="s")


def _holds_histograms(name):
    """Is *name* a map of histograms rather than of counts?"""
    return typing.get_args(HINTS[name])[-1:] == (Histogram,)


def ledger_fields(kind):
    """Names of the rule-merged count fields whose fresh value is
    *kind*."""
    empty = fresh()
    return [
        name
        for name, rule in RULES.items()
        if rule is not None
        and isinstance(getattr(empty, name), kind)
        and not _holds_histograms(name)
    ]


def test_every_field_declares_a_merge_rule():
    missing = [f.name for f in FIELDS if MERGE not in f.metadata]
    assert missing == [], f"fields without a merge rule: {missing}"
    by_hand = {name for name, rule in RULES.items() if rule is None}
    assert by_hand == BY_HAND


def test_extrema_take_the_max():
    """Peaks and worst staleness are extrema, not flows."""
    extrema = {name for name, rule in RULES.items() if rule is max}
    assert extrema == {
        "max_staleness",
        "uncovered_max_staleness",
        "queue_depth_peak",
    }


def test_every_field_is_covered_by_a_case():
    covered = (
        set(ledger_fields((int, float)))
        | set(ledger_fields(dict))
        | {"tier_breakdown", "trace_records"}
        | {"metrics", "plt", "plt_by_connection"}
        | BY_HAND
    )
    assert covered == {f.name for f in FIELDS}


@pytest.mark.parametrize("ours_larger", (False, True))
def test_scalars_merge_by_their_rule(ours_larger):
    ours, theirs = fresh(), fresh()
    expected = {}
    for index, name in enumerate(ledger_fields((int, float))):
        kind = type(getattr(ours, name))
        small, large = kind(index + 1), kind(100 + 3 * index)
        a, b = (large, small) if ours_larger else (small, large)
        setattr(ours, name, a)
        setattr(theirs, name, b)
        rule = RULES[name]
        if rule is operator.add:
            expected[name] = a + b
        elif rule is max:
            expected[name] = max(a, b)
        else:
            pytest.fail(f"{name}: no expectation for rule {rule!r}")
    ours.merge(theirs)
    assert {name: getattr(ours, name) for name in expected} == expected


def _nested(name):
    """Does the dict field *name* map keys to per-key dicts?"""
    value_type = typing.get_args(HINTS[name])[1]
    return typing.get_origin(value_type) is dict


def test_dicts_sum_key_by_key():
    ours, theirs = fresh(), fresh()
    expected = {}
    for index, name in enumerate(ledger_fields(dict)):
        assert RULES[name] is merge_keywise, name
        a = {"shared": index + 1, "ours": 7}
        b = {"shared": 10 * (index + 1), "theirs": 5}
        want = {"shared": 11 * (index + 1), "ours": 7, "theirs": 5}
        if _nested(name):
            a = {"both": dict(a), "ours-only": {"k": 2}}
            b = {"both": dict(b), "theirs-only": {"k": 3}}
            want = {
                "both": want,
                "ours-only": {"k": 2},
                "theirs-only": {"k": 3},
            }
        setattr(ours, name, a)
        setattr(theirs, name, b)
        expected[name] = want
    ours.merge(theirs)
    assert {name: getattr(ours, name) for name in expected} == expected
    # The merge copies, never aliases, the other shard's maps.
    for name in expected:
        assert getattr(theirs, name) is not getattr(ours, name)
        for key, value in getattr(theirs, name).items():
            if isinstance(value, dict):
                assert value is not getattr(ours, name)[key]


def test_a_bare_result_constructs_and_merges():
    ours, theirs = fresh(), fresh()
    assert ours.merge(theirs) is ours
    assert ours.plt.count == 0 and ours.plt_by_connection == {}
    with pytest.raises(ValueError):
        ours.merge(RunResult(scenario_name="other"))


def test_registries_merge_exactly():
    ours, theirs = fresh(), fresh()
    assert RULES["metrics"] is MetricRegistry.merge
    ours.metrics.counter("hits").inc(2)
    theirs.metrics.counter("hits").inc(3)
    theirs.metrics.sketch("lat").observe(0.5)
    ours.merge(theirs)
    assert ours.metrics.counter("hits").value == 5
    assert ours.metrics.sketch("lat").count == 1


def test_plt_histograms_concatenate():
    ours, theirs = fresh(), fresh()
    assert RULES["plt"] is Histogram.merge
    assert RULES["plt_by_connection"] is merge_histograms
    ours.plt.extend([1.0, 3.0])
    theirs.plt.extend([2.0])
    ours.plt_by_connection["dsl"] = Histogram("dsl")
    ours.plt_by_connection["dsl"].extend([1.0, 3.0])
    theirs.plt_by_connection["dsl"] = Histogram("dsl")
    theirs.plt_by_connection["dsl"].observe(2.0)
    theirs.plt_by_connection["3g"] = Histogram("3g")
    theirs.plt_by_connection["3g"].observe(4.0)
    ours.merge(theirs)
    assert sorted(ours.plt.values) == [1.0, 2.0, 3.0]
    merged = ours.plt_by_connection
    assert sorted(merged["dsl"].values) == [1.0, 2.0, 3.0]
    assert merged["3g"].values == (4.0,)
    # The merge copies, never aliases, the other shard's histograms.
    assert merged["3g"] is not theirs.plt_by_connection["3g"]
    assert theirs.plt.values == (2.0,)


def test_trace_records_concatenate_through_none():
    ours, theirs = fresh(), fresh()
    ours.merge(theirs)
    assert ours.trace_records is None
    theirs.trace_records = [{"span": 1}]
    ours.merge(theirs)
    assert ours.trace_records == [{"span": 1}]
    assert ours.trace_records is not theirs.trace_records
    theirs.trace_records = [{"span": 2}]
    ours.merge(theirs)
    assert ours.trace_records == [{"span": 1}, {"span": 2}]
    theirs.trace_records = None
    ours.merge(theirs)
    assert ours.trace_records == [{"span": 1}, {"span": 2}]


def test_tier_breakdown_sums_through_none():
    ours, theirs = fresh(), fresh()
    ours.merge(theirs)
    assert ours.tier_breakdown is None
    theirs.tier_breakdown = {"origin": 1.5}
    ours.merge(theirs)
    assert ours.tier_breakdown == {"origin": 1.5}
    assert ours.tier_breakdown is not theirs.tier_breakdown
    theirs.tier_breakdown = {"origin": 0.25, "network": 2.0}
    ours.merge(theirs)
    assert ours.tier_breakdown == {"origin": 1.75, "network": 2.0}
    theirs.tier_breakdown = None
    ours.merge(theirs)
    assert ours.tier_breakdown == {"origin": 1.75, "network": 2.0}


def test_two_shard_merge_concatenates_plt_per_connection():
    """The merged per-connection PLT histograms hold exactly the two
    shards' observations (``to_dict()`` goldens do not pin them)."""
    catalog, users, trace = small_workload()
    tasks = ShardedSimulationRunner(
        spec_for("none"), catalog, users, trace, n_shards=2, workers=1
    ).tasks()
    ours, theirs = (run_shard(task).result for task in tasks)
    expected = {}
    for shard in (ours, theirs):
        for conn, hist in shard.plt_by_connection.items():
            expected.setdefault(conn, []).extend(hist.values)
    assert len(expected) > 1, "workload exercises one connection only"
    ours.merge(theirs)
    merged = ours.plt_by_connection
    assert set(merged) == set(expected)
    for conn, values in expected.items():
        assert sorted(merged[conn].values) == sorted(values), conn
    assert sum(hist.count for hist in merged.values()) == ours.plt.count
