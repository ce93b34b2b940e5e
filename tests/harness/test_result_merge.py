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
from repro.harness.results import MERGE, merge_keywise
from repro.obs import MetricsRegistry

#: The fields ``merge`` folds itself: the scenario-name guard, and the
#: registry plus the PLT histograms that alias into it.
BY_HAND = {
    "scenario_name",
    "metrics",
    "plt",
    "plt_by_page_kind",
    "plt_by_connection",
}

FIELDS = dataclasses.fields(RunResult)
RULES = {f.name: f.metadata.get(MERGE) for f in FIELDS}
HINTS = typing.get_type_hints(RunResult)


def fresh():
    registry = MetricsRegistry()
    return RunResult(
        scenario_name="s",
        metrics=registry,
        plt=registry.histogram("plt.all"),
    )


def ledger_fields(kind):
    """Names of the rule-merged fields whose fresh value is *kind*."""
    empty = fresh()
    return [
        name
        for name, rule in RULES.items()
        if rule is not None and isinstance(getattr(empty, name), kind)
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
