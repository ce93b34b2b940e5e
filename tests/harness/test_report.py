"""Tests for the markdown report generator."""

import random

import pytest

from repro.harness import (
    RunResult,
    Scenario,
    ScenarioSpec,
    SimulationRunner,
    render_report,
)
from repro.workload import (
    CatalogConfig,
    UserPopulationConfig,
    WorkloadConfig,
    WorkloadGenerator,
    generate_catalog,
    generate_users,
)


@pytest.fixture(scope="module")
def small_run():
    catalog = generate_catalog(CatalogConfig(n_products=20), random.Random(0))
    users = generate_users(UserPopulationConfig(n_users=8), random.Random(1))
    config = WorkloadConfig(duration=300.0, session_rate=0.1)
    trace = WorkloadGenerator(catalog, users, config).generate(random.Random(2))
    results = [
        SimulationRunner(
            ScenarioSpec(scenario=scenario), catalog, users, trace
        ).run()
        for scenario in (Scenario.CLASSIC_CDN, Scenario.SPEED_KIT)
    ]
    return trace, results


def test_report_sections(small_run):
    trace, results = small_run
    report = render_report(results, trace=trace)
    for heading in (
        "# Speed Kit reproduction report",
        "## Workload",
        "## Scenario comparison",
        "## Cache hit ratio by content type",
        "## Coherence and personalization",
        "## A/B analysis",
        "## Page load time distributions",
    ):
        assert heading in report
    assert "classic-cdn" in report
    assert "speed-kit" in report


def test_report_without_trace(small_run):
    _, results = small_run
    report = render_report(results)
    assert "## Workload" not in report
    assert "## Scenario comparison" in report


def test_report_custom_title(small_run):
    _, results = small_run
    report = render_report(results, title="My Eval")
    assert report.startswith("# My Eval")


def test_single_result_skips_ab(small_run):
    _, results = small_run
    report = render_report(results[:1])
    assert "## A/B analysis" not in report


def test_empty_results_rejected():
    with pytest.raises(ValueError):
        render_report([])


def test_empty_plt_handled():
    result = RunResult(scenario_name="empty")
    report = render_report([result])
    assert "## Page load time distributions" not in report
