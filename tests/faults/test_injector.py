"""Tests for the seeded fault injector: windows, determinism, coins."""

import pytest

from repro.faults import FaultInjector, FaultProfile


def hand_built():
    """An injector with no random faults: windows come only from
    :meth:`FaultInjector.add_outage`."""
    return FaultInjector(FaultProfile(), duration=3600.0)


class TestHandBuiltSchedule:
    def test_empty_and_reversed_windows_rejected(self):
        injector = hand_built()
        with pytest.raises(ValueError, match="empty outage window"):
            injector.add_outage("origin", 10.0, 10.0)
        with pytest.raises(ValueError, match="empty outage window"):
            injector.add_outage("origin", 10.0, 5.0)
        assert injector.outages == {}

    def test_window_covers_half_open_interval(self):
        injector = hand_built()
        injector.add_outage("origin", 10.0, 20.0)
        assert injector.is_down("origin", 10.0)
        assert injector.is_down("origin", 19.999)
        assert not injector.is_down("origin", 20.0)
        assert not injector.is_down("origin", 9.999)

    def test_is_down_per_node(self):
        injector = hand_built()
        injector.add_outage("origin", 100.0, 200.0)
        assert injector.is_down("origin", 150.0)
        assert not injector.is_down("origin", 50.0)
        assert not injector.is_down("edge", 150.0)
        assert injector.should_fail("origin", 150.0)
        assert not injector.should_fail("edge", 150.0)

    def test_multiple_windows(self):
        injector = hand_built()
        injector.add_outage("origin", 0.0, 10.0)
        injector.add_outage("origin", 50.0, 60.0)
        assert injector.is_down("origin", 5.0)
        assert not injector.is_down("origin", 20.0)
        assert injector.is_down("origin", 55.0)
        assert injector.total_downtime("origin") == 20.0
        assert injector.total_downtime("never") == 0.0

    def test_single_origin_window(self):
        injector = hand_built()
        injector.add_outage("origin", 100.0, 130.0)
        assert injector.is_down("origin", 110.0)
        assert injector.total_downtime("origin") == 30.0


class TestOutageWindows:
    def test_origin_downtime_matches_fraction(self):
        profile = FaultProfile(
            origin_outage_fraction=0.10, origin_outage_count=2
        )
        injector = profile.build(duration=3600.0, seed=7)
        downtime = injector.total_downtime("origin")
        assert abs(downtime - 360.0) < 1.0

    def test_windows_land_in_the_middle_of_the_run(self):
        profile = FaultProfile(origin_outage_fraction=0.10)
        injector = profile.build(duration=1000.0, seed=3)
        assert not injector.is_down("origin", 0.0)
        assert not injector.is_down("origin", 50.0)  # warm-up protected
        assert not injector.is_down("origin", 999.0)  # recovery protected

    def test_same_seed_same_schedule(self):
        profile = FaultProfile(
            origin_outage_fraction=0.10, origin_outage_count=2
        )
        a = profile.build(duration=3600.0, seed=5)
        b = profile.build(duration=3600.0, seed=5)
        assert a.outages == b.outages

    def test_different_seed_different_schedule(self):
        profile = FaultProfile(origin_outage_fraction=0.10)
        a = profile.build(duration=3600.0, seed=1)
        b = profile.build(duration=3600.0, seed=2)
        assert a.outages != b.outages

    def test_pop_outages_hit_only_affected_pops(self):
        profile = FaultProfile(pop_outage_fraction=0.15, pops_affected=1)
        injector = profile.build(
            duration=3600.0, pop_names=["edge-b", "edge-a"], seed=0
        )
        # Affected set is sorted-prefix, so "edge-a" fails, "edge-b" not.
        assert injector.total_downtime("edge-a") > 0
        assert injector.total_downtime("edge-b") == 0
        assert injector.total_downtime("origin") == 0

    def test_degenerate_fraction_yields_contiguous_window(self):
        profile = FaultProfile(
            origin_outage_fraction=0.9, origin_outage_count=3
        )
        injector = profile.build(duration=100.0, seed=0)
        # Window capped to the usable middle band, still one block.
        assert len(injector.outages["origin"]) == 1


class TestDecisions:
    def test_should_fail_inside_outage(self):
        profile = FaultProfile(origin_outage_fraction=0.5)
        injector = profile.build(duration=100.0, seed=0)
        start, _end = injector.outages["origin"][0]
        assert injector.should_fail("origin", start + 0.01)

    def test_brownout_rate_roughly_respected(self):
        profile = FaultProfile(origin_brownout_rate=0.2)
        injector = profile.build(duration=100.0, seed=0)
        failures = sum(
            injector.should_fail("origin", 1.0) for _ in range(2000)
        )
        assert 300 < failures < 500

    def test_loss_and_spike_rates_roughly_respected(self):
        profile = FaultProfile(
            link_loss_rate=0.1,
            latency_spike_rate=0.1,
            latency_spike_factor=4.0,
        )
        injector = profile.build(duration=100.0, seed=0)
        losses = sum(
            injector.loses_message("a", "b") for _ in range(2000)
        )
        spikes = sum(
            injector.latency_factor("a", "b") > 1.0 for _ in range(2000)
        )
        assert 120 < losses < 280
        assert 120 < spikes < 280

    def test_inactive_profile_never_decides_against_you(self):
        injector = FaultProfile().build(duration=100.0, seed=0)
        assert not injector.should_fail("origin", 50.0)
        assert not injector.loses_message("a", "b")
        assert injector.latency_factor("a", "b") == 1.0

    def test_decision_stream_is_deterministic(self):
        profile = FaultProfile(link_loss_rate=0.3)
        a = profile.build(duration=10.0, seed=9)
        b = profile.build(duration=10.0, seed=9)
        draws_a = [a.loses_message("x", "y") for _ in range(50)]
        draws_b = [b.loses_message("x", "y") for _ in range(50)]
        assert draws_a == draws_b
        assert any(draws_a)
