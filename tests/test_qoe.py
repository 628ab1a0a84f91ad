import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uavcache import qoe, sim
from uavcache.config import ScenarioConfig
from uavcache.channel import db_to_linear, uav_user_pathloss_db, uav_user_snr
from uavcache.generators import SyntheticWorld
from uavcache.predictors import OraclePredictor


def cfg_with_bound_001() -> ScenarioConfig:
    """Scenario whose delay lower bound is exactly L/v_F = 0.01 s."""
    cfg = dataclasses.replace(ScenarioConfig(), content_size_bits=1e6,
                              fronthaul_rate_bps=1e8, uav_bandwidth_hz=1e6)
    assert qoe.delay_lower_bound_s(cfg) == pytest.approx(0.01, rel=1e-12)
    return cfg


class TestDelay:
    def test_cache_link_ratio(self):
        assert qoe.transfer_s(5e6, 1e6, 1.0) == pytest.approx(0.2)

    def test_infinite_fronthaul_matches_cache_link(self):
        # an absent leg is an infinite-rate leg, which takes 0 s
        assert qoe.transfer_s(math.inf, 1e6, 1.0) == 0.0
        access = qoe.transfer_s(5e6, 1e6, 1.0)
        assert access + qoe.transfer_s(math.inf, 1e6, 1.0) == access

    def test_terrestrial_and_aerial_symmetric(self, tiny_cfg):
        # the route table scores every tier the same way
        world = SyntheticWorld(tiny_cfg)
        plan = sim.plan_slots(tiny_cfg, world, OraclePredictor(world))
        bits = [0.3, 0.9, 1.7, 40.0]  # multiples of the content size
        routes = sim._routes(
            2 * len(bits), link=[qoe.LINK_RRH] * len(bits) + [qoe.LINK_UAV_FRONTHAUL] * len(bits),
            access_bits=np.tile(bits, 2) * tiny_cfg.content_size_bits,
            fronthaul_bits=4.0 * tiny_cfg.content_size_bits, device_frac=0.5, feasible=True)
        reports = sim._score_routes(plan, np.zeros(len(routes), int), routes)
        rrh, uav = reports[:len(bits)], reports[len(bits):]
        for a, b in zip(rrh, uav):
            assert dataclasses.replace(a, user=b.user, link=b.link) == b
        assert [r.delivered for r in uav] == [False, False, True, True]

    def test_zero_rate_leg_is_infinite(self):
        assert qoe.transfer_s(0.0, 1e6, 1.0) == math.inf
        got = qoe.transfer_s(np.array([0.0, 5e6, math.inf, -1.0]), 1e6, 1.0)
        assert got.tolist() == [math.inf, pytest.approx(0.2), 0.0, math.inf]

    def test_scalar_input_gives_scalar(self):
        for fn, args in ((qoe.transfer_s, (5e6, 1e6, 1.0)),
                         (qoe.delay_score, (0.3, cfg_with_bound_001(), 0.01)),
                         (qoe.device_score, ([1e6, 6e6], 5e6)), (qoe.mos_label, (0.5,))):
            got = fn(*args)
            assert np.ndim(got) == 0 and not isinstance(got, np.ndarray)
        q, label = qoe.qoe_score(1.0, 0.5, 0.5, 0.5)
        assert not isinstance(q, np.ndarray) and not isinstance(label, np.ndarray)


class TestDelayLowerBound:
    def test_min_of_both_branches(self):
        cfg = ScenarioConfig()
        wired = cfg.content_size_bits / cfg.fronthaul_rate_bps
        access = cfg.slot_duration_s * cfg.content_size_bits / qoe.max_access_rate_bits(cfg)
        assert qoe.delay_lower_bound_s(cfg) == min(wired, access)

    def test_slow_wired_rate_selects_access_branch(self):
        cfg = dataclasses.replace(ScenarioConfig(), fronthaul_rate_bps=10.0)
        access = cfg.slot_duration_s * cfg.content_size_bits / qoe.max_access_rate_bits(cfg)
        assert qoe.delay_lower_bound_s(cfg) == pytest.approx(access, rel=1e-12)

    def test_fast_wired_rate_selects_wired_branch(self):
        cfg = dataclasses.replace(ScenarioConfig(), fronthaul_rate_bps=1e30)
        assert qoe.delay_lower_bound_s(cfg) == pytest.approx(1e6 / 1e30, rel=1e-12)

    def test_access_branch_hand_value(self):
        cfg = ScenarioConfig()
        best_pl = (78.017 + 10.0 * 2.0 * math.log10(100.0) - 4.0 * 5.3)
        snr = 20.0 / (10.0 ** (best_pl / 10.0) * 10.0 ** (-12.5))
        expected = 1e6 / (1e9 * math.log2(1.0 + snr))
        assert qoe.delay_lower_bound_s(cfg) == pytest.approx(expected, rel=1e-4)


class TestDelayScore:
    def test_bound_scores_one(self):
        cfg = cfg_with_bound_001()
        assert qoe.delay_score(0.01, cfg, qoe.delay_lower_bound_s(cfg)) == pytest.approx(1.0)

    def test_full_slot_scores_zero(self):
        cfg = cfg_with_bound_001()
        assert qoe.delay_score(1.0, cfg, qoe.delay_lower_bound_s(cfg)) == pytest.approx(0.0)

    def test_midpoint_scores_half(self):
        cfg = cfg_with_bound_001()
        bound = qoe.delay_lower_bound_s(cfg)
        assert qoe.delay_score((1.0 + 0.01) / 2.0, cfg, bound) == pytest.approx(0.5)

    def test_late_delivery_scores_zero(self):
        cfg = cfg_with_bound_001()
        assert qoe.delay_score(1.5, cfg, qoe.delay_lower_bound_s(cfg)) == 0.0

    def test_bound_at_the_slot_length_scores_late_deliveries_zero(self):
        # the ratio's denominator is 0; late rows never reach it, so nothing warns
        cfg = cfg_with_bound_001()
        late = np.array([1.5, 2.0, math.inf])
        assert qoe.delay_score(late, cfg, cfg.slot_duration_s).tolist() == [0.0, 0.0, 0.0]

    def test_array_equals_scalar_calls(self):
        cfg = cfg_with_bound_001()
        bound = qoe.delay_lower_bound_s(cfg)
        delays = np.array([0.0, bound, 0.2, 0.505, 0.999, 1.0, 1.5, math.inf])
        got = qoe.delay_score(delays, cfg, bound)
        assert got.tolist() == [qoe.delay_score(d, cfg, bound) for d in delays.tolist()]


class TestDeviceScore:
    def test_boundary_inclusive(self):
        assert qoe.device_score(5e6, 5e6) == 1

    def test_zero_rate(self):
        assert qoe.device_score(0.0, 5e6) == 0

    def test_fraction_of_intervals(self):
        assert qoe.device_score([1e6, 5e6, 6e6, 0.0], 5e6) == 0.5

    @pytest.mark.parametrize("n_intervals", [1, 2, 7, 100, 129, 1000, 4999])
    def test_rows_equal_their_one_dimensional_score(self, n_intervals):
        rng = np.random.default_rng(n_intervals)
        rates = rng.uniform(0.0, 1e7, (11, n_intervals))
        floors = rng.uniform(0.0, 1e7, 11)
        got = qoe.device_score(rates, floors[:, None])
        assert got.shape == (11,)
        assert got.tolist() == [qoe.device_score(r, f) for r, f in zip(rates, floors)]

    def test_screen_factor_scales_threshold(self):
        cfg = ScenarioConfig()
        assert cfg.device_rate_bps(1.0, 0) == 5e6
        assert cfg.device_rate_bps(2.0, 0) == 1e7


class TestQoeScore:
    def test_perfect(self):
        q, label = qoe.qoe_score(1.0, qoe.device_score(np.full(10, 5e6), 5e6), 0.5, 0.5)
        assert q == pytest.approx(1.0)
        assert label == "Excellent"

    def test_worst(self):
        q, label = qoe.qoe_score(0.0, qoe.device_score(np.zeros(10), 5e6), 0.5, 0.5)
        assert q == 0.0
        assert label == "Poor"

    def test_half_is_good(self):
        q, label = qoe.qoe_score(1.0, qoe.device_score(np.zeros(10), 5e6), 0.5, 0.5)
        assert q == pytest.approx(0.5)
        assert label == "Good"

    def test_bin_edges(self):
        assert qoe.mos_label(0.85) == "Excellent"
        assert qoe.mos_label(0.7) == "Very Good"
        assert qoe.mos_label(0.3) == "Fair"
        values = [1.0, 0.8, 0.79, 0.6, 0.4, 0.2, 0.0, -0.1, math.nan]
        assert qoe.mos_label(values).tolist() == [
            "Excellent", "Excellent", "Very Good", "Very Good", "Good", "Fair", "Poor", "Poor",
            "Poor"]


def fronthaul_leg_s(cfg, bits_per_slot):
    """Time a wireless fronthaul of ``bits_per_slot`` takes to fetch one content."""
    return cfg.slot_duration_s * cfg.content_size_bits / bits_per_slot


class TestRateRequirement:
    def test_cached_hand_value(self):
        cfg = cfg_with_bound_001()
        got = qoe.delay_rate_requirement_bits(cfg, qoe.delay_lower_bound_s(cfg))
        assert got == pytest.approx(1e6 / 0.208, rel=1e-12)

    def test_infinite_fronthaul_matches_cached(self):
        cfg = cfg_with_bound_001()
        bound = qoe.delay_lower_bound_s(cfg)
        cached = qoe.delay_rate_requirement_bits(cfg, bound)
        uncached = qoe.delay_rate_requirement_bits(cfg, bound, fronthaul_leg_s(cfg, math.inf))
        assert uncached == pytest.approx(cached, rel=1e-12)

    def test_caching_strictly_cheaper(self):
        cfg = cfg_with_bound_001()
        bound = qoe.delay_lower_bound_s(cfg)
        cached = qoe.delay_rate_requirement_bits(cfg, bound)
        for fronthaul in (5e6, 2e7, 1e9):
            leg_s = fronthaul_leg_s(cfg, fronthaul)
            assert qoe.delay_rate_requirement_bits(cfg, bound, leg_s) > cached

    def test_exhausted_budget_rejected(self):
        cfg = cfg_with_bound_001()
        # the fronthaul alone takes 1 s
        bound = qoe.delay_lower_bound_s(cfg)
        assert qoe.delay_rate_requirement_bits(cfg, bound, fronthaul_leg_s(cfg, 1e6)) == math.inf

    def test_budget_edge_is_infinite_and_never_raises(self):
        cfg = cfg_with_bound_001()
        budget_s = cfg.slot_duration_s - cfg.mos_min * (cfg.slot_duration_s - 0.01)
        assert budget_s == pytest.approx(0.208, rel=1e-12)
        bound = qoe.delay_lower_bound_s(cfg)
        assert qoe.delay_rate_requirement_bits(cfg, bound, budget_s) == math.inf
        assert qoe.delay_rate_requirement_bits(cfg, bound, math.inf) == math.inf
        assert math.isfinite(qoe.delay_rate_requirement_bits(cfg, bound, 0.99 * budget_s))


class TestRateTarget:
    def test_array_equals_scalar_calls(self):
        req = np.array([0.0, 1e5, 4.8e6, 3e7, math.inf])
        device = np.array([5e6, 2.5e6, 5e6, 1e6, 7.5e6])
        for dt in (0.5, 0.7, 1.0, 3.0):
            got = qoe.qoe_rate_target_bps(req, device, dt)
            want = [qoe.qoe_rate_target_bps(r, d, dt) for r, d in zip(req, device)]
            assert got.tobytes() == np.array(want).tobytes()
            assert got[-1] == math.inf

    def test_larger_of_delay_and_device_rate(self):
        assert qoe.qoe_rate_target_bps(4e6, 1e6, 0.5) == 8e6
        assert qoe.qoe_rate_target_bps(4e6, 9e6, 0.5) == 9e6


class TestMinPower:
    def test_reference_value(self):
        # 5 Mbit/s over 1 GHz at 100 dB loss and -95 dBm noise
        power = qoe.min_uav_power_w(db_to_linear(100.0), 5e6, 1, 1e9, 10.0 ** (-12.5))
        assert power == pytest.approx(1.0979e-5, rel=1e-3)

    def test_zero_rate_zero_power(self):
        assert qoe.min_uav_power_w(db_to_linear(100.0), 0.0, 1, 1e9, 1e-12) == 0.0

    def test_sharing_increases_power(self):
        one = qoe.min_uav_power_w(db_to_linear(100.0), 5e6, 1, 1e9, 1e-12)
        two = qoe.min_uav_power_w(db_to_linear(100.0), 5e6, 2, 1e9, 1e-12)
        assert two > one

    def test_power_rate_roundtrip(self):
        cfg = ScenarioConfig()
        uav, user = np.array([10.0, -20.0, 150.0]), np.array([60.0, 45.0])
        loss = db_to_linear(uav_user_pathloss_db(uav, user, cfg.pathloss))
        target = 7.3e6
        power = qoe.min_uav_power_w(loss, target, 3, cfg.uav_bandwidth_hz, cfg.noise_power_w)
        snr = uav_user_snr(power, loss, cfg.noise_power_w)
        achieved = cfg.uav_bandwidth_hz / 3 * math.log2(1.0 + snr)
        assert achieved == pytest.approx(target, rel=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(rate=st.floats(1e5, 5e7), extra=st.floats(0.1, 20.0))
    def test_monotone_in_rate(self, rate, extra):
        lo = qoe.min_uav_power_w(db_to_linear(100.0), rate, 1, 1e9, 1e-12)
        hi = qoe.min_uav_power_w(db_to_linear(100.0), rate + extra * 1e5, 1, 1e9, 1e-12)
        assert hi > lo
