import dataclasses
import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import access_links, log_uniform, place_uav_exhaustive, placement_objective_db
from uavcache import linalg, placement
from uavcache.config import ChannelParams, RandomSource, RrhCluster, ScenarioConfig
from uavcache.qoe import delay_rate_requirement_bits, min_uav_power_w, qoe_rate_target_bps

CFG = ScenarioConfig()


def two_clusters():
    return [RrhCluster(id=0, antennas=np.array([[-100.0, 0.0], [-110.0, 0.0]])),
            RrhCluster(id=1, antennas=np.array([[100.0, 0.0], [110.0, 0.0]]))]


class TestAssociation:
    def test_infinite_rates_fill_antennas(self):
        clusters = two_clusters()
        n = 6
        xy = np.array([[float(40 * i - 100), 0.0] for i in range(n)])
        plan = placement.associate_rrh(np.full(n, np.inf), xy, np.full(n, 5e6),
                                       clusters, CFG)
        assert plan.n_fr == 4  # capped by total antennas
        assert len(plan.uav_pool) == 2

    def test_zero_rates_send_everyone_to_pool(self):
        clusters = two_clusters()
        xy = np.zeros((5, 2))
        plan = placement.associate_rrh(np.zeros(5), xy, np.full(5, 5e6), clusters, CFG)
        assert plan.n_fr == 0
        assert plan.uav_pool == list(range(5))

    def test_threshold_boundary_inclusive(self):
        clusters = [RrhCluster(id=0, antennas=np.array([[0.0, 0.0]]))]
        device = np.array([5e6])
        threshold = placement.rrh_rate_threshold_bits(1, device, CFG)
        plan = placement.associate_rrh(threshold, np.array([[10.0, 0.0]]), device,
                                       clusters, CFG)
        assert plan.rrh_users == {0: 0}

    def test_admitted_set_is_a_fixed_point(self):
        rng = np.random.default_rng(8)
        clusters = two_clusters()
        n = 12
        xy = rng.uniform(-200, 200, (n, 2))
        rates = rng.uniform(0.0, 2e7, n)
        device = rng.choice([2.5e6, 5e6, 7.5e6], n)
        plan = placement.associate_rrh(rates, xy, device, clusters, CFG)
        if plan.n_fr:
            thresholds = placement.rrh_rate_threshold_bits(plan.n_fr, device, CFG)
            for user in plan.rrh_users:
                assert rates[user] >= thresholds[user]
            # maximality: one more admission must break someone's threshold
            bigger = placement.rrh_rate_threshold_bits(plan.n_fr + 1, device, CFG)
            candidates = [u for u in plan.uav_pool if rates[u] >= bigger[u]]
            admitted_ok = all(rates[u] >= bigger[u] for u in plan.rrh_users)
            assert not (candidates and admitted_ok and plan.n_fr < 4)

    def test_no_clusters_all_pool(self):
        plan = placement.associate_rrh(np.full(3, np.inf), np.zeros((3, 2)),
                                       np.full(3, 5e6), [], CFG)
        assert plan.n_fr == 0

    @pytest.mark.parametrize("n_fr", [0, 1, 7, 1000])
    def test_threshold_is_the_requirement_with_the_wired_leg(self, n_fr):
        device = np.array([2.5e6, 5e6, 7.5e6])
        for cfg in (CFG, ScenarioConfig(slot_duration_s=0.5, fronthaul_rate_bps=1e7)):
            wired_s = cfg.content_size_bits * n_fr / cfg.fronthaul_rate_bps
            want = np.maximum(delay_rate_requirement_bits(cfg, wired_s),
                              device * cfg.slot_duration_s)
            got = placement.rrh_rate_threshold_bits(n_fr, device, cfg)
            assert got.tobytes() == want.tobytes()

    def test_budget_exhaustion_gives_infinite_threshold(self):
        # enough sharers make the wired fronthaul alone exceed the delay budget
        thr = placement.rrh_rate_threshold_bits(1000, np.array([5e6]), CFG)
        assert np.isinf(thr[0])


class TestClustering:
    def test_two_separated_clouds(self):
        rng = np.random.default_rng(0)
        a = rng.normal(0, 5, (20, 2)) + [-300, 0]
        b = rng.normal(0, 5, (20, 2)) + [300, 0]
        xy = np.vstack([a, b])
        labels, centroids = placement.cluster_users(xy, 2, RandomSource(1).derive("km"))
        assert len(set(labels[:20])) == 1
        assert len(set(labels[20:])) == 1
        assert labels[0] != labels[20]
        got = sorted(centroids[:, 0])
        assert got[0] == pytest.approx(-300, abs=5)
        assert got[1] == pytest.approx(300, abs=5)

    def test_single_cluster_is_mean(self):
        xy = np.array([[0.0, 0.0], [10.0, 0.0], [5.0, 9.0]])
        _, centroids = placement.cluster_users(xy, 1, RandomSource(1).derive("km"))
        assert np.allclose(centroids[0], xy.mean(axis=0))

    def test_sse_nonincreasing_with_iterations(self):
        rng = np.random.default_rng(5)
        xy = rng.uniform(-400, 400, (60, 2))
        rs = RandomSource(2).derive("km")
        sses = []
        for iters in (1, 2, 3, 5, 10, 100):
            labels, centroids = placement.cluster_users(xy, 4, rs, max_iter=iters)
            sses.append(float(np.sum((xy - centroids[labels]) ** 2)))
        assert all(a >= b - 1e-9 for a, b in zip(sses, sses[1:]))

    def test_fewer_points_than_clusters(self):
        xy = np.array([[0.0, 0.0], [100.0, 0.0]])
        labels, centroids = placement.cluster_users(xy, 5, RandomSource(3).derive("km"))
        assert len(set(labels)) == 2
        assert centroids.shape == (5, 2)

    def test_no_empty_clusters_when_enough_points(self):
        rng = np.random.default_rng(9)
        xy = rng.uniform(-400, 400, (30, 2))
        labels, _ = placement.cluster_users(xy, 5, RandomSource(4).derive("km"))
        assert set(labels) == set(range(5))

    def test_warm_start_used(self):
        xy = np.array([[-100.0, 0.0], [-90.0, 0.0], [90.0, 0.0], [100.0, 0.0]])
        init = np.array([[-95.0, 0.0], [95.0, 0.0]])
        labels, centroids = placement.cluster_users(xy, 2, init_centroids=init)
        assert labels[0] == labels[1] != labels[2]
        assert np.allclose(sorted(centroids[:, 0]), [-95.0, 95.0])


class TestCacheSelection:
    def test_argmax_of_probability(self):
        plan = placement.select_cache(0, np.array([[0.9, 0.1]]), np.ones((1, 2)), 1)
        assert plan.contents == (0,)

    def test_constant_savings_reduce_to_popularity(self):
        rng = np.random.default_rng(1)
        probs = rng.random((6, 10))
        probs /= probs.sum(axis=1, keepdims=True)
        const = np.full((6, 10), 0.37)
        plan = placement.select_cache(0, probs, const, 3)
        popularity = probs.sum(axis=0)
        expected = tuple(sorted(np.argsort(-popularity)[:3]))
        assert plan.contents == expected

    def test_matches_exhaustive_subset_search(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            n = int(rng.integers(4, 9))
            c = int(rng.integers(1, 4))
            probs = rng.random((4, n))
            savings = rng.random((4, n))
            plan = placement.select_cache(0, probs, savings, c)
            scores = (probs * savings).sum(axis=0)
            best = max(itertools.combinations(range(n), c),
                       key=lambda s: sum(scores[list(s)]))
            assert set(plan.contents) == set(best)

    def test_caching_never_raises_requirement(self, tiny_cfg):
        saving = placement.delta_power_saving(
            pathloss_db=100.0, delay_req_cached_bits=2.5e6,
            delay_req_uncached_bits=5e6, device_req_bps=np.array([1e6, 3e6, 9e6]),
            n_served=4, cfg=tiny_cfg)
        assert np.all(saving >= 0.0)
        # device-dominated contents gain nothing from caching
        assert saving[2] == pytest.approx(0.0, abs=1e-18)

    def test_infeasible_uncached_route_saves_up_to_cap(self, tiny_cfg):
        saving = placement.delta_power_saving(
            pathloss_db=100.0, delay_req_cached_bits=2.5e6,
            delay_req_uncached_bits=math.inf, device_req_bps=np.array([1e6]),
            n_served=4, cfg=tiny_cfg)
        assert saving[0] == pytest.approx(tiny_cfg.uav_max_power_w, rel=1e-3)

    @pytest.mark.parametrize("pathloss_db", [100.0, 160.0, np.array([90.0, 150.0, 170.0])])
    def test_infinite_uncached_requirement_prices_at_the_cap(self, tiny_cfg, pathloss_db):
        device = np.array([1e6, 3e6, 9e6])
        if np.ndim(pathloss_db):
            device = device[:, None]
        saving = placement.delta_power_saving(pathloss_db, 2.5e6, math.inf, device, 4, tiny_cfg)
        target = qoe_rate_target_bps(2.5e6, device, tiny_cfg.slot_duration_s)
        p_cached = min_uav_power_w(pathloss_db, target, 4, tiny_cfg.uav_bandwidth_hz,
                                   tiny_cfg.noise_power_w)
        cap = tiny_cfg.uav_max_power_w
        assert saving.tobytes() == (cap - np.minimum(p_cached, cap)).tobytes()


def low_regime_instance(seed=0, n_users=6):
    rng = np.random.default_rng(seed)
    users = rng.uniform(-150.0, 150.0, (n_users, 3, 2))
    targets = rng.uniform(1e6, 8e6, n_users)
    p = ChannelParams(exponent_nlos=2.0)
    return users, targets, p


class TestClosedForm:
    def test_symmetric_pair_lands_midway(self):
        users = np.array([[[0.0, 0.0]], [[10.0, 0.0]]])
        xy = placement.place_uav_closed_form(users, np.array([5e6, 5e6]), 2, 1e9)
        assert np.allclose(xy, [5.0, 0.0])

    def test_single_user_overhead(self):
        users = np.array([[[42.0, -17.0]]])
        xy = placement.place_uav_closed_form(users, np.array([5e6]), 1, 1e9)
        assert np.allclose(xy, [42.0, -17.0])

    def test_translation_equivariance(self):
        users, targets, _ = low_regime_instance(3)
        base = placement.place_uav_closed_form(users, targets, 6, 1e9)
        shifted = placement.place_uav_closed_form(users + [250.0, -80.0], targets, 6, 1e9)
        assert np.allclose(shifted, base + [250.0, -80.0], atol=1e-9)

    def test_heavier_requirement_pulls_position(self):
        users = np.array([[[0.0, 0.0]], [[10.0, 0.0]]])
        xy = placement.place_uav_closed_form(users, np.array([1e6, 3e7]), 2, 1e9)
        assert xy[0] > 5.0

    def test_empty_user_set_rejected(self):
        with pytest.raises(ValueError):
            placement.place_uav_closed_form(np.zeros((0, 1, 2)), np.zeros(0), 1, 1e9)

    def test_overflowing_weights_give_the_centroid_of_their_users(self):
        # 2 ** (t * n / B) overflows for the last two users only
        users = np.array([[[0.0, 0.0], [2.0, 0.0]], [[10.0, 4.0], [12.0, 4.0]],
                          [[-30.0, 8.0], [-30.0, 10.0]]])
        targets = np.array([1e3, 2e6, math.inf])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            xy = placement.place_uav_closed_form(users, targets, 3, 2e3)
        assert xy.tobytes() == users[1:].reshape(-1, 2).mean(axis=0).tobytes()

    def test_within_ten_percent_of_grid(self):
        users, targets, p = low_regime_instance(1)
        h = 10.0
        assert placement.closed_form_regime(h, users) == "low"
        xy = placement.place_uav_closed_form(users, targets, len(targets), CFG.uav_bandwidth_hz)
        obj_cf = placement.placement_objective(
            [xy[0], xy[1], h], users, targets, len(targets), p,
            CFG.uav_bandwidth_hz, CFG.noise_power_w)
        grid = place_uav_exhaustive(users, targets, 3.0, [h], len(targets), p,
                                    CFG.uav_bandwidth_hz, CFG.noise_power_w)
        assert obj_cf <= 1.10 * grid.objective_w


class TestRegime:
    def test_low_when_spread_dominates(self):
        users = np.array([[[-200.0, 0.0]], [[200.0, 0.0]]])
        assert placement.closed_form_regime(10.0, users) == "low"

    def test_high_when_altitude_dominates(self):
        users = np.array([[[-5.0, 0.0]], [[5.0, 0.0]]])
        assert placement.closed_form_regime(500.0, users) == "high"

    def test_neither_in_between(self):
        users = np.array([[[-100.0, 0.0]], [[100.0, 0.0]]])
        assert placement.closed_form_regime(100.0, users) is None


class TestPlaceUav:
    """``place_uav`` picks the method from the regime: one test per branch."""

    def cfg(self, min_altitude_m, exponent_nlos=CFG.pathloss.exponent_nlos):
        return dataclasses.replace(CFG, min_altitude_m=min_altitude_m,
                                   pathloss=ChannelParams(exponent_nlos=exponent_nlos))

    def search(self, users, targets, init, cfg):
        return placement.place_uav_local_search(
            users, targets, init, len(targets), cfg.pathloss, cfg.uav_bandwidth_hz,
            cfg.noise_power_w, cfg.min_altitude_m).position

    def test_low_regime_at_exponent_two_is_the_closed_form_at_the_floor(self):
        users, targets, _ = low_regime_instance(1)
        cfg = self.cfg(10.0, exponent_nlos=2.0)
        assert placement.closed_form_regime(10.0, users) == "low"
        xy = placement.place_uav_closed_form(users, targets, 6, cfg.uav_bandwidth_hz)
        got = placement.place_uav(users, targets, np.array([90.0, -40.0, 70.0]), 6, cfg)
        assert got.tobytes() == np.array([xy[0], xy[1], 10.0]).tobytes()

    def test_low_regime_at_another_exponent_is_the_plain_search(self):
        users, targets, _ = low_regime_instance(2)
        cfg = self.cfg(10.0)
        init = np.array([90.0, -40.0, 70.0])
        assert placement.closed_form_regime(10.0, users) == "low"
        got = placement.place_uav(users, targets, init, 6, cfg)
        assert got.tobytes() == self.search(users, targets, init, cfg).tobytes()

    def test_high_regime_searches_from_the_closed_form_xy(self):
        rng = np.random.default_rng(3)
        users, targets = rng.uniform(-5.0, 5.0, (4, 3, 2)), rng.uniform(1e6, 8e6, 4)
        cfg = self.cfg(500.0)
        assert placement.closed_form_regime(500.0, users) == "high"
        xy = placement.place_uav_closed_form(users, targets, 4, cfg.uav_bandwidth_hz)
        got = placement.place_uav(users, targets, np.array([300.0, -200.0, 700.0]), 4, cfg)
        want = self.search(users, targets, np.array([xy[0], xy[1], 700.0]), cfg)
        assert got.tobytes() == want.tobytes()

    def test_no_regime_searches_from_the_given_start(self):
        users = np.array([[[-100.0, 0.0]], [[100.0, 0.0]]])
        targets = np.array([2e6, 5e6])
        cfg = self.cfg(100.0)
        init = np.array([30.0, 20.0, 150.0])
        assert placement.closed_form_regime(100.0, users) is None
        got = placement.place_uav(users, targets, init, 2, cfg)
        assert got.tobytes() == self.search(users, targets, init, cfg).tobytes()


class TestLocalSearch:
    def kwargs(self, p):
        return dict(n_served=6, p=p, bandwidth_hz=CFG.uav_bandwidth_hz,
                    noise_w=CFG.noise_power_w, min_altitude_m=10.0)

    def test_stationary_at_closed_form_optimum(self):
        users, targets, p = low_regime_instance(2)
        xy = placement.place_uav_closed_form(users, targets, 6, CFG.uav_bandwidth_hz)
        init = np.array([xy[0], xy[1], 10.0])
        result = placement.place_uav_local_search(users, targets, init, **self.kwargs(p))
        assert np.abs(result.position - init).sum() <= 3.0 + 1e-9

    def test_final_not_worse_than_init(self):
        users, targets, p = low_regime_instance(4)
        init = np.array([400.0, 400.0, 60.0])
        result = placement.place_uav_local_search(users, targets, init, **self.kwargs(p))
        init_obj = placement.placement_objective(init, users, targets, 6, p,
                                                 CFG.uav_bandwidth_hz, CFG.noise_power_w)
        assert result.objective_w <= init_obj

    def test_altitude_floor_respected(self):
        users, targets, p = low_regime_instance(5)
        init = np.array([0.0, 0.0, 10.0])
        result = placement.place_uav_local_search(users, targets, init, **self.kwargs(p))
        assert result.position[2] >= 10.0

    def test_evaluation_budget_respected(self):
        users, targets, p = low_regime_instance(6)
        result = placement.place_uav_local_search(users, targets,
                                                  np.array([1000.0, 1000.0, 10.0]),
                                                  **self.kwargs(p))
        assert result.evaluations <= 10_000

    def test_multistart_close_to_grid(self):
        users, targets, p = low_regime_instance(7)
        grid = place_uav_exhaustive(users, targets, 3.0, [10.0], 6, p,
                                    CFG.uav_bandwidth_hz, CFG.noise_power_w)
        rng = np.random.default_rng(0)
        for _ in range(5):
            init = np.array([rng.uniform(-150, 150), rng.uniform(-150, 150), 10.0])
            res = placement.place_uav_local_search(users, targets, init, **self.kwargs(p))
            assert res.objective_w <= 1.05 * grid.objective_w


class TestExhaustive:
    def test_single_user_optimum_overhead(self):
        users = np.array([[[30.0, -60.0]]])
        targets = np.array([5e6])
        res = place_uav_exhaustive(users, targets, 3.0, [CFG.min_altitude_m],
                                   1, CFG.pathloss, CFG.uav_bandwidth_hz,
                                   CFG.noise_power_w, pad_m=50.0)
        assert abs(res.position[0] - 30.0) <= 1.5 + 1e-9
        assert abs(res.position[1] + 60.0) <= 1.5 + 1e-9

    def test_refinement_never_hurts(self):
        users, targets, p = low_regime_instance(8)
        coarse = place_uav_exhaustive(users, targets, 12.0, [10.0], 6, p,
                                      CFG.uav_bandwidth_hz, CFG.noise_power_w)
        fine = place_uav_exhaustive(users, targets, 6.0, [10.0], 6, p,
                                    CFG.uav_bandwidth_hz, CFG.noise_power_w)
        assert fine.objective_w <= coarse.objective_w + 1e-12

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            place_uav_exhaustive(np.zeros((0, 1, 2)), np.zeros(0), 3.0,
                                 [100.0], 1, CFG.pathloss, 1e9, 1e-12)


class TestObjective:
    def objective(self, users, targets):
        return placement.placement_objective([0.0, 0.0, 100.0], users, targets, 4,
                                             CFG.pathloss, 1e9, 1e-12)

    def test_no_users_zero(self):
        assert self.objective(np.zeros((0, 1, 2)), np.zeros(0)) == 0.0

    def test_additive_over_users(self):
        users, targets, _ = low_regime_instance(1, n_users=4)
        parts = self.objective(users[:2], targets[:2]) + self.objective(users[2:], targets[2:])
        assert self.objective(users, targets) == pytest.approx(parts, rel=1e-12)

    def test_lower_rate_targets_cost_less(self):
        users, targets, _ = low_regime_instance(3, n_users=4)
        assert self.objective(users, targets) < self.objective(users, 2.0 * targets)


class TestLinearObjective:
    """The linear-unit objective against the dB route it replaced."""

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(link=access_links(), bandwidth=log_uniform(6.0, 10.0), noise=log_uniform(-20.0, -8.0),
           unreachable=st.sampled_from(["none", "some", "all"]), seed=st.integers(0, 2 ** 32 - 1))
    def test_within_tolerance_of_the_db_route(self, link, bandwidth, noise, unreachable, seed):
        uav, users, p = link
        n = users.shape[0]
        rng = np.random.default_rng(seed)
        # 2 ** (r n / B) up to 2 ** 20: finite prefactors, far from overflow
        targets = bandwidth / n * 10.0 ** rng.uniform(-4.0, np.log10(20.0), n)
        if unreachable == "all":
            targets[:] = math.inf
        elif unreachable == "some":
            targets[rng.random(n) < 0.5] = math.inf
        args = (uav, users, targets, n, p, bandwidth, noise)
        got, want = placement.placement_objective(*args), placement_objective_db(*args)
        assert not math.isnan(got) and not math.isnan(want)
        assert math.isfinite(got) == math.isfinite(want) == np.isfinite(targets).all()
        if math.isfinite(want):
            assert abs(got - want) <= linalg.LINEAR_LOSS_RTOL * want
