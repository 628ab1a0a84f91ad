import dataclasses
import itertools
import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (access_links, gauss_legendre_reference, log_uniform, place_uav_exhaustive,
                      placement_objective, placement_objective_db, reference_associate_rrh,
                      reference_local_search)
from uavcache import config, linalg, placement
from uavcache.channel import ChannelError, db_to_linear
from uavcache.config import ChannelParams, RandomSource, ScenarioConfig
from uavcache.generators import point_norms
from uavcache.qoe import (delay_lower_bound_s, delay_rate_requirement_bits, min_uav_power_w,
                          qoe_rate_target_bps)

CFG = ScenarioConfig()
BOUND_S = delay_lower_bound_s(CFG)
# A slow wired fronthaul: the threshold is finite for one sharer, infinite from three.
SLOW_FRONTHAUL = ScenarioConfig(slot_duration_s=0.5, fronthaul_rate_bps=1e7)
# A fast one: the threshold is finite for every count up to MAX_USERS sharers.
FAST_FRONTHAUL = ScenarioConfig(fronthaul_rate_bps=1e11)
FAST_BOUND_S = delay_lower_bound_s(FAST_FRONTHAUL)
# Admission's traced peak at the validated bounds: 50 float arrays of MAX_USERS.
ASSOCIATE_PEAK_BYTES = 50 * 8 * config.MAX_USERS


def two_clusters():
    return [np.array([[-100.0, 0.0], [-110.0, 0.0]]), np.array([[100.0, 0.0], [110.0, 0.0]])]


def large_draw(rng, n, cluster_sizes):
    """Rates, positions, device floors and radio-head clusters of ``n`` users, for
    admission under ``FAST_FRONTHAUL``.  A fifth of the rates each: at the threshold of
    a random count, spread over the thresholds, inf, NaN, and 0; 5% of the floors NaN."""
    clusters = [rng.uniform(-500.0, 500.0, (size, 2)) for size in cluster_sizes]
    xy = rng.uniform(-500.0, 500.0, (n, 2))
    device = rng.choice([2.5e6, 5e6, 7.5e6, np.nan], n, p=[0.3, 0.3, 0.35, 0.05])
    at_count = placement.rrh_rate_threshold_bits(rng.integers(1, n + 1, n), device,
                                                 FAST_FRONTHAUL, FAST_BOUND_S)
    rates = np.choose(rng.integers(0, 5, n),
                      [at_count, rng.uniform(5e6, 1e7, n), np.full(n, np.inf), np.full(n, np.nan),
                       np.zeros(n)])
    return rates, xy, device, clusters


def associate(rates, xy, device, clusters, cfg=CFG, bound_s=BOUND_S):
    """``placement.associate_rrh`` given the users' and antennas' positions, as
    ``sim.plan_slots`` calls it: a centroid distance table and antenna counts."""
    centroids = np.array([c.mean(axis=0) for c in clusters]).reshape(len(clusters), 2)
    dists = point_norms(np.asarray(xy, dtype=float).reshape(-1, 1, 2) - centroids)
    return placement.associate_rrh(rates, dists, device, [len(c) for c in clusters], cfg,
                                   bound_s)


class TestAssociation:
    def test_infinite_rates_fill_antennas(self):
        clusters = two_clusters()
        n = 6
        xy = np.array([[float(40 * i - 100), 0.0] for i in range(n)])
        assigned = associate(np.full(n, np.inf), xy, np.full(n, 5e6), clusters)
        assert np.count_nonzero(assigned >= 0) == 4  # capped by total antennas
        assert np.count_nonzero(assigned < 0) == 2

    def test_zero_rates_send_everyone_to_pool(self):
        clusters = two_clusters()
        xy = np.zeros((5, 2))
        assigned = associate(np.zeros(5), xy, np.full(5, 5e6), clusters)
        assert assigned.tolist() == [-1] * 5

    def test_threshold_boundary_inclusive(self):
        clusters = [np.array([[0.0, 0.0]])]
        device = np.array([5e6])
        threshold = placement.rrh_rate_threshold_bits(1, device, CFG, BOUND_S)
        assigned = associate(threshold, np.array([[10.0, 0.0]]), device, clusters)
        assert assigned.tolist() == [0]

    def test_admitted_set_is_a_fixed_point(self):
        rng = np.random.default_rng(8)
        clusters = two_clusters()
        n = 12
        xy = rng.uniform(-200, 200, (n, 2))
        rates = rng.uniform(0.0, 2e7, n)
        device = rng.choice([2.5e6, 5e6, 7.5e6], n)
        assigned = associate(rates, xy, device, clusters)
        admitted, pool = np.flatnonzero(assigned >= 0), np.flatnonzero(assigned < 0)
        n_fr = admitted.size
        if n_fr:
            thresholds = placement.rrh_rate_threshold_bits(n_fr, device, CFG, BOUND_S)
            for user in admitted:
                assert rates[user] >= thresholds[user]
            # maximality: one more admission must break someone's threshold
            bigger = placement.rrh_rate_threshold_bits(n_fr + 1, device, CFG, BOUND_S)
            candidates = [u for u in pool if rates[u] >= bigger[u]]
            admitted_ok = all(rates[u] >= bigger[u] for u in admitted)
            assert not (candidates and admitted_ok and n_fr < 4)

    def test_no_clusters_all_pool(self):
        assigned = associate(np.full(3, np.inf), np.zeros((3, 2)), np.full(3, 5e6), [])
        assert np.count_nonzero(assigned >= 0) == 0

    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_one_pass_equals_the_count_by_count_reference(self, data):
        cfg = data.draw(st.sampled_from([CFG, SLOW_FRONTHAUL, FAST_FRONTHAUL]))
        bound_s = delay_lower_bound_s(cfg)
        # Points on a coarse grid, so that users tie on distance to clusters.
        point = st.tuples(st.integers(-2, 2), st.integers(-2, 2)).map(
            lambda p: [100.0 * p[0], 100.0 * p[1]])
        # Up to 18 antennas for up to 10 users.
        clusters = [np.array(data.draw(st.lists(point, min_size=1, max_size=6)))
                    for _ in range(data.draw(st.integers(0, 3)))]
        n = data.draw(st.integers(0, 10))
        xy = np.array(data.draw(st.lists(point, min_size=n, max_size=n)), dtype=float)
        xy = xy.reshape(n, 2)
        device = np.array(data.draw(st.lists(st.sampled_from([2.5e6, 5e6, 7.5e6, np.nan]),
                                             min_size=n, max_size=n)))
        rates = np.empty(n)
        for i in range(n):
            kind = data.draw(st.sampled_from(["tied", "inf", "nan", "at_threshold", "free"]))
            if kind == "tied":
                rates[i] = data.draw(st.sampled_from([0.0, 6e6, 7.5e6, 1e7]))
            elif kind in ("inf", "nan"):
                rates[i] = float(kind)
            elif kind == "at_threshold":
                m = data.draw(st.integers(1, n))
                rates[i] = placement.rrh_rate_threshold_bits(m, device, cfg, bound_s)[i]
            else:
                rates[i] = data.draw(st.floats(4e6, 1.2e7))
        got = associate(rates, xy, device, clusters, cfg, bound_s)
        want = reference_associate_rrh(rates, xy, device, clusters, cfg, bound_s)
        assert np.array_equal(got, want)

    def test_4000_users_equal_the_count_by_count_reference(self):
        rates, xy, device, clusters = large_draw(np.random.default_rng(4), 4_000, (900,) * 5)
        got = associate(rates, xy, device, clusters, FAST_FRONTHAUL, FAST_BOUND_S)
        want = reference_associate_rrh(rates, xy, device, clusters, FAST_FRONTHAUL,
                                       FAST_BOUND_S)
        assert 0 < np.count_nonzero(got >= 0) < 4_000
        assert np.array_equal(got, want)

    def test_the_validated_bounds_admit_in_linear_memory(self):
        """10,000 users and 10,000 antennas: a (counts x users) table would take
        800 MB, the sorted count a few arrays of 10,000."""
        n = config.MAX_USERS
        rates, xy, device, clusters = large_draw(np.random.default_rng(5), n,
                                                 (config.MAX_RRHS // 4,) * 4)
        centroids = np.array([c.mean(axis=0) for c in clusters])
        dists = point_norms(xy[:, None, :] - centroids)
        antennas = [len(c) for c in clusters]
        tracemalloc.start()
        try:
            got = placement.associate_rrh(rates, dists, device, antennas, FAST_FRONTHAUL,
                                          FAST_BOUND_S)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < ASSOCIATE_PEAK_BYTES
        want = reference_associate_rrh(rates, xy, device, clusters, FAST_FRONTHAUL,
                                       FAST_BOUND_S)
        assert np.array_equal(got, want)

    def test_count_thresholds_are_the_scalar_thresholds(self):
        counts = np.arange(1, config.MAX_USERS + 1)
        for cfg in (CFG, SLOW_FRONTHAUL, FAST_FRONTHAUL):
            bound_s = delay_lower_bound_s(cfg)
            got = placement.rrh_rate_threshold_bits(counts, 0.0, cfg, bound_s)
            want = [placement.rrh_rate_threshold_bits(int(m), np.zeros(1), cfg, bound_s)[0]
                    for m in counts]
            assert got.tobytes() == np.array(want).tobytes()

    @pytest.mark.parametrize("n_fr", [0, 1, 7, 1000])
    def test_threshold_is_the_requirement_with_the_wired_leg(self, n_fr):
        device = np.array([2.5e6, 5e6, 7.5e6])
        for cfg in (CFG, ScenarioConfig(slot_duration_s=0.5, fronthaul_rate_bps=1e7)):
            wired_s = cfg.content_size_bits * n_fr / cfg.fronthaul_rate_bps
            bound_s = delay_lower_bound_s(cfg)
            want = np.maximum(delay_rate_requirement_bits(cfg, bound_s, wired_s),
                              device * cfg.slot_duration_s)
            got = placement.rrh_rate_threshold_bits(n_fr, device, cfg, bound_s)
            assert got.tobytes() == want.tobytes()

    def test_budget_exhaustion_gives_infinite_threshold(self):
        # enough sharers make the wired fronthaul alone exceed the delay budget
        thr = placement.rrh_rate_threshold_bits(1000, np.array([5e6]), CFG, BOUND_S)
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
        assert placement.select_cache(np.array([[0.9, 0.1]]), np.ones((1, 2)), 1) == (0,)

    def test_constant_savings_reduce_to_popularity(self):
        rng = np.random.default_rng(1)
        probs = rng.random((6, 10))
        probs /= probs.sum(axis=1, keepdims=True)
        const = np.full((6, 10), 0.37)
        popularity = probs.sum(axis=0)
        expected = tuple(sorted(np.argsort(-popularity)[:3]))
        assert placement.select_cache(probs, const, 3) == expected

    def test_matches_exhaustive_subset_search(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            n = int(rng.integers(4, 9))
            c = int(rng.integers(1, 4))
            probs = rng.random((4, n))
            savings = rng.random((4, n))
            chosen = placement.select_cache(probs, savings, c)
            scores = (probs * savings).sum(axis=0)
            best = max(itertools.combinations(range(n), c),
                       key=lambda s: sum(scores[list(s)]))
            assert set(chosen) == set(best)

    def test_caching_never_raises_requirement(self, tiny_cfg):
        saving = placement.delta_power_saving(
            loss_linear=db_to_linear(100.0), delay_req_cached_bits=2.5e6,
            delay_req_uncached_bits=5e6, device_req_bps=np.array([1e6, 3e6, 9e6]),
            n_served=4, cfg=tiny_cfg)
        assert np.all(saving >= 0.0)
        # device-dominated contents gain nothing from caching
        assert saving[2] == pytest.approx(0.0, abs=1e-18)

    def test_infeasible_uncached_route_saves_up_to_cap(self, tiny_cfg):
        saving = placement.delta_power_saving(
            loss_linear=db_to_linear(100.0), delay_req_cached_bits=2.5e6,
            delay_req_uncached_bits=math.inf, device_req_bps=np.array([1e6]),
            n_served=4, cfg=tiny_cfg)
        assert saving[0] == pytest.approx(tiny_cfg.uav_max_power_w, rel=1e-3)

    @pytest.mark.parametrize("pathloss_db", [100.0, 160.0, np.array([90.0, 150.0, 170.0])])
    def test_infinite_uncached_requirement_prices_at_the_cap(self, tiny_cfg, pathloss_db):
        device = np.array([1e6, 3e6, 9e6])
        if np.ndim(pathloss_db):
            device = device[:, None]
        loss = db_to_linear(pathloss_db)
        saving = placement.delta_power_saving(loss, 2.5e6, math.inf, device, 4, tiny_cfg)
        target = qoe_rate_target_bps(2.5e6, device, tiny_cfg.slot_duration_s)
        p_cached = min_uav_power_w(loss, target, 4, tiny_cfg.uav_bandwidth_hz,
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
        price = placement.PlacementPricer(users, targets, len(targets), p,
                                          CFG.uav_bandwidth_hz, CFG.noise_power_w)
        obj_cf = price([xy[0], xy[1], h])
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

    def test_low_threshold_sits_at_the_largest_norm_from_the_mean(self):
        """The span is bit for bit twice the largest ``np.linalg.norm`` from the mean position."""
        rng = np.random.default_rng(13)
        for _ in range(300):
            n, f = int(rng.integers(1, 15)), int(rng.integers(1, 1200))
            users = rng.normal(rng.uniform(-1e4, 1e4, 2), 10.0 ** rng.uniform(-1.0, 4.0),
                               (n, f, 2))
            flat = users.reshape(-1, 2)
            span = float(np.max(np.linalg.norm(flat - flat.mean(axis=0), axis=1))) * 2.0
            limit = 0.01 * span ** 2
            h = math.sqrt(limit)
            while h * h > limit:
                h = math.nextafter(h, 0.0)
            while math.nextafter(h, math.inf) ** 2 <= limit:
                h = math.nextafter(h, math.inf)
            assert placement.closed_form_regime(h, users) == "low"
            assert placement.closed_form_regime(math.nextafter(h, math.inf), users) is None


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
        init_obj = placement_objective(init, users, targets, 6, p,
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

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(n_users=st.integers(1, 6), n_intervals=st.integers(1, 40),
           seed=st.integers(0, 2 ** 32 - 1), floor=st.sampled_from([1.0, 10.0, 100.0]),
           step=st.sampled_from([1.0, 3.0, 10.0]), max_evals=st.sampled_from([40, 10_000]))
    def test_ends_where_no_step_prices_lower_unless_the_budget_ran_out(
            self, n_users, n_intervals, seed, floor, step, max_evals):
        rng = np.random.default_rng(seed)
        # each user walks a straight segment through the slot, sampled at interval midpoints
        start = rng.uniform(-500.0, 500.0, (n_users, 1, 2))
        end = start + rng.uniform(-60.0, 60.0, (n_users, 1, 2))
        along = ((np.arange(n_intervals) + 0.5) / n_intervals)[None, :, None]
        users = start + (end - start) * along
        targets = 10.0 ** rng.uniform(5.0, 8.0, n_users)
        init = np.array([*rng.uniform(-600.0, 600.0, 2), rng.uniform(0.0, 400.0)])
        args = (users, targets, n_users, CFG.pathloss, CFG.uav_bandwidth_hz, CFG.noise_power_w)
        result = placement.place_uav_local_search(*args[:2], init, *args[2:], floor,
                                                  step_m=step, max_evals=max_evals)
        assert result.evaluations <= max_evals
        if result.evaluations == max_evals:
            return
        price = placement.PlacementPricer(*args)
        best = price(result.position)
        assert best == result.objective_w and result.position[2] >= floor
        for axis, delta in itertools.product(range(3), (step, -step)):
            move = result.position.copy()
            move[axis] += delta
            move[2] = max(move[2], floor)
            assert price(move) >= best, (axis, delta)

    def test_multistart_close_to_grid(self):
        users, targets, p = low_regime_instance(7)
        grid = place_uav_exhaustive(users, targets, 3.0, [10.0], 6, p,
                                    CFG.uav_bandwidth_hz, CFG.noise_power_w)
        rng = np.random.default_rng(0)
        for _ in range(5):
            init = np.array([rng.uniform(-150, 150), rng.uniform(-150, 150), 10.0])
            res = placement.place_uav_local_search(users, targets, init, **self.kwargs(p))
            assert res.objective_w <= 1.05 * grid.objective_w


class TestLockstep:
    """K searches in one lockstep batch walk as K searches alone."""

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(sizes=st.lists(st.integers(1, 5), min_size=1, max_size=6),
           n_intervals=st.sampled_from([1, 8]), seed=st.integers(0, 2 ** 32 - 1),
           floor=st.sampled_from([1.0, 10.0, 100.0]), step=st.sampled_from([1.0, 3.0, 10.0]),
           max_evals=st.sampled_from([2, 3, 40, 41, 10_000]), weighted=st.booleans(),
           unreachable=st.booleans())
    def test_each_search_equals_its_solo_run(self, sizes, n_intervals, seed, floor, step,
                                             max_evals, weighted, unreachable):
        rng = np.random.default_rng(seed)
        along = ((np.arange(n_intervals) + 0.5) / n_intervals)[None, :, None]
        users, targets = [], []
        for m in sizes:  # each UAV's users walk straight segments around their own centre
            start = rng.uniform(-300.0, 300.0, 2) + rng.uniform(-100.0, 100.0, (m, 1, 2))
            users.append(start + rng.uniform(-60.0, 60.0, (m, 1, 2)) * along)
            targets.append(10.0 ** rng.uniform(5.0, 8.0, m))
        if unreachable:  # one user of the first UAV prices at inf
            targets[0][rng.integers(sizes[0])] = math.inf
        init = np.column_stack([rng.uniform(-300.0, 300.0, (len(sizes), 2)),
                                rng.uniform(0.0, 400.0, len(sizes))])
        weights = rng.uniform(0.5, 2.0, n_intervals) if weighted else 1.0
        channel = (CFG.pathloss, CFG.uav_bandwidth_hz, CFG.noise_power_w, floor)
        got = placement.place_uav_local_search(
            np.concatenate(users), np.concatenate(targets), init, np.array(sizes), *channel,
            step_m=step, max_evals=max_evals, weights=weights, sizes=sizes)
        assert got.position.shape == (len(sizes), 3)
        for k, m in enumerate(sizes):
            pos, best, evals = reference_local_search(users[k], targets[k], init[k], m, *channel,
                                                      step_m=step, max_evals=max_evals,
                                                      weights=weights)
            assert got.position[k].tobytes() == pos.tobytes()
            assert got.objective_w[k:k + 1].tobytes() == np.float64(best).tobytes()
            assert got.search_evaluations[k] == evals
        assert got.evaluations == got.search_evaluations.sum()

    def test_a_lone_start_gives_one_search(self):
        users, targets, p = low_regime_instance(4)
        init = np.array([400.0, 400.0, 60.0])
        args = (6, p, CFG.uav_bandwidth_hz, CFG.noise_power_w, 10.0)
        one = placement.place_uav_local_search(users, targets, init, *args)
        batch = placement.place_uav_local_search(users, targets, init[None], *args)
        assert one.position.shape == (3,) and isinstance(one.objective_w, float)
        assert one.position.tobytes() == batch.position[0].tobytes()
        assert one.objective_w == batch.objective_w[0]
        assert one.evaluations == batch.evaluations == batch.search_evaluations[0]

    def test_place_uav_places_each_uav_as_alone(self):
        rng = np.random.default_rng(9)
        cfg = dataclasses.replace(CFG, min_altitude_m=10.0,
                                  pathloss=ChannelParams(exponent_nlos=2.0))
        # a low-regime UAV (closed form), a high-regime one and one that searches
        spreads, sizes = (400.0, 0.05, 30.0), [4, 3, 5]
        users = [rng.uniform(-spread, spread, (m, 2, 2)) for spread, m in zip(spreads, sizes)]
        targets = [rng.uniform(1e6, 8e6, m) for m in sizes]
        init = np.array([[50.0, -20.0, 40.0], [5.0, 5.0, 200.0], [-30.0, 60.0, 45.0]])
        regimes = [placement.closed_form_regime(10.0, u) for u in users]
        assert regimes == ["low", "high", None]
        got = placement.place_uav(np.concatenate(users), np.concatenate(targets), init,
                                  np.array(sizes), cfg, sizes=sizes)
        for k, m in enumerate(sizes):
            alone = placement.place_uav(users[k], targets[k], init[k], m, cfg)
            assert got[k].tobytes() == alone.tobytes()


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
        return placement.PlacementPricer(users, targets, 4, CFG.pathloss, 1e9, 1e-12)(
            [0.0, 0.0, 100.0])

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
        got = placement.PlacementPricer(*args[1:])(uav)
        want = placement_objective_db(*args)
        assert not math.isnan(got) and not math.isnan(want)
        assert math.isfinite(got) == math.isfinite(want) == np.isfinite(targets).all()
        if math.isfinite(want):
            assert abs(got - want) <= linalg.LINEAR_LOSS_RTOL * want


def priced(objective, xyz):
    """An objective's value at ``xyz``, or the zero-distance error it raises."""
    try:
        return objective(xyz)
    except ChannelError:
        return "zero distance"


class TestPricer:
    """One pricer per search returns the bits of pricing each position from scratch."""

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(link=access_links(), bandwidth=log_uniform(6.0, 10.0), noise=log_uniform(-20.0, -8.0),
           case=st.sampled_from(["plain", "overhead", "floor", "overflow", "zero distance"]),
           moves=st.lists(st.tuples(st.integers(0, 2), st.sampled_from([-1.0, 1.0])),
                          max_size=24),
           step=st.sampled_from([0.7, 3.0, 10.0]), seed=st.integers(0, 2 ** 32 - 1),
           weighted=st.booleans())
    def test_equals_the_reference_bit_for_bit(self, link, bandwidth, noise, case, moves, step,
                                              seed, weighted):
        uav, users, p = link
        n = users.shape[0]
        rng = np.random.default_rng(seed)
        targets = bandwidth / n * 10.0 ** rng.uniform(-4.0, np.log10(20.0), n)
        floor = -math.inf
        if case == "overhead":  # a user directly below the start
            users[0, 0] = uav[:2]
        elif case == "floor":  # altitude moves stop at the start's height, over a user
            users[0, 0] = uav[:2]
            floor = uav[2]
        elif case == "overflow":  # losses and one user's price past the float range
            users *= 1e100
            targets[0] = math.inf
        elif case == "zero distance":  # on the ground (or below z**2's range) over a user
            uav[2] = rng.choice([0.0, 1e-170])
            users[0, 0] = uav[:2]
        # a position's share of the slot: one interval each, or any positive weights
        weights = rng.uniform(0.5, 2.0, users.shape[1]) if weighted else 1.0
        args = (users, targets, n, p, bandwidth, noise, weights)
        price = placement.PlacementPricer(*args)
        pos = uav
        outcomes = set()
        for axis, sign in [(0, 0.0), *moves]:
            pos = pos.copy()
            pos[axis] += sign * step
            if axis == 2:
                pos[2] = max(pos[2], floor)
            got = priced(price, pos)
            assert got == priced(lambda xyz: placement_objective(xyz, *args), pos)
            outcomes.add(got if isinstance(got, str) else math.isfinite(got))
        if case == "zero distance":
            assert "zero distance" in outcomes
        elif case == "overflow":
            assert outcomes == {False}
        else:
            assert outcomes == {True}


# Where the quadrature search and the interval-sum search end more than one step
# apart, the largest relative gap between the interval-sum objectives at their ends;
# fixed before the first run.  The 8-node rule is within about 1e-5 of a 100-interval
# sum and 3e-7 of a 1,000-interval one, so ends that a near tie sent apart differ by
# a few times that at most.
QUADRATURE_SEARCH_RTOL = 1e-4


class TestQuadrature:
    """The slot's Gauss–Legendre rule, and searches priced on it."""

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(coefficients=st.lists(st.one_of(st.just(0.0), st.floats(1e-3, 1e3)),
                                 min_size=2 * placement.QUADRATURE_NODES,
                                 max_size=2 * placement.QUADRATURE_NODES),
           degree=st.integers(0, 2 * placement.QUADRATURE_NODES - 1),
           start=st.floats(0.0, 1e3), length=st.floats(1e-3, 1e3))
    def test_integrates_every_polynomial_up_to_degree_2m_minus_1(self, coefficients, degree,
                                                                 start, length):
        # Nonnegative coefficients on a nonnegative segment: no cancellation, so
        # the rule's rounding is the only error.  The reference is exact.
        coefficients = coefficients[:degree + 1]
        if not any(coefficients):
            coefficients[-1] = 1.0
        a, b = Fraction(start), Fraction(start) + Fraction(length)
        exact = sum(Fraction(c) * (b ** (d + 1) - a ** (d + 1)) / (d + 1)
                    for d, c in enumerate(coefficients))
        x = start + length * placement.NODE_OFFSETS
        values = np.polyval(coefficients[::-1], x)
        got = length * float(placement.NODE_WEIGHTS @ values)
        assert abs(Fraction(got) - exact) <= Fraction(1e-14) * exact

    def test_literals_are_the_golub_welsch_rule_bit_for_bit(self):
        offsets, weights = gauss_legendre_reference(placement.QUADRATURE_NODES)
        assert placement.NODE_OFFSETS.tobytes() == offsets.tobytes()
        assert placement.NODE_WEIGHTS.tobytes() == weights.tobytes()

    def test_is_exact_no_further_than_degree_2m_minus_1(self):
        m = placement.QUADRATURE_NODES
        got = placement.NODE_WEIGHTS @ placement.NODE_OFFSETS ** (2 * m)
        assert abs(got - 1.0 / (2 * m + 1)) > 1e-12

    @pytest.mark.parametrize("intervals", [1, 10, 100, 1000])
    def test_scaled_weights_sum_to_the_interval_count(self, intervals):
        weights = intervals * placement.NODE_WEIGHTS
        assert weights.shape == placement.NODE_OFFSETS.shape == (placement.QUADRATURE_NODES,)
        assert abs(weights.sum() - intervals) <= 1e-14 * intervals
        assert np.all(weights > 0.0)
        assert np.all(np.diff(placement.NODE_OFFSETS) > 0.0)
        assert 0.0 < placement.NODE_OFFSETS[0] and placement.NODE_OFFSETS[-1] < 1.0

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(n_users=st.integers(1, 14), intervals=st.sampled_from([100, 1000]),
           spread=st.sampled_from([30.0, 300.0]), seed=st.integers(0, 2 ** 32 - 1))
    def test_search_ends_within_a_step_of_the_interval_search(self, n_users, intervals, spread,
                                                              seed):
        rng = np.random.default_rng(seed)
        # each user walks a straight segment through the slot at constant speed
        start = rng.uniform(-spread, spread, (n_users, 1, 2))
        end = start + rng.uniform(-60.0, 60.0, (n_users, 1, 2))

        def track(along):
            return start + (end - start) * along[None, :, None]

        targets = 10.0 ** rng.uniform(5.0, 8.0, n_users)
        init = np.array([*rng.uniform(-spread, spread, 2), rng.uniform(0.0, 400.0)])
        channel = (n_users, CFG.pathloss, CFG.uav_bandwidth_hz, CFG.noise_power_w)
        intervals_pos = track((np.arange(intervals) + 0.5) / intervals)
        full = placement.place_uav_local_search(intervals_pos, targets, init, *channel,
                                                CFG.min_altitude_m)
        quad = placement.place_uav_local_search(track(placement.NODE_OFFSETS), targets, init,
                                                *channel, CFG.min_altitude_m,
                                                weights=intervals * placement.NODE_WEIGHTS)
        assert full.evaluations < 10_000 and quad.evaluations < 10_000
        if np.abs(quad.position - full.position).max() <= 3.0 * (1.0 + 1e-12):
            return
        price = placement.PlacementPricer(intervals_pos, targets, *channel)
        assert abs(price(quad.position) - full.objective_w) <= (
            QUADRATURE_SEARCH_RTOL * full.objective_w)
