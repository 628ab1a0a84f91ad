import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (desk_config, reference_collections, reference_context, reference_requests,
                      reference_track_positions)
from uavcache.generators import SyntheticWorld, day_type, is_work_subperiod, track_positions


def small_world(**overrides) -> SyntheticWorld:
    base = dict(num_users=6, num_uavs=2, num_rrhs=8, num_rrh_clusters=2,
                intervals_per_slot=10)
    base.update(overrides)
    return SyntheticWorld(desk_config(**base))


class TestMobility:
    def test_single_waypoint_zero_noise_is_constant(self):
        world = small_world(generators={"waypoints_per_day": 1, "position_noise_m": 0.0})
        home = world.collections[0, 0]
        for slot in range(0, 48, 5):
            assert np.allclose(world.position_at(0, [slot + 0.3]), home)

    def test_constant_speed_between_collections(self):
        world = small_world(generators={"waypoints_per_day": 2, "position_noise_m": 3.0})
        h = world.cfg.slots_per_collection
        # equally spaced samples inside one collection window move in equal steps
        base_slot = h  # second window of day 0, a commuting segment
        times = np.linspace(0.0, h * 0.96, 25)
        pts = world.position_at(0, base_slot + times)
        steps = np.diff(pts, axis=0)
        assert np.abs(steps - steps[0]).max() < 1e-9

    def test_weekday_weeks_repeat_up_to_noise(self):
        sigma = 2.0
        world = small_world(generators={"position_noise_m": sigma})
        t = world.cfg.slots_per_cache_period
        diffs = []
        for slot in range(0, t, 3):
            a = world.position_at(0, [slot + 0.5])[0]  # Monday, week 1
            b = world.position_at(0, [7 * t + slot + 0.5])[0]  # Monday, week 2
            diffs.append(np.linalg.norm(a - b))
        assert max(diffs) < 10.0 * sigma

    def test_weekday_weekend_differ(self):
        world = small_world(generators={"waypoints_per_day": 2, "position_noise_m": 0.0})
        t = world.cfg.slots_per_cache_period
        midday = t // 2
        weekday = world.position_at(0, [midday])[0]  # day 0
        weekend = world.position_at(0, [5 * t + midday])[0]  # day 5
        assert np.linalg.norm(weekday - weekend) > 1.0

    def test_positions_inside_disk(self):
        world = small_world(generators={"position_noise_m": 30.0})
        radius = world.cfg.area_radius_m
        pos = world.position_at(range(world.cfg.num_users), np.arange(0, 24, 4) + 0.25)
        assert np.linalg.norm(pos, axis=-1).max() <= radius + 1e-9

    def test_interval_positions_match_scalar_queries(self):
        world = small_world()
        grid = world.interval_positions(1, 5, 10)
        direct = np.array([world.position_at(1, [5 + (i + 0.5) / 10])[0] for i in range(10)])
        assert np.array_equal(grid, direct)

    def test_day_type_cycle(self):
        assert [day_type(d) for d in range(8)] == [0, 0, 0, 0, 0, 1, 1, 0]


class TestRequests:
    def test_degenerate_distribution_always_same_content(self):
        world = small_world(generators={"request_concentration": 60.0,
                                        "work_hour_boost": 1.0, "taste_spread": 0.0})
        p = world.distributions[0, 0]
        top = int(np.argmax(p))
        assert p[top] > 0.999
        for slot in range(50):
            assert world.requests[0, slot] == top

    def test_empirical_frequencies_match_distribution(self):
        world = small_world(slots_per_cache_period=24, generators={"training_weeks": 4})
        u, sub = 2, 1
        p = world.distributions[u, sub]
        t, h = world.cfg.slots_per_cache_period, world.cfg.slots_per_collection
        rng = np.random.default_rng(123)
        uniforms = rng.random(10_000)
        counts = np.zeros(world.cfg.num_contents)
        cdf = np.cumsum(p)
        for x in uniforms:
            counts[np.searchsorted(cdf, x)] += 1
        tv = 0.5 * np.abs(counts / counts.sum() - p).sum()
        assert tv <= 0.05

    def test_sampled_requests_follow_distribution(self):
        world = small_world(generators={"request_concentration": 2.0})
        u = 0
        t, h = world.cfg.slots_per_cache_period, world.cfg.slots_per_collection
        counts = np.zeros(world.cfg.num_contents)
        n = 0
        for day in range(world.horizon_days):
            for s in range(h):  # sub-period 0 slots only
                req = world.requests[u, day * t + s]
                if req >= 0:
                    counts[req] += 1
                    n += 1
        tv = 0.5 * np.abs(counts / n - world.distributions[u, 0]).sum()
        assert tv <= 0.2  # limited samples per sub-period

    def test_work_contents_peak_in_work_hours(self):
        world = small_world(generators={"work_hour_boost": 3.0})
        n_sub = world.n_sub
        work_subs = [j for j in range(n_sub) if is_work_subperiod(j, n_sub)]
        off_subs = [j for j in range(n_sub) if not is_work_subperiod(j, n_sub)]
        assert work_subs and off_subs
        work_class = world._work_class
        p_work = world.distributions[0, work_subs[0]][work_class].sum()
        p_off = world.distributions[0, off_subs[0]][work_class].sum()
        assert p_work > p_off

    def test_distributions_are_normalized(self):
        world = small_world()
        for u in range(world.cfg.num_users):
            for sub in range(world.n_sub):
                p = world.distributions[u, sub]
                assert p.sum() == pytest.approx(1.0)
                assert np.all(p >= 0.0)

    def test_request_probability_gates_requests(self):
        world = small_world(generators={"request_probability": 0.0})
        assert all(world.requests[0, s] == -1 for s in range(40))


class TestDeterminism:
    def test_same_config_same_world(self):
        a = small_world()
        b = small_world()
        assert np.array_equal(a.collections, b.collections)
        assert np.array_equal(a.distributions, b.distributions)
        assert np.array_equal(a.requests, b.requests)
        assert np.array_equal(a.rrh_xy, b.rrh_xy)

    def test_seed_changes_world(self):
        a = small_world()
        b = small_world(seed=999)
        assert not np.array_equal(a.collections, b.collections)


class TestInfrastructure:
    def test_rrhs_inside_disk(self):
        world = small_world()
        assert np.all(np.linalg.norm(world.rrh_xy, axis=1) <= world.cfg.area_radius_m)

    def test_hub_at_origin(self):
        assert np.array_equal(small_world().bbu_xy, np.zeros(2))

    def test_screen_factors_from_catalog(self):
        world = small_world()
        for u in range(world.cfg.num_users):
            assert world.screen_factors[u] in world.cfg.screen_factors


# The tables against the per-slot and per-collection forms they replaced: the
# tiny and desk scenarios, idle slots (no golden has one) and waypoints pulled
# back onto the disk edge (no golden has one either).
TABLE_CASES = {
    "desk": {},
    "idle-slots": {"generators": {"request_probability": 0.5}},
    "clamped-waypoints": {"area_radius_m": 50.0, "generators": {"position_noise_m": 40.0}},
    "one-waypoint": {"generators": {"waypoints_per_day": 1}},
    "short-steps": {"generators": {"waypoints_per_day": 4, "speed_max_mps": 0.01}},
}


@pytest.fixture(params=["tiny", *TABLE_CASES])
def table_world(request, tiny_cfg) -> SyntheticWorld:
    if request.param == "tiny":
        return SyntheticWorld(tiny_cfg)
    return SyntheticWorld(desk_config(**TABLE_CASES[request.param]))


class TestTables:
    def test_requests_equal_the_per_slot_draw(self, table_world):
        world = table_world
        assert world.requests.shape == (world.cfg.num_users,
                                        world.horizon_days * world.cfg.slots_per_cache_period)
        assert np.array_equal(world.requests, reference_requests(world))
        idle = world.cfg.generators.request_probability < 1.0
        assert bool(np.any(world.requests == -1)) == idle

    def test_context_equals_the_per_slot_features(self, table_world):
        world = table_world
        slots = np.arange(0, world.requests.shape[1], 5)
        for user in range(min(3, world.cfg.num_users)):
            expected = np.array([reference_context(world, user, s) for s in slots])
            assert np.array_equal(world.context_features(user, slots), expected)

    def test_collections_equal_the_per_collection_build(self, table_world):
        world = table_world
        assert np.array_equal(world.collections, reference_collections(world))

    def test_clamped_case_pulls_waypoints_onto_the_edge(self):
        world = SyntheticWorld(desk_config(**TABLE_CASES["clamped-waypoints"]))
        radius = np.linalg.norm(world.collections, axis=-1)
        assert np.sum(np.isclose(radius, world.cfg.area_radius_m, rtol=1e-12)) > 1000
        assert radius.max() <= world.cfg.area_radius_m * (1 + 1e-12)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(n_users=st.integers(1, 8), n_points=st.integers(1, 12), h=st.integers(1, 12),
       n_times=st.integers(1, 300), one_user=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
def test_track_positions_equals_the_pointwise_reference(n_users, n_points, h, n_times,
                                                        one_user, seed):
    """Planar interpolation gives the bits, shape and layout of interpolating both
    coordinates of each waypoint together, inside the track and past its end."""
    rng = np.random.default_rng(seed)
    tracks = rng.normal(0.0, 10.0 ** rng.uniform(0.0, 4.0), (n_users, n_points, 2))
    users = int(rng.integers(n_users)) if one_user else rng.integers(n_users, size=n_users)
    times = np.sort(rng.uniform(0.0, (n_points + 1) * h, n_times))
    if rng.random() < 0.5:  # a slot's interval midpoints, as delivery samples them
        slot = int(rng.integers((n_points + 1) * h))
        times = slot + (np.arange(n_times) + 0.5) / n_times
    got = track_positions(tracks, users, times, h)
    want = reference_track_positions(tracks, users, times, h)
    assert got.shape == want.shape and got.flags["C_CONTIGUOUS"]
    assert got.tobytes() == want.tobytes()
