"""The vectorized slot pipeline computes exactly what the plain expressions compute.

The reference functions below are the straightforward forms of each kernel,
one numpy expression per quantity, and the per-user loops that the per-UAV
row reductions replace.  The package runs the distance, the LoS probability
and the dB path loss in place and the other kernels as these same
expressions, so every comparison here is exact, never a tolerance.
"""

import numpy as np
import pytest

from conftest import desk_config, infeasible_config, placement_objective, placement_objective_db
from uavcache import channel, placement, qoe, sim
from uavcache.config import ChannelParams, ScenarioConfig
from uavcache.generators import SyntheticWorld
from uavcache.predictors import (EsnPredictor, OraclePredictor, train_content_model,
                                 train_mobility_model)
from uavcache.qoe import LINK_UAV_CACHE, LINK_UAV_FRONTHAUL

P = ChannelParams()
CFG = ScenarioConfig()


# -- reference expressions ----------------------------------------------------------


def ref_distance_3d(uav_xyz, user_xy):
    uav_xyz = np.asarray(uav_xyz, dtype=float)
    user_xy = np.asarray(user_xy, dtype=float)
    dx = user_xy[..., 0] - uav_xyz[0]
    dy = user_xy[..., 1] - uav_xyz[1]
    return np.sqrt(dx * dx + dy * dy + uav_xyz[2] ** 2)


def ref_los_probability(dist, altitude, p):
    dist = np.asarray(dist, dtype=float)
    phi_deg = np.degrees(np.arcsin(np.clip(np.asarray(altitude, dtype=float) / dist, -1.0, 1.0)))
    return 1.0 / (1.0 + p.env_x * np.exp(-p.env_y * (phi_deg - p.env_x)))


def ref_mixed_pathloss_db(dist, altitude, p):
    pr = ref_los_probability(dist, altitude, p)
    l_fs = channel.free_space_pl_db(p.fs_ref_distance_m, p.carrier_hz)
    log_d = np.log10(dist)
    l_los = l_fs + 10.0 * p.exponent_los * log_d
    l_nlos = l_fs + 10.0 * p.exponent_nlos * log_d
    return pr * l_los + (1.0 - pr) * l_nlos


def ref_min_uav_power_w(loss_linear, rate_target_bps, n_served, bandwidth_hz, noise_w):
    rate = np.asarray(rate_target_bps, dtype=float)
    with np.errstate(over="ignore"):
        snr_needed = np.exp2(rate * n_served / bandwidth_hz) - 1.0
        return snr_needed * noise_w * loss_linear


def ref_uav_user_snr(power_w, loss_linear, noise_w):
    return np.asarray(power_w) / (loss_linear * noise_w)


def ref_link_rates_bps(sinr, bandwidth_hz, n_served=1):
    return (bandwidth_hz / n_served) * np.log2(1.0 + np.asarray(sinr, dtype=float))


def ref_local_search(user_pos, rate_targets_bps, init_xyz, n_served, p, bandwidth_hz,
                     noise_w, min_altitude_m, step_m=3.0, max_evals=10_000,
                     placement_objective=placement_objective):
    """Coordinate descent that evaluates the objective at every candidate."""
    pos = np.asarray(init_xyz, dtype=float).copy()
    pos[2] = max(pos[2], min_altitude_m)

    def objective(xyz):
        return placement_objective(xyz, user_pos, rate_targets_bps, n_served,
                                   p, bandwidth_hz, noise_w)

    best = objective(pos)
    evals = 1
    improved = True
    while improved and evals < max_evals:
        improved = False
        for axis in range(3):
            best_cand = None
            best_val = best
            for delta in (step_m, -step_m):
                cand = pos.copy()
                cand[axis] += delta
                if axis == 2:
                    cand[2] = max(cand[2], min_altitude_m)
                    if cand[2] == pos[2]:
                        continue
                val = objective(cand)
                evals += 1
                if val < best_val:
                    best_val = val
                    best_cand = cand
                if evals >= max_evals:
                    break
            if best_cand is not None:
                pos, best = best_cand, best_val
                improved = True
            if evals >= max_evals:
                break
    return pos, best, evals


# -- kernel cases: (name, kernel, reference, args) -------------------------------------

RNG = np.random.default_rng(20)
USER_XY = {
    "scalar": np.array([30.0, -40.0]),
    "1-D": RNG.uniform(-500.0, 500.0, (7, 2)),
    "(n, F, 2)": RNG.uniform(-500.0, 500.0, (4, 9, 2)),
}
UAV = np.array([12.5, -3.0, 140.0])
# Elevations from grazing to overhead; one link exactly overhead and one a
# rounding error shorter than the altitude, which the clip catches.
DIST = {
    "scalar": np.float64(170.0),
    "1-D": np.concatenate([[140.0, np.nextafter(140.0, 0.0)], RNG.uniform(141.0, 2000.0, 12)]),
    "(n, F)": RNG.uniform(140.0, 2000.0, (4, 9)),
}
PL = {"scalar": np.float64(98.5), "1-D": RNG.uniform(60.0, 160.0, 11),
      "(n, F)": RNG.uniform(60.0, 160.0, (4, 9))}
LOSS = {shape: 10.0 ** (pl / 10.0) for shape, pl in PL.items()}


def kernel_cases():
    bw, noise = CFG.uav_bandwidth_hz, CFG.noise_power_w
    for shape, xy in USER_XY.items():
        yield f"distance_3d-{shape}", channel.distance_3d, ref_distance_3d, (UAV, xy)
    for shape, d in DIST.items():
        yield f"los_probability-{shape}", channel.los_probability, ref_los_probability, \
            (d, 140.0, P)
        yield f"mixed_pathloss_db-{shape}", channel.mixed_pathloss_db, ref_mixed_pathloss_db, \
            (d, 140.0, P)
    targets = {"scalar": 2e7, "1-D": RNG.uniform(1e6, 9e7, 11),
               "(n, 1)": np.array([[1e6], [3e7], [np.inf], [8e9]])}
    yield "min_uav_power_w-scalar", qoe.min_uav_power_w, ref_min_uav_power_w, \
        (LOSS["scalar"], targets["scalar"], 3, bw, noise)
    yield "min_uav_power_w-scalar-pl-1-D-rate", qoe.min_uav_power_w, ref_min_uav_power_w, \
        (LOSS["scalar"], targets["1-D"], 3, bw, noise)
    yield "min_uav_power_w-1-D", qoe.min_uav_power_w, ref_min_uav_power_w, \
        (LOSS["1-D"], targets["1-D"], 3, bw, noise)
    yield "min_uav_power_w-(n, F)", qoe.min_uav_power_w, ref_min_uav_power_w, \
        (LOSS["(n, F)"], targets["(n, 1)"], 4, bw, noise)
    yield "min_uav_power_w-(n, 1)-pl-(n, F)-rate", qoe.min_uav_power_w, ref_min_uav_power_w, \
        (LOSS["(n, F)"][:, :1], np.tile(targets["(n, 1)"], 9), 4, bw, noise)
    for shape, loss in LOSS.items():
        power = np.full(np.shape(loss), 0.3)
        yield f"uav_user_snr-{shape}", channel.uav_user_snr, ref_uav_user_snr, (power, loss, noise)
        sinr = ref_uav_user_snr(power, loss, noise)
        yield f"link_rates_bps-{shape}", channel.link_rates_bps, ref_link_rates_bps, \
            (sinr, bw, 3)


CASES = list(kernel_cases())


@pytest.mark.parametrize("kernel, reference, args", [c[1:] for c in CASES],
                         ids=[c[0] for c in CASES])
class TestInPlaceKernels:
    def test_equals_plain_expression(self, kernel, reference, args):
        got, want = kernel(*args), reference(*args)
        assert isinstance(got, np.ndarray) == isinstance(want, np.ndarray)
        assert np.shape(got) == np.shape(want)
        assert np.array_equal(got, want)

    def test_never_writes_into_an_argument(self, kernel, reference, args):
        before = [np.array(a, copy=True) if isinstance(a, np.ndarray) else a for a in args]
        got = kernel(*args)
        for old, new in zip(before, args):
            if isinstance(new, np.ndarray):
                assert np.array_equal(old, new)
                assert not np.shares_memory(got, new)


def test_radians_to_degrees_constant_matches_np_degrees():
    x = np.random.default_rng(3).uniform(-np.pi / 2, np.pi / 2, 100_000)
    assert np.array_equal(x * channel.RAD_TO_DEG, np.degrees(x))


# -- local search ------------------------------------------------------------------------


def search_instances():
    rng = np.random.default_rng(11)
    for i in range(24):
        n_users, n_intervals = int(rng.integers(1, 6)), int(rng.integers(1, 12))
        center = rng.uniform(-300.0, 300.0, 2)
        users = center + rng.normal(0.0, rng.uniform(5.0, 200.0), (n_users, n_intervals, 2))
        targets = rng.uniform(1e6, 6e7, n_users)
        # Every fourth start sits below the floor; every third search is cut short.
        z = 60.0 if i % 4 == 0 else rng.uniform(100.0, 400.0)
        init = np.array([*(center + rng.uniform(-60.0, 60.0, 2)), z])
        max_evals = int(rng.integers(2, 30)) if i % 3 == 0 else 10_000
        step = (3.0, 0.7, 10.0)[i % 3]
        yield users, targets, init, n_users, step, max_evals


SEARCHES = list(search_instances())


@pytest.mark.parametrize("users, targets, init, n_served, step, max_evals", SEARCHES,
                         ids=[f"search{i}" for i in range(len(SEARCHES))])
def test_local_search_matches_reference(users, targets, init, n_served, step, max_evals):
    args = (users, targets, init, n_served, P, CFG.uav_bandwidth_hz, CFG.noise_power_w,
            CFG.min_altitude_m)
    got = placement.place_uav_local_search(*args, step_m=step, max_evals=max_evals)
    pos, best, evals = ref_local_search(*args, step_m=step, max_evals=max_evals)
    assert got.position.tobytes() == pos.tobytes()
    assert got.objective_w == best
    assert got.evaluations == evals


def db_route_instances():
    rng = np.random.default_rng(12)
    for _ in range(200):
        p = ChannelParams(exponent_los=rng.uniform(1.8, 3.0), exponent_nlos=rng.uniform(2.0, 4.0),
                          env_x=rng.uniform(5.0, 25.0), env_y=rng.uniform(0.05, 0.5))
        n_users, n_intervals = int(rng.integers(1, 8)), int(rng.integers(1, 10))
        center = rng.uniform(-300.0, 300.0, 2)
        users = center + rng.normal(0.0, rng.uniform(5.0, 300.0), (n_users, n_intervals, 2))
        targets = rng.uniform(1e6, 6e7, n_users)
        init = np.array([*(center + rng.uniform(-60.0, 60.0, 2)), rng.uniform(40.0, 400.0)])
        yield users, targets, init, n_users, p


def test_local_search_lands_where_the_db_route_objective_lands():
    """The objective is not bit for bit the dB route's, yet every move the search makes is."""
    for users, targets, init, n_served, p in db_route_instances():
        args = (users, targets, init, n_served, p, CFG.uav_bandwidth_hz, CFG.noise_power_w,
                CFG.min_altitude_m)
        got = placement.place_uav_local_search(*args)
        pos, _, evals = ref_local_search(*args, placement_objective=placement_objective_db)
        assert got.position.tobytes() == pos.tobytes()
        assert got.evaluations == evals


def test_local_search_reaches_the_floor_and_the_cut():
    hits = {"floor": False, "cut": False}
    for users, targets, init, n_served, step, max_evals in SEARCHES:
        res = placement.place_uav_local_search(
            users, targets, init, n_served, P, CFG.uav_bandwidth_hz, CFG.noise_power_w,
            CFG.min_altitude_m, step_m=step, max_evals=max_evals)
        hits["floor"] |= res.position[2] == CFG.min_altitude_m
        hits["cut"] |= res.evaluations == max_evals
    assert hits == {"floor": True, "cut": True}


# -- per-slot position arrays ------------------------------------------------------------


def reference_interval_positions(world, user, global_slot, n_intervals):
    """One user's interval positions, one collected waypoint pair at a time."""
    h = world.cfg.slots_per_collection
    g = global_slot + (np.arange(n_intervals) + 0.5) / n_intervals
    c = (g // h).astype(int)
    frac = ((g - c * h) / h)[:, None]
    last = world.collections.shape[1] - 1
    a = world.collections[user, np.minimum(c, last)]
    b = world.collections[user, np.minimum(c + 1, last)]
    return (1.0 - frac) * a + frac * b


def test_world_positions_for_all_users_equal_per_user(tiny_cfg):
    world = SyntheticWorld(tiny_cfg)
    users = list(range(tiny_cfg.num_users))
    last = world.horizon_days * tiny_cfg.slots_per_cache_period + 5  # past the horizon
    for gs in (0, 2, 3, world.training_days * tiny_cfg.slots_per_cache_period + 7, last):
        for f in (1, 4, tiny_cfg.intervals_per_slot):
            every = world.interval_positions(users, gs, f)
            assert every.shape == (len(users), f, 2)
            for u in users:
                one = world.interval_positions(u, gs, f)
                assert np.array_equal(every[u], one)
                assert np.array_equal(one, reference_interval_positions(world, u, gs, f))
            some = [4, 1, 7]
            assert np.array_equal(world.interval_positions(some, gs, f), every[some])
    assert world.interval_positions([], 3, 4).shape == (0, 4, 2)


def test_esn_positions_for_all_users_equal_per_user():
    cfg = desk_config(num_users=3, num_uavs=1, num_rrhs=4, num_rrh_clusters=1,
                      intervals_per_slot=6, slots_per_collection=3, slots_per_cache_period=12,
                      esn={"reservoir_size": 40, "training_length": 60, "washout": 10},
                      generators={"training_weeks": 2})
    world = SyntheticWorld(cfg)
    users = list(range(cfg.num_users))
    predictor = EsnPredictor(world, [train_content_model(cfg, world, u)[0] for u in users],
                             [train_mobility_model(cfg, world, u)[0] for u in users])
    gs0 = world.training_days * cfg.slots_per_cache_period
    for gs in range(gs0, gs0 + cfg.slots_per_cache_period):
        every = predictor.slot_positions(users, gs, cfg.intervals_per_slot)
        for u in users:
            assert np.array_equal(every[u], predictor.slot_positions(u, gs, cfg.intervals_per_slot))


# -- per-UAV rows against per-user references --------------------------------------------


def reference_cache_rows(plan, k):
    """One UAV's probability and saving rows, priced one user at a time."""
    cfg = plan.cfg
    all_contents = np.arange(cfg.num_contents)
    prob_rows, saving_rows = [], []
    for s, uav in enumerate(plan.uav):
        members = np.flatnonzero(uav == k).tolist()
        if not members:
            continue
        pls = channel.uav_user_pathloss_db(plan.anchors[s][k], plan.midpoints[s][members],
                                           cfg.pathloss)
        for u, pl in zip(members, pls):
            prob_rows.append(plan.predictor.distributions[u, s // cfg.slots_per_collection])
            saving_rows.append(placement.delta_power_saving(
                channel.db_to_linear(float(pl)), plan.req_hit, plan.req_miss[s][k],
                cfg.device_rate_bps(plan.screen[u], all_contents), len(members), cfg))
    return np.array(prob_rows), np.array(saving_rows)


def reference_deliver_uav(plan, cache, users, contents, n_served, position, user_pos, n_fetch):
    """``sim._deliver_uav`` with every per-user quantity reduced from that user's 1-D row."""
    cfg = plan.cfg
    hits = [c in cache for c in contents]
    fronthaul_bits, req_miss = (np.inf, plan.req_hit) if all(hits) else sim._cache_miss(
        plan, position, max(n_fetch, 1))
    targets = qoe.qoe_rate_target_bps(
        np.where(hits, plan.req_hit, req_miss), cfg.device_rate_bps(plan.screen[users], contents),
        cfg.slot_duration_s)[:, None]
    pl = channel.uav_user_pathloss_db(position, user_pos, cfg.pathloss)
    power = qoe.min_uav_power_w(channel.db_to_linear(pl), targets, n_served,
                                cfg.uav_bandwidth_hz, cfg.noise_power_w)
    feasible = np.all(power <= cfg.uav_max_power_w, axis=1)
    tx_power = np.minimum(power, cfg.uav_max_power_w)
    rates_bps = channel.link_rates_bps(
        channel.uav_user_snr(tx_power, channel.db_to_linear(pl), cfg.noise_power_w),
        cfg.uav_bandwidth_hz, n_served)
    routes = np.zeros(len(users), dtype=sim.ROUTE)
    for row, u, content, hit, rates, user_power, ok in zip(
            routes, users, contents, hits, rates_bps, tx_power, feasible):
        row["link"] = LINK_UAV_CACHE if hit else LINK_UAV_FRONTHAUL
        row["access_bits"] = channel.slot_capacity_bits(rates, cfg.slot_duration_s)
        row["fronthaul_bits"] = np.inf if hit else fronthaul_bits
        row["device_frac"] = qoe.device_score(rates, cfg.device_rate_bps(plan.screen[u], content))
        row["power_w"] = float(user_power.mean())
        row["cache_hit"], row["feasible"] = hit, ok
    return routes


def test_uav_rows_equal_per_user_references_on_the_infeasible_config(tiny_cfg, monkeypatch):
    cfg = infeasible_config(tiny_cfg)
    world = SyntheticWorld(cfg)
    plan = sim.plan_slots(cfg, world, OraclePredictor(world))
    assert any(np.isinf(r) for per_slot in plan.req_miss for r in per_slot if r is not None)

    rows = []
    select_cache = placement.select_cache

    def captured(probabilities, savings, cache_size):
        rows.append((probabilities, savings))
        return select_cache(probabilities, savings, cache_size)

    monkeypatch.setattr(placement, "select_cache", captured)
    caches = sim.select_caches(plan)
    want = [reference_cache_rows(plan, k) for k in range(plan.n_uavs)]
    want = [w for w in want if len(w[0])]
    assert len(rows) == len(want) > 0
    for (probs, savings), (ref_probs, ref_savings) in zip(rows, want):
        assert probs.tobytes() == ref_probs.tobytes()
        assert savings.tobytes() == ref_savings.tobytes()

    delivered = []
    deliver_uav = sim._deliver_uav

    def checked(*args):
        got = deliver_uav(*args)
        assert got.dtype == sim.ROUTE
        assert got.tobytes() == reference_deliver_uav(*args).tobytes()
        delivered.append(got)
        return got

    monkeypatch.setattr(sim, "_deliver_uav", checked)
    sim.deliver(plan, caches, sim.place_uavs(plan, caches))
    # The config reaches misses, hits and power clamped at the cap.
    routes = np.concatenate(delivered)
    assert set(routes["link"].tolist()) == {LINK_UAV_CACHE, LINK_UAV_FRONTHAUL}
    assert not routes["feasible"].all()


def test_delay_bound_is_computed_once_per_period(tiny_cfg, monkeypatch):
    calls = []
    bound = qoe.delay_lower_bound_s

    def counted(cfg):
        calls.append(cfg)
        return bound(cfg)

    for module in (qoe, sim, placement):
        if hasattr(module, "delay_lower_bound_s"):
            monkeypatch.setattr(module, "delay_lower_bound_s", counted)
    _, summary = sim.run_period(tiny_cfg, mode="oracle")
    assert len(calls) == 1
    assert summary["delay_lower_bound_s"] == bound(tiny_cfg)


# -- call counts of one desk-scale period ------------------------------------------------


def test_desk_period_counts(monkeypatch):
    cfg = desk_config()
    world = SyntheticWorld(cfg)
    position_calls = []
    interval_positions = SyntheticWorld.interval_positions

    def counted_positions(self, users, global_slot, n_intervals=None):
        position_calls.append(global_slot)
        return interval_positions(self, users, global_slot, n_intervals)

    searches = []  # per search: the positions handed to the pricer
    db_route_calls = []  # (kernel, called from inside a search)
    in_search = []
    price = placement.PlacementPricer.__call__
    local_search = placement.place_uav_local_search

    def counted_price(self, xyz):
        searches[-1].append(np.asarray(xyz, dtype=float).tobytes())
        return price(self, xyz)

    def counted_search(*args, **kwargs):
        searches.append([])
        in_search.append(True)
        result = local_search(*args, **kwargs)
        in_search.pop()
        searches[-1] = (searches[-1], result.evaluations)
        return result

    def db_route(name, kernel):
        def counted(*args, **kwargs):
            db_route_calls.append((name, bool(in_search)))
            return kernel(*args, **kwargs)
        return counted

    db_kernels = ("uav_user_pathloss_db", "db_to_linear")
    for module in (channel, qoe, placement, sim):
        for name in db_kernels:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, db_route(name, getattr(module, name)))

    position_at_calls = []
    position_at = SyntheticWorld.position_at

    def counted_position_at(self, users, times):
        position_at_calls.append(len(times))
        return position_at(self, users, times)

    monkeypatch.setattr(SyntheticWorld, "interval_positions", counted_positions)
    monkeypatch.setattr(SyntheticWorld, "position_at", counted_position_at)
    monkeypatch.setattr(placement.PlacementPricer, "__call__", counted_price)
    monkeypatch.setattr(placement, "place_uav_local_search", counted_search)
    sim.run_period(cfg, mode="oracle", world=world)

    # Per slot: planned midpoints, placement intervals, true midpoints, delivery intervals.
    per_slot = np.bincount(np.asarray(position_calls) - min(position_calls))
    assert len(position_calls) > 0 and per_slot.max() <= 4
    # run_period samples positions only through interval_positions, a slot at a time.
    assert len(position_at_calls) == len(position_calls)
    assert searches
    # Delivery and cache selection take the dB route; the search prices positions in
    # linear units only: no dB path loss, no 10 ** (PL / 10).
    assert {name for name, inside in db_route_calls if not inside} == set(db_kernels)
    assert [name for name, inside in db_route_calls if inside] == []
    for evaluated, evaluations in searches:
        assert len(evaluated) == len(set(evaluated))
        assert evaluations >= len(evaluated)
    # Some search revisits a position, so the memo is exercised.
    assert any(evaluations > len(evaluated) for evaluated, evaluations in searches)
