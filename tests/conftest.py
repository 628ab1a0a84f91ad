import dataclasses
import math

import numpy as np
import pytest
from hypothesis import strategies as st

from uavcache.channel import (ChannelError, db_to_linear, free_space_pl_db, mixed_pathloss_db,
                              uav_user_pathloss_db)
from uavcache.config import (DESK_PRESET, ChannelParams, RandomSource, ScenarioConfig,
                             load_config_dict, merge_documents)
from uavcache.generators import DAY_TYPES, day_type
from uavcache.placement import PlacementResult, _flatten_positions, rrh_rate_threshold_bits
from uavcache.qoe import (LINK_RRH, LINK_UAV_CACHE, LINK_UAV_FRONTHAUL, MOS_BINS, QoeReport,
                          min_uav_power_w, power_per_loss_w)


def desk_config(**overrides) -> ScenarioConfig:
    """Desk-scale scenario with optional leaf overrides (nested dicts merge)."""
    return load_config_dict(merge_documents(DESK_PRESET, overrides))


@pytest.fixture
def tiny_cfg() -> ScenarioConfig:
    """Small but structurally complete scenario for fast end-to-end tests."""
    return desk_config(
        num_users=10, num_rrhs=8, num_rrh_clusters=2, num_uavs=2, cache_size=3,
        intervals_per_slot=10, slots_per_collection=3, slots_per_cache_period=12,
        esn={"reservoir_size": 60, "training_length": 60, "washout": 10},
        generators={"training_weeks": 2, "request_concentration": 2.0},
    )


def infeasible_config(tiny_cfg: ScenarioConfig) -> ScenarioConfig:
    """``tiny_cfg`` at a half-second slot with a slow wired fronthaul, a faint BBU link and
    a one-content cache: the RRH threshold goes infinite, uncached routes cannot make the
    delay, and delivery prices unreachable targets at the power cap."""
    return dataclasses.replace(
        tiny_cfg, slot_duration_s=0.5, fronthaul_rate_bps=1e7, bbu_power_w=1e-6, cache_size=1,
        generators=dataclasses.replace(tiny_cfg.generators, request_concentration=0.5))


def idle_config(tiny_cfg: ScenarioConfig) -> ScenarioConfig:
    """``tiny_cfg`` where each user requests in a slot with probability 0.6, so every slot
    has idle users."""
    return dataclasses.replace(tiny_cfg, generators=dataclasses.replace(
        tiny_cfg.generators, request_probability=0.6))


def log_uniform(lo_exp: float, hi_exp: float):
    """Floats from 10**lo_exp to 10**hi_exp, uniform in the exponent."""
    return st.floats(lo_exp, hi_exp).map(lambda e: 10.0 ** e)


@st.composite
def access_links(draw):
    """A UAV, its users' (n, F, 2) interval positions and channel constants.

    The ranges run from free-space to dense-clutter exponents, from flat to
    steep LoS curves, from UHF to mmWave carriers, from hovering a metre up
    to three kilometres, with users spread over one metre to ten kilometres.
    """
    p = ChannelParams(exponent_los=draw(st.floats(1.5, 4.0)),
                      exponent_nlos=draw(st.floats(1.5, 6.0)),
                      env_x=draw(st.floats(0.5, 40.0)), env_y=draw(st.floats(0.01, 1.0)),
                      fs_ref_distance_m=draw(log_uniform(-1.0, 2.0)),
                      carrier_hz=draw(log_uniform(8.0, 11.0)))
    altitude, spread = draw(log_uniform(0.0, 3.5)), draw(log_uniform(0.0, 4.0))
    n_users, n_intervals = draw(st.integers(1, 20)), draw(st.integers(1, 200))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    users = rng.normal(0.0, spread, (n_users, n_intervals, 2))
    uav = np.array([*rng.normal(0.0, spread, 2), altitude])
    return uav, users, p


# -- independent references the tests compare the production code against -----------


def echo_state_gap(w: np.ndarray, w_in: np.ndarray, inputs: np.ndarray,
                   rs: RandomSource) -> float:
    """Final distance between two state trajectories driven by the same input.

    A reservoir with the echo-state property forgets initial conditions, so
    the gap should vanish; spectral radii >= 1 typically leave it large.
    """
    rng = rs.generator()
    v1 = rng.uniform(-1.0, 1.0, w.shape[0])
    v2 = rng.uniform(-1.0, 1.0, w.shape[0])
    drive_terms = np.atleast_2d(inputs) @ w_in.T
    for t in range(drive_terms.shape[0]):
        v1 = np.tanh(w @ v1 + drive_terms[t])
        v2 = np.tanh(w @ v2 + drive_terms[t])
    return float(np.max(np.abs(v1 - v2)))


def reference_associate_rrh(rates_bits, user_xy, device_req_bps, clusters, cfg, bound_s):
    """Terrestrial admission tried at every count from the largest down.

    Each count m rebuilds the whole greedy placement: the users ranked by
    rate (ties by id) that clear the threshold for m sharers go, in rank
    order, to the nearest cluster with a free antenna, until m are placed.
    The first m that fills returns; each user's cluster index, or -1.
    """
    rates = np.asarray(rates_bits, dtype=float)
    user_xy = np.asarray(user_xy, dtype=float)
    n_users = rates.shape[0]
    total_antennas = sum(c.n_antennas for c in clusters)
    order = sorted(range(n_users), key=lambda i: (-rates[i], i))
    centroids = [c.antennas.mean(axis=0) for c in clusters]
    for m in range(min(n_users, total_antennas), 0, -1):
        thresholds = rrh_rate_threshold_bits(m, device_req_bps, cfg, bound_s)
        chosen: dict[int, int] = {}
        capacity = [c.n_antennas for c in clusters]
        for i in order:
            if len(chosen) == m:
                break
            if rates[i] < thresholds[i]:
                continue
            by_distance = sorted(
                range(len(clusters)),
                key=lambda q: (float(np.linalg.norm(user_xy[i] - centroids[q])), q))
            for q in by_distance:
                if capacity[q] > 0:
                    chosen[i] = q
                    capacity[q] -= 1
                    break
        if len(chosen) == m:
            assigned = np.full(n_users, -1)
            assigned[list(chosen)] = list(chosen.values())
            return assigned
    return np.full(n_users, -1)


def uav_user_pathloss_linear(uav_xyz, user_xy, p: ChannelParams):
    """Linear path loss from a UAV to users' positions, one plain expression per step.

    The LoS-weighted mixture of two log-distance laws is one power of the
    distance, 10**(PL/10) = 10**(L_fs/10) * d**(a_nlos + pr (a_los - a_nlos)).
    """
    uav_xyz = np.asarray(uav_xyz, dtype=float)
    user_xy = np.asarray(user_xy, dtype=float)
    dx = user_xy[..., 0] - uav_xyz[0]
    dy = user_xy[..., 1] - uav_xyz[1]
    dist = np.sqrt(dx * dx + dy * dy + uav_xyz[2] ** 2)
    if (dist <= 0.0).any():
        raise ChannelError("zero distance between transmitter and receiver")
    phi_deg = np.degrees(np.arcsin(np.clip(uav_xyz[2] / dist, -1.0, 1.0)))
    pr = 1.0 / (1.0 + p.env_x * np.exp(-p.env_y * (phi_deg - p.env_x)))
    exponent = pr * (p.exponent_los - p.exponent_nlos) + p.exponent_nlos
    l_fs = free_space_pl_db(p.fs_ref_distance_m, p.carrier_hz)
    return np.exp(exponent * np.log(dist)) * 10.0 ** (l_fs / 10.0)


def placement_objective(xyz, user_pos, rate_targets_bps, n_served: int,
                        p: ChannelParams, bandwidth_hz: float, noise_w: float) -> float:
    """The placement objective at one position, priced from scratch in linear units."""
    pos, _ = _flatten_positions(user_pos)
    scale = power_per_loss_w(rate_targets_bps, n_served, bandwidth_hz, noise_w)
    with np.errstate(over="ignore"):  # a loss or price past the float range is inf
        loss = uav_user_pathloss_linear(xyz, pos, p)
        return float(loss.sum(axis=1) @ scale)


def placement_objective_db(xyz, user_pos, rate_targets_bps, n_served: int,
                           p: ChannelParams, bandwidth_hz: float, noise_w: float) -> float:
    """The placement objective by the dB route: ``min_uav_power_w`` of each path loss, summed."""
    pos, _ = _flatten_positions(user_pos)
    pl = uav_user_pathloss_db(np.asarray(xyz, dtype=float), pos, p)
    power = min_uav_power_w(db_to_linear(pl), np.asarray(rate_targets_bps, dtype=float)[:, None],
                            n_served, bandwidth_hz, noise_w)
    return float(power.sum())


def place_uav_exhaustive(user_pos, rate_targets_bps, grid_step_m: float,
                         altitudes_m, n_served: int, p: ChannelParams,
                         bandwidth_hz: float, noise_w: float,
                         pad_m: float = 100.0) -> PlacementResult:
    """Global grid minimum of the power objective over the padded user bounding box."""
    pos, _ = _flatten_positions(user_pos)
    altitudes = np.atleast_1d(np.asarray(altitudes_m, dtype=float))
    if pos.shape[0] == 0 or altitudes.size == 0:
        raise ValueError("exhaustive search needs users and at least one altitude")
    flat = pos.reshape(-1, 2)
    weights = np.repeat(np.asarray(rate_targets_bps, dtype=float), pos.shape[1])
    lo = flat.min(axis=0) - pad_m
    hi = flat.max(axis=0) + pad_m
    xs = np.arange(lo[0], hi[0] + grid_step_m / 2, grid_step_m)
    ys = np.arange(lo[1], hi[1] + grid_step_m / 2, grid_step_m)

    best_val = np.inf
    best_pos = None
    evals = 0
    for h in altitudes:
        gx, gy = np.meshgrid(xs, ys, indexing="ij")
        grid = np.stack([gx.ravel(), gy.ravel()], axis=1)  # (G, 2)
        diff = grid[:, None, :] - flat[None, :, :]
        dist = np.sqrt(np.sum(diff ** 2, axis=2) + h * h)  # (G, M)
        pl = mixed_pathloss_db(dist, h, p)
        power = min_uav_power_w(db_to_linear(pl), weights[None, :], n_served, bandwidth_hz,
                                noise_w)
        totals = power.sum(axis=1)
        evals += totals.size
        idx = int(np.argmin(totals))
        if totals[idx] < best_val:
            best_val = float(totals[idx])
            best_pos = np.array([grid[idx, 0], grid[idx, 1], h])
    return PlacementResult(position=best_pos, objective_w=best_val, evaluations=evals)


def _failed_report(user: int, content: int, link: str, delay_s: float = math.inf,
                   power_w: float = 0.0, cache_hit: bool = False,
                   feasible: bool = True) -> QoeReport:
    return QoeReport(user=user, content=content, link=link, delay_s=delay_s, delay_score=0.0,
                     device_score_frac=0.0, qoe=0.0, mos_label="Poor", satisfied=False,
                     delivered=False, power_w=power_w, cache_hit=cache_hit,
                     power_feasible=feasible)


def reference_reports(plan, s: int, routes) -> list[QoeReport]:
    """Slot ``s`` scored one user at a time from the rates, powers and device fractions
    in its route table.

    The tier comes from the plan's association: a radio head, a UAV (a cache
    hit has no fronthaul leg) or none.  An idle user's report has no delay;
    an unserved request and a delivery slower than one slot are failures.
    """
    cfg = plan.cfg
    dt = cfg.slot_duration_s

    def leg_s(bits):
        return math.inf if bits <= 0.0 else dt * cfg.content_size_bits / bits

    reports = []
    requests = plan.world.requests[:, plan.slot0 + s].tolist()
    for u, (content, route) in enumerate(zip(requests, routes.tolist())):
        _, access, fronthaul, device_frac, power_w, hit, feasible = route
        if content < 0:
            reports.append(_failed_report(u, -1, "idle", delay_s=0.0))
            continue
        if plan.rrh[s][u] >= 0:
            link, delay = LINK_RRH, leg_s(access) + leg_s(fronthaul)
        elif plan.uav[s][u] >= 0:
            link = LINK_UAV_CACHE if hit else LINK_UAV_FRONTHAUL
            delay = leg_s(access) if hit else leg_s(access) + leg_s(fronthaul)
        else:
            reports.append(_failed_report(u, content, "unserved"))
            continue
        if delay > dt:
            reports.append(_failed_report(u, content, link, delay, power_w, hit, feasible))
            continue
        d_score = float(np.clip((dt - delay) / (dt - plan.bound_s), 0.0, 1.0))
        q = cfg.qoe_weight_delay * d_score + cfg.qoe_weight_device * device_frac
        label = next((name for floor, name in MOS_BINS if q >= floor), "Poor")
        reports.append(QoeReport(u, content, link, delay, d_score, device_frac, q, label,
                                 q >= MOS_BINS[0][0], True, power_w, hit, feasible))
    return reports


# -- per-slot references for the synthetic world's tables ----------------------------


def reference_requests(world) -> np.ndarray:
    """The request table drawn slot by slot: a gate, then searchsorted in the CDF."""
    cfg = world.cfg
    t, h = cfg.slots_per_cache_period, cfg.slots_per_collection
    n_slots = world.horizon_days * t
    uniforms = world.rs.derive("request-samples").generator().random(
        (cfg.num_users, n_slots, 2))
    table = np.full((cfg.num_users, n_slots), -1)
    for user in range(cfg.num_users):
        for slot in range(n_slots):
            gate, u = uniforms[user, slot]
            if gate >= cfg.generators.request_probability:
                continue
            p = world.distributions[user, (slot % t) // h]
            table[user, slot] = int(np.searchsorted(np.cumsum(p), u * p.sum()))
    return table


def reference_context(world, user: int, slot: int) -> np.ndarray:
    """One slot's context features from scalar sin and cos of the day phase."""
    t = world.cfg.slots_per_cache_period
    phase = 2.0 * np.pi * (slot % t) / t
    prof = world.profiles[user]
    return np.array([np.sin(phase), np.cos(phase), prof.demo_feature, prof.device_feature])


def _reference_draw_in_disk(rng, radius: float) -> np.ndarray:
    r = radius * np.sqrt(rng.random())
    theta = rng.random() * 2.0 * np.pi
    return np.array([r * np.cos(theta), r * np.sin(theta)])


def reference_collections(world) -> np.ndarray:
    """The collected waypoints built one user and one collection at a time.

    Anchors are drawn one point at a time, and every distance is the 1-D
    ``np.linalg.norm`` of one point.
    """
    cfg = world.cfg
    g = cfg.generators
    n_sub = world.n_sub
    anchor_rng = world.rs.derive("anchors").generator()
    max_step = min(g.speed_max_mps * 3600.0, 2.0 * cfg.area_radius_m)
    schedules, all_anchors = [], []
    for _ in range(cfg.num_users):
        home = _reference_draw_in_disk(anchor_rng, 0.9 * cfg.area_radius_m)
        anchors = [home]
        for _ in range(max(1, g.waypoints_per_day - 1) * len(DAY_TYPES)):
            target = _reference_draw_in_disk(anchor_rng, 0.9 * cfg.area_radius_m)
            step = target - home
            dist = np.linalg.norm(step)
            if dist > max_step:
                target = home + step / dist * max_step
            anchors.append(target)
        per_type = []
        for dt_idx in range(len(DAY_TYPES)):
            schedule = np.zeros(n_sub, dtype=int)
            if g.waypoints_per_day > 1:
                away = [1 + dt_idx * (g.waypoints_per_day - 1) + w
                        for w in range(g.waypoints_per_day - 1)]
                lo, hi = n_sub // 4, max(n_sub // 4 + 1, (3 * n_sub) // 4)
                block = max(1, (hi - lo) // len(away))
                for c in range(lo, min(hi, n_sub)):
                    schedule[c] = away[min((c - lo) // block, len(away) - 1)]
            per_type.append(schedule)
        schedules.append(per_type)
        all_anchors.append(np.array(anchors))

    n_collections = world.horizon_days * n_sub + 1
    shape = (cfg.num_users, n_collections, 2)
    noise = world.rs.derive("waypoint-noise").generator().normal(
        0.0, g.position_noise_m, shape) if g.position_noise_m > 0 else np.zeros(shape)
    collections = np.empty(shape)
    for u in range(cfg.num_users):
        for c in range(n_collections):
            day = (c * cfg.slots_per_collection) // cfg.slots_per_cache_period
            pos = all_anchors[u][schedules[u][day_type(day)][c % n_sub]] + noise[u, c]
            radius = np.linalg.norm(pos)
            if radius > cfg.area_radius_m:
                pos = pos * (cfg.area_radius_m / radius)
            collections[u, c] = pos
    return collections
