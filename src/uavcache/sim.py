"""Slot-by-slot orchestration in four stages: plan, cache, place, deliver.

One run covers one caching period (a synthetic day of T slots).  ``plan_slots``,
``select_caches`` and ``place_uavs`` work from predicted positions and request
distributions; ``deliver`` serves and scores the generator's true state, so
prediction error shows up as extra transmit power and missed QoE, exactly where
it would hurt a real deployment.  The stages pass one :class:`PeriodPlan`.

Each ablation baseline swaps stages (:data:`BASELINES`): ``no_uav`` plans with
no UAVs, ``no_cache`` and ``random_cache`` replace ``select_caches`` with empty
or uniform caches, and ``fixed_placement`` replaces ``place_uavs`` by parking
each UAV over its first-slot anchor.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import sys
from dataclasses import dataclass, field

import numpy as np

from . import placement
from .channel import (db_to_linear, g2a_fronthaul_bits, link_rates_bps, slot_capacity_bits,
                      uav_user_pathloss_db, uav_user_snr, zfbf_sinr)
from .config import ConfigError, RandomSource, RrhCluster, ScenarioConfig, validate
from .generators import SyntheticWorld
from .predictors import EsnPredictor, OraclePredictor
from .qoe import (LINK_IDLE, LINK_RRH, LINK_UAV_CACHE, LINK_UAV_FRONTHAUL, LINK_UNSERVED,
                  MOS_BINS, QoeReport, delay_lower_bound_s, delay_rate_requirement_bits,
                  delay_score, device_score, min_uav_power_w, qoe_rate_target_bps, qoe_score,
                  transfer_s)

# A delivery satisfies the user when its score reaches the top opinion bin.
SATISFIED_QOE = MOS_BINS[0][0]

SUMMARY_SCHEMA_VERSION = 1

SLOTS_COLUMNS = (
    "slot", "user", "content", "link", "delivered", "delay_s", "delay_score",
    "device_frac", "qoe", "mos", "satisfied", "power_w", "cache_hit",
    "power_feasible",
)

# A slot's route table: one row per user, filled by the tier that serves the
# user and read by the scoring alone.  Bits are per slot; an absent fronthaul
# leg is an infinite-rate leg, which takes 0 s.
_LINKS = (LINK_IDLE, LINK_RRH, LINK_UAV_CACHE, LINK_UAV_FRONTHAUL, LINK_UNSERVED)
ROUTE = np.dtype([("link", f"U{max(map(len, _LINKS))}"), ("access_bits", float),
                  ("fronthaul_bits", float), ("device_frac", float), ("power_w", float),
                  ("cache_hit", bool), ("feasible", bool)])


class SimInvariantError(RuntimeError):
    """An internal bookkeeping invariant broke during a run."""


@dataclass
class SlotLog:
    slot: int
    reports: list[QoeReport]
    n_fr: int
    n_fetching: int
    uav_positions: np.ndarray  # (K, 3)
    uav_power_w: np.ndarray  # (K,) summed mean-interval power of served users
    caches: tuple[tuple[int, ...], ...]
    requests: int = 0
    delivered: int = 0
    failures: int = 0
    cache_hits: int = 0
    uav_deliveries: int = 0

    def reconcile(self) -> None:
        outcomes = sum(1 for r in self.reports if r.content >= 0)
        if self.requests != outcomes or self.delivered + self.failures != self.requests:
            raise SimInvariantError(
                f"slot {self.slot}: {self.requests} requests vs {self.delivered} delivered "
                f"+ {self.failures} failed")
        total = float(sum(r.power_w for r in self.reports))
        if not np.isclose(total, float(self.uav_power_w.sum()), rtol=1e-9, atol=1e-12):
            raise SimInvariantError(f"slot {self.slot}: per-UAV power does not add up")


def _reference_clusters(user_xy: np.ndarray, clusters: list[RrhCluster]) -> np.ndarray:
    """Capacity-capped nearest-cluster assignment used to estimate rates; -1: none.

    Each cluster keeps its nearest users, ties by id.
    """
    centroids = np.array([c.centroid for c in clusters])
    dists = np.linalg.norm(user_xy[:, None, :] - centroids[None, :, :], axis=2)
    nearest = np.argmin(dists, axis=1)
    assigned = np.full(user_xy.shape[0], -1)
    for q, cluster in enumerate(clusters):
        members = np.flatnonzero(nearest == q)
        order = np.argsort(dists[members, q], kind="stable")
        assigned[members[order[:cluster.n_antennas]]] = q
    return assigned


def _zf_fading(rs: RandomSource, slot: int, clusters: list[RrhCluster],
               n_users: int) -> list[np.ndarray]:
    """Per-slot unit-mean exponential power gains toward every cluster antenna."""
    draws = []
    for q, cluster in enumerate(clusters):
        rng = rs.derive(f"zf-fading-{slot}-{q}").generator()
        draws.append(rng.exponential(1.0, (n_users, cluster.n_antennas)))
    return draws


def _bbu_interference(cfg: ScenarioConfig, world: SyntheticWorld, user_xy: np.ndarray,
                      active: bool) -> np.ndarray:
    if not active:
        return np.zeros(user_xy.shape[0])
    d = np.linalg.norm(user_xy - world.bbu_xy[None, :], axis=1)
    d = np.maximum(d, 1.0)
    return cfg.bbu_power_w * d ** (-cfg.pathloss.g2a_exponent)


def _rrh_rates_bits(cfg, world, clusters, assigned, user_xy, fading, interference_active):
    bbu = _bbu_interference(cfg, world, user_xy, interference_active)
    sinr = zfbf_sinr(clusters, assigned, user_xy, fading, cfg.rrh_power_w, bbu,
                     cfg.noise_power_w, cfg.pathloss.g2a_exponent)
    return slot_capacity_bits(link_rates_bps(sinr[:, None], cfg.rrh_bandwidth_hz),
                              cfg.slot_duration_s)


@dataclass
class PeriodPlan:
    """What planning fixes for one period; the cache, placement and delivery stages read it.

    The per-slot lists hold one entry per slot.  A slot's ``rrh`` and ``uav``
    give each user's radio-head cluster and UAV, -1 for none; its ``anchors``
    and ``req_miss`` hold one entry per UAV.
    """

    cfg: ScenarioConfig
    world: SyntheticWorld
    predictor: OraclePredictor | EsnPredictor
    rs: RandomSource
    n_uavs: int
    slot0: int  # global index of the period's first slot
    clusters: list[RrhCluster]
    screen: np.ndarray  # (U,) screen factor per user
    likely: np.ndarray  # (U, n_sub) each user's most likely content per sub-period
    bound_s: float  # qoe.delay_lower_bound_s, which depends on the config alone
    req_hit: float  # a cache hit's delay-rate requirement (bits/slot)
    rrh: list[np.ndarray] = field(default_factory=list)  # (U,) cluster index or -1
    uav: list[np.ndarray] = field(default_factory=list)  # (U,) UAV index or -1
    anchors: list[np.ndarray] = field(default_factory=list)  # (K, 3) centroids at the floor
    midpoints: list[np.ndarray] = field(default_factory=list)  # (U, 2) predicted mid-slot xy
    fading: list[list[np.ndarray]] = field(default_factory=list)  # per RRH cluster
    # A cache miss's delay-rate requirement over the fronthaul at each anchor;
    # None where a UAV serves nobody.
    req_miss: list[list[float | None]] = field(default_factory=list)


def plan_slots(cfg: ScenarioConfig, world: SyntheticWorld, predictor,
               n_uavs: int | None = None) -> PeriodPlan:
    """Stage 1: per slot, associate users with the radio heads and cluster the rest."""
    n_uavs = cfg.num_uavs if n_uavs is None else n_uavs
    n_users = cfg.num_users
    rs = RandomSource(cfg.seed).derive("sim")
    # Terrestrial infrastructure: group radio heads into beamforming clusters.
    labels, _ = placement.cluster_users(world.rrh_xy, cfg.num_rrh_clusters,
                                        rs.derive("rrh-grouping"))
    clusters = [RrhCluster(id=q, antennas=world.rrh_xy[labels == q])
                for q in range(cfg.num_rrh_clusters) if np.any(labels == q)]
    bound_s = delay_lower_bound_s(cfg)
    # The period simulated is the day after the training days.
    plan = PeriodPlan(cfg, world, predictor, rs, n_uavs,
                      world.training_days * cfg.slots_per_cache_period, clusters,
                      world.screen_factors, predictor.distributions.argmax(axis=2),
                      bound_s, delay_rate_requirement_bits(cfg, bound_s))
    prev_centroids = None
    for s in range(cfg.slots_per_cache_period):
        pred_xy = predictor.slot_positions(range(n_users), plan.slot0 + s, 1)[:, 0]
        fading = _zf_fading(rs, s, clusters, n_users)
        rates = _rrh_rates_bits(cfg, world, clusters, _reference_clusters(pred_xy, clusters),
                                pred_xy, fading, n_uavs > 0)
        likely = plan.likely[:, s // cfg.slots_per_collection]
        rrh = placement.associate_rrh(
            rates, pred_xy, cfg.device_rate_bps(plan.screen, likely), clusters, cfg, bound_s)
        uav = np.full(n_users, -1)
        pool = np.flatnonzero(rrh < 0)
        if n_uavs and pool.size:
            uav[pool], centroids = placement.cluster_users(
                pred_xy[pool], n_uavs, rs.derive(f"kmeans-{s}"), init_centroids=prev_centroids)
            prev_centroids = centroids
        else:
            centroids = prev_centroids if prev_centroids is not None else np.zeros((n_uavs, 2))
        plan.rrh.append(rrh)
        plan.uav.append(uav)
        plan.anchors.append(np.column_stack([centroids, np.full(n_uavs, cfg.min_altitude_m)]))
        plan.midpoints.append(pred_xy)
        plan.fading.append(fading)
        plan.req_miss.append([_cache_miss(plan, plan.anchors[s][k], 1)[1]
                              if np.any(uav == k) else None for k in range(n_uavs)])
    return plan


def _cache_miss(plan: PeriodPlan, position: np.ndarray, n_shares: int) -> tuple[float, float]:
    """A cache miss at ``position``: its fronthaul bits per slot, split ``n_shares`` ways,
    and the delay-rate requirement (bits/slot) that fetching over that share leaves."""
    cfg = plan.cfg
    bits = g2a_fronthaul_bits(position, plan.world.bbu_xy, cfg.pathloss, cfg.bbu_power_w,
                              cfg.rrh_bandwidth_hz, cfg.noise_power_w,
                              cfg.slot_duration_s) / n_shares
    return bits, delay_rate_requirement_bits(
        cfg, plan.bound_s, transfer_s(bits, cfg.content_size_bits, cfg.slot_duration_s))


def select_caches(plan: PeriodPlan) -> list[tuple[int, ...]]:
    """Stage 2: each UAV caches the contents with the largest expected power saving."""
    cfg, predictor = plan.cfg, plan.predictor
    all_contents = np.arange(cfg.num_contents)
    caches: list[tuple[int, ...]] = []
    for k in range(plan.n_uavs):
        prob_rows, saving_rows = [], []
        for s, uav in enumerate(plan.uav):
            members = np.flatnonzero(uav == k)
            if not members.size:
                continue
            pls = uav_user_pathloss_db(plan.anchors[s][k], plan.midpoints[s][members],
                                       cfg.pathloss)
            # One user at a time: a scalar path loss keeps numpy's scalar power.
            loss = np.array([db_to_linear(pl) for pl in pls.tolist()])[:, None]
            device_req = cfg.device_rate_bps(plan.screen[members][:, None], all_contents)
            prob_rows.append(predictor.distributions[members, s // cfg.slots_per_collection])
            saving_rows.append(placement.delta_power_saving(
                loss, plan.req_hit, plan.req_miss[s][k], device_req, len(members), cfg))
        caches.append(placement.select_cache(np.vstack(prob_rows), np.vstack(saving_rows),
                                             cfg.cache_size) if prob_rows else ())
    return caches


def _no_cache(plan: PeriodPlan) -> list[tuple[int, ...]]:
    return [() for _ in range(plan.n_uavs)]


def _random_cache(plan: PeriodPlan) -> list[tuple[int, ...]]:
    cfg = plan.cfg
    draws = [plan.rs.derive(f"random-cache-{k}").generator().choice(
        cfg.num_contents, size=cfg.cache_size, replace=False) for k in range(plan.n_uavs)]
    return [tuple(sorted(int(n) for n in picks)) for picks in draws]


def place_uavs(plan: PeriodPlan, caches: list[tuple[int, ...]]) -> list[np.ndarray]:
    """Stage 3: per slot, position each UAV to minimize the power toward its users."""
    positions_per_slot: list[np.ndarray] = []
    prev_positions: np.ndarray | None = None
    # One call per slot frees a slot's position arrays before the next are built.
    for s in range(len(plan.uav)):
        prev_positions = _place_slot(plan, caches, s, prev_positions)
        positions_per_slot.append(prev_positions)
    return positions_per_slot


def _place_slot(plan: PeriodPlan, caches: list[tuple[int, ...]], s: int,
                prev_positions: np.ndarray | None) -> np.ndarray:
    """One slot's UAV positions; a UAV that serves nobody holds its previous position."""
    cfg, uav = plan.cfg, plan.uav[s]
    positions = np.zeros((plan.n_uavs, 3))
    served = np.flatnonzero(uav >= 0)
    if served.size:
        slot_pos = plan.predictor.slot_positions(served, plan.slot0 + s, cfg.intervals_per_slot)
    for k in range(plan.n_uavs):
        held = prev_positions[k] if prev_positions is not None else plan.anchors[s][k]
        rows = uav[served] == k
        members = served[rows]
        if not members.size:
            positions[k] = held
            continue
        contents = plan.likely[members, s // cfg.slots_per_collection]
        req_miss = plan.req_miss[s][k]
        if np.isinf(req_miss):  # the fronthaul is too slow: aim as if cached
            req_miss = plan.req_hit
        targets = qoe_rate_target_bps(
            np.where([c in caches[k] for c in contents], plan.req_hit, req_miss),
            cfg.device_rate_bps(plan.screen[members], contents), cfg.slot_duration_s)
        positions[k] = placement.place_uav(slot_pos[rows], targets, held, len(members), cfg)
    return positions


def _fixed_placement(plan: PeriodPlan, caches: list[tuple[int, ...]]) -> list[np.ndarray]:
    """Park every UAV over its first-slot anchor for the whole period."""
    return [plan.anchors[0].copy() for _ in plan.uav]


def _routes(n_users: int, **columns) -> np.ndarray:
    """A route table of ``n_users`` rows with the given columns; the rest are 0 or False."""
    routes = np.zeros(n_users, dtype=ROUTE)
    for name, values in columns.items():
        routes[name] = values
    return routes


def _deliver_uav(plan: PeriodPlan, cache: tuple[int, ...], users: np.ndarray,
                 contents: list[int], n_served: int, position: np.ndarray,
                 user_pos: np.ndarray, n_fetch: int) -> np.ndarray:
    """Price one UAV's deliveries of ``contents`` to its requesting ``users``: their routes.

    ``user_pos`` holds their true interval positions.  Every per-user
    quantity is a row reduction over the (users, intervals) arrays.
    """
    cfg = plan.cfg
    hits = [c in cache for c in contents]
    fronthaul_bits, req_miss = (np.inf, plan.req_hit) if all(hits) else _cache_miss(
        plan, position, max(n_fetch, 1))
    device_req = cfg.device_rate_bps(plan.screen[users], contents)
    targets = qoe_rate_target_bps(np.where(hits, plan.req_hit, req_miss), device_req,
                                  cfg.slot_duration_s)[:, None]
    loss = db_to_linear(uav_user_pathloss_db(position, user_pos, cfg.pathloss))
    power = min_uav_power_w(loss, targets, n_served, cfg.uav_bandwidth_hz, cfg.noise_power_w)
    feasible = np.all(power <= cfg.uav_max_power_w, axis=1)
    tx_power = np.minimum(power, cfg.uav_max_power_w, out=power)
    rates_bps = link_rates_bps(uav_user_snr(tx_power, loss, cfg.noise_power_w),
                               cfg.uav_bandwidth_hz, n_served)
    return _routes(len(users), link=np.where(hits, LINK_UAV_CACHE, LINK_UAV_FRONTHAUL),
                   access_bits=slot_capacity_bits(rates_bps, cfg.slot_duration_s),
                   fronthaul_bits=np.where(hits, np.inf, fronthaul_bits),
                   device_frac=device_score(rates_bps, device_req[:, None]),
                   power_w=tx_power.mean(axis=1), cache_hit=hits, feasible=feasible)


def deliver(plan: PeriodPlan, caches: list[tuple[int, ...]],
            positions_per_slot: list[np.ndarray]) -> list[SlotLog]:
    """Stage 4: serve each slot's true requests at true positions and score them."""
    # One call per slot frees a slot's link arrays before the next are built.
    return [_deliver_slot(plan, caches, s, positions)
            for s, positions in enumerate(positions_per_slot)]


def _deliver_slot(plan: PeriodPlan, caches: list[tuple[int, ...]], s: int,
                  positions: np.ndarray) -> SlotLog:
    cfg, world, n_uavs, n_users = plan.cfg, plan.world, plan.n_uavs, plan.cfg.num_users
    rrh, uav = plan.rrh[s], plan.uav[s]
    n_fr = int(np.count_nonzero(rrh >= 0))
    gs = plan.slot0 + s
    true_xy = world.interval_positions(range(n_users), gs, 1)[:, 0]
    content = world.requests[:, gs]
    idle = content < 0

    # The requesting users the UAVs serve, and each UAV's rows among them.
    served = np.flatnonzero((uav >= 0) & ~idle)
    uav_rows = [uav[served] == k for k in range(n_uavs)]
    n_fetch = sum(any(c not in caches[k] for c in content[served[rows]].tolist())
                  for k, rows in enumerate(uav_rows))

    # Idle users take no time; requesting users no tier serves have no access rate.
    routes = _routes(n_users, link=np.where(idle, LINK_IDLE, LINK_UNSERVED),
                     access_bits=np.where(idle, np.inf, 0.0), fronthaul_bits=np.inf,
                     feasible=True)

    # Terrestrial deliveries (admitted sets, true positions, same fading).
    rates_true = _rrh_rates_bits(cfg, world, plan.clusters, rrh, true_xy, plan.fading[s],
                                 n_fetch > 0)
    fr = np.flatnonzero((rrh >= 0) & ~idle)
    device_req = cfg.device_rate_bps(plan.screen[fr], content[fr])
    routes[fr] = _routes(
        fr.size, link=LINK_RRH, access_bits=rates_true[fr],
        fronthaul_bits=cfg.fronthaul_rate_bps / max(n_fr, 1) * cfg.slot_duration_s,
        device_frac=device_score((rates_true[fr] / cfg.slot_duration_s)[:, None],
                                 device_req[:, None]), feasible=True)

    # Aerial deliveries, UAV by UAV, over one positions array for the slot.
    if served.size:
        true_pos = world.interval_positions(served, gs, cfg.intervals_per_slot)
    uav_power = np.zeros(n_uavs)
    for k, rows in enumerate(uav_rows):
        if rows.any():
            users = served[rows]
            routes[users] = _deliver_uav(plan, caches[k], users, content[users].tolist(),
                                         int(np.count_nonzero(uav == k)), positions[k],
                                         true_pos[rows], n_fetch)
            # cumsum adds one user at a time, in ascending user order
            uav_power[k] = np.cumsum(routes["power_w"][users])[-1]

    reports = _score_routes(plan, content, routes)
    log = SlotLog(slot=s, reports=reports, n_fr=n_fr,
                  n_fetching=n_fetch, uav_positions=positions, uav_power_w=uav_power,
                  caches=tuple(caches), requests=int(np.count_nonzero(~idle)),
                  delivered=sum(r.delivered for r in reports),
                  failures=sum(not r.delivered for r in reports if r.content >= 0),
                  cache_hits=sum(r.cache_hit for r in reports), uav_deliveries=served.size)
    log.reconcile()
    # Delivered contents can never beat the system delay bound.
    for r in reports:
        if r.delivered and r.delay_s < plan.bound_s:
            raise SimInvariantError(
                f"slot {s}: user {r.user} delay {r.delay_s} below bound {plan.bound_s}")
    return log


def _score_routes(plan: PeriodPlan, content: np.ndarray, routes: np.ndarray) -> list[QoeReport]:
    """Score every user's route in one elementwise pass; one report per user.

    A request is delivered when its route takes at most one slot.  An undelivered
    row scores 0 on both axes and keeps its link, power, cache hit and feasibility.
    """
    cfg = plan.cfg
    delay = (transfer_s(routes["access_bits"], cfg.content_size_bits, cfg.slot_duration_s)
             + transfer_s(routes["fronthaul_bits"], cfg.content_size_bits, cfg.slot_duration_s))
    delivered = (content >= 0) & (delay <= cfg.slot_duration_s)
    d_score = np.where(delivered, delay_score(delay, cfg, plan.bound_s), 0.0)
    device_frac = np.where(delivered, routes["device_frac"], 0.0)
    q, label = qoe_score(d_score, device_frac, cfg.qoe_weight_delay, cfg.qoe_weight_device)
    columns = (content, routes["link"], delay, d_score, device_frac, q, label,
               q >= SATISFIED_QOE, delivered, routes["power_w"], routes["cache_hit"],
               routes["feasible"])
    return [QoeReport(u, *row) for u, row in enumerate(zip(*map(_listed, columns)))]


def _listed(column: np.ndarray) -> list:
    """A column as Python values; text becomes one shared str per name, not one per row."""
    return list(map(sys.intern, column.tolist())) if column.dtype.kind == "U" else column.tolist()


# Each ablation baseline replaces the stages it names and keeps the rest.
BASELINES = {
    "no_uav": {"plan_slots": functools.partial(plan_slots, n_uavs=0)},
    "no_cache": {"select_caches": _no_cache},
    "random_cache": {"select_caches": _random_cache},
    "fixed_placement": {"place_uavs": _fixed_placement},
}


def run_period(cfg: ScenarioConfig, mode: str = "oracle", models=None,
               baseline: str | None = None,
               world: SyntheticWorld | None = None) -> tuple[list[SlotLog], dict]:
    """Simulate one caching period; returns per-slot logs and the summary."""
    if baseline is not None and baseline not in BASELINES:
        raise ValueError(f"unknown baseline {baseline!r}; expected one of {tuple(BASELINES)}")
    if mode not in ("oracle", "esn"):
        raise ValueError(f"unknown mode {mode!r}")
    world = world if world is not None else SyntheticWorld(cfg)
    if mode == "oracle":
        predictor = OraclePredictor(world)
    elif models is None:
        raise ValueError("esn mode needs trained models")
    else:
        predictor = EsnPredictor(world, *models)

    swap = BASELINES.get(baseline, {})
    plan = swap.get("plan_slots", plan_slots)(cfg, world, predictor)
    caches = swap.get("select_caches", select_caches)(plan)
    positions = swap.get("place_uavs", place_uavs)(plan, caches)
    logs = swap.get("deliver", deliver)(plan, caches, positions)
    return logs, _summarize(plan, logs, mode, baseline)


def _summarize(plan: PeriodPlan, logs, mode, baseline) -> dict:
    cfg, n_uavs = plan.cfg, plan.n_uavs
    total_power = float(sum(log.uav_power_w.sum() for log in logs))
    requests = sum(log.requests for log in logs)
    satisfied = sum(1 for log in logs for r in log.reports if r.satisfied)
    uav_deliveries = sum(log.uav_deliveries for log in logs)
    hits = sum(log.cache_hits for log in logs)
    failures = sum(log.failures for log in logs)
    infeasible = sum(1 for log in logs for r in log.reports if not r.power_feasible)
    delays = [r.delay_s for log in logs for r in log.reports if r.delivered]
    altitudes = [float(log.uav_positions[k, 2]) for log in logs for k in range(n_uavs)]
    return {
        "schema_version": SUMMARY_SCHEMA_VERSION,
        "mode": mode,
        "baseline": baseline or "none",
        "seed": cfg.seed,
        "slots": len(logs),
        "num_users": cfg.num_users,
        "num_uavs": n_uavs,
        "cache_size": cfg.cache_size,
        "total_uav_power_w": total_power,
        "avg_uav_power_w": total_power / (n_uavs * len(logs)) if n_uavs and logs else 0.0,
        "satisfied_fraction": satisfied / requests if requests else 0.0,
        "cache_hit_rate": hits / uav_deliveries if uav_deliveries else 0.0,
        "requests": requests,
        "failures": failures,
        "uav_deliveries": uav_deliveries,
        "power_cap_violations": infeasible,
        "avg_altitude_m": float(np.mean(altitudes)) if altitudes else 0.0,
        "n_fr_mean": float(np.mean([log.n_fr for log in logs])) if logs else 0.0,
        "delay_lower_bound_s": plan.bound_s,
        "min_delivered_delay_s": min(delays) if delays else None,
        "prediction_gap": plan.predictor.gap_metrics(),
    }


# -- sweeps and serialization -----------------------------------------------------

SWEEP_PARAMS = {"users": "num_users", "uavs": "num_uavs", "cache": "cache_size"}

SWEEP_COLUMNS = ("param", "value", "total_uav_power_w", "avg_uav_power_w",
                 "satisfied_fraction", "cache_hit_rate", "avg_altitude_m")


def sweep(cfg: ScenarioConfig, param: str, values, baseline: str | None = None) -> list[dict]:
    """Re-run the oracle period for each swept value with the same seed; one row per value."""
    if param not in SWEEP_PARAMS:
        raise ValueError(f"unknown sweep parameter {param!r}; expected one of {sorted(SWEEP_PARAMS)}")
    configs = [dataclasses.replace(cfg, **{SWEEP_PARAMS[param]: int(value)}) for value in values]
    # every value is checked before the first run starts
    violations = [f"sweep value {param}={value}: {v}"
                  for value, swept in zip(values, configs) for v in validate(swept)]
    if violations:
        raise ConfigError(violations)
    rows = []
    for value, swept in zip(values, configs):
        _, summary = run_period(swept, baseline=baseline)
        rows.append({"param": param, "value": int(value),
                     **{c: summary[c] for c in SWEEP_COLUMNS[2:]}})
    return rows


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return format(value, ".9g")
    return str(value)


def slots_csv_text(logs: list[SlotLog]) -> str:
    lines = [",".join(SLOTS_COLUMNS)]
    for log in logs:
        for r in log.reports:
            lines.append(",".join(_fmt(v) for v in (
                log.slot, r.user, r.content, r.link, r.delivered, r.delay_s,
                r.delay_score, r.device_score_frac, r.qoe, r.mos_label,
                r.satisfied, r.power_w, r.cache_hit, r.power_feasible)))
    return "\n".join(lines) + "\n"


def summary_json_text(summary: dict) -> str:
    def convert(obj):
        if isinstance(obj, float):
            return float(format(obj, ".9g"))
        if isinstance(obj, dict):
            return {k: convert(v) for k, v in obj.items()}
        return obj

    return json.dumps(convert(summary), indent=2, sort_keys=True) + "\n"


def sweep_csv_text(rows: list[dict]) -> str:
    lines = [",".join(SWEEP_COLUMNS)]
    for row in rows:
        lines.append(",".join(_fmt(row[c]) for c in SWEEP_COLUMNS))
    return "\n".join(lines) + "\n"
