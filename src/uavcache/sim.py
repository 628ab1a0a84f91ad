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
from dataclasses import dataclass, field

import numpy as np

from . import placement
from .channel import (g2a_fronthaul_bits, link_rates_bps, slot_capacity_bits,
                      uav_user_pathloss_db, uav_user_snr, zfbf_sinr)
from .config import ConfigError, RandomSource, RrhCluster, ScenarioConfig, validate
from .generators import SyntheticWorld
from .predictors import EsnPredictor, OraclePredictor
from .qoe import (LINK_RRH, LINK_UAV_CACHE, LINK_UAV_FRONTHAUL, MOS_BINS, DeliveryPath,
                  QoeReport, delay_lower_bound_s, delay_rate_requirement_bits, delay_s,
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


def _reference_sets(user_xy: np.ndarray, clusters: list[RrhCluster]) -> list[list[int]]:
    """Capacity-capped nearest-cluster assignment used to estimate rates."""
    centroids = np.array([c.antennas.mean(axis=0) for c in clusters])
    dists = np.linalg.norm(user_xy[:, None, :] - centroids[None, :, :], axis=2)
    nearest = np.argmin(dists, axis=1)
    sets: list[list[int]] = []
    for q, cluster in enumerate(clusters):
        members = [i for i in range(user_xy.shape[0]) if nearest[i] == q]
        members.sort(key=lambda i: (dists[i, q], i))
        sets.append(members[: cluster.n_antennas])
    return sets


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
    rates = np.zeros(user_xy.shape[0])
    for i, gamma in sinr.items():
        rates[i] = slot_capacity_bits(link_rates_bps(gamma, cfg.rrh_bandwidth_hz),
                                      cfg.slot_duration_s)
    return rates


@dataclass
class PeriodPlan:
    """What planning fixes for one period; the cache, placement and delivery stages read it.

    The per-slot lists hold one entry per slot; inside a slot, ``members``,
    ``anchors`` and ``req_miss`` hold one entry per UAV.
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
    req_hit: float  # a cache hit's delay-rate requirement (bits/slot)
    association: list[placement.AssociationPlan] = field(default_factory=list)
    members: list[list[list[int]]] = field(default_factory=list)  # each UAV's users, ascending
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
    # The period simulated is the day after the training days.
    plan = PeriodPlan(cfg, world, predictor, rs, n_uavs,
                      world.training_days * cfg.slots_per_cache_period, clusters,
                      world.screen_factors, predictor.distributions.argmax(axis=2),
                      delay_rate_requirement_bits(cfg))
    prev_centroids = None
    for s in range(cfg.slots_per_cache_period):
        pred_xy = predictor.slot_positions(range(n_users), plan.slot0 + s, 1)[:, 0]
        fading = _zf_fading(rs, s, clusters, n_users)
        rates = _rrh_rates_bits(cfg, world, clusters, _reference_sets(pred_xy, clusters),
                                pred_xy, fading, n_uavs > 0)
        likely = plan.likely[:, s // cfg.slots_per_collection]
        association = placement.associate_rrh(
            rates, pred_xy, cfg.device_rate_bps(plan.screen, likely), clusters, cfg)
        pool = association.uav_pool
        if n_uavs and pool:
            pool_labels, centroids = placement.cluster_users(
                pred_xy[pool], n_uavs, rs.derive(f"kmeans-{s}"), init_centroids=prev_centroids)
            prev_centroids = centroids
            members = [[pool[j] for j in range(len(pool)) if pool_labels[j] == k]
                       for k in range(n_uavs)]
        else:
            centroids = prev_centroids if prev_centroids is not None else np.zeros((n_uavs, 2))
            members = [[] for _ in range(n_uavs)]
        plan.association.append(association)
        plan.members.append(members)
        plan.anchors.append(np.column_stack([centroids, np.full(n_uavs, cfg.min_altitude_m)]))
        plan.midpoints.append(pred_xy)
        plan.fading.append(fading)
        plan.req_miss.append([_cache_miss(cfg, world, plan.anchors[s][k], 1)[1]
                              if members[k] else None for k in range(n_uavs)])
    return plan


def _cache_miss(cfg: ScenarioConfig, world: SyntheticWorld, position: np.ndarray,
                n_shares: int) -> tuple[float, float]:
    """A cache miss at ``position``: its fronthaul bits per slot, split ``n_shares`` ways,
    and the delay-rate requirement (bits/slot) that fetching over that share leaves."""
    bits = g2a_fronthaul_bits(position, world.bbu_xy, cfg.pathloss, cfg.bbu_power_w,
                              cfg.rrh_bandwidth_hz, cfg.noise_power_w,
                              cfg.slot_duration_s) / n_shares
    return bits, delay_rate_requirement_bits(
        cfg, transfer_s(bits, cfg.content_size_bits, cfg.slot_duration_s))


def select_caches(plan: PeriodPlan) -> list[tuple[int, ...]]:
    """Stage 2: each UAV caches the contents with the largest expected power saving."""
    cfg, predictor = plan.cfg, plan.predictor
    all_contents = np.arange(cfg.num_contents)
    caches: list[tuple[int, ...]] = []
    for k in range(plan.n_uavs):
        prob_rows, saving_rows = [], []
        for s, members in enumerate(m[k] for m in plan.members):
            if not members:
                continue
            pls = uav_user_pathloss_db(plan.anchors[s][k], plan.midpoints[s][members],
                                       cfg.pathloss)
            for u, pl in zip(members, pls):
                device_req = cfg.device_rate_bps(plan.screen[u], all_contents)
                prob_rows.append(predictor.distributions[u, s // cfg.slots_per_collection])
                # One user at a time: a scalar path loss keeps numpy's scalar power.
                saving_rows.append(placement.delta_power_saving(
                    float(pl), plan.req_hit, plan.req_miss[s][k], device_req, len(members), cfg))
        caches.append(placement.select_cache(np.array(prob_rows), np.array(saving_rows),
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
    for s in range(len(plan.members)):
        prev_positions = _place_slot(plan, caches, s, prev_positions)
        positions_per_slot.append(prev_positions)
    return positions_per_slot


def _place_slot(plan: PeriodPlan, caches: list[tuple[int, ...]], s: int,
                prev_positions: np.ndarray | None) -> np.ndarray:
    """One slot's UAV positions; a UAV that serves nobody holds its previous position."""
    cfg = plan.cfg
    members_by_uav = plan.members[s]
    positions = np.zeros((plan.n_uavs, 3))
    served, rows = _rows_by_uav(members_by_uav)
    if served:
        slot_pos = plan.predictor.slot_positions(served, plan.slot0 + s, cfg.intervals_per_slot)
    for k, members in enumerate(members_by_uav):
        held = prev_positions[k] if prev_positions is not None else plan.anchors[s][k]
        if not members:
            positions[k] = held
            continue
        contents = plan.likely[members, s // cfg.slots_per_collection]
        req_miss = plan.req_miss[s][k]
        if np.isinf(req_miss):  # the fronthaul is too slow: aim as if cached
            req_miss = plan.req_hit
        targets = qoe_rate_target_bps(
            np.where([c in caches[k] for c in contents], plan.req_hit, req_miss),
            cfg.device_rate_bps(plan.screen[members], contents), cfg.slot_duration_s)
        positions[k] = placement.place_uav(slot_pos[rows[k]], targets, held, len(members), cfg)
    return positions


def _rows_by_uav(users_by_uav: list[list[int]]) -> tuple[list[int], list[slice]]:
    """All UAVs' users in one list, UAV by UAV, and each UAV's slice of it."""
    served: list[int] = []
    rows: list[slice] = []
    for users in users_by_uav:
        rows.append(slice(len(served), len(served) + len(users)))
        served.extend(users)
    return served, rows


def _fixed_placement(plan: PeriodPlan, caches: list[tuple[int, ...]]) -> list[np.ndarray]:
    """Park every UAV over its first-slot anchor for the whole period."""
    return [plan.anchors[0].copy() for _ in plan.members]


def _deliver_uav(plan: PeriodPlan, cache: tuple[int, ...], users: list[int], n_served: int,
                 position: np.ndarray, user_pos: np.ndarray, requests: list[int],
                 n_fetch: int) -> tuple[list[QoeReport], float]:
    """Price and score one UAV's deliveries to its requesting ``users``, in ascending order.

    ``user_pos`` holds their true interval positions.  Returns one report per
    user and the UAV's power, summed one user at a time in that order.
    """
    cfg = plan.cfg
    hits = [requests[u] in cache for u in users]
    fronthaul_bits, req_miss = (None, plan.req_hit) if all(hits) else _cache_miss(
        cfg, plan.world, position, max(n_fetch, 1))
    targets = qoe_rate_target_bps(
        np.where(hits, plan.req_hit, req_miss),
        cfg.device_rate_bps(plan.screen[users], [requests[u] for u in users]),
        cfg.slot_duration_s)[:, None]
    pl = uav_user_pathloss_db(position, user_pos, cfg.pathloss)
    power = min_uav_power_w(pl, targets, n_served, cfg.uav_bandwidth_hz, cfg.noise_power_w)
    feasible = np.all(power <= cfg.uav_max_power_w, axis=1)
    tx_power = np.minimum(power, cfg.uav_max_power_w, out=power)
    rates_bps = link_rates_bps(uav_user_snr(tx_power, pl, cfg.noise_power_w),
                               cfg.uav_bandwidth_hz, n_served)
    reports, total_w = [], 0.0
    for u, hit, rates, user_power, ok in zip(users, hits, rates_bps, tx_power, feasible):
        path = DeliveryPath(LINK_UAV_CACHE if hit else LINK_UAV_FRONTHAUL,
                            slot_capacity_bits(rates, cfg.slot_duration_s),
                            None if hit else fronthaul_bits)
        power_w = float(user_power.mean())
        reports.append(_score(cfg, u, requests[u], path, rates,
                              cfg.device_rate_bps(plan.screen[u], requests[u]),
                              power_w=power_w, cache_hit=hit, feasible=bool(ok)))
        total_w += power_w
    return reports, total_w


def deliver(plan: PeriodPlan, caches: list[tuple[int, ...]],
            positions_per_slot: list[np.ndarray]) -> list[SlotLog]:
    """Stage 4: serve each slot's true requests at true positions and score them."""
    bound_s = delay_lower_bound_s(plan.cfg)
    # One call per slot frees a slot's link arrays before the next are built.
    return [_deliver_slot(plan, caches, s, positions, bound_s)
            for s, positions in enumerate(positions_per_slot)]


def _deliver_slot(plan: PeriodPlan, caches: list[tuple[int, ...]], s: int,
                  positions: np.ndarray, bound_s: float) -> SlotLog:
    cfg, world, n_uavs, n_users = plan.cfg, plan.world, plan.n_uavs, plan.cfg.num_users
    association, members = plan.association[s], plan.members[s]
    gs = plan.slot0 + s
    true_xy = world.interval_positions(range(n_users), gs, 1)[:, 0]
    requests = world.requests[:, gs].tolist()  # -1: idle

    user_uav = {u: k for k in range(n_uavs) for u in members[k]}
    n_fetch = len({k for u, k in user_uav.items()
                   if requests[u] >= 0 and requests[u] not in caches[k]})

    # Terrestrial deliveries (admitted sets, true positions, same fading).
    rates_true = _rrh_rates_bits(cfg, world, plan.clusters,
                                 association.cluster_members(len(plan.clusters)), true_xy,
                                 plan.fading[s], n_fetch > 0)
    v_fu_bps = cfg.fronthaul_rate_bps / max(association.n_fr, 1)

    # Aerial deliveries, UAV by UAV, over one positions array for the slot.
    requesting = [[u for u in users if requests[u] >= 0] for users in members]
    served, rows = _rows_by_uav(requesting)
    if served:
        true_pos = world.interval_positions(served, gs, cfg.intervals_per_slot)
    uav_reports: dict[int, QoeReport] = {}
    uav_power = np.zeros(n_uavs)
    for k, users in enumerate(requesting):
        if users:
            scored, uav_power[k] = _deliver_uav(plan, caches[k], users, len(members[k]),
                                                positions[k], true_pos[rows[k]], requests,
                                                n_fetch)
            uav_reports.update((r.user, r) for r in scored)

    reports: list[QoeReport] = []
    n_requests = n_delivered = n_failures = n_hits = n_uav_deliveries = 0
    for u in range(n_users):
        content = requests[u]
        if content < 0:
            reports.append(dataclasses.replace(_failure_report(u, -1, "idle"), delay_s=0.0))
            continue
        n_requests += 1
        if u in association.rrh_users:
            path = DeliveryPath(LINK_RRH, rates_true[u], v_fu_bps * cfg.slot_duration_s)
            report = _score(cfg, u, content, path, rates_true[u] / cfg.slot_duration_s,
                            cfg.device_rate_bps(plan.screen[u], content))
        elif u not in user_uav:
            report = _failure_report(u, content, "unserved")
        else:
            report = uav_reports[u]
            n_uav_deliveries += 1
            n_hits += report.cache_hit
        reports.append(report)
        n_delivered += report.delivered
        n_failures += not report.delivered

    log = SlotLog(slot=s, reports=reports, n_fr=association.n_fr,
                  n_fetching=n_fetch, uav_positions=positions, uav_power_w=uav_power,
                  caches=tuple(caches), requests=n_requests, delivered=n_delivered,
                  failures=n_failures, cache_hits=n_hits, uav_deliveries=n_uav_deliveries)
    log.reconcile()
    # Delivered contents can never beat the system delay bound.
    for r in reports:
        if r.delivered and r.delay_s < bound_s:
            raise SimInvariantError(
                f"slot {s}: user {r.user} delay {r.delay_s} below bound {bound_s}")
    return log


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
    return logs, _summarize(cfg, logs, mode, baseline, predictor, plan.n_uavs)


def _failure_report(user: int, content: int, link: str, power_w: float = 0.0,
                    cache_hit: bool = False) -> QoeReport:
    return QoeReport(user=user, content=content, link=link, delay_s=float("inf"),
                     delay_score=0.0, device_score_frac=0.0, qoe=0.0,
                     mos_label="Poor", satisfied=False, delivered=False,
                     power_w=power_w, cache_hit=cache_hit, power_feasible=True)


def _score(cfg: ScenarioConfig, user: int, content: int, path: DeliveryPath, rates_bps,
           device_req: float, power_w: float = 0.0, cache_hit: bool = False,
           feasible: bool = True) -> QoeReport:
    """Score one delivery over ``path`` at the per-interval access rates ``rates_bps``."""
    delay = delay_s(path, cfg.content_size_bits, cfg.slot_duration_s)
    if delay > cfg.slot_duration_s:
        report = _failure_report(user, content, path.kind, power_w=power_w, cache_hit=cache_hit)
        return dataclasses.replace(report, delay_s=delay, power_feasible=feasible)
    d_score = delay_score(delay, cfg)
    device_frac = device_score(rates_bps, device_req)
    q, label = qoe_score(d_score, device_frac, cfg.qoe_weight_delay, cfg.qoe_weight_device)
    return QoeReport(user=user, content=content, link=path.kind, delay_s=delay,
                     delay_score=d_score, device_score_frac=device_frac, qoe=q,
                     mos_label=label, satisfied=q >= SATISFIED_QOE, delivered=True,
                     power_w=power_w, cache_hit=cache_hit, power_feasible=feasible)


def _summarize(cfg, logs, mode, baseline, predictor, n_uavs) -> dict:
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
        "delay_lower_bound_s": delay_lower_bound_s(cfg),
        "min_delivered_delay_s": min(delays) if delays else None,
        "prediction_gap": predictor.gap_metrics(),
    }


# -- sweeps and serialization -----------------------------------------------------

SWEEP_PARAMS = {"users": "num_users", "uavs": "num_uavs", "cache": "cache_size"}

SWEEP_COLUMNS = ("param", "value", "total_uav_power_w", "avg_uav_power_w",
                 "satisfied_fraction", "cache_hit_rate", "avg_altitude_m")


def sweep(cfg: ScenarioConfig, param: str, values, baseline: str | None = None) -> list[dict]:
    """Re-run the oracle period for each swept value with the same seed; one row per value."""
    if param not in SWEEP_PARAMS:
        raise ValueError(f"unknown sweep parameter {param!r}; expected one of {sorted(SWEEP_PARAMS)}")
    rows = []
    for value in values:
        swept = dataclasses.replace(cfg, **{SWEEP_PARAMS[param]: int(value)})
        violations = validate(swept)
        if violations:
            raise ConfigError([f"sweep value {param}={value}: {v}" for v in violations])
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
