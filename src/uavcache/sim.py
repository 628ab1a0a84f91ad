"""Slot-by-slot orchestration in four stages: plan, cache, place, deliver.

One run covers one caching period (a synthetic day of T slots).  ``plan_slots``,
``select_caches`` and ``place_uavs`` work from a prediction's request
distributions and collection points, and interpolate every position on the
period's own clock; ``deliver`` serves and scores the generator's true state, so
prediction error shows up as extra transmit power and missed QoE, exactly where
it would hurt a real deployment.  The stages pass one :class:`PeriodPlan`, which
holds each per-slot quantity as one array over the period's slots and the rate
floors (screen factor times content rate, per user and content), built once for
admission, cache selection, placement and delivery to index.  Cache selection
prices each UAV's (slot, member) rows in one pass.  The slot, not the UAV, is
the unit of placement and delivery: a slot's UAVs are searched in lockstep by
one ``placement.place_uav`` call, and their users served in one pass.
Delivery fills one route table per slot (:data:`ROUTE`) and scores it into one
record array of reports (:data:`REPORT`), whose fields are the ``slots.csv``
columns; the slot checks, the summary and the CSV read it a column at a time.
Its (users, intervals) arrays are buffers of one :class:`Workspace` per
``deliver`` call, sized by the period's largest set of UAV-served requesting
users, so that after its first slot the period allocates none of them; a dead
buffer's block serves the slot's later buffers.

Each baseline swaps stages (:data:`BASELINES`): ``none``, the proposed pipeline,
swaps none, ``no_uav`` plans with no UAVs, ``no_cache`` and ``random_cache``
replace ``select_caches`` with empty or uniform caches, and ``fixed_placement``
replaces ``place_uavs`` by parking each UAV over its first-slot anchor.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import json
from dataclasses import dataclass, field

import numpy as np

from . import linalg, placement
from .channel import (db_to_linear, g2a_fronthaul_bits, link_rates_bps, slot_capacity_bits,
                      uav_user_pathloss_db, uav_user_snr, zfbf_sinr)
from .config import ConfigError, RandomSource, ScenarioConfig, validate
from .generators import SyntheticWorld, point_norms, track_positions
from .predictors import EsnPredictor, period_collections, prediction_gap
from .qoe import (LINK_IDLE, LINK_RRH, LINK_UAV_CACHE, LINK_UAV_FRONTHAUL, LINK_UNSERVED,
                  MOS_BINS, delay_lower_bound_s, delay_rate_requirement_bits,
                  delay_score, device_score, min_uav_power_w, qoe_rate_target_bps, qoe_score,
                  transfer_s)

# A delivery satisfies the user when its score reaches the top opinion bin.
SATISFIED_QOE = MOS_BINS[0][0]

SUMMARY_SCHEMA_VERSION = 1

# A slot's route table: one row per user, filled by the tier that serves the
# user and read by the scoring alone.  Bits are per slot; an absent fronthaul
# leg is an infinite-rate leg, which takes 0 s.
_LINKS = (LINK_IDLE, LINK_RRH, LINK_UAV_CACHE, LINK_UAV_FRONTHAUL, LINK_UNSERVED)
ROUTE = np.dtype([("link", f"U{max(map(len, _LINKS))}"), ("access_bits", float),
                  ("fronthaul_bits", float), ("device_frac", float), ("power_w", float),
                  ("cache_hit", bool), ("feasible", bool)])

# A slot's scored reports: one row per user, and after the slot index the
# columns of slots.csv.
REPORT = np.dtype([("user", int), ("content", int), ("link", ROUTE["link"]),
                   ("delivered", bool), ("delay_s", float), ("delay_score", float),
                   ("device_frac", float), ("qoe", float),
                   ("mos", f"U{max(len(label) for _, label in MOS_BINS)}"),
                   ("satisfied", bool), ("power_w", float), ("cache_hit", bool),
                   ("power_feasible", bool)])

SLOTS_COLUMNS = ("slot", *REPORT.names)


class SimInvariantError(RuntimeError):
    """An internal bookkeeping invariant broke during a run."""


class Workspace:
    """Float work buffers handed out like ``np.empty``, kept from one round to the next.

    A call gets the leading rows of the first free block of its trailing shape,
    or of a new block with room for ``rows`` rows.  :meth:`reset` frees every
    block, and :meth:`keep` every block but those of the arrays still needed,
    so a dead buffer's block serves a later call.  A round that asks for the
    same trailing shapes and frees the same blocks in the same order, none for
    more than ``rows`` rows, allocates nothing.
    """

    def __init__(self, rows: int):
        self.rows, self._blocks, self._taken = rows, [], []

    def __call__(self, shape) -> np.ndarray:
        trailing = tuple(shape[1:])
        i = next((i for i, (block, taken) in enumerate(zip(self._blocks, self._taken))
                  if not taken and block.shape[1:] == trailing), len(self._blocks))
        if i == len(self._blocks):
            self._blocks.append(np.empty((self.rows, *trailing)))
            self._taken.append(False)
        self._taken[i] = True
        view = self._blocks[i][:shape[0]]
        if view.shape != tuple(shape):
            raise SimInvariantError(f"workspace buffer {view.shape} cannot hold {tuple(shape)}")
        return view

    def keep(self, *arrays: np.ndarray) -> None:
        """Free every block that holds none of ``arrays``."""
        self._taken = [any(np.may_share_memory(block, a) for a in arrays)
                       for block in self._blocks]

    def reset(self) -> None:
        self.keep()


@dataclass
class SlotLog:
    """One slot's REPORT rows, which every count is read from, and what they do not hold."""

    slot: int
    reports: np.recarray  # (U,) REPORT rows
    n_fr: int
    uav_positions: np.ndarray  # (K, 3)
    uav_power_w: np.ndarray  # (K,) summed mean-interval power of served users

    @property
    def requests(self) -> int:
        return int(np.count_nonzero(self.reports.content >= 0))

    @property
    def failures(self) -> int:
        return int(np.count_nonzero((self.reports.content >= 0) & ~self.reports.delivered))

    def reconcile(self) -> None:
        if not np.isclose(self.reports.power_w.sum(), self.uav_power_w.sum(),
                          rtol=linalg.POWER_SUM_RTOL, atol=linalg.POWER_SUM_ATOL):
            raise SimInvariantError(f"slot {self.slot}: per-UAV power does not add up")


def _reference_clusters(dists: np.ndarray, antennas: np.ndarray) -> np.ndarray:
    """Capacity-capped nearest-cluster assignment used to estimate rates; -1: none.

    Each cluster keeps as many of its nearest users as it has ``antennas``, ties by id.
    """
    nearest = np.argmin(dists, axis=1)
    assigned = np.full(dists.shape[0], -1)
    for q, capacity in enumerate(antennas.tolist()):
        members = np.flatnonzero(nearest == q)
        order = np.argsort(dists[members, q], kind="stable")
        assigned[members[order[:capacity]]] = q
    return assigned


def _zf_fading(rs: RandomSource, slot: int, clusters: list[np.ndarray],
               n_users: int) -> list[np.ndarray]:
    """Per-slot unit-mean exponential power gains toward every cluster antenna."""
    return [rs.derive(f"zf-fading-{slot}-{q}").generator().exponential(1.0, (n_users, len(c)))
            for q, c in enumerate(clusters)]


def _rrh_rates_bits(cfg, world, clusters, assigned, user_xy, fading, bbu_active):
    """Each user's zero-forcing bits per slot, 0 off the clusters; the BBU interferes if active."""
    bbu = np.zeros(len(user_xy))
    if bbu_active:
        d = np.maximum(np.linalg.norm(user_xy - world.bbu_xy[None, :], axis=1), 1.0)
        bbu = cfg.bbu_power_w * d ** (-cfg.pathloss.g2a_exponent)
    sinr = zfbf_sinr(clusters, assigned, user_xy, fading, cfg.rrh_power_w, bbu,
                     cfg.noise_power_w, cfg.pathloss.g2a_exponent)
    return slot_capacity_bits(link_rates_bps(sinr[:, None], cfg.rrh_bandwidth_hz),
                              cfg.slot_duration_s)


@dataclass
class PeriodPlan:
    """What planning fixes for one period; the cache, placement and delivery stages read it.

    Each per-slot quantity is one array whose first axis is the slot, except
    ``fading``, a per-slot list of per-cluster gains.  ``rrh`` and ``uav`` are
    -1 where no cluster or UAV serves a user, ``req_miss`` NaN where a UAV
    serves nobody.
    """

    cfg: ScenarioConfig
    world: SyntheticWorld
    distributions: np.ndarray  # (U, n_sub, F) predicted request distributions
    collections: np.ndarray  # (U, n_sub + 1, 2) predicted collection points of the period
    rs: RandomSource
    n_uavs: int
    clusters: list[np.ndarray]  # (R_q, 2) antenna positions of each radio-head cluster
    likely: np.ndarray  # (U, n_sub) each user's most likely content per sub-period
    floors: np.ndarray  # (U, F) each user's device rate floor per content (bps)
    bound_s: float  # qoe.delay_lower_bound_s, which depends on the config alone
    req_hit: float  # a cache hit's delay-rate requirement (bits/slot)
    xy: np.ndarray  # (T, U, 2) predicted positions at the slot midpoints
    rrh: np.ndarray  # (T, U) cluster index
    uav: np.ndarray  # (T, U) UAV index
    anchors: np.ndarray  # (T, K, 3) cluster centroids at the altitude floor
    req_miss: np.ndarray  # (T, K) a cache miss's delay-rate requirement at each anchor
    fading: list[list[np.ndarray]] = field(default_factory=list)  # per slot, per RRH cluster


def plan_slots(cfg: ScenarioConfig, world: SyntheticWorld, distributions: np.ndarray,
               collections: np.ndarray, n_uavs: int | None = None) -> PeriodPlan:
    """Stage 1: per slot, associate users with the radio heads and cluster the rest."""
    n_uavs = cfg.num_uavs if n_uavs is None else n_uavs
    t, n_users = cfg.slots_per_cache_period, cfg.num_users
    rs = RandomSource(cfg.seed).derive("sim")
    # Terrestrial infrastructure: group radio heads into beamforming clusters.
    labels, _ = placement.cluster_users(world.rrh_xy, cfg.num_rrh_clusters,
                                        rs.derive("rrh-grouping"))
    clusters = [world.rrh_xy[labels == q] for q in range(cfg.num_rrh_clusters)
                if np.any(labels == q)]
    antennas = np.array([len(c) for c in clusters])
    centroids = np.array([c.mean(axis=0) for c in clusters])
    bound_s = delay_lower_bound_s(cfg)
    base_rates = np.broadcast_to(cfg.content_base_rates_bps, (cfg.num_contents,))
    plan = PeriodPlan(
        cfg, world, distributions, collections, rs, n_uavs, clusters,
        distributions.argmax(axis=2), world.screen_factors[:, None] * base_rates, bound_s,
        delay_rate_requirement_bits(cfg, bound_s),
        track_positions(collections, range(n_users), np.arange(t) + 0.5,
                        cfg.slots_per_collection).swapaxes(0, 1),
        np.full((t, n_users), -1), np.full((t, n_users), -1),
        np.tile([0.0, 0.0, cfg.min_altitude_m], (t, n_uavs, 1)), np.full((t, n_uavs), np.nan))
    for s, pred_xy in enumerate(plan.xy):
        plan.fading.append(_zf_fading(rs, s, clusters, n_users))
        dists = point_norms(pred_xy[:, None, :] - centroids)
        rates = _rrh_rates_bits(cfg, world, clusters, _reference_clusters(dists, antennas),
                                pred_xy, plan.fading[s], n_uavs > 0)
        floors = plan.floors[np.arange(n_users), plan.likely[:, s // cfg.slots_per_collection]]
        plan.rrh[s] = placement.associate_rrh(rates, dists, floors, antennas, cfg, bound_s)
        pool = np.flatnonzero(plan.rrh[s] < 0)
        # A slot with no one to cluster keeps the anchors (at s = 0, the initial last row).
        plan.anchors[s] = plan.anchors[s - 1]
        if n_uavs and pool.size:  # warm-started once any earlier slot was clustered
            warm = plan.anchors[s, :, :2] if (plan.uav[:s] >= 0).any() else None
            plan.uav[s, pool], plan.anchors[s, :, :2] = placement.cluster_users(
                pred_xy[pool], n_uavs, rs.derive(f"kmeans-{s}"), init_centroids=warm)
    busy = (plan.uav[..., None] == np.arange(n_uavs)).any(axis=1)
    plan.req_miss[busy] = _cache_miss(plan, plan.anchors[busy], 1)[1]
    return plan


def _cache_miss(plan: PeriodPlan, position: np.ndarray, n_shares: int):
    """A cache miss at ``position``: its fronthaul bits per slot, split ``n_shares`` ways,
    and the delay-rate requirement (bits/slot) that fetching over that share leaves.

    One position (3,) gives two floats, positions (N, 3) two arrays of N."""
    cfg = plan.cfg
    bits = g2a_fronthaul_bits(position, plan.world.bbu_xy, cfg.pathloss, cfg.bbu_power_w,
                              cfg.rrh_bandwidth_hz, cfg.noise_power_w,
                              cfg.slot_duration_s) / n_shares
    return bits, delay_rate_requirement_bits(
        cfg, plan.bound_s, transfer_s(bits, cfg.content_size_bits, cfg.slot_duration_s))


def select_caches(plan: PeriodPlan) -> list[tuple[int, ...]]:
    """Stage 2: each UAV caches the contents with the largest expected power saving.

    A UAV's rows are its (slot, member) pairs, priced in one pass at each
    row's slot anchor and predicted midpoint, for that slot's member count.
    """
    cfg = plan.cfg
    caches: list[tuple[int, ...]] = []
    for k in range(plan.n_uavs):
        mine = plan.uav == k
        slots, users = np.nonzero(mine)
        loss = db_to_linear(uav_user_pathloss_db(plan.anchors[slots, k], plan.xy[slots, users],
                                                 cfg.pathloss))[:, None]
        savings = placement.delta_power_saving(
            loss, plan.req_hit, plan.req_miss[slots, k, None], plan.floors[users],
            np.count_nonzero(mine, axis=1)[slots, None], cfg)
        caches.append(placement.select_cache(
            plan.distributions[users, slots // cfg.slots_per_collection], savings,
            cfg.cache_size) if slots.size else ())
    return caches


def _no_cache(plan: PeriodPlan) -> list[tuple[int, ...]]:
    return [() for _ in range(plan.n_uavs)]


def _random_cache(plan: PeriodPlan) -> list[tuple[int, ...]]:
    cfg = plan.cfg
    draws = [plan.rs.derive(f"random-cache-{k}").generator().choice(
        cfg.num_contents, size=cfg.cache_size, replace=False) for k in range(plan.n_uavs)]
    return [tuple(sorted(int(n) for n in picks)) for picks in draws]


def place_uavs(plan: PeriodPlan, caches: list[tuple[int, ...]]) -> list[np.ndarray]:
    """Stage 3: per slot, position each UAV to minimize the power toward its users.

    Each search starts from the UAV's previous position, the first from its anchor.
    """
    positions = [plan.anchors[0]]
    cached = _cached(plan, caches)
    # One call per slot frees a slot's position arrays before the next are built.
    for s in range(len(plan.uav)):
        positions.append(_place_slot(plan, cached, s, positions[-1]))
    return positions[1:]


def _cached(plan: PeriodPlan, caches: list[tuple[int, ...]]) -> np.ndarray:
    """(K, F): whether each UAV caches each content."""
    cached = np.zeros((plan.n_uavs, plan.cfg.num_contents), dtype=bool)
    for k, cache in enumerate(caches):
        cached[k, list(cache)] = True
    return cached


def _by_uav(uav: np.ndarray, users: np.ndarray, n_uavs: int) -> tuple[np.ndarray, np.ndarray]:
    """``users`` grouped by their UAV, ascending within each, and each UAV's count."""
    users = users[np.argsort(uav[users], kind="stable")]
    return users, np.bincount(uav[users], minlength=n_uavs)


def _place_slot(plan: PeriodPlan, cached: np.ndarray, s: int, held: np.ndarray) -> np.ndarray:
    """One slot's UAV positions, each priced on its members' predicted tracks at the slot's
    quadrature nodes, all in one :func:`placement.place_uav` call; a UAV that serves
    nobody keeps its ``held`` position."""
    cfg, uav = plan.cfg, plan.uav[s]
    positions = held.copy()
    served, sizes = _by_uav(uav, np.flatnonzero(uav >= 0), plan.n_uavs)
    if not served.size:
        return positions
    owner, contents = uav[served], plan.likely[served, s // cfg.slots_per_collection]
    # where the fronthaul is too slow, aim as if cached
    req_miss = np.where(np.isinf(plan.req_miss[s]), plan.req_hit, plan.req_miss[s])
    targets = qoe_rate_target_bps(
        np.where(cached[owner, contents], plan.req_hit, req_miss[owner]),
        plan.floors[served, contents], cfg.slot_duration_s)
    busy = sizes > 0
    positions[busy] = placement.place_uav(
        track_positions(plan.collections, served, s + placement.NODE_OFFSETS,
                        cfg.slots_per_collection),
        targets, held[busy], sizes[busy], cfg, cfg.intervals_per_slot * placement.NODE_WEIGHTS,
        sizes=sizes[busy])
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


def _uav_routes(plan: PeriodPlan, positions: np.ndarray, owner: np.ndarray, users: np.ndarray,
                contents: np.ndarray, hits: np.ndarray, n_served: np.ndarray,
                user_pos: np.ndarray, work: Workspace) -> tuple[np.ndarray, np.ndarray]:
    """Price every UAV delivery of a slot in one pass: the routes of the requesting
    ``users``, grouped by their UAV ``owner`` and ascending within each, and each UAV's
    summed power.

    Row i is priced at UAV ``owner[i]``'s position, for its associated count
    ``n_served`` and, on a miss, its cache-miss requirement; ``user_pos`` holds the
    users' true interval positions.  Every per-user quantity is a row reduction
    over the (users, intervals) arrays, which are buffers of ``work``.
    """
    cfg = plan.cfg
    work.keep(user_pos)  # the interpolation's work buffer is dead
    # A UAV that fetches shares the fronthaul with every other one that does.
    fetching = np.bincount(owner[~hits], minlength=plan.n_uavs) > 0
    fronthaul_bits, req_miss = np.full(plan.n_uavs, np.inf), np.full(plan.n_uavs, plan.req_hit)
    fronthaul_bits[fetching], req_miss[fetching] = _cache_miss(
        plan, positions[fetching], int(np.count_nonzero(fetching)))
    device_req = plan.floors[users, contents]
    targets = qoe_rate_target_bps(np.where(hits, plan.req_hit, req_miss[owner]), device_req,
                                  cfg.slot_duration_s)[:, None]
    # One (users, intervals) buffer runs from the dB path loss to the rates.
    loss = uav_user_pathloss_db(positions[owner, None], user_pos, cfg.pathloss, work)
    work.keep(loss)  # the positions, distances and log terms are dead
    loss = db_to_linear(loss, out=loss)
    n_served = n_served[owner, None]
    power = min_uav_power_w(loss, targets, n_served, cfg.uav_bandwidth_hz, cfg.noise_power_w,
                            out=work(loss.shape))
    feasible = np.all(power <= cfg.uav_max_power_w, axis=1)
    tx_power = np.minimum(power, cfg.uav_max_power_w, out=power)
    rates_bps = link_rates_bps(uav_user_snr(tx_power, loss, cfg.noise_power_w, out=loss),
                               cfg.uav_bandwidth_hz, n_served, out=loss)
    routes = _routes(len(users), link=np.where(hits, LINK_UAV_CACHE, LINK_UAV_FRONTHAUL),
                     access_bits=slot_capacity_bits(rates_bps, cfg.slot_duration_s),
                     fronthaul_bits=np.where(hits, np.inf, fronthaul_bits[owner]),
                     device_frac=device_score(rates_bps, device_req[:, None]),
                     power_w=tx_power.mean(axis=1), cache_hit=hits, feasible=feasible)
    # Each UAV's powers in a row of their own, zero-padded: a cumsum along the row adds
    # one user at a time, in ascending user order, and the padding adds nothing.
    counts = np.bincount(owner, minlength=plan.n_uavs)
    table = np.zeros((plan.n_uavs, counts.max()))
    table[owner, np.arange(len(users)) - (np.cumsum(counts) - counts)[owner]] = routes["power_w"]
    return routes, np.cumsum(table, axis=1)[:, -1]


def deliver(plan: PeriodPlan, caches: list[tuple[int, ...]],
            positions_per_slot: list[np.ndarray]) -> list[SlotLog]:
    """Stage 4: serve each slot's true requests at true positions and score them.

    Every slot's UAV deliveries run in one :class:`Workspace`, sized by the
    period's largest set of UAV-served requesting users and dropped on return.
    """
    cached = _cached(plan, caches)
    slot0 = plan.world.period_slot0
    requesting = plan.world.requests[:, slot0:slot0 + len(plan.uav)].T >= 0
    work = Workspace(int(np.count_nonzero((plan.uav >= 0) & requesting, axis=1).max(initial=0)))
    return [_deliver_slot(plan, cached, s, positions, work)
            for s, positions in enumerate(positions_per_slot)]


def _deliver_slot(plan: PeriodPlan, cached: np.ndarray, s: int, positions: np.ndarray,
                  work: Workspace) -> SlotLog:
    cfg, world, n_uavs, n_users = plan.cfg, plan.world, plan.n_uavs, plan.cfg.num_users
    rrh, uav = plan.rrh[s], plan.uav[s]
    n_fr = int(np.count_nonzero(rrh >= 0))
    gs = world.period_slot0 + s
    true_xy = world.interval_positions(range(n_users), gs, 1)[:, 0]
    content = world.requests[:, gs]
    idle = content < 0

    # The requesting users the UAVs serve, grouped by UAV, and whether each is a hit.
    served, _ = _by_uav(uav, np.flatnonzero((uav >= 0) & ~idle), n_uavs)
    hits = cached[uav[served], content[served]]

    # Idle users take no time; requesting users no tier serves have no access rate.
    routes = _routes(n_users, link=np.where(idle, LINK_IDLE, LINK_UNSERVED),
                     access_bits=np.where(idle, np.inf, 0.0), fronthaul_bits=np.inf,
                     feasible=True)

    # Terrestrial deliveries (admitted sets, true positions, same fading).
    rates_true = _rrh_rates_bits(cfg, world, plan.clusters, rrh, true_xy, plan.fading[s],
                                 not hits.all())
    fr = np.flatnonzero((rrh >= 0) & ~idle)
    device_req = plan.floors[fr, content[fr]]
    routes[fr] = _routes(
        fr.size, link=LINK_RRH, access_bits=rates_true[fr],
        fronthaul_bits=placement.wired_share_bits(n_fr, cfg),
        device_frac=device_score((rates_true[fr] / cfg.slot_duration_s)[:, None],
                                 device_req[:, None]), feasible=True)

    # Aerial deliveries, every UAV's in one pass.
    uav_power = np.zeros(n_uavs)
    if served.size:
        work.reset()
        routes[served], uav_power = _uav_routes(
            plan, positions, uav[served], served, content[served], hits,
            np.bincount(uav[uav >= 0], minlength=n_uavs),
            world.interval_positions(served, gs, cfg.intervals_per_slot, work), work)

    reports = _score_routes(plan, content, routes)
    log = SlotLog(slot=s, reports=reports, n_fr=n_fr, uav_positions=positions,
                  uav_power_w=uav_power)
    log.reconcile()
    # Delivered contents can never beat the system delay bound.
    early = np.flatnonzero(reports.delivered & (reports.delay_s < plan.bound_s))
    if early.size:
        r = reports[early[0]]
        raise SimInvariantError(
            f"slot {s}: user {r.user} delay {r.delay_s} below bound {plan.bound_s}")
    return log


def _score_routes(plan: PeriodPlan, content: np.ndarray, routes: np.ndarray) -> np.recarray:
    """Score every user's route in one elementwise pass; one REPORT row per user.

    A request is delivered when its route takes at most one slot.  An undelivered
    row scores 0 on both axes and keeps its link, power, cache hit and feasibility.
    """
    cfg = plan.cfg
    delay = (transfer_s(routes["access_bits"], cfg.content_size_bits, cfg.slot_duration_s)
             + transfer_s(routes["fronthaul_bits"], cfg.content_size_bits, cfg.slot_duration_s))
    delivered = (content >= 0) & (delay <= cfg.slot_duration_s)
    d_score = np.where(delivered, delay_score(delay, cfg, plan.bound_s), 0.0)
    device_frac = np.where(delivered, routes["device_frac"], 0.0)
    q, label = qoe_score(d_score, device_frac, cfg.qoe_weight_delay)
    return np.rec.fromarrays(
        (np.arange(len(routes)), content, routes["link"], delivered, delay, d_score, device_frac,
         q, label, q >= SATISFIED_QOE, routes["power_w"], routes["cache_hit"], routes["feasible"]),
        dtype=REPORT)


# Each ablation baseline replaces the stages it names and keeps the rest.
BASELINES = {
    "none": {},
    "no_uav": {"plan_slots": functools.partial(plan_slots, n_uavs=0)},
    "no_cache": {"select_caches": _no_cache},
    "random_cache": {"select_caches": _random_cache},
    "fixed_placement": {"place_uavs": _fixed_placement},
}


def run_period(cfg: ScenarioConfig, mode: str = "oracle", models=None,
               baseline: str = "none",
               world: SyntheticWorld | None = None) -> tuple[list[SlotLog], dict]:
    """Simulate one caching period; returns per-slot logs and the summary."""
    if baseline not in BASELINES:
        raise ValueError(f"unknown baseline {baseline!r}; expected one of {tuple(BASELINES)}")
    if mode not in ("oracle", "esn"):
        raise ValueError(f"unknown mode {mode!r}")
    world = world if world is not None else SyntheticWorld(cfg)
    if mode == "oracle":
        prediction = world.distributions, period_collections(world)
    elif models is None:
        raise ValueError("esn mode needs trained models")
    else:
        predictor = EsnPredictor(world, *models)
        prediction = predictor.distributions, predictor.collections

    swap = BASELINES[baseline]
    plan = swap.get("plan_slots", plan_slots)(cfg, world, *prediction)
    caches = swap.get("select_caches", select_caches)(plan)
    positions = swap.get("place_uavs", place_uavs)(plan, caches)
    logs = deliver(plan, caches, positions)
    return logs, _summarize(plan, logs, mode, baseline)


def _summarize(plan: PeriodPlan, logs, mode, baseline) -> dict:
    cfg, n_uavs = plan.cfg, plan.n_uavs
    total_power = float(sum(log.uav_power_w.sum() for log in logs))
    requests = sum(log.requests for log in logs)
    satisfied = sum(int(np.count_nonzero(log.reports.satisfied)) for log in logs)
    uav_deliveries = sum(int(np.count_nonzero(
        np.isin(log.reports.link, (LINK_UAV_CACHE, LINK_UAV_FRONTHAUL)))) for log in logs)
    hits = sum(int(np.count_nonzero(log.reports.cache_hit)) for log in logs)
    failures = sum(log.failures for log in logs)
    infeasible = sum(int(np.count_nonzero(~log.reports.power_feasible)) for log in logs)
    delays = [float(log.reports.delay_s[log.reports.delivered].min())
              for log in logs if log.reports.delivered.any()]
    altitudes = [float(log.uav_positions[k, 2]) for log in logs for k in range(n_uavs)]
    return {
        "schema_version": SUMMARY_SCHEMA_VERSION,
        "mode": mode,
        "baseline": baseline,
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
        "prediction_gap": prediction_gap(plan.world, plan.distributions, plan.collections),
    }


# -- sweeps and serialization -----------------------------------------------------

SWEEP_PARAMS = {"users": "num_users", "uavs": "num_uavs", "cache": "cache_size"}

SWEEP_COLUMNS = ("param", "value", "baseline", "total_uav_power_w", "avg_uav_power_w",
                 "satisfied_fraction", "cache_hit_rate", "avg_altitude_m")


def sweep(cfg: ScenarioConfig, param: str, values, baselines=("none",)) -> list[dict]:
    """Re-run the seeded oracle period per value and baseline; a row each, values outer."""
    if param not in SWEEP_PARAMS:
        raise ValueError(f"unknown sweep parameter {param!r}; expected one of {sorted(SWEEP_PARAMS)}")
    if not set(baselines) <= BASELINES.keys():
        raise ValueError(f"unknown baseline in {baselines!r}; expected some of {tuple(BASELINES)}")
    configs = [dataclasses.replace(cfg, **{SWEEP_PARAMS[param]: int(value)}) for value in values]
    # every value is checked before the first run starts
    violations = [f"sweep value {param}={value}: {v}"
                  for value, swept in zip(values, configs) for v in validate(swept)]
    if violations:
        raise ConfigError(violations)
    rows = []
    for value, swept in zip(values, configs):
        for baseline in baselines:
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


def csv_text(columns, rows) -> str:
    """The header ``columns``, then one line per row of Python values, each written by
    :func:`_fmt`.  ``rows`` is read once, a row at a time, so it may be a generator."""
    return "".join(",".join(map(_fmt, row)) + "\n" for row in itertools.chain([columns], rows))


def slots_csv_text(logs: list[SlotLog]) -> str:
    # tolist() gives the Python bool, int, float and str values _fmt formats
    return csv_text(SLOTS_COLUMNS, (
        (log.slot, *row) for log in logs
        for row in zip(*(log.reports[name].tolist() for name in REPORT.names))))


def summary_json_text(summary: dict) -> str:
    def convert(obj):
        if isinstance(obj, float):
            return float(format(obj, ".9g"))
        if isinstance(obj, dict):
            return {k: convert(v) for k, v in obj.items()}
        return obj

    return json.dumps(convert(summary), indent=2, sort_keys=True) + "\n"


def sweep_csv_text(rows: list[dict]) -> str:
    return csv_text(SWEEP_COLUMNS, ([row[c] for c in SWEEP_COLUMNS] for row in rows))
