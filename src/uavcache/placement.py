"""Optimizer stack: user association, clustering, cache selection, positioning.

The pipeline decomposes per slot: users whose predicted terrestrial rate meets
the admission threshold (which tightens as more users share the wired
fronthaul) stay on the radio heads; the rest are clustered and served by one
UAV per cluster.  Cache contents are chosen once per period to maximize the
expected transmit-power saving, and each UAV's position minimizes the summed
minimum transmit power toward its users.  :func:`place_uav` picks each UAV's
method: a weighted-centroid closed form where it is valid (the low/high
altitude regimes), 3 m coordinate descent elsewhere.  A slot's UAVs are
placed together: every UAV that searches runs in one lockstep batch, whose
rounds price all their candidates in one :class:`PlacementPricer` call, on
each user's in-slot track at the slot's Gauss–Legendre nodes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .channel import pathloss_linear_into
from .config import ChannelParams, RandomSource, ScenarioConfig
from .qoe import (delay_rate_requirement_bits, min_uav_power_w, power_per_loss_w,
                  qoe_rate_target_bps, transfer_s)


@dataclass
class PlacementResult:
    position: np.ndarray  # (3,), or (K, 3) for K searches
    objective_w: float | np.ndarray  # or (K,)
    evaluations: int  # the total over the searches
    search_evaluations: np.ndarray | None = None  # (K,) each search's count


def wired_share_bits(n_sharers, cfg: ScenarioConfig):
    """Each sharer's bits per slot of the wired fronthaul v_F; inf, a 0 s leg, for none.

    Elementwise over counts of sharers."""
    with np.errstate(divide="ignore"):
        return (cfg.fronthaul_rate_bps / np.asarray(n_sharers) * cfg.slot_duration_s)[()]


def rrh_rate_threshold_bits(n_fr, device_req_bps, cfg: ScenarioConfig, bound_s: float):
    """Per-slot rate floor for terrestrial admission when n_fr users share v_F.

    ``bound_s`` is ``qoe.delay_lower_bound_s``.  Returns inf when the shared
    fronthaul alone blows the delay budget.  Elementwise over counts and floors.
    """
    wired_s = transfer_s(wired_share_bits(n_fr, cfg), cfg.content_size_bits, cfg.slot_duration_s)
    return np.maximum(delay_rate_requirement_bits(cfg, bound_s, wired_s),
                      np.asarray(device_req_bps, dtype=float) * cfg.slot_duration_s)


def associate_rrh(rates_bits, dists, device_req_bps, antennas, cfg: ScenarioConfig,
                  bound_s: float) -> np.ndarray:
    """Each user's radio-head cluster index, or -1: the largest admitted set whose
    rates all clear the shared-fronthaul threshold.

    ``dists`` is the (users, clusters) distance table to the cluster
    centroids and ``antennas`` each cluster's antenna count.  The admitted
    count m is the largest at which m users or more clear the threshold for m
    sharers.  The m of them ranked highest by predicted rate (ties by id) are
    placed in rank order on the nearest cluster with a free antenna.

    A user clears m sharers when its rate clears its own device floor and the
    delay requirement for m sharers, or when its rate or floor is NaN.  So every
    count is read off one sorted array of the rates that clear their floors, by
    one ``searchsorted`` of the requirement for each count: O(users + counts)
    memory.
    """
    rates = np.asarray(rates_bits, dtype=float)
    assigned = np.full(rates.shape[0], -1)
    capacity = np.array(antennas, dtype=int)
    floors = np.asarray(device_req_bps, dtype=float) * cfg.slot_duration_s
    counts = np.arange(1, min(rates.shape[0], int(capacity.sum())) + 1)
    delay_req = rrh_rate_threshold_bits(counts, 0.0, cfg, bound_s)  # no floor: delay alone
    # NaN sorts last, so it clears every requirement; a NaN floor makes the threshold NaN.
    key = np.sort(np.where(np.isnan(floors), np.nan, rates)[~(rates < floors)])
    fits = np.flatnonzero(key.size - np.searchsorted(key, delay_req) >= counts)
    if not fits.size:
        return assigned
    m = int(counts[fits[-1]])
    clears = np.flatnonzero(~(rates < np.maximum(delay_req[m - 1], floors)))
    for i in clears[np.argsort(-rates[clears], kind="stable")[:m]].tolist():
        q = int(np.argmin(np.where(capacity > 0, dists[i], np.inf)))
        assigned[i] = q
        capacity[q] -= 1
    return assigned


def cluster_users(xy, k: int, rs: RandomSource | None = None,
                  init_centroids=None, max_iter: int = 100):
    """Lloyd iteration; returns (labels, centroids).

    Initialization is either the given warm-start centroids or a greedy
    spread seeded by ``rs`` (first point from its stream, then farthest-point
    picks); ``rs`` is needed only without warm-start centroids.
    Empty clusters are reseeded with the point farthest from its centroid.
    With fewer points than k the surplus clusters stay empty.
    """
    xy = np.asarray(xy, dtype=float)
    n = xy.shape[0]
    if n == 0:
        return np.zeros(0, dtype=int), np.zeros((k, 2))
    if init_centroids is not None:
        centroids = np.array(init_centroids, dtype=float, copy=True)
    else:
        first = int(rs.generator().integers(n))
        picks = [first]
        for _ in range(1, min(k, n)):
            dists = np.min(
                np.linalg.norm(xy[:, None, :] - xy[picks][None, :, :], axis=2), axis=1)
            picks.append(int(np.argmax(dists)))
        centroids = xy[picks]
        while centroids.shape[0] < k:
            centroids = np.vstack([centroids, centroids[-1]])

    labels = np.zeros(n, dtype=int)
    for _ in range(max_iter):
        dists = np.linalg.norm(xy[:, None, :] - centroids[None, :, :], axis=2)
        new_labels = np.argmin(dists, axis=1)
        if n >= k:
            for q in range(k):
                if not np.any(new_labels == q):
                    assigned = dists[np.arange(n), new_labels]
                    far = int(np.argmax(assigned))
                    new_labels[far] = q
        if np.array_equal(new_labels, labels) and _ > 0:
            break
        labels = new_labels
        for q in range(k):
            members = xy[labels == q]
            if members.shape[0]:
                centroids[q] = members.mean(axis=0)
    return labels, centroids


def delta_power_saving(loss_linear, delay_req_cached_bits: float,
                       delay_req_uncached_bits: float, device_req_bps, n_served: int,
                       cfg: ScenarioConfig):
    """Per-interval power saved by caching a content, over a linear path loss.

    An inf uncached requirement (the fronthaul leg leaves no delay budget)
    prices the uncached route at the cap.  Vectorized over loss and device
    requirement: a (users, 1) loss against (users, contents) requirements
    gives one row per user.
    """
    dt = cfg.slot_duration_s
    p_cached, p_uncached = (
        min_uav_power_w(loss_linear, qoe_rate_target_bps(req, device_req_bps, dt), n_served,
                        cfg.uav_bandwidth_hz, cfg.noise_power_w)
        for req in (delay_req_cached_bits, delay_req_uncached_bits))
    # Powers saturate at the cap: an infeasible or over-cap route spends P_max.
    cap = cfg.uav_max_power_w
    return np.minimum(p_uncached, cap) - np.minimum(p_cached, cap)


def select_cache(probabilities, savings, cache_size: int) -> tuple[int, ...]:
    """Score each content by its expected power saving and take the top set.

    ``probabilities`` and ``savings`` are aligned (rows, n_contents) arrays,
    one row per (sub-period, slot, user) triple; the additive structure makes
    the greedy top-k selection exact.
    """
    probabilities = np.atleast_2d(np.asarray(probabilities, dtype=float))
    savings = np.atleast_2d(np.asarray(savings, dtype=float))
    if probabilities.shape != savings.shape:
        raise ValueError(f"shape mismatch: {probabilities.shape} vs {savings.shape}")
    scores = (probabilities * savings).sum(axis=0)
    order = np.lexsort((np.arange(scores.size), -scores))
    return tuple(sorted(int(n) for n in order[:cache_size]))


# -- positioning ----------------------------------------------------------------


def _flatten_positions(user_pos) -> np.ndarray:
    pos = np.asarray(user_pos, dtype=float)
    if pos.ndim == 2:
        pos = pos[:, None, :]
    if pos.ndim != 3 or pos.shape[2] != 2:
        raise ValueError(f"expected (n_users, n_intervals, 2) positions, got {pos.shape}")
    return pos


# Gauss–Legendre nodes a search prices each user's in-slot track on.  The track is
# one segment run at constant speed, and its F interval losses a midpoint rule of a
# smooth integral along it: 8 nodes are within 3e-7 relative of the 1,000-interval
# sum at paper-scale optima (4: 1.5e-6, 16: 7.5e-8), and no search ends elsewhere.
QUADRATURE_NODES = 8

# Where a slot's QUADRATURE_NODES nodes fall, as fractions of the slot, and their
# weights, which sum to 1: the Golub–Welsch rule on [0, 1] (Golub & Welsch, Math.
# Comp. 23, 1969), written out bit for bit so that importing this module runs no
# eigensolver.
NODE_OFFSETS = np.array([
    0.019855071751231912, 0.10166676129318664, 0.23723379504183562, 0.40828267875217505,
    0.5917173212478251, 0.7627662049581644, 0.8983332387068135, 0.980144928248768])
NODE_WEIGHTS = np.array([
    0.05061426814518822, 0.11119051722668728, 0.15685332293894366, 0.18134189168918108,
    0.18134189168918116, 0.1568533229389436, 0.11119051722668728, 0.050614268145188254])


class PlacementPricer:
    """The placement objectives of K user sets, each priced at its own UAV positions.

    A set's objective is the weighted per-point minimum power,
    sum_u (2**(r_u n / B) - 1) N0 sum_f w_f loss[u, f], in linear units: within
    ``linalg.LINEAR_LOSS_RTOL`` of summing ``min_uav_power_w`` over the dB
    path losses, not bit for bit.  Searches only compare its values.
    ``weights`` gives each position's share of the slot in intervals: 1 each by
    default (the interval sum), :data:`NODE_WEIGHTS` scaled to the interval
    count at a slot's quadrature nodes.  ``sizes`` splits the rows of
    ``user_pos`` into the sets, in order (by default one set of every row), and
    ``n_served`` is one count or one per set.

    The price vector and each set's contiguous x and y planes, which depend
    only on the users, are built once.  A call prices C candidate positions,
    candidate c for set ``sets[c]``, in one pass over a buffer that stacks each
    candidate's set rows.  Each value is then the 1-D dot product of the
    candidate's row sums with its set's prices, never a 2-D product, which can
    round differently, so a candidate prices the same bits in any batch.
    """

    def __init__(self, user_pos, rate_targets_bps, n_served, p: ChannelParams,
                 bandwidth_hz: float, noise_w: float, weights=1.0, sizes=None):
        pos = _flatten_positions(user_pos)
        self.sizes = [pos.shape[0]] if sizes is None else np.asarray(sizes).tolist()
        ends = list(itertools.accumulate(self.sizes, initial=0))
        price = power_per_loss_w(rate_targets_bps, np.repeat(np.broadcast_to(
            n_served, (len(self.sizes),)), self.sizes), bandwidth_hz, noise_w)
        self.prices = [price[a:b] for a, b in zip(ends, ends[1:])]
        # each set's (2, rows, positions) x and y planes
        self.planes = [np.ascontiguousarray(pos[a:b].transpose(2, 0, 1))
                       for a, b in zip(ends, ends[1:])]
        self.weights = weights
        self.p = p

    def __call__(self, xyz, sets=None):
        """The objective at each of C positions ``xyz`` (C, 3) of set ``sets[c]`` (set 0
        by default), a list of C floats; a (3,) position gives one float."""
        xyz = np.asarray(xyz, dtype=float)
        cands = xyz.reshape(-1, 3)
        sets = [0] * len(cands) if sets is None else sets
        counts = [self.sizes[k] for k in sets]
        at = cands.repeat(counts, axis=0).T[:, :, None]  # each row's UAV x, y and z
        with np.errstate(over="ignore"):  # a loss or price past the float range is inf
            sq = np.concatenate([self.planes[k] for k in sets], axis=1)
            sq = np.square(np.subtract(sq, at[:2], out=sq), out=sq)
            loss = pathloss_linear_into(sq[0], sq[1], at[2], self.p, sq[0], sq[1])
            sums = np.multiply(loss, self.weights, out=loss).sum(axis=1)
            ends = list(itertools.accumulate(counts, initial=0))
            values = [float(sums[a:b].dot(self.prices[k]))
                      for a, b, k in zip(ends, ends[1:], sets)]
        return values[0] if xyz.ndim == 1 else values


def place_uav_closed_form(user_pos, rate_targets_bps, n_served: int,
                          bandwidth_hz: float, weights=1.0) -> np.ndarray:
    """Weighted centroid of the served users' positions.

    A position weighs its user's rate-dependent power prefactor (distance-
    independent factors cancel) times its ``weights`` entry, as the pricer's, so
    on a slot's quadrature nodes this is the in-slot tracks' centroid.  Shadowing
    enters at its zero mean so the placement is deterministic.  Prefactors that
    overflow to inf share the limit: the centroid of their users alone.
    """
    pos = _flatten_positions(user_pos)
    if pos.shape[0] == 0:
        raise ValueError("cannot place a UAV for an empty user set")
    prefactors = power_per_loss_w(rate_targets_bps, n_served, bandwidth_hz, 1.0)
    if np.isinf(prefactors).any():
        prefactors = np.isinf(prefactors).astype(float)
    w = np.broadcast_to(prefactors[:, None] * weights, pos.shape[:2]).ravel()
    flat = pos.reshape(-1, 2)
    return (flat * w[:, None]).sum(axis=0) / w.sum()


def closed_form_regime(altitude_m: float, user_pos) -> str | None:
    """Classify an instance into the closed form's validity regimes.

    Returns "low" when the altitude is small against the users' spread,
    "high" when it dominates it, else None (use local search).
    """
    pos = _flatten_positions(user_pos)
    flat = pos.reshape(-1, 2)
    dx, dy = np.array(flat[:, 0]), np.array(flat[:, 1])
    for d in (dx, dy):
        # A cumulative sum adds in the order of flat.mean(axis=0), so the
        # centre is that mean bit for bit; a 1-D sum would add pairwise.
        d -= np.cumsum(d)[-1] / d.size
        d *= d
    # The largest squared radius, then one sqrt: the bits of the largest norm.
    span = float(np.sqrt(np.max(np.add(dx, dy, out=dx)))) * 2.0
    if span <= 0.0:
        return "high"
    h2, s2 = altitude_m ** 2, span ** 2
    if h2 <= 0.01 * s2:
        return "low"
    if h2 >= 100.0 * s2:
        return "high"
    return None


def place_uav_local_search(user_pos, rate_targets_bps, init_xyz, n_served, p: ChannelParams,
                           bandwidth_hz: float, noise_w: float, min_altitude_m: float,
                           step_m: float = 3.0, max_evals: int = 10_000, weights=1.0,
                           sizes=None) -> PlacementResult:
    """Coordinate descent over +/-step moves in x, y, altitude: one search, or K in lockstep.

    A (3,) ``init_xyz`` starts one search over every row of ``user_pos``; a
    (K, 3) one starts K independent searches, search k over the next
    ``sizes[k]`` rows, with ``n_served`` one count or one per search.  A search
    moves only on strict objective improvement; its scan order is x, then y,
    then altitude (floored; a candidate the floor puts back on the current
    altitude is skipped), so it is deterministic.  Every candidate counts as an
    evaluation, and a search stops at ``max_evals``, between its + and -
    candidates if need be.  Each round, every search still running tries its
    candidates on its current axis, and one :class:`PlacementPricer` call
    prices them all.  ``evaluations`` is the batch's total and
    ``search_evaluations`` each search's count; a (3,) start gives a (3,)
    position and a float objective.
    """
    start = np.asarray(init_xyz, dtype=float)
    floor = float(min_altitude_m)
    xyz = [[x, y, max(z, floor)] for x, y, z in start.reshape(-1, 3).tolist()]
    price = PlacementPricer(user_pos, rate_targets_bps, n_served, p, bandwidth_hz, noise_w,
                            weights, sizes)
    best = price(xyz, range(len(xyz))) if xyz else []
    evals, axis, improved = [1] * len(xyz), [0] * len(xyz), [False] * len(xyz)
    running = [k for k, n in enumerate(evals) if n < max_evals]
    while running:
        cands, sets = [], []
        for k in running:
            here, budget = xyz[k], max_evals - evals[k]
            for delta in (step_m, -step_m):
                cand = here.copy()
                cand[axis[k]] += delta
                if axis[k] == 2:
                    cand[2] = max(cand[2], floor)
                    if cand[2] == here[2]:
                        continue
                cands.append(cand)
                sets.append(k)
                budget -= 1
                if not budget:
                    break
        # A search weighs its + candidate, then its -, against its best so far.
        for cand, k, val in zip(cands, sets, price(cands, sets) if cands else ()):
            evals[k] += 1
            if val < best[k]:
                xyz[k], best[k], improved[k] = cand, val, True
        still = []
        for k in running:
            if evals[k] >= max_evals:
                continue
            if axis[k] < 2:
                axis[k] += 1
            elif improved[k]:
                axis[k], improved[k] = 0, False
            else:
                continue
            still.append(k)
        running = still
    position = np.array(xyz, dtype=float).reshape(-1, 3)
    if start.ndim == 1:
        return PlacementResult(position[0], best[0], evals[0], np.array(evals))
    return PlacementResult(position, np.array(best), sum(evals), np.array(evals))


def place_uav(user_pos, rate_targets_bps, init_xyz, n_served, cfg: ScenarioConfig,
              weights=1.0, sizes=None) -> np.ndarray:
    """UAV positions for their users' positions, weighted as the pricer's, and rate targets.

    The rows, starts and counts split into UAVs as in
    :func:`place_uav_local_search`: a (3,) ``init_xyz`` places one UAV, a
    (K, 3) one K UAVs.  In the low regime most links are near the horizon, so
    the NLoS law rules and the power is close to a weighted sum of
    d**exponent_nlos: at exponent 2 the weighted centroid at the altitude floor
    is its minimum, and at any other exponent the regime gives no closed form.
    In the high regime the users' spread is negligible against the altitude, so
    the search starts from the centroid's xy at the start's altitude; otherwise
    from the start.  Every UAV left to search runs in one lockstep batch.
    """
    start = np.asarray(init_xyz, dtype=float)
    pos = _flatten_positions(user_pos)
    targets = np.asarray(rate_targets_bps, dtype=float)
    xyz = np.array(start.reshape(-1, 3))
    sizes = np.array([pos.shape[0]] if sizes is None else sizes)
    n_served = np.broadcast_to(n_served, sizes.shape)
    ends = np.cumsum(sizes).tolist()
    search = np.ones(len(xyz), dtype=bool)
    for k, (a, b) in enumerate(zip([0, *ends], ends)):
        regime = closed_form_regime(cfg.min_altitude_m, pos[a:b])
        if regime == "low" and cfg.pathloss.exponent_nlos != 2.0:
            regime = None
        if regime is not None:
            xyz[k, :2] = place_uav_closed_form(pos[a:b], targets[a:b], n_served[k],
                                               cfg.uav_bandwidth_hz, weights)
        if regime == "low":
            xyz[k, 2], search[k] = cfg.min_altitude_m, False
    if search.any():
        rows = np.repeat(search, sizes)
        xyz[search] = place_uav_local_search(
            pos[rows], targets[rows], xyz[search], n_served[search], cfg.pathloss,
            cfg.uav_bandwidth_hz, cfg.noise_power_w, cfg.min_altitude_m, weights=weights,
            sizes=sizes[search]).position
    return xyz.reshape(start.shape)
