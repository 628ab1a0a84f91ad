"""Optimizer stack: user association, clustering, cache selection, positioning.

The pipeline decomposes per slot: users whose predicted terrestrial rate meets
the admission threshold (which tightens as more users share the wired
fronthaul) stay on the radio heads; the rest are clustered and served by one
UAV per cluster.  Cache contents are chosen once per period to maximize the
expected transmit-power saving, and each UAV's position minimizes the summed
minimum transmit power toward its users.  :func:`place_uav` picks the method:
a weighted-centroid closed form where it is valid (the low/high altitude
regimes), 3 m coordinate descent elsewhere.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import uav_user_pathloss_linear
from .config import ChannelParams, RandomSource, RrhCluster, ScenarioConfig
from .qoe import (delay_rate_requirement_bits, min_uav_power_w, power_per_loss_w,
                  qoe_rate_target_bps)


@dataclass
class AssociationPlan:
    """Outcome of the admission step: who stays terrestrial, who flies."""

    rrh_users: dict[int, int]  # user -> cluster index
    uav_pool: list[int]
    n_fr: int

    def cluster_members(self, n_clusters: int) -> list[list[int]]:
        members: list[list[int]] = [[] for _ in range(n_clusters)]
        for user, q in sorted(self.rrh_users.items()):
            members[q].append(user)
        return members


@dataclass
class CachePlan:
    uav: int
    contents: tuple[int, ...]
    scores: np.ndarray  # per-content expected power saving


@dataclass
class PlacementResult:
    position: np.ndarray  # (3,)
    objective_w: float
    evaluations: int


def rrh_rate_threshold_bits(n_fr: int, device_req_bps, cfg: ScenarioConfig):
    """Per-slot rate floor for terrestrial admission when n_fr users share v_F.

    Returns inf when the shared fronthaul alone blows the delay budget.
    """
    wired_s = cfg.content_size_bits * n_fr / cfg.fronthaul_rate_bps
    return np.maximum(delay_rate_requirement_bits(cfg, wired_s),
                      np.asarray(device_req_bps, dtype=float) * cfg.slot_duration_s)


def associate_rrh(rates_bits, user_xy, device_req_bps, clusters: list[RrhCluster],
                  cfg: ScenarioConfig) -> AssociationPlan:
    """Admit the largest user set whose rates all clear the shared-fronthaul threshold.

    Candidates are ranked by predicted rate (ties by id) and placed on the
    nearest cluster with a free antenna; the admitted count is the fixed point
    of the admission condition, found by trying counts from the largest down.
    """
    rates = np.asarray(rates_bits, dtype=float)
    user_xy = np.asarray(user_xy, dtype=float)
    n_users = rates.shape[0]
    total_antennas = sum(c.n_antennas for c in clusters)
    order = sorted(range(n_users), key=lambda i: (-rates[i], i))
    centroids = [c.antennas.mean(axis=0) for c in clusters]

    for m in range(min(n_users, total_antennas), 0, -1):
        thresholds = rrh_rate_threshold_bits(m, device_req_bps, cfg)
        chosen: dict[int, int] = {}
        capacity = [c.n_antennas for c in clusters]
        for i in order:
            if len(chosen) == m:
                break
            if rates[i] < thresholds[i]:
                continue
            by_distance = sorted(range(len(clusters)),
                                 key=lambda q: (float(np.linalg.norm(user_xy[i] - centroids[q])), q))
            for q in by_distance:
                if capacity[q] > 0:
                    chosen[i] = q
                    capacity[q] -= 1
                    break
        if len(chosen) == m:
            pool = [i for i in range(n_users) if i not in chosen]
            return AssociationPlan(rrh_users=chosen, uav_pool=pool, n_fr=m)
    return AssociationPlan(rrh_users={}, uav_pool=list(range(n_users)), n_fr=0)


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


def delta_power_saving(pathloss_db, delay_req_cached_bits: float,
                       delay_req_uncached_bits: float, device_req_bps, n_served: int,
                       cfg: ScenarioConfig):
    """Per-interval power saved by caching one content for one user.

    An inf uncached requirement (the fronthaul leg leaves no delay budget)
    prices the uncached route at the cap.  Vectorized over path loss and
    device requirement.
    """
    dt = cfg.slot_duration_s
    p_cached, p_uncached = (
        min_uav_power_w(pathloss_db, qoe_rate_target_bps(req, device_req_bps, dt), n_served,
                        cfg.uav_bandwidth_hz, cfg.noise_power_w)
        for req in (delay_req_cached_bits, delay_req_uncached_bits))
    # Powers saturate at the cap: an infeasible or over-cap route spends P_max.
    cap = cfg.uav_max_power_w
    return np.minimum(p_uncached, cap) - np.minimum(p_cached, cap)


def select_cache(uav: int, probabilities, savings, cache_size: int) -> CachePlan:
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
    chosen = tuple(sorted(int(n) for n in order[:cache_size]))
    return CachePlan(uav=uav, contents=chosen, scores=scores)


# -- positioning ----------------------------------------------------------------


def _flatten_positions(user_pos) -> tuple[np.ndarray, int]:
    pos = np.asarray(user_pos, dtype=float)
    if pos.ndim == 2:
        pos = pos[:, None, :]
    if pos.ndim != 3 or pos.shape[2] != 2:
        raise ValueError(f"expected (n_users, n_intervals, 2) positions, got {pos.shape}")
    return pos, pos.shape[1]


def placement_objective(xyz, user_pos, rate_targets_bps, n_served: int,
                        p: ChannelParams, bandwidth_hz: float, noise_w: float) -> float:
    """Summed per-interval minimum power for one UAV position.

    Priced in linear units, sum_u (2**(r_u n / B) - 1) N0 sum_f loss[u, f]:
    within ``linalg.LINEAR_LOSS_RTOL`` of summing ``min_uav_power_w`` over the
    dB path losses, not bit for bit.  Searches only compare its values.
    """
    pos, _ = _flatten_positions(user_pos)
    scale = power_per_loss_w(rate_targets_bps, n_served, bandwidth_hz, noise_w)
    with np.errstate(over="ignore"):  # a loss or price past the float range is inf
        loss = uav_user_pathloss_linear(xyz, pos, p)
        return float(loss.sum(axis=1) @ scale)


def place_uav_closed_form(user_pos, rate_targets_bps, n_served: int,
                          bandwidth_hz: float) -> np.ndarray:
    """Weighted centroid of the served users' interval positions.

    Weights are the rate-dependent power prefactors (distance-independent
    factors cancel); shadowing enters at its zero mean so the placement is
    deterministic.  Weights that overflow to inf share the limit: the
    centroid of their users alone.
    """
    pos, _ = _flatten_positions(user_pos)
    if pos.shape[0] == 0:
        raise ValueError("cannot place a UAV for an empty user set")
    targets = np.asarray(rate_targets_bps, dtype=float)
    with np.errstate(over="ignore"):
        weights = 2.0 ** (targets * n_served / bandwidth_hz) - 1.0
    if np.isinf(weights).any():
        weights = np.isinf(weights).astype(float)
    w = np.repeat(weights, pos.shape[1])
    flat = pos.reshape(-1, 2)
    return (flat * w[:, None]).sum(axis=0) / w.sum()


def closed_form_regime(altitude_m: float, user_pos) -> str | None:
    """Classify an instance into the closed form's validity regimes.

    Returns "low" when the altitude is small against the users' spread,
    "high" when it dominates it, else None (use local search).
    """
    pos, _ = _flatten_positions(user_pos)
    flat = pos.reshape(-1, 2)
    center = flat.mean(axis=0)
    span = float(np.max(np.linalg.norm(flat - center, axis=1))) * 2.0
    if span <= 0.0:
        return "high"
    h2, s2 = altitude_m ** 2, span ** 2
    if h2 <= 0.01 * s2:
        return "low"
    if h2 >= 100.0 * s2:
        return "high"
    return None


def place_uav_local_search(user_pos, rate_targets_bps, init_xyz, n_served: int,
                           p: ChannelParams, bandwidth_hz: float, noise_w: float,
                           min_altitude_m: float, step_m: float = 3.0,
                           max_evals: int = 10_000) -> PlacementResult:
    """Coordinate descent over +/-step moves in x, y, altitude.

    Moves are accepted only on strict objective improvement; the scan order is
    x, then y, then altitude (floored), so the search is deterministic.  The
    objective at each exact position is computed once per search (a move and
    its reverse often land on a point already seen); every candidate still
    counts as an evaluation.
    """
    pos = np.asarray(init_xyz, dtype=float).copy()
    pos[2] = max(pos[2], min_altitude_m)
    seen: dict[bytes, float] = {}

    def objective(xyz):
        key = xyz.tobytes()
        if key not in seen:
            seen[key] = placement_objective(xyz, user_pos, rate_targets_bps, n_served,
                                            p, bandwidth_hz, noise_w)
        return seen[key]

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
    return PlacementResult(position=pos, objective_w=best, evaluations=evals)


def place_uav(user_pos, rate_targets_bps, init_xyz, n_served: int,
              cfg: ScenarioConfig) -> np.ndarray:
    """One UAV's position for its users' interval positions and rate targets.

    In the low regime most links are near the horizon, so the NLoS law rules
    and the power is close to a weighted sum of d**exponent_nlos: at exponent
    2 the weighted centroid at the altitude floor is its minimum, and at any
    other exponent the regime gives no closed form.  In the high regime the
    users' spread is negligible against the altitude, so the search starts
    from the centroid's xy at ``init_xyz``'s altitude; otherwise from ``init_xyz``.
    """
    regime = closed_form_regime(cfg.min_altitude_m, user_pos)
    if regime == "low" and cfg.pathloss.exponent_nlos != 2.0:
        regime = None
    if regime is not None:
        xy = place_uav_closed_form(user_pos, rate_targets_bps, n_served, cfg.uav_bandwidth_hz)
        if regime == "low":
            return np.array([xy[0], xy[1], cfg.min_altitude_m])
        init_xyz = np.array([xy[0], xy[1], init_xyz[2]])
    return place_uav_local_search(user_pos, rate_targets_bps, init_xyz, n_served, cfg.pathloss,
                                  cfg.uav_bandwidth_hz, cfg.noise_power_w,
                                  cfg.min_altitude_m).position
