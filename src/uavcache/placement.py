"""Optimizer stack: user association, clustering, cache selection, positioning.

The pipeline decomposes per slot: users whose predicted terrestrial rate meets
the admission threshold (which tightens as more users share the wired
fronthaul) stay on the radio heads; the rest are clustered and served by one
UAV per cluster.  Cache contents are chosen once per period to maximize the
expected transmit-power saving, and each UAV's position minimizes the summed
minimum transmit power toward its users.  :func:`place_uav` picks the method:
a weighted-centroid closed form where it is valid (the low/high altitude
regimes), 3 m coordinate descent elsewhere.  The descent prices its
candidates with one :class:`PlacementPricer` per search, on each user's
in-slot track at the slot's Gauss–Legendre nodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import pathloss_linear_into
from .config import ChannelParams, RandomSource, ScenarioConfig
from .qoe import (delay_rate_requirement_bits, min_uav_power_w, power_per_loss_w,
                  qoe_rate_target_bps, transfer_s)


@dataclass
class PlacementResult:
    position: np.ndarray  # (3,)
    objective_w: float
    evaluations: int


def wired_share_bits(n_sharers: int, cfg: ScenarioConfig) -> float:
    """Each sharer's bits per slot of the wired fronthaul v_F; inf, a 0 s leg, for none."""
    return cfg.fronthaul_rate_bps / n_sharers * cfg.slot_duration_s if n_sharers else math.inf


def rrh_rate_threshold_bits(n_fr: int, device_req_bps, cfg: ScenarioConfig, bound_s: float):
    """Per-slot rate floor for terrestrial admission when n_fr users share v_F.

    ``bound_s`` is ``qoe.delay_lower_bound_s``.  Returns inf when the shared
    fronthaul alone blows the delay budget.
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
    """
    rates = np.asarray(rates_bits, dtype=float)
    assigned = np.full(rates.shape[0], -1)
    capacity = np.array(antennas, dtype=int)
    for m in range(min(rates.shape[0], int(capacity.sum())), 0, -1):
        clears = np.flatnonzero(~(rates < rrh_rate_threshold_bits(m, device_req_bps, cfg,
                                                                   bound_s)))
        if clears.size >= m:
            break
    else:
        return assigned
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


def _gauss_legendre(m: int) -> tuple[np.ndarray, np.ndarray]:
    """The m-node Gauss–Legendre rule on [0, 1]: nodes, and weights that sum to 1.

    Golub–Welsch: the nodes on [-1, 1] are the eigenvalues of the Jacobi matrix
    with off-diagonal k / sqrt(4k² - 1), the weights 2 v0² of its eigenvectors v.
    """
    k = np.arange(1.0, m)
    nodes, vectors = np.linalg.eigh(np.diag(k / np.sqrt(4.0 * k * k - 1.0), 1), UPLO="U")
    return (nodes + 1.0) / 2.0, vectors[0] ** 2


# Where a slot's nodes fall, as fractions of the slot, and their weights.
NODE_OFFSETS, NODE_WEIGHTS = _gauss_legendre(QUADRATURE_NODES)


class PlacementPricer:
    """The placement objective of one user set, priced at one UAV position per call.

    The objective is the weighted per-point minimum power,
    sum_u (2**(r_u n / B) - 1) N0 sum_f w_f loss[u, f], in linear units: within
    ``linalg.LINEAR_LOSS_RTOL`` of summing ``min_uav_power_w`` over the dB
    path losses, not bit for bit.  Searches only compare its values.
    ``weights`` gives each position's share of the slot in intervals: 1 each by
    default (the interval sum), :data:`NODE_WEIGHTS` scaled to the interval
    count at a slot's quadrature nodes.

    The price vector and the contiguous x and y planes, which depend only on
    the users, are built once; a call's squared offsets are its work buffers.
    """

    def __init__(self, user_pos, rate_targets_bps, n_served: int, p: ChannelParams,
                 bandwidth_hz: float, noise_w: float, weights=1.0):
        pos = _flatten_positions(user_pos)
        self.planes = (np.ascontiguousarray(pos[..., 0]), np.ascontiguousarray(pos[..., 1]))
        self.price = power_per_loss_w(rate_targets_bps, n_served, bandwidth_hz, noise_w)
        self.weights = weights
        self.p = p

    def __call__(self, xyz) -> float:
        x, y, z = np.asarray(xyz, dtype=float)
        with np.errstate(over="ignore"):  # a loss or price past the float range is inf
            sq_x, sq_y = np.square(self.planes[0] - x), np.square(self.planes[1] - y)
            loss = pathloss_linear_into(sq_x, sq_y, z, self.p, sq_x, sq_y)
            return float(np.multiply(loss, self.weights, out=loss).sum(axis=1) @ self.price)


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


def place_uav_local_search(user_pos, rate_targets_bps, init_xyz, n_served: int,
                           p: ChannelParams, bandwidth_hz: float, noise_w: float,
                           min_altitude_m: float, step_m: float = 3.0,
                           max_evals: int = 10_000, weights=1.0) -> PlacementResult:
    """Coordinate descent over +/-step moves in x, y, altitude.

    Moves are accepted only on strict objective improvement; the scan order is
    x, then y, then altitude (floored), so the search is deterministic.  The
    objective at each exact position is computed once per search (a move and
    its reverse often land on a point already seen); every candidate still
    counts as an evaluation.  One :class:`PlacementPricer` prices them all.
    """
    pos = np.asarray(init_xyz, dtype=float).copy()
    pos[2] = max(pos[2], min_altitude_m)
    price = PlacementPricer(user_pos, rate_targets_bps, n_served, p, bandwidth_hz, noise_w, weights)
    seen: dict[bytes, float] = {}

    def objective(xyz):
        key = xyz.tobytes()
        if key not in seen:
            seen[key] = price(xyz)
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
              cfg: ScenarioConfig, weights=1.0) -> np.ndarray:
    """One UAV's position for its users' positions, weighted as the pricer's, and rate targets.

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
        xy = place_uav_closed_form(user_pos, rate_targets_bps, n_served, cfg.uav_bandwidth_hz,
                                   weights)
        if regime == "low":
            return np.array([xy[0], xy[1], cfg.min_altitude_m])
        init_xyz = np.array([xy[0], xy[1], init_xyz[2]])
    return place_uav_local_search(user_pos, rate_targets_bps, init_xyz, n_served, cfg.pathloss,
                                  cfg.uav_bandwidth_hz, cfg.noise_power_w,
                                  cfg.min_altitude_m, weights=weights).position
