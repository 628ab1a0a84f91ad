"""Synthetic mobility, context, and content-request generation.

The generators own the ground truth the predictors are measured against: every
sampled request comes from an exactly known per-sub-period distribution, and
every trajectory from an exactly known waypoint schedule.

Time hierarchy: a slot is split into F intervals; H slots form one collection
interval (the narrative "hour", when user locations are collected); one cache
period of T slots is one synthetic day with T/H sub-periods; days cycle weekly
with weekday and weekend variants.

Mobility: each user commutes between per-day-type anchor locations, moving at
constant speed between consecutive collected waypoints; every collected
waypoint carries Gaussian position noise.  Requests: a user-specific
concentrated ranking over the catalog, reshaped by the hour of day (work-class
contents are boosted during working hours, entertainment outside them).
"""

from __future__ import annotations

import numpy as np

from .config import ConfigError, RandomSource, ScenarioConfig

WEEKDAYS_PER_WEEK = 5
DAYS_PER_WEEK = 7
DAY_TYPES = ("weekday", "weekend")
# Narrative working hours (fraction of the day) during which work-class
# contents are boosted: mirrors 9:00-11:00 and 14:00-18:00 on a 24 h clock.
WORK_HOUR_WINDOWS = ((9 / 24, 11 / 24), (14 / 24, 18 / 24))


def day_type(day):
    """0 on a weekday, 1 on the weekend; ``day`` may be an integer array."""
    return day % DAYS_PER_WEEK // WEEKDAYS_PER_WEEK


def is_work_subperiod(sub: int, n_sub: int) -> bool:
    frac = (sub + 0.5) / n_sub
    return any(lo <= frac < hi for lo, hi in WORK_HOUR_WINDOWS)


def track_positions(tracks: np.ndarray, users, times, slots_per_collection: int) -> np.ndarray:
    """Positions at absolute slot times ``times`` (a 1-D sequence of floats).

    ``tracks`` is (n_users, n_points, 2), one collected waypoint every
    ``slots_per_collection`` slots, and ``times`` count from its first point.
    Users move at constant speed between waypoints and hold the last one past
    the track's end.  One user id gives (len(times), 2), a sequence of ids
    (len(users), len(times), 2).  A slot's interval midpoints are
    ``slot + (np.arange(F) + 0.5) / F``.
    """
    h = slots_per_collection
    g = np.asarray(times, dtype=float)
    c = (g // h).astype(int)
    last = tracks.shape[1] - 1
    lo, hi = np.minimum(c, last), np.minimum(c + 1, last)
    first, stop = int(np.min(lo)), int(np.max(hi)) + 1
    users = np.asarray(users, dtype=np.intp)
    weight = (g - c * h) / h
    out = np.empty((*users.shape, g.size, 2))
    # x, then y: each a (..., waypoints) plane, interpolated through one work buffer.
    # Every index is in range, and mode="clip" lets take write into the buffer unbuffered.
    rows, work = tracks[users, first:stop], np.empty(out.shape[:-1])
    for axis in (0, 1):
        plane, into = rows[..., axis], out[..., axis]
        np.multiply(np.take(plane, lo - first, axis=-1, out=work, mode="clip"), 1.0 - weight,
                    out=into)
        b = np.take(plane, hi - first, axis=-1, out=work, mode="clip")
        np.add(into, np.multiply(b, weight, out=work), out=into)
    return out


def point_norms(points: np.ndarray) -> np.ndarray:
    """Euclidean norm of each point along the last axis.

    Each norm equals ``np.linalg.norm`` of that point alone, bit for bit; the
    ``axis=-1`` form rounds differently.
    """
    return np.sqrt((points[..., None, :] @ points[..., :, None])[..., 0, 0])


def _draw_in_disk(rng, radius: float, shape: tuple[int, ...]) -> np.ndarray:
    """Uniform points in a disk, (*shape, 2); each takes two uniforms, radius then angle."""
    draws = rng.random((*shape, 2))
    r = radius * np.sqrt(draws[..., 0])
    theta = draws[..., 1] * 2.0 * np.pi
    return np.stack([r * np.cos(theta), r * np.sin(theta)], axis=-1)


class SyntheticWorld:
    """Deterministic ground truth for one scenario (seeded by the config).

    The truth is held in arrays, one per quantity:

    * ``requests`` (U, n_slots): the content each user requests in each slot
      of the horizon, -1 for an idle slot;
    * ``distributions`` (U, n_sub, F): the exact request distribution of each
      user and sub-period, the one ``requests`` is drawn from;
    * ``collections`` (U, n_collections, 2): each user's collected waypoints,
      one every ``slots_per_collection`` slots;
    * ``screen_factors`` (U,): each user's device screen factor, beside the
      other per-user profile arrays ``occupations``, ``demo_features`` and
      ``device_features``.

    Training uses the first ``training_days`` days; the period simulated is
    the day that follows them, from slot ``period_slot0`` on.
    """

    def __init__(self, cfg: ScenarioConfig):
        self.cfg = cfg
        self.n_sub = cfg.slots_per_cache_period // cfg.slots_per_collection
        self.training_days = cfg.generators.training_weeks * DAYS_PER_WEEK
        self.horizon_days = self.training_days + DAYS_PER_WEEK
        self.period_slot0 = self.training_days * cfg.slots_per_cache_period
        self.rs = RandomSource(cfg.seed).derive("world")
        self._build_profiles()
        self._build_mobility()
        self._build_requests()
        self.bbu_xy = np.zeros(2)
        self.rrh_xy = _draw_in_disk(self.rs.derive("rrh").generator(), cfg.area_radius_m,
                                    (cfg.num_rrhs,))

    # -- users -----------------------------------------------------------------

    def _build_profiles(self) -> None:
        cfg = self.cfg
        rng = self.rs.derive("profiles").generator()
        n_devices = len(cfg.screen_factors)
        # One user at a time: gender, occupation, age group, device.
        draws = np.array([[rng.integers(n) for n in (2, 4, 3, n_devices)]
                          for _ in range(cfg.num_users)], dtype=int).reshape(-1, 4)
        gender, self.occupations, age_group, device = draws.T
        self.demo_features = ((gender * 2 - 1) * 0.3
                              + (self.occupations / 3 * 2 - 1) * 0.4
                              + (age_group / 2 * 2 - 1) * 0.3)
        self.device_features = device / max(1, n_devices - 1) * 2 - 1
        self.screen_factors = np.array(cfg.screen_factors, dtype=float)[device]

    def context_features(self, user: int, slots) -> np.ndarray:
        """Reservoir inputs, one row per absolute slot: day phase (sin, cos) plus demographics."""
        t = self.cfg.slots_per_cache_period
        phase = 2.0 * np.pi * (np.asarray(slots) % t) / t
        return np.column_stack([np.sin(phase), np.cos(phase),
                                np.full(phase.shape, self.demo_features[user]),
                                np.full(phase.shape, self.device_features[user])])

    # -- mobility ---------------------------------------------------------------

    def _build_mobility(self) -> None:
        cfg = self.cfg
        g = cfg.generators
        n_sub = self.n_sub
        n_away = max(1, g.waypoints_per_day - 1)  # anchors per day type besides home
        # Narrative clock: one collection interval corresponds to one hour.
        max_step = min(g.speed_max_mps * 3600.0, 2.0 * cfg.area_radius_m)

        # Per user: home, then each day type's anchors, pulled to within max_step of home.
        anchors = _draw_in_disk(self.rs.derive("anchors").generator(), 0.9 * cfg.area_radius_m,
                                (cfg.num_users, 1 + n_away * len(DAY_TYPES)))
        home = np.broadcast_to(anchors[:, :1], anchors[:, 1:].shape)
        step = anchors[:, 1:] - home
        dist = point_norms(step)
        far = dist > max_step
        anchors[:, 1:][far] = home[far] + step[far] / dist[far][:, None] * max_step

        # Anchor index per day type and collection of the day: home at the edges
        # of the day, the day type's anchors in a middle block whose width scales
        # with the waypoint count.  A single-waypoint schedule stays home all day.
        schedule = np.zeros((len(DAY_TYPES), n_sub), dtype=int)
        if g.waypoints_per_day > 1:
            lo, hi = n_sub // 4, max(n_sub // 4 + 1, (3 * n_sub) // 4)
            block = max(1, (hi - lo) // n_away)
            c = np.arange(lo, min(hi, n_sub))
            schedule[:, c] = (1 + np.arange(len(DAY_TYPES))[:, None] * n_away
                              + np.minimum((c - lo) // block, n_away - 1))

        n_collections = self.horizon_days * n_sub + 1
        noise_rng = self.rs.derive("waypoint-noise").generator()
        noise = noise_rng.normal(0.0, g.position_noise_m,
                                 (cfg.num_users, n_collections, 2)) if g.position_noise_m > 0 \
            else np.zeros((cfg.num_users, n_collections, 2))

        c = np.arange(n_collections)
        day = (c * cfg.slots_per_collection) // cfg.slots_per_cache_period
        collections = anchors[:, schedule[day_type(day), c % n_sub]] + noise
        radius = point_norms(collections)
        out = radius > cfg.area_radius_m  # pulled back onto the disk edge
        collections[out] *= (cfg.area_radius_m / radius[out])[:, None]
        self.collections = collections

    def position_at(self, users, times) -> np.ndarray:
        """True positions at absolute slot times (see :func:`track_positions`)."""
        return track_positions(self.collections, users, times, self.cfg.slots_per_collection)

    def interval_positions(self, users, global_slot: int, n_intervals: int) -> np.ndarray:
        """True positions at the interval midpoints of one slot."""
        return self.position_at(users, global_slot + (np.arange(n_intervals) + 0.5) / n_intervals)

    # -- requests ----------------------------------------------------------------

    def _build_requests(self) -> None:
        cfg = self.cfg
        g = cfg.generators
        n = cfg.num_contents
        self._work_class = np.arange(n) >= n // 2

        # One global popularity order, tilted per occupation group so users with
        # the same background lean toward the same contents.
        base_rng = self.rs.derive("request-base").generator()
        perm = base_rng.permutation(n)
        ranks = np.empty(n)
        ranks[perm] = np.arange(1, n + 1)
        # A rejected setting overflows here; the check below turns it into a ConfigError.
        with np.errstate(over="ignore", invalid="ignore"):
            zipf = ranks ** (-g.request_concentration)
            taste = base_rng.normal(0.0, g.taste_spread, (self.occupations.max(initial=0) + 1, n))
            base_weights = zipf * np.exp(taste[self.occupations])
            # Exact per-sub-period distributions (the prediction oracle).
            self.distributions = np.empty((cfg.num_users, self.n_sub, n))
            for sub in range(self.n_sub):
                work_now = is_work_subperiod(sub, self.n_sub)
                boost = np.where(self._work_class == work_now, g.work_hour_boost, 1.0)
                w = base_weights * boost[None, :]
                self.distributions[:, sub, :] = w / w.sum(axis=1, keepdims=True)
        if not np.isfinite(self.distributions).all():
            raise ConfigError(["generators.request_concentration/taste_spread/work_hour_boost: "
                               "the request weights overflow to a non-finite distribution"])

        # Per slot two uniforms: a gate against request_probability, then an
        # inverse-CDF draw from the slot's sub-period distribution.  One user at
        # a time, so that no temporary grows with the user count.
        shape = (self.horizon_days, self.n_sub, cfg.slots_per_collection)  # day, sub-period, slot
        sample_rng = self.rs.derive("request-samples").generator()
        self.requests = np.empty((cfg.num_users, *shape), dtype=np.intp)
        for user, p in enumerate(self.distributions):
            gate, level = np.moveaxis(sample_rng.random((*shape, 2)), -1, 0)
            cdf, total = np.cumsum(p, axis=1), p.sum(axis=1)
            for sub in range(self.n_sub):
                self.requests[user, :, sub] = np.searchsorted(cdf[sub], level[:, sub] * total[sub])
            self.requests[user][gate >= g.request_probability] = -1
        self.requests = self.requests.reshape(cfg.num_users,
                                              self.horizon_days * cfg.slots_per_cache_period)
