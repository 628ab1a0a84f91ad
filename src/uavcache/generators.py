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

from dataclasses import dataclass

import numpy as np

from .config import ConfigError, RandomSource, ScenarioConfig

WEEKDAYS_PER_WEEK = 5
DAYS_PER_WEEK = 7
DAY_TYPES = ("weekday", "weekend")
# Narrative working hours (fraction of the day) during which work-class
# contents are boosted: mirrors 9:00-11:00 and 14:00-18:00 on a 24 h clock.
WORK_HOUR_WINDOWS = ((9 / 24, 11 / 24), (14 / 24, 18 / 24))


def day_type(day: int) -> int:
    return 0 if day % DAYS_PER_WEEK < WEEKDAYS_PER_WEEK else 1


def is_work_subperiod(sub: int, n_sub: int) -> bool:
    frac = (sub + 0.5) / n_sub
    return any(lo <= frac < hi for lo, hi in WORK_HOUR_WINDOWS)


def track_positions(tracks: np.ndarray, users, slot: int, n_intervals: int,
                    slots_per_collection: int) -> np.ndarray:
    """Per-interval positions within one slot, sampled at interval midpoints.

    ``tracks`` is (n_users, n_points, 2), one collected waypoint every
    ``slots_per_collection`` slots, and ``slot`` counts from its first point.
    Users move at constant speed between waypoints and hold the last one past
    the track's end.  One user id gives (n_intervals, 2), a sequence of ids
    (len(users), n_intervals, 2).
    """
    h = slots_per_collection
    g = slot + (np.arange(n_intervals) + 0.5) / n_intervals
    c = (g // h).astype(int)
    last = tracks.shape[1] - 1
    lo, hi = np.minimum(c, last), np.minimum(c + 1, last)
    first, stop = int(np.min(lo)), int(np.max(hi)) + 1
    rows = tracks[:, first:stop][np.asarray(users, dtype=np.intp)]
    weight = np.repeat(((g - c * h) / h)[:, None], 2, axis=1)  # same for x and y
    a = np.take(rows, lo - first, axis=-2)
    b = np.take(rows, hi - first, axis=-2)
    a *= 1.0 - weight
    b *= weight
    return np.add(a, b, out=a)


@dataclass
class UserProfile:
    gender: int
    occupation: int
    age_group: int
    device: int
    screen_factor: float
    demo_feature: float
    device_feature: float


class SyntheticWorld:
    """Deterministic ground truth for one scenario (seeded by the config)."""

    def __init__(self, cfg: ScenarioConfig):
        self.cfg = cfg
        self.n_sub = cfg.slots_per_cache_period // cfg.slots_per_collection
        self.horizon_days = cfg.generators.training_weeks * DAYS_PER_WEEK + DAYS_PER_WEEK
        self.rs = RandomSource(cfg.seed).derive("world")
        self._build_profiles()
        self._build_mobility()
        self._build_requests()
        self._build_infrastructure()

    # -- users -----------------------------------------------------------------

    def _build_profiles(self) -> None:
        cfg = self.cfg
        rng = self.rs.derive("profiles").generator()
        profiles = []
        for _ in range(cfg.num_users):
            gender = int(rng.integers(2))
            occupation = int(rng.integers(4))
            age_group = int(rng.integers(3))
            device = int(rng.integers(len(cfg.screen_factors)))
            demo = ((gender * 2 - 1) * 0.3
                    + (occupation / 3 * 2 - 1) * 0.4
                    + (age_group / 2 * 2 - 1) * 0.3)
            device_feature = device / max(1, len(cfg.screen_factors) - 1) * 2 - 1
            profiles.append(UserProfile(
                gender=gender, occupation=occupation, age_group=age_group,
                device=device, screen_factor=cfg.screen_factors[device],
                demo_feature=demo, device_feature=device_feature))
        self.profiles = profiles

    def screen_factor(self, user: int) -> float:
        return self.profiles[user].screen_factor

    def context_features(self, user: int, global_slot: int) -> np.ndarray:
        """Reservoir input: day phase (sin, cos) plus static demographics."""
        t = self.cfg.slots_per_cache_period
        phase = 2.0 * np.pi * (global_slot % t) / t
        prof = self.profiles[user]
        return np.array([np.sin(phase), np.cos(phase), prof.demo_feature, prof.device_feature])

    def mobility_features(self, user: int, global_slot: int) -> np.ndarray:
        """Context plus a scalar projection of the current position."""
        pos = self.position_at(user, global_slot, 0.0)
        proj = (pos[0] + pos[1]) / (2.0 * self.cfg.area_radius_m)
        return np.concatenate([self.context_features(user, global_slot), [proj]])

    # -- mobility ---------------------------------------------------------------

    def _draw_in_disk(self, rng, radius: float) -> np.ndarray:
        r = radius * np.sqrt(rng.random())
        theta = rng.random() * 2.0 * np.pi
        return np.array([r * np.cos(theta), r * np.sin(theta)])

    def _build_mobility(self) -> None:
        cfg = self.cfg
        g = cfg.generators
        n_sub = self.n_sub
        anchor_rng = self.rs.derive("anchors").generator()
        inner = 0.9 * cfg.area_radius_m
        # Narrative clock: one collection interval corresponds to one hour.
        max_step = min(g.speed_max_mps * 3600.0, 2.0 * cfg.area_radius_m)

        self._schedules = []  # per user, per day type: anchor index per collection
        self._anchors = []  # per user: (n_anchors, 2)
        for _ in range(cfg.num_users):
            home = self._draw_in_disk(anchor_rng, inner)
            anchors = [home]
            for _ in range(max(1, g.waypoints_per_day - 1) * len(DAY_TYPES)):
                target = self._draw_in_disk(anchor_rng, inner)
                step = target - home
                dist = np.linalg.norm(step)
                if dist > max_step:
                    target = home + step / dist * max_step
                anchors.append(target)
            anchors = np.array(anchors)
            per_type = []
            for dt_idx in range(len(DAY_TYPES)):
                # Home at the edges of the day, day-type-specific anchors in a
                # middle block whose width scales with the waypoint count.  A
                # single-waypoint schedule keeps the user at home all day.
                schedule = np.zeros(n_sub, dtype=int)
                if g.waypoints_per_day > 1:
                    away = [1 + dt_idx * (g.waypoints_per_day - 1) + w
                            for w in range(g.waypoints_per_day - 1)]
                    lo, hi = n_sub // 4, max(n_sub // 4 + 1, (3 * n_sub) // 4)
                    block = max(1, (hi - lo) // len(away))
                    for c in range(lo, min(hi, n_sub)):
                        schedule[c] = away[min((c - lo) // block, len(away) - 1)]
                per_type.append(schedule)
            self._schedules.append(per_type)
            self._anchors.append(anchors)

        n_collections = self.horizon_days * n_sub + 1
        noise_rng = self.rs.derive("waypoint-noise").generator()
        noise = noise_rng.normal(0.0, g.position_noise_m,
                                 (cfg.num_users, n_collections, 2)) if g.position_noise_m > 0 \
            else np.zeros((cfg.num_users, n_collections, 2))

        self._collections = np.empty((cfg.num_users, n_collections, 2))
        for u in range(cfg.num_users):
            for c in range(n_collections):
                day = (c * cfg.slots_per_collection) // cfg.slots_per_cache_period
                c_in_day = c % n_sub
                anchor = self._anchors[u][self._schedules[u][day_type(day)][c_in_day]]
                pos = anchor + noise[u, c]
                radius = np.linalg.norm(pos)
                if radius > cfg.area_radius_m:
                    pos = pos * (cfg.area_radius_m / radius)
                self._collections[u, c] = pos

    def collection_position(self, user: int, collection: int) -> np.ndarray:
        return self._collections[user, min(collection, self._collections.shape[1] - 1)]

    def position_at(self, user: int, global_slot: int, slot_fraction: float) -> np.ndarray:
        """Constant-speed interpolation between the surrounding collected waypoints."""
        h = self.cfg.slots_per_collection
        g = global_slot + slot_fraction
        c = int(g // h)
        frac = (g - c * h) / h
        a = self.collection_position(user, c)
        b = self.collection_position(user, c + 1)
        return (1.0 - frac) * a + frac * b

    def interval_positions(self, users, global_slot: int, n_intervals: int) -> np.ndarray:
        """True per-interval positions within one slot (see :func:`track_positions`)."""
        return track_positions(self._collections, users, global_slot, n_intervals,
                               self.cfg.slots_per_collection)

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
            n_occupations = max((p.occupation for p in self.profiles), default=0) + 1
            taste = base_rng.normal(0.0, g.taste_spread, (n_occupations, n))
            self._base_weights = np.empty((cfg.num_users, n))
            for u in range(cfg.num_users):
                self._base_weights[u] = zipf * np.exp(taste[self.profiles[u].occupation])
            # Exact per-sub-period distributions (the prediction oracle).
            self._distributions = np.empty((cfg.num_users, self.n_sub, n))
            for sub in range(self.n_sub):
                work_now = is_work_subperiod(sub, self.n_sub)
                boost = np.where(self._work_class == work_now, g.work_hour_boost, 1.0)
                w = self._base_weights * boost[None, :]
                self._distributions[:, sub, :] = w / w.sum(axis=1, keepdims=True)
        if not np.isfinite(self._distributions).all():
            raise ConfigError(["generators.request_concentration/taste_spread/work_hour_boost: "
                               "the request weights overflow to a non-finite distribution"])

        n_slots = self.horizon_days * cfg.slots_per_cache_period
        sample_rng = self.rs.derive("request-samples").generator()
        self._request_uniforms = sample_rng.random((cfg.num_users, n_slots, 2))

    def request_distribution(self, user: int, sub: int) -> np.ndarray:
        return self._distributions[user, sub]

    def subperiod_of_slot(self, global_slot: int) -> int:
        t = self.cfg.slots_per_cache_period
        return (global_slot % t) // self.cfg.slots_per_collection

    def request_at(self, user: int, global_slot: int) -> int | None:
        gate, u = self._request_uniforms[user, global_slot]
        if gate >= self.cfg.generators.request_probability:
            return None
        p = self._distributions[user, self.subperiod_of_slot(global_slot)]
        return int(np.searchsorted(np.cumsum(p), u * p.sum()))

    # -- infrastructure ------------------------------------------------------------

    def _build_infrastructure(self) -> None:
        cfg = self.cfg
        rng = self.rs.derive("rrh").generator()
        self.bbu_xy = np.zeros(2)
        self.rrh_xy = np.array([self._draw_in_disk(rng, cfg.area_radius_m)
                                for _ in range(cfg.num_rrhs)])

    @property
    def training_days(self) -> int:
        return self.cfg.generators.training_weeks * DAYS_PER_WEEK

    @property
    def first_sim_day(self) -> int:
        return self.training_days
