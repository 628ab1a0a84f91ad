"""Prediction front-ends for the slot pipeline, plus model training.

Two interchangeable predictors feed the optimizer: the oracle reads the
generator's exact distributions and trajectories (isolating the optimizer from
prediction error), while the ESN predictor replays trained conceptor patterns.
Both answer the same two questions for the period being planned: each user's
request distribution per sub-period, and each user's positions within any slot,
one point per interval.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from . import cesn
from .config import RandomSource, ScenarioConfig
from .generators import DAY_TYPES, SyntheticWorld, day_type, point_norms, track_positions


# -- training data assembly -----------------------------------------------------


def content_pattern_data(world: SyntheticWorld, user: int, sub: int,
                         max_len: int) -> tuple[np.ndarray, np.ndarray]:
    """Context inputs and one-hot request targets for one sub-period pattern.

    One row per requesting slot of sub-period ``sub`` over the training days;
    the last ``max_len`` rows.
    """
    cfg = world.cfg
    t, h = cfg.slots_per_cache_period, cfg.slots_per_collection
    slots = (np.arange(world.training_days)[:, None] * t + sub * h + np.arange(h)).ravel()
    requests = world.requests[user, slots]
    active = requests >= 0
    slots, requests = slots[active][-max_len:], requests[active][-max_len:]
    targets = np.zeros((len(slots), cfg.num_contents))
    targets[np.arange(len(slots)), requests] = 1.0
    return world.context_features(user, slots), targets


def mobility_pattern_data(world: SyntheticWorld, user: int, dtype_idx: int,
                          max_len: int) -> tuple[np.ndarray, np.ndarray]:
    """Mobility inputs and stacked future-waypoint targets for one day type.

    An input is the slot's context plus a scalar projection of the user's
    position at the slot's start; a target, the next ``esn.horizon`` collected
    waypoints (held at the last one), scaled by the area radius.
    """
    cfg = world.cfg
    t, h = cfg.slots_per_cache_period, cfg.slots_per_collection
    days = np.arange(world.training_days)
    days = days[day_type(days) == dtype_idx]
    slots = (days[:, None] * t + np.arange(t)).ravel()[-max_len:]
    pos = world.position_at(user, slots.astype(float))
    proj = (pos[:, 0] + pos[:, 1]) / (2.0 * cfg.area_radius_m)
    inputs = np.column_stack([world.context_features(user, slots), proj])
    ahead = slots[:, None] // h + 1 + np.arange(cfg.esn.horizon)
    ahead = np.minimum(ahead, world.collections.shape[1] - 1)
    targets = world.collections[user, ahead].reshape(len(slots), -1) / cfg.area_radius_m
    return inputs, targets


def train_content_model(cfg: ScenarioConfig, world: SyntheticWorld,
                        user: int) -> tuple[cesn.EsnModel, list[dict]]:
    """One request-distribution model per user: one pattern per sub-period.

    Like ``train_mobility_model``, it returns a released, recall-only model.
    """
    n_context = world.context_features(user, [0]).shape[1]
    rs = RandomSource(cfg.seed).derive(f"esn-content-{user}")
    model = cesn.EsnModel(cfg.esn, n_context, cfg.num_contents, rs)
    reports = []
    for sub in range(world.n_sub):
        inputs, targets = content_pattern_data(world, user, sub, cfg.esn.training_length)
        reports.append(model.load_pattern(inputs, targets))
    model.train_readout()
    model.release_training_state()
    return model, reports


def train_mobility_model(cfg: ScenarioConfig, world: SyntheticWorld,
                         user: int) -> tuple[cesn.EsnModel, list[dict]]:
    """One trajectory model per user: one pattern per day type."""
    n_context = world.context_features(user, [0]).shape[1] + 1  # plus the position projection
    rs = RandomSource(cfg.seed).derive(f"esn-mobility-{user}")
    model = cesn.EsnModel(cfg.esn, n_context, 2 * cfg.esn.horizon, rs)
    reports = []
    for dtype_idx in range(len(DAY_TYPES)):
        inputs, targets = mobility_pattern_data(world, user, dtype_idx, cfg.esn.training_length)
        reports.append(model.load_pattern(inputs, targets))
    model.train_readout()
    model.release_training_state()
    return model, reports


# -- predictors -------------------------------------------------------------------


class OraclePredictor:
    """Feeds the optimizer the generator's exact ground truth."""

    def __init__(self, world: SyntheticWorld):
        self.world = world
        self.distributions = world.distributions

    def slot_positions(self, users, global_slot: int, n_intervals: int) -> np.ndarray:
        return self.world.interval_positions(users, global_slot, n_intervals)

    def gap_metrics(self) -> dict:
        return {"position_error_m": 0.0, "distribution_tv": 0.0}


class EsnPredictor:
    """Replays each user's stored patterns to plan the simulated period.

    Request distributions (``distributions``, (U, n_sub, F)) come from
    conceptor recall of the sub-period patterns; trajectories from the
    mobility pattern of the planned day's type, re-anchored at the user's last
    collected position and interpolated between predicted collection points
    exactly like the mobility model itself moves users.

    The models are taken by user index, each once, and none is kept: a lazy
    sequence that reads each model when indexed lets the predictor hold one
    user's two models at a time.
    """

    def __init__(self, world: SyntheticWorld, content_models: Sequence[cesn.EsnModel],
                 mobility_models: Sequence[cesn.EsnModel]):
        cfg = world.cfg
        self.world = world
        t, h = cfg.slots_per_cache_period, cfg.slots_per_collection
        n_sub = world.n_sub
        self.day_start_slot = world.training_days * t
        self.distributions = np.empty((cfg.num_users, n_sub, cfg.num_contents))
        self._collections = np.empty((cfg.num_users, n_sub + 1, 2))
        self._collections[:, 0] = world.collections[:, self.day_start_slot // h]
        # a user's models live only through their _replay_user call
        for u in range(cfg.num_users):
            self._replay_user(u, content_models[u], mobility_models[u])

    def _replay_user(self, u: int, content: cesn.EsnModel, mobility: cesn.EsnModel) -> None:
        cfg = self.world.cfg
        t, h = cfg.slots_per_cache_period, cfg.slots_per_collection
        for sub in range(self.world.n_sub):
            self.distributions[u, sub] = cesn.predict_request_distribution(
                content, sub, steps=h, warmup=h)
        # Replay one full warmup day, then read each upcoming collection
        # point from the interior of its preceding sub-period (the replayed
        # readout smooths the step transitions at collection boundaries).
        track = cesn.predict_locations(mobility, day_type(self.world.training_days),
                                       steps=2 * t, area_radius_m=cfg.area_radius_m)
        for c in range(1, self.world.n_sub + 1):
            lo = t + (c - 1) * h + 1
            hi = max(lo + 1, t + c * h - 1)
            self._collections[u, c] = track[lo:hi, 0].mean(axis=0)

    def slot_positions(self, users, global_slot: int, n_intervals: int) -> np.ndarray:
        """Predicted per-interval positions within one slot of the planned day.

        Shapes as :func:`~uavcache.generators.track_positions`.  A slot of the
        day never reaches past the predicted track's last point.
        """
        times = global_slot - self.day_start_slot + (np.arange(n_intervals) + 0.5) / n_intervals
        return track_positions(self._collections, users, times,
                               self.world.cfg.slots_per_collection)

    def gap_metrics(self) -> dict:
        """Mean prediction error against the generator truth for the planned day."""
        world = self.world
        first = self.day_start_slot // world.cfg.slots_per_collection
        truth = world.collections[:, first + 1:first + world.n_sub + 1]
        tv = 0.5 * np.abs(self.distributions - world.distributions).sum(axis=2)
        return {"position_error_m": float(point_norms(self._collections[:, 1:] - truth).mean()),
                "distribution_tv": float(tv.mean())}
