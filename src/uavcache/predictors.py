"""Prediction front-ends for the slot pipeline, plus model training.

Two interchangeable predictors feed the optimizer: the oracle reads the
generator's exact distributions and trajectories (isolating the optimizer from
prediction error), while the ESN predictor replays trained conceptor patterns.
Both answer the same two questions for the period being planned: each user's
request distribution per sub-period, and each user's positions within any slot,
one point per interval.
"""

from __future__ import annotations

import numpy as np

from . import cesn
from .config import RandomSource, ScenarioConfig
from .generators import DAY_TYPES, SyntheticWorld, day_type, track_positions


# -- training data assembly -----------------------------------------------------


def content_pattern_data(world: SyntheticWorld, user: int, sub: int,
                         max_len: int) -> tuple[np.ndarray, np.ndarray]:
    """Context inputs and one-hot request targets for one sub-period pattern."""
    cfg = world.cfg
    t, h = cfg.slots_per_cache_period, cfg.slots_per_collection
    inputs, targets = [], []
    for day in range(world.training_days):
        for s in range(h):
            gs = day * t + sub * h + s
            request = world.request_at(user, gs)
            if request is None:
                continue
            inputs.append(world.context_features(user, gs))
            one_hot = np.zeros(cfg.num_contents)
            one_hot[request] = 1.0
            targets.append(one_hot)
    inputs, targets = np.array(inputs), np.array(targets)
    return inputs[-max_len:], targets[-max_len:]


def mobility_pattern_data(world: SyntheticWorld, user: int, dtype_idx: int,
                          max_len: int) -> tuple[np.ndarray, np.ndarray]:
    """Mobility inputs and stacked future-waypoint targets for one day type.

    An input is the slot's context plus a scalar projection of the user's
    position at the slot's start.
    """
    cfg = world.cfg
    t, h = cfg.slots_per_cache_period, cfg.slots_per_collection
    slots = [day * t + s for day in range(world.training_days)
             if day_type(day) == dtype_idx for s in range(t)][-max_len:]
    pos = world.position_at(user, np.array(slots, dtype=float))
    proj = (pos[:, 0] + pos[:, 1]) / (2.0 * cfg.area_radius_m)
    inputs = np.column_stack([[world.context_features(user, gs) for gs in slots], proj])
    targets = np.array([
        np.concatenate([world.collection_position(user, gs // h + 1 + j)
                        for j in range(cfg.esn.horizon)]) / cfg.area_radius_m
        for gs in slots])
    return inputs, targets


def train_content_model(cfg: ScenarioConfig, world: SyntheticWorld,
                        user: int) -> tuple[cesn.EsnModel, list[dict]]:
    """One request-distribution model per user: one pattern per sub-period."""
    n_context = len(world.context_features(user, 0))
    rs = RandomSource(cfg.seed).derive(f"esn-content-{user}")
    model = cesn.EsnModel(cfg.esn, n_context, cfg.num_contents, rs)
    reports = []
    for sub in range(world.n_sub):
        inputs, targets = content_pattern_data(world, user, sub, cfg.esn.training_length)
        reports.append(model.load_pattern(inputs, targets))
    model.train_readout()
    return model, reports


def train_mobility_model(cfg: ScenarioConfig, world: SyntheticWorld,
                         user: int) -> tuple[cesn.EsnModel, list[dict]]:
    """One trajectory model per user: one pattern per day type."""
    n_context = len(world.context_features(user, 0)) + 1  # plus the position projection
    rs = RandomSource(cfg.seed).derive(f"esn-mobility-{user}")
    model = cesn.EsnModel(cfg.esn, n_context, 2 * cfg.esn.horizon, rs)
    reports = []
    for dtype_idx in range(len(DAY_TYPES)):
        inputs, targets = mobility_pattern_data(world, user, dtype_idx, cfg.esn.training_length)
        reports.append(model.load_pattern(inputs, targets))
    model.train_readout()
    return model, reports


# -- predictors -------------------------------------------------------------------


class OraclePredictor:
    """Feeds the optimizer the generator's exact ground truth."""

    def __init__(self, world: SyntheticWorld):
        self.world = world

    def request_distribution(self, user: int, sub: int) -> np.ndarray:
        return self.world.request_distribution(user, sub)

    def slot_positions(self, users, global_slot: int, n_intervals: int) -> np.ndarray:
        return self.world.interval_positions(users, global_slot, n_intervals)

    def gap_metrics(self) -> dict:
        return {"position_error_m": 0.0, "distribution_tv": 0.0}


class EsnPredictor:
    """Replays each user's stored patterns to plan the next period.

    Request distributions come from conceptor recall of the sub-period
    patterns; trajectories from the mobility pattern of the planned day's
    type, re-anchored at the user's last collected position and interpolated
    between predicted collection points exactly like the mobility model
    itself moves users.
    """

    def __init__(self, cfg: ScenarioConfig, world: SyntheticWorld,
                 content_models: list[cesn.EsnModel],
                 mobility_models: list[cesn.EsnModel], sim_day: int):
        self.cfg = cfg
        self.world = world
        t, h = cfg.slots_per_cache_period, cfg.slots_per_collection
        n_sub = world.n_sub
        self.day_start_slot = sim_day * t
        self._distributions = np.empty((cfg.num_users, n_sub, cfg.num_contents))
        self._collections = np.empty((cfg.num_users, n_sub + 1, 2))
        dtype_idx = day_type(sim_day)
        for u in range(cfg.num_users):
            for sub in range(n_sub):
                self._distributions[u, sub] = cesn.predict_request_distribution(
                    content_models[u], sub, steps=h, warmup=h)
            # Replay one full warmup day, then read each upcoming collection
            # point from the interior of its preceding sub-period (the replayed
            # readout smooths the step transitions at collection boundaries).
            track = cesn.predict_locations(mobility_models[u], dtype_idx, steps=2 * t,
                                           area_radius_m=cfg.area_radius_m)
            self._collections[u, 0] = world.collection_position(u, self.day_start_slot // h)
            for c in range(1, n_sub + 1):
                lo = t + (c - 1) * h + 1
                hi = max(lo + 1, t + c * h - 1)
                self._collections[u, c] = track[lo:hi, 0].mean(axis=0)

    def request_distribution(self, user: int, sub: int) -> np.ndarray:
        return self._distributions[user, sub]

    def slot_positions(self, users, global_slot: int, n_intervals: int) -> np.ndarray:
        """Predicted per-interval positions within one slot of the planned day.

        Shapes as :func:`~uavcache.generators.track_positions`.  A slot of the
        day never reaches past the predicted track's last point.
        """
        times = global_slot - self.day_start_slot + (np.arange(n_intervals) + 0.5) / n_intervals
        return track_positions(self._collections, users, times, self.cfg.slots_per_collection)

    def gap_metrics(self) -> dict:
        """Mean prediction error against the generator truth for the planned day."""
        cfg = self.cfg
        t, h = cfg.slots_per_cache_period, cfg.slots_per_collection
        pos_err, tv = [], []
        for u in range(cfg.num_users):
            for sub in range(self.world.n_sub):
                truth = self.world.request_distribution(u, sub)
                tv.append(0.5 * np.abs(self._distributions[u, sub] - truth).sum())
            for c in range(1, self.world.n_sub + 1):
                truth = self.world.collection_position(u, self.day_start_slot // h + c)
                pos_err.append(float(np.linalg.norm(self._collections[u, c] - truth)))
        return {"position_error_m": float(np.mean(pos_err)),
                "distribution_tv": float(np.mean(tv))}
