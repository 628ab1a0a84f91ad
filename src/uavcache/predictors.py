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
from .config import EsnConfig, RandomSource, ScenarioConfig
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
    """Mobility inputs and stacked future-waypoint targets for one day type."""
    cfg = world.cfg
    t, h = cfg.slots_per_cache_period, cfg.slots_per_collection
    horizon = cfg.esn.horizon
    inputs, targets = [], []
    for day in range(world.training_days):
        if day_type(day) != dtype_idx:
            continue
        for s in range(t):
            gs = day * t + s
            inputs.append(world.mobility_features(user, gs))
            base = gs // h
            future = [world.collection_position(user, base + 1 + j) for j in range(horizon)]
            targets.append(np.concatenate(future) / cfg.area_radius_m)
    inputs, targets = np.array(inputs), np.array(targets)
    return inputs[-max_len:], targets[-max_len:]


def _task_config(cfg: ScenarioConfig, input_dim: int, output_dim: int) -> EsnConfig:
    import dataclasses
    return dataclasses.replace(cfg.esn, input_dim=input_dim, output_dim=output_dim)


def train_content_model(cfg: ScenarioConfig, world: SyntheticWorld,
                        user: int) -> tuple[cesn.EsnModel, list[dict]]:
    """One request-distribution model per user: one pattern per sub-period."""
    esn_cfg = _task_config(cfg, cfg.esn.context_dim, cfg.num_contents)
    rs = RandomSource(cfg.seed).derive(f"esn-content-{user}")
    model = cesn.EsnModel(esn_cfg, rs)
    reports = []
    for sub in range(world.n_sub):
        inputs, targets = content_pattern_data(world, user, sub, esn_cfg.training_length)
        reports.append(model.load_pattern(inputs, targets))
    model.train_readout()
    return model, reports


def train_mobility_model(cfg: ScenarioConfig, world: SyntheticWorld,
                         user: int) -> tuple[cesn.EsnModel, list[dict]]:
    """One trajectory model per user: one pattern per day type."""
    esn_cfg = _task_config(cfg, cfg.esn.context_dim + 1, 2 * cfg.esn.horizon)
    rs = RandomSource(cfg.seed).derive(f"esn-mobility-{user}")
    model = cesn.EsnModel(esn_cfg, rs)
    reports = []
    for dtype_idx in range(len(DAY_TYPES)):
        inputs, targets = mobility_pattern_data(world, user, dtype_idx, esn_cfg.training_length)
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
        return track_positions(self._collections, users, global_slot - self.day_start_slot,
                               n_intervals, self.cfg.slots_per_collection)

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
