"""Predictions for the slot pipeline, plus model training.

A prediction is two arrays for the simulated day: ``distributions`` (U,
n_sub, F), each user's request distribution per sub-period, and
``collections`` (U, n_sub + 1, 2), each user's collection points from the
day's start.  The planner interpolates every position it needs from
``collections``.  The oracle's prediction is the generator's truth
(``world.distributions`` and :func:`period_collections`), which isolates the
optimizer from prediction error; the learned predictor replays trained
conceptor patterns into the same two arrays.
"""

from __future__ import annotations

import dataclasses
from typing import Protocol

import numpy as np

from . import cesn
from .config import ConfigError, RandomSource, ScenarioConfig
from .generators import DAY_TYPES, SyntheticWorld, day_type, point_norms


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
    """Mobility inputs and next-waypoint targets for one day type.

    An input is the slot's context plus a scalar projection of the user's
    position at the slot's start; a target, the next collected waypoint scaled
    by the area radius.  The last training slot's next waypoint is the
    simulated day's first.
    """
    cfg = world.cfg
    t, h = cfg.slots_per_cache_period, cfg.slots_per_collection
    days = np.arange(world.training_days)
    days = days[day_type(days) == dtype_idx]
    slots = (days[:, None] * t + np.arange(t)).ravel()[-max_len:]
    pos = world.position_at(user, slots.astype(float))
    proj = (pos[:, 0] + pos[:, 1]) / (2.0 * cfg.area_radius_m)
    inputs = np.column_stack([world.context_features(user, slots), proj])
    return inputs, world.collections[user, slots // h + 1] / cfg.area_radius_m


def _request_distributions(model: cesn.EsnModel, steps: int, warmup: int) -> np.ndarray:
    """Replay every content pattern together and read each one's mean readout as a
    distribution, (patterns, contents).

    ``warmup`` autonomous steps are discarded before averaging, letting the
    replay settle onto the pattern's attractor.  A readout with no positive
    mass gives the uniform distribution.
    """
    raw = model.recall(range(model.n_patterns), warmup + steps)[:, warmup:].mean(axis=1)
    clipped = np.clip(raw, 0.0, None)
    total = clipped.sum(axis=1, keepdims=True)
    has_mass = total[:, 0] > 0.0
    distributions = np.full(raw.shape, 1.0 / raw.shape[1])
    distributions[has_mass] = clipped[has_mass] / total[has_mass]
    return distributions


def _next_waypoints(model: cesn.EsnModel, pattern: int, steps: int,
                    area_radius_m: float) -> np.ndarray:
    """Replay a mobility pattern; (steps, 2) next waypoints in meters, clamped to the disk."""
    pos = model.recall([pattern], steps)[0] * area_radius_m
    norms = np.linalg.norm(pos, axis=1, keepdims=True)
    scale = np.where(norms > area_radius_m, area_radius_m / np.where(norms > 0, norms, 1.0), 1.0)
    return pos * scale


def _pattern_count(world: SyntheticWorld, task: str) -> int:
    """One content pattern per sub-period, one mobility pattern per day type."""
    return world.n_sub if task == "content" else len(DAY_TYPES)


def _pattern_names(user: int, task: str, n_patterns: int) -> list[str]:
    """How errors name each pattern of a user's task model: by sub-period or day type."""
    return [f"user {user} {task} " + (f"sub-period {p}" if task == "content"
                                      else f"day type {DAY_TYPES[p]}")
            for p in range(n_patterns)]


def _train(cfg: ScenarioConfig, world: SyntheticWorld, user: int, task: str,
           pattern_data) -> tuple[cesn.EsnModel, list[dict]]:
    """A released, recall-only model of the task's patterns, as wide as the first
    pattern's arrays; the patterns are driven together."""
    n_patterns = _pattern_count(world, task)
    patterns = [pattern_data(world, user, p, cfg.esn.training_length) for p in range(n_patterns)]
    inputs, targets = patterns[0]
    model = cesn.EsnModel(cfg.esn, inputs.shape[1], targets.shape[1],
                          RandomSource(cfg.seed).derive(f"esn-{task}-{user}"))
    reports = model.load_patterns(patterns, _pattern_names(user, task, n_patterns))
    model.train_readout()
    model.release_training_state()
    return model, reports


def train_content_model(cfg: ScenarioConfig, world: SyntheticWorld,
                        user: int) -> tuple[cesn.EsnModel, list[dict]]:
    """One request-distribution model per user: one pattern per sub-period."""
    return _train(cfg, world, user, "content", content_pattern_data)


def train_mobility_model(cfg: ScenarioConfig, world: SyntheticWorld,
                         user: int) -> tuple[cesn.EsnModel, list[dict]]:
    """One trajectory model per user: one pattern per day type."""
    return _train(cfg, world, user, "mobility", mobility_pattern_data)


# -- predictors -------------------------------------------------------------------


class ModelsByUser(Protocol):
    """A task's models by user index: a list, or a reader that loads a file per index."""

    def __getitem__(self, user: int) -> cesn.EsnModel: ...


def period_collections(world: SyntheticWorld) -> np.ndarray:
    """The simulated day's true collected waypoints, (U, n_sub + 1, 2), from its start."""
    c0 = world.period_slot0 // world.cfg.slots_per_collection
    return world.collections[:, c0:c0 + world.n_sub + 1]


class EsnPredictor:
    """Replays each user's stored patterns to plan the simulated period.

    Request distributions (``distributions``, (U, n_sub, F)) come from
    conceptor recall of the sub-period patterns; collection points
    (``collections``, (U, n_sub + 1, 2)) from the mobility pattern of the
    planned day's type, starting at the user's last collected position.

    Each model is indexed by user once, checked against the config (its output
    width, pattern count and the ``esn`` block it was trained with; a mismatch
    raises ``ConfigError``), replayed and dropped, so a reader that loads a
    model when indexed lets the predictor hold one user's two models at a time.
    """

    def __init__(self, world: SyntheticWorld, content_models: ModelsByUser,
                 mobility_models: ModelsByUser):
        cfg = world.cfg
        self.world = world
        self.distributions = np.empty((cfg.num_users, world.n_sub, cfg.num_contents))
        self.collections = np.empty((cfg.num_users, world.n_sub + 1, 2))
        self.collections[:, 0] = period_collections(world)[:, 0]
        # a user's models live only through their _replay_user call
        for u in range(cfg.num_users):
            self._replay_user(u, self._checked(u, "content", content_models[u]),
                              self._checked(u, "mobility", mobility_models[u]))

    def _checked(self, u: int, task: str, model: cesn.EsnModel) -> cesn.EsnModel:
        # a content readout has one row per content, a mobility readout one per coordinate
        width = self.world.cfg.num_contents if task == "content" else 2
        n_patterns = _pattern_count(self.world, task)
        if model.output_dim != width:
            raise ConfigError([
                f"model/config dimension mismatch: user {u} {task} model has "
                f"{model.output_dim} outputs, config needs {width}"])
        if model.n_patterns != n_patterns:
            raise ConfigError([
                f"model/config pattern mismatch: user {u} {task} model holds "
                f"{model.n_patterns} patterns, config needs {n_patterns}"])
        trained, given = dataclasses.asdict(model.cfg), dataclasses.asdict(self.world.cfg.esn)
        stale = [f"esn.{name}: user {u} {task} model was trained with {value}, config has "
                 f"{given[name]}" for name, value in trained.items() if value != given[name]]
        if stale:
            raise ConfigError(stale)
        return model

    def _replay_user(self, u: int, content: cesn.EsnModel, mobility: cesn.EsnModel) -> None:
        cfg = self.world.cfg
        t, h = cfg.slots_per_cache_period, cfg.slots_per_collection
        self.distributions[u] = _request_distributions(content, steps=h, warmup=h)
        # Replay one full warmup day, then read each upcoming collection
        # point from the interior of its preceding sub-period (the replayed
        # readout smooths the step transitions at collection boundaries).
        # The replay runs as far as the last window reads.
        starts, span = range(t + 1, t + 1 + self.world.n_sub * h, h), max(1, h - 2)
        track = _next_waypoints(mobility, day_type(self.world.training_days),
                                steps=starts[-1] + span, area_radius_m=cfg.area_radius_m)
        for c, lo in enumerate(starts, start=1):
            self.collections[u, c] = track[lo:lo + span].mean(axis=0)


def _mean(values: np.ndarray) -> float:
    return float(values.mean()) if values.size else 0.0


def prediction_gap(world: SyntheticWorld, distributions: np.ndarray,
                   collections: np.ndarray) -> dict:
    """Mean position error at the predicted collection points and mean request
    total variation of a prediction of the simulated day; 0 with no users."""
    truth = period_collections(world)[:, 1:]
    tv = 0.5 * np.abs(distributions - world.distributions).sum(axis=2)
    return {"position_error_m": _mean(point_norms(collections[:, 1:] - truth)),
            "distribution_tv": _mean(tv)}
