import numpy as np

from conftest import desk_config, reference_context
from uavcache import cesn
from uavcache.generators import SyntheticWorld, day_type
from uavcache.predictors import (EsnPredictor, OraclePredictor, content_pattern_data,
                                 mobility_pattern_data, train_content_model,
                                 train_mobility_model)


def prediction_setup(**overrides):
    base = dict(num_users=1, num_uavs=1, num_rrhs=4, num_rrh_clusters=1,
                intervals_per_slot=10,
                esn={"reservoir_size": 200, "training_length": 500, "washout": 30},
                generators={"training_weeks": 4, "request_concentration": 2.5,
                            "position_noise_m": 1.0})
    for key, value in overrides.items():
        if isinstance(value, dict) and key in base:
            base[key] = {**base[key], **value}
        else:
            base[key] = value
    cfg = desk_config(**base)
    return cfg, SyntheticWorld(cfg)


class TestTrainingData:
    def test_content_pattern_shapes(self):
        cfg, world = prediction_setup()
        inputs, targets = content_pattern_data(world, 0, 0, 10_000)
        days = world.training_days
        assert inputs.shape == (days * cfg.slots_per_collection, 4)
        assert targets.shape[1] == cfg.num_contents
        assert np.all(targets.sum(axis=1) == 1.0)

    def test_mobility_pattern_shapes(self):
        cfg, world = prediction_setup()
        inputs, targets = mobility_pattern_data(world, 0, 0, 10_000)
        weekdays = sum(1 for d in range(world.training_days) if d % 7 < 5)
        assert inputs.shape == (weekdays * cfg.slots_per_cache_period,
                                4 + 1)
        assert targets.shape[1] == 2 * cfg.esn.horizon
        assert np.abs(targets).max() <= 1.0 + 1e-9

    def test_max_len_truncates_to_recent(self):
        _, world = prediction_setup()
        inputs, _ = content_pattern_data(world, 0, 0, 40)
        assert inputs.shape[0] == 40


def reference_content_pattern(world, user, sub, max_len):
    """Content pattern rows assembled one slot at a time."""
    t, h = world.cfg.slots_per_cache_period, world.cfg.slots_per_collection
    inputs, targets = [], []
    for day in range(world.training_days):
        for s in range(h):
            gs = day * t + sub * h + s
            if world.requests[user, gs] < 0:
                continue
            inputs.append(reference_context(world, user, gs))
            one_hot = np.zeros(world.cfg.num_contents)
            one_hot[world.requests[user, gs]] = 1.0
            targets.append(one_hot)
    return np.array(inputs)[-max_len:], np.array(targets)[-max_len:]


def reference_mobility_pattern(world, user, dtype_idx, max_len):
    """Mobility pattern rows assembled one slot at a time, waypoints held at the last."""
    cfg = world.cfg
    t, h = cfg.slots_per_cache_period, cfg.slots_per_collection
    last = world.collections.shape[1] - 1
    slots = [day * t + s for day in range(world.training_days)
             if day_type(day) == dtype_idx for s in range(t)][-max_len:]
    pos = world.position_at(user, np.array(slots, dtype=float))
    proj = (pos[:, 0] + pos[:, 1]) / (2.0 * cfg.area_radius_m)
    inputs = np.column_stack([[reference_context(world, user, gs) for gs in slots], proj])
    targets = np.array([
        np.concatenate([world.collections[user, min(gs // h + 1 + j, last)]
                        for j in range(cfg.esn.horizon)]) / cfg.area_radius_m
        for gs in slots])
    return inputs, targets


class TestTrainingDataReference:
    def test_pattern_data_equals_the_per_slot_assembly(self):
        cfg, world = prediction_setup(num_users=3, generators={"request_probability": 0.7})
        for user in range(cfg.num_users):
            for sub in range(world.n_sub):
                for got, want in zip(content_pattern_data(world, user, sub, 40),
                                     reference_content_pattern(world, user, sub, 40)):
                    assert np.array_equal(got, want)
            for dtype_idx in range(2):
                for got, want in zip(mobility_pattern_data(world, user, dtype_idx, 500),
                                     reference_mobility_pattern(world, user, dtype_idx, 500)):
                    assert np.array_equal(got, want)

    def test_mobility_targets_hold_the_last_waypoint(self):
        cfg, world = prediction_setup(esn={"horizon": 40})
        _, targets = mobility_pattern_data(world, 0, 1, 10_000)  # the last training day is a weekend
        last = world.collections[0, -1] / cfg.area_radius_m
        assert np.array_equal(targets[-1, -2:], last)


class TestOraclePredictor:
    def test_returns_generator_truth(self):
        cfg, world = prediction_setup()
        oracle = OraclePredictor(world)
        assert np.array_equal(oracle.distributions, world.distributions)
        gs = world.training_days * cfg.slots_per_cache_period + 3
        assert np.allclose(oracle.slot_positions(0, gs, 10),
                           world.interval_positions(0, gs, 10))
        assert oracle.gap_metrics() == {"position_error_m": 0.0, "distribution_tv": 0.0}


class TestEsnPrediction:
    def test_request_distribution_close_to_truth(self):
        cfg, world = prediction_setup(num_contents=10,
                                      generators={"training_weeks": 6})
        model, _ = train_content_model(cfg, world, 0)
        h = cfg.slots_per_collection
        for sub in range(world.n_sub):
            p_hat = cesn.predict_request_distribution(model, sub, steps=h, warmup=h)
            truth = world.distributions[0, sub]
            tv = 0.5 * np.abs(p_hat - truth).sum()
            assert tv <= 0.1

    def test_stationary_user_predicted_in_place(self):
        cfg, world = prediction_setup(generators={"waypoints_per_day": 1,
                                                  "position_noise_m": 0.0})
        content_model, _ = train_content_model(cfg, world, 0)
        mobility_model, _ = train_mobility_model(cfg, world, 0)
        predictor = EsnPredictor(world, [content_model], [mobility_model])
        home = world.collections[0, 0]
        for c in range(world.n_sub + 1):
            assert np.linalg.norm(predictor._collections[0, c] - home) <= 5.0

    def test_commuter_mean_error_within_ten_percent_of_radius(self):
        cfg, world = prediction_setup(generators={"waypoints_per_day": 2,
                                                  "position_noise_m": 1.0})
        content_model, _ = train_content_model(cfg, world, 0)
        mobility_model, _ = train_mobility_model(cfg, world, 0)
        predictor = EsnPredictor(world, [content_model], [mobility_model])
        gap = predictor.gap_metrics()
        assert gap["position_error_m"] <= 0.1 * cfg.area_radius_m

    def test_predicted_positions_inside_disk(self):
        cfg, world = prediction_setup()
        content_model, _ = train_content_model(cfg, world, 0)
        mobility_model, _ = train_mobility_model(cfg, world, 0)
        predictor = EsnPredictor(world, [content_model], [mobility_model])
        gs = world.training_days * cfg.slots_per_cache_period
        for slot in range(cfg.slots_per_cache_period):
            pos = predictor.slot_positions(0, gs + slot, 5)
            assert np.all(np.linalg.norm(pos, axis=1) <= cfg.area_radius_m + 1e-6)

    def test_quota_history_nonincreasing(self):
        cfg, world = prediction_setup()
        model, reports = train_content_model(cfg, world, 0)
        quotas = [r["quota_after"] for r in reports]
        assert all(a >= b for a, b in zip(quotas, quotas[1:]))
        assert len(reports) == world.n_sub
