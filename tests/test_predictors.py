import numpy as np

from conftest import desk_config
from uavcache import cesn
from uavcache.generators import SyntheticWorld
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
        assert inputs.shape == (days * cfg.slots_per_collection, len(world.context_features(0, 0)))
        assert targets.shape[1] == cfg.num_contents
        assert np.all(targets.sum(axis=1) == 1.0)

    def test_mobility_pattern_shapes(self):
        cfg, world = prediction_setup()
        inputs, targets = mobility_pattern_data(world, 0, 0, 10_000)
        weekdays = sum(1 for d in range(world.training_days) if d % 7 < 5)
        assert inputs.shape == (weekdays * cfg.slots_per_cache_period,
                                len(world.context_features(0, 0)) + 1)
        assert targets.shape[1] == 2 * cfg.esn.horizon
        assert np.abs(targets).max() <= 1.0 + 1e-9

    def test_max_len_truncates_to_recent(self):
        _, world = prediction_setup()
        inputs, _ = content_pattern_data(world, 0, 0, 40)
        assert inputs.shape[0] == 40


class TestOraclePredictor:
    def test_returns_generator_truth(self):
        cfg, world = prediction_setup()
        oracle = OraclePredictor(world)
        assert np.array_equal(oracle.request_distribution(0, 1),
                              world.request_distribution(0, 1))
        gs = world.first_sim_day * cfg.slots_per_cache_period + 3
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
            truth = world.request_distribution(0, sub)
            tv = 0.5 * np.abs(p_hat - truth).sum()
            assert tv <= 0.1

    def test_stationary_user_predicted_in_place(self):
        cfg, world = prediction_setup(generators={"waypoints_per_day": 1,
                                                  "position_noise_m": 0.0})
        content_model, _ = train_content_model(cfg, world, 0)
        mobility_model, _ = train_mobility_model(cfg, world, 0)
        predictor = EsnPredictor(cfg, world, [content_model], [mobility_model],
                                 world.first_sim_day)
        home = world.collection_position(0, 0)
        for c in range(world.n_sub + 1):
            assert np.linalg.norm(predictor._collections[0, c] - home) <= 5.0

    def test_commuter_mean_error_within_ten_percent_of_radius(self):
        cfg, world = prediction_setup(generators={"waypoints_per_day": 2,
                                                  "position_noise_m": 1.0})
        content_model, _ = train_content_model(cfg, world, 0)
        mobility_model, _ = train_mobility_model(cfg, world, 0)
        predictor = EsnPredictor(cfg, world, [content_model], [mobility_model],
                                 world.first_sim_day)
        gap = predictor.gap_metrics()
        assert gap["position_error_m"] <= 0.1 * cfg.area_radius_m

    def test_predicted_positions_inside_disk(self):
        cfg, world = prediction_setup()
        content_model, _ = train_content_model(cfg, world, 0)
        mobility_model, _ = train_mobility_model(cfg, world, 0)
        predictor = EsnPredictor(cfg, world, [content_model], [mobility_model],
                                 world.first_sim_day)
        gs = world.first_sim_day * cfg.slots_per_cache_period
        for slot in range(cfg.slots_per_cache_period):
            pos = predictor.slot_positions(0, gs + slot, 5)
            assert np.all(np.linalg.norm(pos, axis=1) <= cfg.area_radius_m + 1e-6)

    def test_quota_history_nonincreasing(self):
        cfg, world = prediction_setup()
        model, reports = train_content_model(cfg, world, 0)
        quotas = [r["quota_after"] for r in reports]
        assert all(a >= b for a, b in zip(quotas, quotas[1:]))
        assert len(reports) == world.n_sub
