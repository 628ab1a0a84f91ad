import dataclasses

import numpy as np
import pytest

from conftest import (BATCHED_RECALL_RTOL, BATCHED_STATE_TOL, DenseConceptors,
                      DenseInputSimulation, OnePatternEsn, conceptor_matrix, desk_config,
                      one_pattern_drive, reference_context)
from uavcache import cesn, linalg, sim
from uavcache.config import (ConfigError, EsnConfig, RandomSource, ScenarioConfig,
                             load_config_dict)
from uavcache.generators import SyntheticWorld, day_type, track_positions
from uavcache.predictors import (EsnPredictor, _next_waypoints, _request_distributions,
                                 content_pattern_data, mobility_pattern_data, period_collections,
                                 prediction_gap, train_content_model, train_mobility_model)


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
        assert targets.shape[1] == 2
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
    """Mobility pattern rows assembled one slot at a time, each looking one waypoint ahead."""
    cfg = world.cfg
    t, h = cfg.slots_per_cache_period, cfg.slots_per_collection
    slots = [day * t + s for day in range(world.training_days)
             if day_type(day) == dtype_idx for s in range(t)][-max_len:]
    pos = world.position_at(user, np.array(slots, dtype=float))
    proj = (pos[:, 0] + pos[:, 1]) / (2.0 * cfg.area_radius_m)
    inputs = np.column_stack([[reference_context(world, user, gs) for gs in slots], proj])
    targets = np.array([world.collections[user, gs // h + 1] / cfg.area_radius_m
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

    def test_last_training_slot_targets_the_simulated_days_first_waypoint(self):
        cfg, world = prediction_setup()
        _, targets = mobility_pattern_data(world, 0, 1, 10_000)  # the last training day is a weekend
        first = world.collections[0, world.period_slot0 // cfg.slots_per_collection]
        assert np.array_equal(targets[-1], first / cfg.area_radius_m)


def sine_model(cfg: EsnConfig, outputs: int, targets: np.ndarray, label: str) -> cesn.EsnModel:
    """A one-pattern model driven by a sine of period 8, trained on ``targets``."""
    model = cesn.EsnModel(cfg, 1, outputs, RandomSource(9).derive(label))
    model.load_patterns([(np.sin(2 * np.pi * np.arange(len(targets)) / 8.0)[:, None], targets)])
    model.train_readout()
    return model


class TestReadoutDecoding:
    def test_distribution_sums_to_one(self):
        cfg = EsnConfig(reservoir_size=60, spectral_radius=0.9, density=0.2, input_scale=1.0,
                        aperture=15.0, ridge=0.1, washout=20, training_length=200)
        targets = np.eye(4)[np.random.default_rng(2).integers(0, 4, 200)]
        p, = _request_distributions(sine_model(cfg, 4, targets, "dist"), steps=20, warmup=0)
        assert p.shape == (4,)
        assert np.all(p >= 0.0)
        assert p.sum() == pytest.approx(1.0)

    def test_all_zero_readout_falls_back_to_uniform(self):
        cfg = EsnConfig(reservoir_size=10, spectral_radius=0.9, density=0.5, input_scale=1.0,
                        aperture=15.0, ridge=0.1, washout=5, training_length=50)
        model = sine_model(cfg, 3, np.zeros((50, 3)), "dist")
        model.w_out = np.zeros_like(model.w_out)
        assert np.allclose(_request_distributions(model, steps=5, warmup=0), 1.0 / 3.0)

    def test_predicted_waypoints_clamped_to_disk(self):
        cfg = EsnConfig(reservoir_size=40, spectral_radius=0.9, density=0.2, input_scale=1.0,
                        aperture=15.0, ridge=0.01, washout=10, training_length=100)
        targets = np.tile([3.0, -2.0], (100, 1))  # far outside the unit disk
        track = _next_waypoints(sine_model(cfg, 2, targets, "loc"), 0, steps=10,
                                area_radius_m=500.0)
        assert track.shape == (10, 2)
        assert np.all(np.linalg.norm(track, axis=1) <= 500.0 + 1e-9)


def test_period_collections_start_at_the_simulated_day():
    cfg, world = prediction_setup()
    got = period_collections(world)
    assert got.shape == (cfg.num_users, world.n_sub + 1, 2)
    for c in range(world.n_sub + 1):
        t = world.period_slot0 + c * cfg.slots_per_collection
        assert np.array_equal(got[:, c], world.position_at(range(cfg.num_users), [t])[:, 0])


def test_the_truth_has_no_gap():
    _, world = prediction_setup()
    assert prediction_gap(world, world.distributions, period_collections(world)) == {
        "position_error_m": 0.0, "distribution_tv": 0.0}


def test_no_users_no_gap():
    cfg, _ = prediction_setup()
    world = SyntheticWorld(dataclasses.replace(cfg, num_users=0, num_uavs=0))
    learned = EsnPredictor(world, [], [])
    for distributions, collections in ((world.distributions, period_collections(world)),
                                       (learned.distributions, learned.collections)):
        assert prediction_gap(world, distributions, collections) == {"position_error_m": 0.0,
                                                                     "distribution_tv": 0.0}


class TestEsnPrediction:
    def test_request_distribution_close_to_truth(self):
        cfg, world = prediction_setup(num_contents=10,
                                      generators={"training_weeks": 6})
        model, _ = train_content_model(cfg, world, 0)
        h = cfg.slots_per_collection
        p_hat = _request_distributions(model, steps=h, warmup=h)
        assert p_hat.shape == (world.n_sub, cfg.num_contents)
        tv = 0.5 * np.abs(p_hat - world.distributions[0]).sum(axis=1)
        assert tv.max() <= 0.1

    def test_stationary_user_predicted_in_place(self):
        cfg, world = prediction_setup(generators={"waypoints_per_day": 1,
                                                  "position_noise_m": 0.0})
        content_model, _ = train_content_model(cfg, world, 0)
        mobility_model, _ = train_mobility_model(cfg, world, 0)
        predictor = EsnPredictor(world, [content_model], [mobility_model])
        home = world.collections[0, 0]
        for c in range(world.n_sub + 1):
            assert np.linalg.norm(predictor.collections[0, c] - home) <= 5.0

    def test_commuter_mean_error_within_ten_percent_of_radius(self):
        cfg, world = prediction_setup(generators={"waypoints_per_day": 2,
                                                  "position_noise_m": 1.0})
        content_model, _ = train_content_model(cfg, world, 0)
        mobility_model, _ = train_mobility_model(cfg, world, 0)
        predictor = EsnPredictor(world, [content_model], [mobility_model])
        gap = prediction_gap(world, predictor.distributions, predictor.collections)
        assert gap["position_error_m"] <= 0.1 * cfg.area_radius_m

    def test_predicted_positions_inside_disk(self):
        cfg, world = prediction_setup()
        content_model, _ = train_content_model(cfg, world, 0)
        mobility_model, _ = train_mobility_model(cfg, world, 0)
        predictor = EsnPredictor(world, [content_model], [mobility_model])
        for slot in range(cfg.slots_per_cache_period):
            pos = track_positions(predictor.collections, 0, slot + (np.arange(5) + 0.5) / 5,
                                  cfg.slots_per_collection)
            assert np.all(np.linalg.norm(pos, axis=1) <= cfg.area_radius_m + 1e-6)

    def test_quota_history_nonincreasing(self):
        cfg, world = prediction_setup()
        model, reports = train_content_model(cfg, world, 0)
        quotas = [r["quota_after"] for r in reports]
        assert all(a >= b for a, b in zip(quotas, quotas[1:]))
        assert len(reports) == world.n_sub


def reachable_buffer_bytes(model: cesn.EsnModel) -> int:
    """Bytes of every array buffer reachable from the model, each counted once.

    A view counts as the whole buffer it keeps alive, so a slice that pins a
    larger array shows.
    """
    buffers = {}

    def walk(obj):
        if isinstance(obj, np.ndarray):
            while isinstance(obj.base, np.ndarray):
                obj = obj.base
            buffers[id(obj)] = obj
        elif isinstance(obj, (list, tuple)):
            for item in obj:
                walk(item)
        elif isinstance(obj, dict):
            for item in obj.values():
                walk(item)
        elif hasattr(obj, "__dict__"):
            walk(vars(obj))

    walk(vars(model))
    return sum(b.nbytes for b in buffers.values())


TRAINERS = {"content": (train_content_model, content_pattern_data),
            "mobility": (train_mobility_model, mobility_pattern_data)}


# Bound fixed before the first run: an int32 index and a float64 value per nonzero.
RESERVOIR_BYTES_PER_NONZERO = 12
RESERVOIR_BYTES_SLACK = 1024


@pytest.mark.parametrize("task", list(TRAINERS))
def test_trained_model_keeps_only_recall_state(task):
    cfg = desk_config()
    world = SyntheticWorld(cfg)
    trainer, pattern_data = TRAINERS[task]
    model, _ = trainer(cfg, world, 0)
    assert model.memory is None
    assert model._train_states == [] and model._train_targets == []
    reservoir_bytes = model._w_index.nbytes + model._w_value.nbytes
    recall_bytes = (reservoir_bytes + model.w_in.nbytes + model.b.nbytes + model.w_out.nbytes
                    + sum(c.u.nbytes + c.lam.nbytes for c in model.conceptors)
                    + sum(s.nbytes for s in model.pattern_states))
    assert reachable_buffer_bytes(model) == recall_bytes
    # w is kept as its nonzeros, so no dense N x N copy (8 N^2 bytes) fits the bound
    assert reservoir_bytes <= (RESERVOIR_BYTES_PER_NONZERO * np.count_nonzero(model.w)
                               + RESERVOIR_BYTES_SLACK)
    washout = cfg.esn.washout
    # driven together, as training drives them
    patterns = [pattern_data(world, 0, p, cfg.esn.training_length)
                for p in range(model.n_patterns)]
    states = model.drive([inputs for inputs, _ in patterns])
    for p, ((_, targets), x) in enumerate(zip(patterns, states)):
        assert model.training_nrmse(p) == cesn.nrmse(model.w_out @ x[:, washout:],
                                                     targets[washout:].T)


# Bounds fixed before the first run; a scratch prototype read 4.2e-11 and 9.1e-13.
FACTORED_D_RTOL = 1e-9
FACTORED_RECALL_RTOL = 1e-9


@pytest.mark.parametrize("cfg, task", [
    (desk_config(), "content"), (desk_config(), "mobility"),
    (load_config_dict({"esn": {"reservoir_size": 500}}), "content"),
    (load_config_dict({"esn": {"reservoir_size": 500}, "seed": ScenarioConfig().seed + 99}),
     "content"),
], ids=["desk-content", "desk-mobility", "p12-seed0", "p12-seed99"])
def test_factored_input_simulation_matches_the_dense_reference(monkeypatch, cfg, task):
    """D = w_in @ b: the factored model loads, fits and recalls as the dense N x N D does.

    The ``p12`` cases are the benchmark's ``train_p12`` model: the paper config with
    N = 500, user 0, at benchmark seeds 0 and 99.
    """
    world, trainer = SyntheticWorld(cfg), TRAINERS[task][0]
    model, _ = trainer(cfg, world, 0)
    with monkeypatch.context() as patched:
        patched.setattr(cesn, "EsnModel", DenseInputSimulation)
        dense, _ = trainer(cfg, world, 0)
    assert model.quota_history == dense.quota_history
    assert model._fit_nrmse == dense._fit_nrmse
    assert (np.abs(dense.d - model.w_in @ model.b).max()
            <= FACTORED_D_RTOL * np.abs(dense.d).max())
    steps, patterns = 2 * cfg.slots_per_cache_period, range(model.n_patterns)
    for got, expected in zip(model.recall(patterns, steps), dense.recall(patterns, steps)):
        assert np.abs(got - expected).max() <= FACTORED_RECALL_RTOL * np.abs(expected).max()


# Bounds fixed before the first run.  A scratch prototype read 1.5e-11 on the
# conceptors and 7.2e-12 on the quotas.
FACTORED_CONCEPTOR_TOL = 1e-9
FACTORED_QUOTA_TOL = 1e-9
FACTORED_CONCEPTOR_RECALL_RTOL = 1e-7


@pytest.mark.parametrize("cfg, task", [
    (desk_config(), "content"), (desk_config(), "mobility"),
    (load_config_dict({"esn": {"reservoir_size": 500}}), "content"),
    (load_config_dict({"esn": {"reservoir_size": 500}, "seed": ScenarioConfig().seed + 99}),
     "content"),
], ids=["desk-content", "desk-mobility", "p12-seed0", "p12-seed99"])
def test_factored_conceptors_match_the_dense_reference(monkeypatch, cfg, task):
    """Conceptors kept as eigenbases load, fit and recall as dense N x N conceptors do.

    The ``p12`` cases are the benchmark's ``train_p12`` model, as in the test above.
    """
    world, trainer = SyntheticWorld(cfg), TRAINERS[task][0]
    model, _ = trainer(cfg, world, 0)
    with monkeypatch.context() as patched:
        patched.setattr(cesn, "EsnModel", DenseConceptors)
        dense, _ = trainer(cfg, world, 0)
    assert np.abs(np.subtract(model.quota_history, dense.quota_history)).max() \
        <= FACTORED_QUOTA_TOL
    # the readout sees only the driven states, which no conceptor touches
    assert model._fit_nrmse == dense._fit_nrmse
    for c, dense_c in zip(model.conceptors, dense.conceptors):
        assert np.abs(conceptor_matrix(c) - dense_c).max() <= FACTORED_CONCEPTOR_TOL
    steps, patterns = 2 * cfg.slots_per_cache_period, range(model.n_patterns)
    for got, expected in zip(model.recall(patterns, steps), dense.recall(patterns, steps)):
        assert (np.abs(got - expected).max()
                <= FACTORED_CONCEPTOR_RECALL_RTOL * np.abs(expected).max())


# Bounds fixed before the first run, from the cut's definition: each of at most N dropped
# directions has s <= 1e-6, so a quota moves by at most 1e-6.  Over every desk model at
# seeds 0 and 99 and paper user 0, a scratch run read at most 1.5e-7 on the quotas and
# 6.7e-6 on recall, and every content model bit for bit unchanged.
CUT_QUOTA_ATOL = 1e-6
CUT_RECALL_RTOL = 1e-4


@pytest.mark.parametrize("task", ["content", "mobility"])
def test_the_cut_moves_models_little_against_a_1e_10_cut(monkeypatch, task):
    """Every seventh desk user's model at ``linalg.CONCEPTOR_S_CUT`` against the same model
    cut at 1e-10, which keeps every direction above rounding."""
    cfg = desk_config()
    world, trainer = SyntheticWorld(cfg), TRAINERS[task][0]
    steps, kept, finer_kept = 2 * cfg.slots_per_cache_period, 0, 0
    for user in range(0, cfg.num_users, 7):
        model, _ = trainer(cfg, world, user)
        with monkeypatch.context() as patched:
            patched.setattr(linalg, "CONCEPTOR_S_CUT", 1e-10)
            finer, _ = trainer(cfg, world, user)
        assert np.abs(np.subtract(model.quota_history, finer.quota_history)).max() \
            <= CUT_QUOTA_ATOL
        patterns = range(model.n_patterns)
        expected = finer.recall(patterns, steps)
        assert (np.abs(model.recall(patterns, steps) - expected).max()
                <= CUT_RECALL_RTOL * np.abs(expected).max())
        kept += sum(len(c.lam) for c in model.conceptors)
        finer_kept += sum(len(c.lam) for c in finer.conceptors)
        if task == "content":
            assert model.quota_history == finer.quota_history
            for c, f in zip(model.conceptors, finer.conceptors):
                assert np.array_equal(c.u, f.u) and np.array_equal(c.lam, f.lam)
    # the content patterns keep every direction either way; mobility drops about half
    assert (kept == finer_kept) if task == "content" else (kept < 0.6 * finer_kept)


# Bounds fixed before the first run, with BATCHED_STATE_TOL and BATCHED_RECALL_RTOL.
BATCHED_QUOTA_TOL = 1e-9
BATCHED_FIT_RTOL = 1e-9
BATCHED_B_RTOL = 1e-9


@pytest.mark.parametrize("cfg, task", [
    (desk_config(), "content"), (desk_config(), "mobility"),
    (load_config_dict({"esn": {"reservoir_size": 500}}), "content"),
    (load_config_dict({"esn": {"reservoir_size": 500}, "seed": ScenarioConfig().seed + 99}),
     "content"),
], ids=["desk-content", "desk-mobility", "p12-seed0", "p12-seed99"])
def test_batched_drive_and_recall_match_one_pattern_at_a_time(monkeypatch, cfg, task):
    """A model's patterns driven and recalled as one block match them run one by one.

    Desk mobility has patterns of unequal length (a weekday and a weekend day
    type).  The ``p12`` cases are the benchmark's ``train_p12`` model, as above.
    """
    world, (trainer, pattern_data) = SyntheticWorld(cfg), TRAINERS[task]
    model, _ = trainer(cfg, world, 0)
    with monkeypatch.context() as patched:
        patched.setattr(cesn, "EsnModel", OnePatternEsn)
        single, _ = trainer(cfg, world, 0)
    inputs = [pattern_data(world, 0, p, cfg.esn.training_length)[0]
              for p in range(model.n_patterns)]
    for got, u in zip(model.drive(inputs), inputs):
        assert np.abs(got - one_pattern_drive(model, u)).max() <= BATCHED_STATE_TOL
    assert np.abs(np.subtract(model.quota_history, single.quota_history)).max() \
        <= BATCHED_QUOTA_TOL
    assert np.allclose(model._fit_nrmse, single._fit_nrmse, rtol=BATCHED_FIT_RTOL, atol=0.0)
    assert np.abs(model.b - single.b).max() <= BATCHED_B_RTOL * np.abs(single.b).max()
    steps, patterns = 2 * cfg.slots_per_cache_period, range(model.n_patterns)
    got = model.recall(patterns, steps)
    # the same model replayed one pattern at a time, and the one-pattern model
    for expected in (OnePatternEsn.recall(model, patterns, steps),
                     single.recall(patterns, steps)):
        assert np.abs(got - expected).max() <= BATCHED_RECALL_RTOL * np.abs(expected).max()


def model_of_patterns(world, task, patterns):
    """A released model of ``task`` for user 0 holding the given patterns, in order."""
    cfg = world.cfg
    data = [TRAINERS[task][1](world, 0, p, cfg.esn.training_length) for p in patterns]
    inputs, targets = data[0]
    model = cesn.EsnModel(cfg.esn, inputs.shape[1], targets.shape[1],
                          RandomSource(cfg.seed).derive(f"test-{task}"))
    model.load_patterns(data)
    model.train_readout()
    model.release_training_state()
    return model


class TestEsnPredictorChecks:
    """The learned predictor checks each model it replays, however the models arrive."""

    def test_content_model_one_pattern_short(self):
        cfg, world = prediction_setup(num_contents=6, generators={"training_weeks": 1})
        content = model_of_patterns(world, "content", range(world.n_sub - 1))
        mobility, _ = train_mobility_model(cfg, world, 0)
        with pytest.raises(ConfigError) as err:
            EsnPredictor(world, [content], [mobility])
        assert err.value.violations == [
            f"model/config pattern mismatch: user 0 content model holds {world.n_sub - 1} "
            f"patterns, config needs {world.n_sub}"]

    def test_mobility_model_one_pattern_over(self):
        cfg, world = prediction_setup(num_contents=6, generators={"training_weeks": 1})
        content, _ = train_content_model(cfg, world, 0)
        mobility = model_of_patterns(world, "mobility", [0, 1, 0])
        with pytest.raises(ConfigError) as err:
            EsnPredictor(world, [content], [mobility])
        assert err.value.violations == [
            "model/config pattern mismatch: user 0 mobility model holds 3 patterns, "
            "config needs 2"]

    def test_content_checked_before_mobility_is_read(self):
        _, world = prediction_setup(num_contents=6, generators={"training_weeks": 1})
        content = model_of_patterns(world, "content", range(world.n_sub - 1))

        class Unread:
            def __getitem__(self, user):
                raise AssertionError("the mobility model was read")

        with pytest.raises(ConfigError, match="user 0 content model holds"):
            EsnPredictor(world, [content], Unread())


@pytest.mark.slow
def test_learned_run_at_paper_scale_with_six_users():
    """The paper's reservoir, catalog, period and intervals, with 6 users and 2 UAVs: both
    models trained per user in process, then one learned period.  The bounds were fixed
    before the first run."""
    cfg = dataclasses.replace(ScenarioConfig(), num_users=6, num_uavs=2)
    world = SyntheticWorld(cfg)
    content = [train_content_model(cfg, world, u)[0] for u in range(cfg.num_users)]
    mobility = [train_mobility_model(cfg, world, u)[0] for u in range(cfg.num_users)]
    fits = [m.training_nrmse(p) for m in content + mobility for p in range(m.n_patterns)]
    assert 0.0 < np.mean(fits) < 1.0
    logs, summary = sim.run_period(cfg, mode="esn", models=(content, mobility), world=world)
    assert len(logs) == cfg.slots_per_cache_period
    gap = summary["prediction_gap"]
    assert 0.0 <= gap["distribution_tv"] <= 1.0
    assert 0.0 <= gap["position_error_m"] <= 2.0 * cfg.area_radius_m
    for log in logs:
        log.reconcile()
    bound = summary["delay_lower_bound_s"]
    assert all(log.reports.delay_s[log.reports.delivered].min(initial=np.inf) >= bound
               for log in logs)
