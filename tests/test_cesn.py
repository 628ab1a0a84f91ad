import json
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (ALGEBRA_TOL, BATCHED_RECALL_RTOL, BATCHED_STATE_TOL, RIDGE_FORM_TOL,
                      SOLVE_AGREEMENT_TOL, OnePatternEsn, conceptor_matrix, dense_conceptor,
                      dense_not, echo_state_gap, one_pattern_drive, zero_conceptor)
from uavcache import cesn, linalg
from uavcache.config import ConfigError, EsnConfig, RandomSource

from test_config import documents


def sine(period: float, n: int, t0: int = 0, phase: float = 0.0) -> np.ndarray:
    t = np.arange(t0, t0 + n, dtype=float)
    return np.sin(2.0 * np.pi * (t + phase) / period)


def triangle(period: float, n: int, t0: int = 0) -> np.ndarray:
    t = np.arange(t0, t0 + n, dtype=float)
    phase = (t % period) / period
    return 2.0 * np.abs(2.0 * phase - 1.0) - 1.0


def signal_model(seed: int = 42, aperture: float = 60.0, n_res: int = 120,
                 n_train: int = 400, ridge: float = 0.01) -> cesn.EsnModel:
    cfg = EsnConfig(reservoir_size=n_res, spectral_radius=0.9, density=0.1, input_scale=1.0,
                    aperture=aperture, ridge=ridge, washout=50,
                    training_length=n_train)
    return cesn.EsnModel(cfg, 1, 1, RandomSource(seed).derive("test-esn"))


def load_signal(model: cesn.EsnModel, signal: np.ndarray) -> dict:
    return model.load_patterns([(signal[:, None], signal[:, None])])[0]


def last_entry_set(a: np.ndarray, value: float) -> np.ndarray:
    a = a.copy()
    a.flat[-1] = value
    return a


class TestDrive:
    def test_zero_weights_zero_states(self):
        model = signal_model()
        model.w = np.zeros_like(model.w)
        model.w_in = np.zeros_like(model.w_in)
        states, = model.drive([np.ones((10, 1))])
        assert np.all(states == 0.0)

    def test_single_step_tanh(self):
        model = signal_model(n_res=4)
        model.w = np.zeros_like(model.w)
        model.w_in = np.eye(4)[:, :1]
        states, = model.drive([np.array([[0.7]])])
        assert states[0, 0] == pytest.approx(np.tanh(0.7))
        assert np.all(states[1:, 0] == 0.0)

    def test_states_inside_unit_box(self):
        model = signal_model()
        states, = model.drive([sine(8.0, 200)[:, None]])
        assert np.abs(states).max() < 1.0

    def test_dimension_mismatch(self):
        model = signal_model()
        with pytest.raises(ValueError):
            model.drive([np.ones((5, 3))])

    def test_one_pattern_matches_the_reference(self):
        model = signal_model()
        signal = sine(8.0, 200)[:, None]
        states, = model.drive([signal])
        assert np.abs(states - one_pattern_drive(model, signal)).max() <= BATCHED_STATE_TOL

    def test_patterns_out_of_length_order(self):
        # the block steps longest first; the states come back in the given order
        model = signal_model()
        signals = [sine(8.0, 90)[:, None], triangle(14.0, 300)[:, None],
                   np.full((150, 1), 0.6), sine(13.0, 300)[:, None]]
        states = model.drive(signals)
        assert [x.shape for x in states] == [(120, 90), (120, 300), (120, 150), (120, 300)]
        for x, signal in zip(states, signals):
            assert np.abs(x - one_pattern_drive(model, signal)).max() <= BATCHED_STATE_TOL

    def test_no_patterns(self):
        assert signal_model().drive([]) == []


class TestConceptorAlgebra:
    def test_identity_correlation(self):
        c = cesn.compute_conceptor(np.eye(4) * 2.0, aperture=15.0)
        # R = I: every eigenvalue is 1/(1 + aperture**-2) = 225/226
        assert np.allclose(np.diag(conceptor_matrix(c)), 225.0 / 226.0)

    def test_diagonal_correlation(self):
        states = np.diag([np.sqrt(4.0 * 2), np.sqrt(1.0 * 2)])  # R = diag(4, 1)
        c = cesn.compute_conceptor(states, aperture=1.0)
        assert np.allclose(np.diag(conceptor_matrix(c)), [0.8, 0.5])

    def test_aperture_limits(self):
        states = np.diag([2.0, 1.0, 0.0])
        wide = conceptor_matrix(cesn.compute_conceptor(states, aperture=1e6))
        narrow = conceptor_matrix(cesn.compute_conceptor(states, aperture=1e-4))
        assert np.allclose(np.diag(wide)[:2], 1.0, atol=1e-9)
        assert np.diag(wide)[2] == pytest.approx(0.0, abs=1e-12)
        assert np.abs(narrow).max() < 1e-4

    @pytest.mark.parametrize("dim, n_steps", [(20, 7), (20, 20), (20, 35)])
    def test_matches_the_dense_reference(self, dim, n_steps):
        # both Grams: X^T X below 20 steps, X X^T from 20 on
        states = np.random.default_rng(dim + n_steps).standard_normal((dim, n_steps))
        c = cesn.compute_conceptor(states, aperture=3.0)
        expected = dense_conceptor(states @ states.T / n_steps, 3.0)
        assert np.abs(conceptor_matrix(c) - expected).max() <= RIDGE_FORM_TOL
        assert np.abs(c.u.T @ c.u - np.eye(len(c.lam))).max() <= RIDGE_FORM_TOL
        assert len(c.lam) == min(dim, n_steps)

    def test_cut_drops_directions_at_or_below_the_tolerance(self):
        # R = diag(1, 1e-12, 0) / 3: at aperture 1, s = 0.25, 3.3e-13 and 0
        c = cesn.compute_conceptor(np.diag([1.0, 1e-6, 0.0]), aperture=1.0)
        assert c.u.shape == (3, 1)
        assert c.s == pytest.approx([0.25])

    def test_not_of_zero_is_identity(self):
        # nothing stored: the free memory is the whole space
        assert cesn.free_memory(zero_conceptor(5), dim=5) == 1.0
        assert np.array_equal(dense_not(conceptor_matrix(zero_conceptor(5))), np.eye(5))

    def test_double_negation(self):
        c = conceptor_matrix(
            cesn.compute_conceptor(np.random.default_rng(0).standard_normal((6, 30)), 15.0))
        assert np.abs(dense_not(dense_not(c)) - c).max() <= ALGEBRA_TOL

    def test_not_complements_eigenvalues(self):
        c = cesn.compute_conceptor(np.random.default_rng(1).standard_normal((6, 30)), 15.0)
        flipped = np.sort(np.linalg.eigvalsh(dense_not(conceptor_matrix(c))))
        assert np.abs(flipped - np.sort(1.0 - c.s)).max() < 1e-9

    def test_or_with_zero_is_identity_element(self):
        c = cesn.compute_conceptor(np.random.default_rng(2).standard_normal((6, 30)), 15.0)
        either = cesn.conceptor_or(c, zero_conceptor(6))
        assert np.abs(conceptor_matrix(either) - conceptor_matrix(c)).max() <= ALGEBRA_TOL

    def test_self_or_grows_eigenvalues(self):
        c = cesn.compute_conceptor(np.random.default_rng(3).standard_normal((6, 30)), 15.0)
        doubled = cesn.conceptor_or(c, c)
        assert np.all(np.sort(doubled.s) >= np.sort(c.s) - 1e-12)

    def test_or_is_the_conceptor_of_the_summed_correlations(self):
        rng = np.random.default_rng(5)
        x, y = rng.standard_normal((8, 5)), rng.standard_normal((8, 4))
        either = cesn.conceptor_or(cesn.compute_conceptor(x, 2.0), cesn.compute_conceptor(y, 2.0))
        expected = dense_conceptor(x @ x.T / 5 + y @ y.T / 4, 2.0)
        assert np.abs(conceptor_matrix(either) - expected).max() <= RIDGE_FORM_TOL

    def test_or_commutes(self):
        rng = np.random.default_rng(4)
        a = cesn.compute_conceptor(rng.standard_normal((6, 30)), 15.0)
        b = cesn.compute_conceptor(rng.standard_normal((6, 30)), 15.0)
        assert np.abs(conceptor_matrix(cesn.conceptor_or(a, b))
                      - conceptor_matrix(cesn.conceptor_or(b, a))).max() <= ALGEBRA_TOL

    def test_aperture_mismatch_rejected(self):
        a = cesn.compute_conceptor(np.eye(3), 15.0)
        b = cesn.compute_conceptor(np.eye(3), 10.0)
        with pytest.raises(ValueError):
            cesn.conceptor_or(a, b)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(2, 12))
    def test_eigenvalues_always_in_unit_interval(self, seed, n):
        states = np.random.default_rng(seed).standard_normal((n, 3 * n))
        vals = cesn.compute_conceptor(states, 15.0).s
        assert vals.min() > linalg.CONCEPTOR_S_CUT
        assert vals.max() < 1.0

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(2, 20), data=st.data())
    def test_fewer_steps_than_states_match_the_correlation_form(self, seed, n, data):
        steps = data.draw(st.integers(1, n - 1))
        states = np.tanh(np.random.default_rng(seed).standard_normal((n, steps)))
        aperture = 10.0
        r = states @ states.T / steps
        expected = r @ np.linalg.inv(r + aperture ** -2 * np.eye(n))
        c = cesn.compute_conceptor(states, aperture)
        assert np.abs(conceptor_matrix(c) - expected).max() <= RIDGE_FORM_TOL
        assert len(c.lam) <= steps
        assert c.s.min() > linalg.CONCEPTOR_S_CUT
        assert c.s.max() < 1.0


class TestFreeMemory:
    def test_empty_reservoir_fully_free(self):
        assert cesn.free_memory(None, dim=8) == 1.0

    def test_saturated_memory_quota_near_zero(self):
        states = 5.0 * np.random.default_rng(0).standard_normal((6, 100))
        c = cesn.compute_conceptor(states, aperture=1e4)
        assert cesn.free_memory(c, dim=6) < 0.01

    def test_quota_nonincreasing_under_loads(self):
        model = signal_model()
        for period in (8.0, 13.0, 10.0):
            load_signal(model, sine(period, 400))
        assert all(a >= b for a, b in zip(model.quota_history, model.quota_history[1:]))

    def test_running_memory_is_one_or_per_pattern(self, monkeypatch):
        calls = []
        original = cesn.conceptor_or

        def counting_or(a, b):
            calls.append(1)
            return original(a, b)

        monkeypatch.setattr(cesn, "conceptor_or", counting_or)
        model = signal_model(n_res=60)
        periods = (6.0, 8.0, 11.0, 15.0, 21.0)
        for period in periods:
            load_signal(model, sine(period, 200))
        assert len(calls) == len(periods) - 1

        aperture = model.cfg.aperture
        fold = cesn.compute_conceptor(model._train_states[0], aperture)
        for states in model._train_states[1:]:
            fold = original(fold, cesn.compute_conceptor(states, aperture))
        assert np.array_equal(model.memory.u, fold.u)
        assert np.array_equal(model.memory.lam, fold.lam)
        n = model.cfg.reservoir_size
        assert 1.0 - fold.s.sum() / n == model.quota_history[-1]

    @pytest.mark.parametrize("n_train", [100, 200], ids=["T<N", "T>N"])
    def test_ridge_systems_go_through_solve_spd(self, monkeypatch, n_train):
        calls = {"solve_spd": 0, "pinv": 0, "sym_eig": 0}
        for name in calls:
            def counting(*args, _name=name, _original=getattr(linalg, name)):
                calls[_name] += 1
                return _original(*args)
            monkeypatch.setattr(linalg, name, counting)
        model = signal_model(n_res=60)
        periods = (6.0, 8.0, 11.0)
        for period in periods:
            load_signal(model, sine(period, n_train))
        model.train_readout()
        # per pattern: the ridge solve of the b update, and the eigendecompositions
        # of its conceptor and (after the first) of the OR into the running
        # memory; then the readout's solve
        assert calls == {"solve_spd": len(periods) + 1, "pinv": 0,
                         "sym_eig": 2 * len(periods) - 1}

    def test_similar_patterns_consume_less_than_dissimilar(self):
        similar = signal_model(seed=5)
        load_signal(similar, sine(8.0, 400))
        used_similar = load_signal(similar, sine(8.0, 400, phase=0.3))["quota_used"]
        dissimilar = signal_model(seed=5)
        load_signal(dissimilar, sine(8.0, 400))
        used_dissimilar = load_signal(dissimilar, sine(13.0, 400))["quota_used"]
        assert used_similar < used_dissimilar


class TestLoadingAndRecall:
    @pytest.mark.parametrize("n_res, n_train", [(120, 150), (60, 200)], ids=["T<N", "T>N"])
    def test_d_increment_matches_the_pinv_formula(self, n_res, n_train):
        model = signal_model(n_res=n_res, aperture=10.0)
        load_signal(model, sine(8.0, n_train))
        signal = sine(13.0, n_train)[:, None]
        free = dense_not(conceptor_matrix(model.memory))
        b_before = model.b.copy()
        d_before = model.w_in @ b_before
        washout = model.cfg.washout
        v = model.drive([signal])[0]
        v_old = np.concatenate([np.zeros((n_res, 1)), v[:, :-1]], axis=1)[:, washout:]
        s = free @ v_old
        t_mat = model.w_in @ signal[washout:].T - d_before @ v_old
        n = s.shape[1]
        gram = s @ s.T / n + model.cfg.aperture ** -2 * np.eye(n_res)
        expected = (linalg.pinv(gram) @ (s @ t_mat.T / n)).T
        model.load_patterns([(signal, signal)])
        # D = w_in b, so the D increment is w_in times the b increment
        assert np.abs(model.w_in @ (model.b - b_before) - expected).max() \
            <= SOLVE_AGREEMENT_TOL

    def test_first_pattern_sees_identity_free_memory(self):
        model = signal_model()
        report = load_signal(model, sine(8.0, 400))
        assert report["quota_before"] == 1.0

    def test_redundant_load_barely_changes_d(self):
        # sharp conceptors mask a repeated pattern almost completely; D = w_in b
        model = signal_model(aperture=100.0)
        load_signal(model, sine(8.0, 400))
        b_before = model.b.copy()
        load_signal(model, sine(8.0, 400))
        assert np.linalg.norm(model.b - b_before) / np.linalg.norm(b_before) < 1e-3

    def test_four_sinusoids_recall(self):
        model = signal_model(n_res=200)
        periods = (6.0, 8.0, 11.0, 15.0)
        for period in periods:
            load_signal(model, sine(period, 400))
        model.train_readout()
        for i, period in enumerate(periods):
            out = model.recall([i], 60)[0, :, 0]
            assert cesn.nrmse(out, sine(period, 60, t0=400)) <= 0.1

    def test_constant_pattern_recall(self):
        model = signal_model()
        load_signal(model, np.full(400, 0.6))
        model.train_readout()
        out = model.recall([0], 50)[0, :, 0]
        assert cesn.nrmse(out, np.full(50, 0.6)) <= 0.05

    def test_wrong_conceptor_recalls_worse(self):
        model = signal_model(n_res=200)
        load_signal(model, sine(8.0, 400))
        load_signal(model, triangle(14.0, 400))
        model.train_readout()
        truth = sine(8.0, 60, t0=400)
        right = cesn.nrmse(model.recall([0], 60)[0, :, 0], truth)
        wrong = cesn.nrmse(model.recall([1], 60)[0, :, 0], truth)
        assert right < wrong

    def test_states_stay_bounded_long_run(self):
        model = signal_model(n_res=80)
        load_signal(model, sine(8.0, 400))
        model.train_readout()
        # recall's autonomous update, run here to see every state it visits
        c, wd = conceptor_matrix(model.conceptors[0]), model.w + model.w_in @ model.b
        v = model.pattern_states[0]
        largest = 0.0
        for _ in range(10_000):
            v = c @ np.tanh(wd @ v)
            largest = max(largest, float(np.abs(v).max()))
        assert largest <= 1.0

    def test_non_interference_on_earlier_patterns(self):
        model = signal_model(n_res=200)
        periods = (8.0, 13.0)
        load_signal(model, sine(periods[0], 400))
        model.train_readout()
        before = cesn.nrmse(model.recall([0], 60)[0, :, 0], sine(periods[0], 60, t0=400))
        load_signal(model, sine(periods[1], 400))
        model.train_readout()
        after = cesn.nrmse(model.recall([0], 60)[0, :, 0], sine(periods[0], 60, t0=400))
        assert after <= before + 0.05

    def test_memory_exhaustion_signalled(self):
        # full-rank strong input drives saturate a tiny reservoir quickly
        cfg = EsnConfig(reservoir_size=6, spectral_radius=0.9, density=1.0, input_scale=2.0,
                        aperture=200.0, ridge=0.01, washout=10, training_length=120)
        model = cesn.EsnModel(cfg, 6, 1, RandomSource(1).derive("exhaust"))
        rng = np.random.default_rng(0)
        with pytest.raises(cesn.MemoryExhausted):
            for _ in range(10):
                model.load_patterns([(rng.standard_normal((120, 6)), np.zeros((120, 1)))])

    @pytest.mark.parametrize("n_samples", [10, 50])
    def test_washout_must_leave_samples(self, n_samples):
        model = signal_model()  # washout 50
        with pytest.raises(cesn.TooFewSamples, match="washout of 50"):
            load_signal(model, sine(8.0, n_samples))
        assert model.n_patterns == 0

    def test_recall_requires_training(self):
        model = signal_model()
        load_signal(model, sine(8.0, 400))
        with pytest.raises(cesn.UntrainedModel):
            model.recall([0], 5)

    def test_unknown_pattern_rejected(self):
        model = signal_model()
        load_signal(model, sine(8.0, 400))
        model.train_readout()
        with pytest.raises(IndexError):
            model.recall([3], 5)

    @pytest.mark.parametrize("patterns", [[1], [2, 0, 1], [1, 1]],
                             ids=["one", "out-of-order", "repeated"])
    def test_recall_matches_one_pattern_at_a_time(self, patterns):
        # a constant keeps fewer directions than a sine, so the stacked factors are padded
        model = signal_model()
        for signal in (sine(8.0, 400), np.full(400, 0.6), triangle(14.0, 400)):
            load_signal(model, signal)
        model.train_readout()
        assert len({len(c.lam) for c in model.conceptors}) > 1
        expected = OnePatternEsn.recall(model, patterns, 60)
        got = model.recall(patterns, 60)
        assert got.shape == (len(patterns), 60, 1)
        assert np.abs(got - expected).max() <= BATCHED_RECALL_RTOL * np.abs(expected).max()

    def test_every_pattern_checked_before_any_is_driven(self, monkeypatch):
        model = signal_model()
        monkeypatch.setattr(model, "drive", lambda inputs: pytest.fail("drove"))
        good, short = sine(8.0, 400)[:, None], sine(8.0, 50)[:, None]
        with pytest.raises(cesn.TooFewSamples,
                           match="^short one: 50 samples leave none after the washout of 50"):
            model.load_patterns([(good, good), (short, short)], names=["good", "short one"])
        with pytest.raises(cesn.TooFewSamples, match="^pattern 1: 50 samples"):
            model.load_patterns([(good, good), (short, short)])
        assert model.n_patterns == 0

    @pytest.mark.parametrize("inputs, targets, message", [
        (np.ones((100, 2)), np.ones((100, 1)), "input width 2 != model width 1"),
        (np.ones((100, 1)), np.ones((100, 3)), "target width 3 != model width 1"),
        (np.ones((100, 1)), np.ones((99, 1)), "100 input rows but 99 target rows"),
    ], ids=["inputs", "targets", "lengths"])
    def test_shape_errors_name_the_pattern(self, inputs, targets, message):
        model = signal_model()
        with pytest.raises(ValueError, match=f"^sub-period 3: {message}$"):
            model.load_patterns([(inputs, targets)], names=["sub-period 3"])
        assert model.n_patterns == 0


class TestReadoutRegression:
    def _inject(self, model, states, targets):
        model._train_states = [np.asarray(states, dtype=float)]
        model._train_targets = [np.asarray(targets, dtype=float)]

    def test_scalar_exact_fit_without_ridge(self):
        model = signal_model(n_res=1, ridge=0.0)
        self._inject(model, np.ones((1, 12)), 2.0 * np.ones((1, 12)))
        assert model.train_readout()[0, 0] == pytest.approx(2.0)

    def test_scalar_ridge_shrinks_to_half(self):
        n = 12
        model = signal_model(n_res=1, ridge=float(np.sqrt(n)))
        self._inject(model, np.ones((1, n)), 2.0 * np.ones((1, n)))
        # lambda**2 = n doubles the denominator: 2n / (n + n) = 1
        assert model.train_readout()[0, 0] == pytest.approx(1.0)

    def test_ridge_residual_bounded_by_unregularized(self):
        rng = np.random.default_rng(1)
        v = rng.standard_normal((6, 80))
        y = rng.standard_normal((2, 80))
        free, ridged = signal_model(n_res=6, ridge=0.0), signal_model(n_res=6, ridge=1.0)
        self._inject(free, v, y)
        self._inject(ridged, v, y)
        w_free = free.train_readout()
        free_residual = np.linalg.norm(w_free @ v - y)
        w_ridge = ridged.train_readout()
        ridge_residual = np.linalg.norm(w_ridge @ v - y)
        assert ridge_residual >= free_residual
        assert np.linalg.norm(w_ridge) <= np.linalg.norm(w_free) + 1e-12

    def test_no_patterns_rejected(self):
        with pytest.raises(cesn.UntrainedModel):
            signal_model().train_readout()


class TestNrmse:
    def test_perfect_prediction(self):
        y = np.sin(np.linspace(0, 7, 50))
        assert cesn.nrmse(y, y) == 0.0

    def test_constant_mean_predictor_scores_one(self):
        y = np.sin(np.linspace(0, 7, 500))
        assert cesn.nrmse(np.full_like(y, y.mean()), y) == pytest.approx(1.0, rel=1e-9)

    def test_matched_noise_scores_near_one(self):
        rng = np.random.default_rng(0)
        y = np.sin(np.linspace(0, 50, 20_000))
        noisy = y + y.std() * rng.standard_normal(y.size)
        assert cesn.nrmse(noisy, y) == pytest.approx(1.0, abs=0.03)

    def test_zero_truth_rejected(self):
        with pytest.raises(ValueError):
            cesn.nrmse(np.ones(5), np.zeros(5))

    def test_constant_truth_uses_relative_error(self):
        truth = np.full(50, 0.6)
        assert cesn.nrmse(truth * 1.01, truth) == pytest.approx(0.01, rel=1e-6)


class TestEchoStateProperty:
    def test_initial_conditions_forgotten(self):
        rs = RandomSource(3)
        w = linalg.random_reservoir(100, 0.1, 0.9, rs.derive("w"))
        w_in = rs.derive("win").generator().uniform(-1, 1, (100, 1))
        gap = echo_state_gap(w, w_in, sine(20.0, 500)[:, None], rs.derive("init"))
        assert gap <= 1e-6

    def test_explosive_reservoir_keeps_gap(self):
        rs = RandomSource(3)
        rng = rs.derive("w").generator()
        w = rng.uniform(-1, 1, (100, 100))
        w *= 2.5 / linalg.spectral_radius(w)
        w_in = rs.derive("win").generator().uniform(-1, 1, (100, 1))
        gap = echo_state_gap(w, w_in, 0.1 * sine(20.0, 500)[:, None], rs.derive("init"))
        assert gap > 1e-6


class TestStoredReservoir:
    """The model keeps w as its nonzeros; every read rebuilds the drawn matrix."""

    @pytest.mark.parametrize("n_res", [60, 200], ids=["dense-radius", "arnoldi"])
    def test_rebuilt_reservoir_is_the_draw(self, tmp_path, n_res):
        model = signal_model(n_res=n_res)
        cfg = model.cfg
        drawn = linalg.random_reservoir(n_res, cfg.density, cfg.spectral_radius,
                                        RandomSource(42).derive("test-esn").derive("reservoir"))
        fresh = model.w
        load_signal(model, sine(8.0, 400))
        model.train_readout()
        model.release_training_state()
        released = model.w
        cesn.save_model(model, tmp_path / "model.npz")
        restored = cesn.load_model(tmp_path / "model.npz").w
        assert (n_res >= linalg.ARNOLDI_MIN_N) == (n_res == 200)
        for w in (fresh, released, restored):
            assert w.dtype == drawn.dtype
            assert np.array_equal(w, drawn)
        # a read is the caller's own copy: the model keeps no dense matrix to write into
        released[:] = 1.0
        assert np.array_equal(model.w, drawn)


class TestSerialization:
    def test_roundtrip_recall_identical(self, tmp_path):
        model = signal_model(n_res=80)
        load_signal(model, sine(8.0, 400))
        load_signal(model, sine(13.0, 400))
        model.train_readout()
        expected = model.recall([1], 30)[0]
        path = tmp_path / "model.npz"
        cesn.save_model(model, path)
        restored = cesn.load_model(path)
        assert np.array_equal(restored.recall([1], 30)[0], expected)
        assert restored.cfg == model.cfg
        assert restored.quota_history == model.quota_history

    def test_loaded_model_refuses_new_patterns(self, tmp_path):
        model = signal_model(n_res=40)
        load_signal(model, sine(8.0, 400))
        model.train_readout()
        path = tmp_path / "model.npz"
        cesn.save_model(model, path)
        restored = cesn.load_model(path)
        b = restored.b.copy()
        quotas = list(restored.quota_history)
        with pytest.raises(cesn.ReadOnlyModel, match="no running memory"):
            load_signal(restored, sine(13.0, 400))
        assert np.array_equal(restored.b, b)
        assert restored.quota_history == quotas
        assert restored.n_patterns == 1

    def test_released_model_refuses_training(self):
        model = signal_model(n_res=40)
        load_signal(model, sine(8.0, 400))
        model.train_readout()
        fit = model.training_nrmse(0)
        model.release_training_state()
        b, w_out = model.b.copy(), model.w_out.copy()
        quotas = list(model.quota_history)
        with pytest.raises(cesn.ReadOnlyModel, match="no running memory"):
            load_signal(model, sine(13.0, 400))
        with pytest.raises(cesn.ReadOnlyModel, match="no running memory"):
            model.train_readout()
        assert np.array_equal(model.b, b)
        assert np.array_equal(model.w_out, w_out)
        assert model.quota_history == quotas
        assert model.n_patterns == 1
        assert model.training_nrmse(0) == fit

    def test_released_model_is_the_loaded_model(self, tmp_path):
        model = signal_model(n_res=40)
        load_signal(model, sine(8.0, 400))
        load_signal(model, sine(13.0, 400))
        model.train_readout()
        model.release_training_state()
        path = tmp_path / "model.npz"
        cesn.save_model(model, path)
        restored = cesn.load_model(path)
        assert vars(restored).keys() == vars(model).keys()
        for name in ("w", "w_in", "b", "w_out"):
            assert np.array_equal(getattr(restored, name), getattr(model, name))
        for name in ("u", "lam"):
            assert [getattr(c, name).tobytes() for c in restored.conceptors] == \
                [getattr(c, name).tobytes() for c in model.conceptors]
        assert [v.tobytes() for v in restored.pattern_states] == \
            [v.tobytes() for v in model.pattern_states]
        for name in ("memory", "_train_states", "_train_targets", "quota_history"):
            assert getattr(restored, name) == getattr(model, name)
        assert np.array_equal(restored.recall([1], 30)[0], model.recall([1], 30)[0])
        # the file keeps no fit figures; only the released model still reports them
        assert model.training_nrmse(1) > 0.0
        with pytest.raises(IndexError):
            restored.training_nrmse(1)

    def test_model_saved_under_another_cut_refused(self, tmp_path, monkeypatch):
        model = signal_model(n_res=40)
        with monkeypatch.context() as patched:
            patched.setattr(linalg, "CONCEPTOR_S_CUT", 1e-10)
            # a period of 8.3 steps keeps directions of s from 1e-10 to 1e-6
            load_signal(model, sine(8.3, 400))
            model.train_readout()
        s = model.conceptors[0].s
        assert ((s > 1e-10) & (s <= linalg.CONCEPTOR_S_CUT)).any()
        path = tmp_path / "model.npz"
        cesn.save_model(model, path)
        with pytest.raises(ConfigError, match=r"conceptor_lam keeps a direction whose s is at "
                                              r"most the conceptor cut 1e-06: .* retrain"):
            cesn.load_model(path)

    def test_patterns_with_no_direction_above_the_cut(self, tmp_path):
        # zero inputs drive zero states, so every direction's s is 0 and none is kept
        model = signal_model(n_res=30)
        zeros, ones = np.zeros((200, 1)), np.ones((200, 1))
        model.load_patterns([(zeros, ones), (zeros, -ones)])
        assert [c.u.shape for c in model.conceptors] == [(30, 0), (30, 0)]
        assert model.memory.u.shape == (30, 0)
        assert model.quota_history == [1.0, 1.0, 1.0]
        model.train_readout()
        path = tmp_path / "model.npz"
        cesn.save_model(model, path)
        with np.load(path) as data:
            assert data["conceptor_u"].shape == (2, 30, 0)
        restored = cesn.load_model(path)
        assert np.array_equal(restored.recall([0, 1], 20), model.recall([0, 1], 20))
        assert restored.recall([0, 1], 20).shape == (2, 20, 1)

    def test_untrained_model_not_saved(self, tmp_path):
        model = signal_model(n_res=10)
        load_signal(model, sine(8.0, 400))
        with pytest.raises(cesn.UntrainedModel):
            cesn.save_model(model, tmp_path / "model.npz")

    @pytest.mark.parametrize("name, edit, message", [
        pytest.param(name, cut, "has shape ", id=f"{name}-cut") for name, cut in [
            ("w", lambda a: a[:-1]), ("b", lambda a: a[:, :-1]), ("w_in", lambda a: a[:-1]),
            ("w_out", lambda a: a[:, :-1]), ("conceptor_u", lambda a: a[:, :-1]),
            ("conceptor_lam", lambda a: a[:, :-1]), ("pattern_states", lambda a: a[:1]),
            ("quota_history", lambda a: a[:-1])]
    ] + [
        pytest.param(name, lambda a, v=value: last_entry_set(a, v), "has a non-finite entry",
                     id=f"{name}-{value}")
        for name, value in [("w", np.nan), ("w_in", np.inf), ("b", np.nan), ("w_out", np.inf),
                            ("conceptor_u", np.nan), ("conceptor_lam", np.nan),
                            ("pattern_states", np.inf), ("quota_history", np.nan)]
    ] + [
        pytest.param(name, lambda a, t=dtype: a.astype(t), "has dtype ",
                     id=f"{name}-{np.dtype(dtype).name}")
        for name, dtype in [("b", np.complex128), ("w_out", np.complex128), ("w", np.float32),
                            ("quota_history", np.int64), ("conceptor_lam", np.bool_)]
    ] + [
        pytest.param("conceptor_lam", lambda a: last_entry_set(a, -1e-3),
                     "has a negative eigenvalue", id="conceptor_lam-negative"),
    ])
    def test_inconsistent_arrays_rejected(self, tmp_path, name, edit, message):
        model = signal_model(n_res=10)
        load_signal(model, sine(8.0, 400))
        load_signal(model, sine(13.0, 400))
        model.train_readout()
        path = tmp_path / "model.npz"
        cesn.save_model(model, path)
        data = dict(np.load(path))
        data[name] = edit(data[name])
        np.savez(path, **data)
        with pytest.raises(ValueError, match=f"^{name} {message}"):
            cesn.load_model(path)

    def test_version_checked(self, tmp_path):
        model = signal_model(n_res=10)
        load_signal(model, sine(8.0, 400))
        model.train_readout()
        path = tmp_path / "model.npz"
        cesn.save_model(model, path)
        data = dict(np.load(path))
        data["format_version"] = np.int64(99)
        np.savez(path, **data)
        with pytest.raises(ValueError):
            cesn.load_model(path)


@pytest.fixture(scope="module")
def tiny_model_file(tmp_path_factory):
    model = signal_model(n_res=10)
    load_signal(model, sine(8.0, 400))
    model.train_readout()
    path = tmp_path_factory.mktemp("stored") / "model.npz"
    cesn.save_model(model, path)
    with np.load(path) as data:
        return path, dict(data)


def json_text(doc) -> str:
    """``doc`` as JSON, integers too long for Python to print included."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return json.dumps(doc)
    finally:
        sys.set_int_max_str_digits(limit)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(esn=documents(EsnConfig))
@example(esn={"washout": 10 ** 5000})
@example(esn={"reservoir_size": 11})
def test_any_stored_esn_block_loads_or_is_a_config_error(tiny_model_file, esn):
    """The stored ``esn`` block is the saved model's with the drawn fields over it."""
    path, members = tiny_model_file
    stored = json.loads(bytes(members["cfg"]).decode("utf-8"))
    text = json_text(dict(stored, **esn))
    np.savez(path, **dict(members, cfg=np.frombuffer(text.encode("utf-8"), dtype=np.uint8)))
    try:
        model = cesn.load_model(path)
    except ConfigError as err:
        assert err.violations
    else:
        assert model.cfg.reservoir_size == 10
