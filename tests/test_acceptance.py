"""Acceptance suite: one test per release criterion, with printed verdicts.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion.  Heavy end-to-end criteria run at desk scale; every simulated
run feeds the delay-bound audit (criterion 8), which is re-checked at the end
over everything that executed before it.
"""

import dataclasses
import itertools
import json
import time

import numpy as np
import pytest

from conftest import (conceptor_matrix, desk_config, place_uav_exhaustive, price_alone,
                      search_alone, zero_conceptor)
from uavcache import cesn, placement, sim
from uavcache.channel import zf_beamformer
from uavcache.cli import main
from uavcache.config import ChannelParams, EsnConfig, RandomSource
from uavcache.qoe import delay_lower_bound_s

# Every simulated run appends (min delivered delay, bound) here; criterion 8
# audits the collection after the heavy criteria have executed.
_DELAY_AUDIT: list[tuple[float | None, float]] = []


def _audited_run(cfg, **kwargs):
    logs, summary = sim.run_period(cfg, **kwargs)
    _DELAY_AUDIT.append((summary["min_delivered_delay_s"], summary["delay_lower_bound_s"]))
    return logs, summary


def _verdict(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


# -- criteria 1 and 2: conceptor multi-pattern memory ---------------------------


def _memory_signal(kind: str, n: int, t0: int = 0) -> np.ndarray:
    t = np.arange(t0, t0 + n, dtype=float)
    if kind == "sin_a":
        return np.sin(2.0 * np.pi * t / 8.0)
    if kind == "sin_b":
        return np.sin(2.0 * np.pi * t / 13.0)
    if kind == "const":
        return np.full(n, 0.6)
    if kind == "shuttle":  # two-waypoint trajectory: triangle wave between stops
        phase = (t % 10.0) / 10.0
        return 2.0 * np.abs(2.0 * phase - 1.0) - 1.0
    if kind == "near_dup":  # small phase perturbation of sin_a
        return np.sin(2.0 * np.pi * (t + 0.2) / 8.0)
    raise ValueError(kind)


@pytest.fixture(scope="module")
def pattern_memory():
    start = time.time()
    cfg = EsnConfig(reservoir_size=200, spectral_radius=0.9, density=0.1, input_scale=1.0,
                    aperture=60.0, ridge=0.01, washout=50, training_length=400)
    model = cesn.EsnModel(cfg, 1, 1, RandomSource(42).derive("acceptance"))
    kinds = ("sin_a", "sin_b", "const", "shuttle")
    n = 400
    used, after_own = [], []
    for i, kind in enumerate(kinds):
        s = _memory_signal(kind, n)
        used.append(model.load_patterns([(s[:, None], s[:, None])])[0]["quota_used"])
        model.train_readout()
        out = model.recall([i], 60)[0, :, 0]
        after_own.append(cesn.nrmse(out, _memory_signal(kind, 60, t0=n)))
    final = [cesn.nrmse(model.recall([i], 60)[0, :, 0], _memory_signal(kind, 60, t0=n))
             for i, kind in enumerate(kinds)]
    dup_signal = _memory_signal("near_dup", n)[:, None]
    dup, = model.load_patterns([(dup_signal, dup_signal)])
    return {
        "quota_history": model.quota_history[:5],
        "used": used,
        "after_own": after_own,
        "final": final,
        "dup_used": dup["quota_used"],
        "elapsed_s": time.time() - start,
    }


def test_criterion_01_multi_pattern_memory(pattern_memory):
    quotas = pattern_memory["quota_history"]
    recall_ok = max(pattern_memory["final"]) <= 0.1
    quota_ok = all(a > b for a, b in zip(quotas, quotas[1:]))
    dup_ratio = pattern_memory["dup_used"] / max(pattern_memory["used"])
    runtime_ok = pattern_memory["elapsed_s"] < 60.0
    _verdict(1, recall_ok and quota_ok and dup_ratio < 0.5 and runtime_ok,
             f"recall NRMSE max {max(pattern_memory['final']):.4f} (<=0.1), "
             f"quota strictly decreasing {quota_ok}, duplicate uses "
             f"{dup_ratio:.0%} of the most dissimilar load (<50%), "
             f"{pattern_memory['elapsed_s']:.1f}s (<60s)")


def test_criterion_02_non_interference(pattern_memory):
    degradation = np.array(pattern_memory["final"]) - np.array(pattern_memory["after_own"])
    _verdict(2, float(degradation.max()) <= 0.05,
             f"worst recall degradation {degradation.max():.4f} (<=0.05 absolute)")


# -- criteria 3, 6, 7, 12: end-to-end optimizer behavior -------------------------


def _caching_scenario(**overrides):
    base = dict(num_users=70, num_uavs=5, num_contents=25, cache_size=5,
                generators={"request_concentration": 2.0})
    base.update(overrides)
    return desk_config(**base)


def test_criterion_03_caching_power_gain():
    start = time.time()
    cfg = _caching_scenario()
    ratios = []
    for seed in range(10):
        seeded = dataclasses.replace(cfg, seed=31_000 + seed)
        _, cached = _audited_run(seeded)
        _, bare = _audited_run(seeded, baseline="no_cache")
        ratios.append(cached["total_uav_power_w"] / bare["total_uav_power_w"])
    elapsed = time.time() - start
    _verdict(3, max(ratios) < 1.0 and float(np.mean(ratios)) <= 0.8 and elapsed < 120.0,
             f"power ratio mean {np.mean(ratios):.3f} (<=0.8), per-seed max "
             f"{max(ratios):.3f} (<1), {elapsed:.0f}s (<120s)")


def test_criterion_04_cache_selection_exactness():
    rng = RandomSource(4).derive("cache-exact").generator()
    mismatches = 0
    for _ in range(100):
        n = int(rng.integers(2, 9))
        c = int(rng.integers(1, min(3, n) + 1))
        rows = int(rng.integers(1, 7))
        probs = rng.random((rows, n))
        probs /= probs.sum(axis=1, keepdims=True)
        savings = rng.random((rows, n))
        chosen = placement.select_cache(probs, savings, c)
        scores = (probs * savings).sum(axis=0)
        best = max(itertools.combinations(range(n), c),
                   key=lambda subset: sum(scores[list(subset)]))
        if set(chosen) != set(best):
            mismatches += 1
    _verdict(4, mismatches == 0,
             f"{mismatches}/100 instances differ from exhaustive subset search (exact)")


def test_criterion_05_placement_optimality():
    cfg = desk_config()
    p = ChannelParams(exponent_nlos=2.0)
    rng = RandomSource(5).derive("placement").generator()
    h = 10.0
    worst_cf, worst_ls = 0.0, 0.0
    for _ in range(10):
        n_users = int(rng.integers(4, 11))
        users = rng.uniform(-150.0, 150.0, (n_users, 3, 2))
        targets = rng.uniform(1e6, 8e6, n_users)
        assert placement.closed_form_regime(h, users) == "low"
        xy = placement.place_uav_closed_form(users, targets, n_users, cfg.uav_bandwidth_hz)
        channel = (p, cfg.uav_bandwidth_hz, cfg.noise_power_w)
        obj_cf = price_alone(users, targets, *channel)([xy[0], xy[1], h])
        grid = place_uav_exhaustive(users, targets, 3.0, [h], n_users, *channel).objective_w[0]
        _, refined, _ = search_alone(users, targets, [xy[0], xy[1], h], *channel, h)
        worst_cf = max(worst_cf, obj_cf / grid)
        worst_ls = max(worst_ls, refined / grid)
    _verdict(5, worst_cf <= 1.10 and worst_ls <= 1.05,
             f"closed form within {(worst_cf - 1) * 100:.1f}% of the 3 m grid (<=10%), "
             f"local search within {(worst_ls - 1) * 100:.1f}% (<=5%)")


def test_criterion_06_uav_count_monotonicity():
    cfg = desk_config(num_users=70)
    powers = []
    for k in (3, 5, 7):
        _, summary = _audited_run(dataclasses.replace(cfg, num_uavs=k))
        powers.append(summary["avg_uav_power_w"])
    decreasing = all(a > b for a, b in zip(powers, powers[1:]))
    halved = powers[2] <= 0.5 * powers[0]
    _verdict(6, decreasing and halved,
             f"avg per-UAV power {['%.4g' % p for p in powers]} strictly decreasing "
             f"{decreasing}, K=7 at {powers[2] / powers[0]:.0%} of K=3 (<=50%)")


def test_criterion_07_satisfaction_gain():
    results = []
    for users in (70, 90, 120):
        cfg = _caching_scenario(num_users=users)
        _, with_uavs = _audited_run(cfg)
        _, without = _audited_run(cfg, baseline="no_uav")
        results.append((users, with_uavs["satisfied_fraction"], without["satisfied_fraction"]))
    never_worse = all(w >= wo for _, w, wo in results)
    strict_at_120 = results[-1][1] > results[-1][2]
    _verdict(7, never_worse and strict_at_120,
             "satisfied fraction (uav vs none): "
             + ", ".join(f"U={u}: {w:.3f}/{wo:.3f}" for u, w, wo in results))


def test_criterion_12_random_cache_ablation():
    cfg = desk_config(num_users=24, num_uavs=3, cache_size=1,
                      slots_per_cache_period=12, slots_per_collection=3,
                      intervals_per_slot=20,
                      generators={"request_concentration": 2.0})
    details = []
    ok = True
    for cache in (1, 3, 5):
        sized = dataclasses.replace(cfg, cache_size=cache)
        planned, random_cache = [], []
        for seed in range(30):
            seeded = dataclasses.replace(sized, seed=77_000 + seed)
            _, a = _audited_run(seeded)
            _, b = _audited_run(seeded, baseline="random_cache")
            planned.append(a["total_uav_power_w"])
            random_cache.append(b["total_uav_power_w"])
        ok = ok and float(np.mean(planned)) < float(np.mean(random_cache))
        details.append(f"C={cache}: {np.mean(planned):.3f} vs {np.mean(random_cache):.3f} W")
    _verdict(12, ok, "mean power planned vs random over 30 seeds, " + "; ".join(details))


# -- criteria 8-11: structural properties ----------------------------------------


def test_criterion_08_delay_bound_audit():
    # run one more default-scenario pass, then audit everything recorded so far
    cfg = desk_config(num_users=30, num_uavs=3)
    logs, _ = _audited_run(cfg)
    bound = delay_lower_bound_s(cfg)
    below = [r for log in logs for r in log.reports
             if r.delivered and r.delay_s < bound]
    audited_ok = all(lowest is None or lowest >= b for lowest, b in _DELAY_AUDIT)
    _verdict(8, not below and audited_ok and len(_DELAY_AUDIT) >= 90,
             f"0 deliveries below the bound in {len(_DELAY_AUDIT)} audited runs "
             f"(exact predicate)")


def test_criterion_09_zero_forcing():
    rng = RandomSource(9).derive("zf").generator()
    worst = 0.0
    for _ in range(1000):
        r_q = int(rng.integers(1, 8))
        u_q = int(rng.integers(1, r_q + 1))
        h = rng.standard_normal((u_q, r_q))
        f = zf_beamformer(h)
        worst = max(worst, float(np.abs(h @ f - np.eye(u_q)).max()))
    _verdict(9, worst <= 1e-9, f"worst ||HF - I||_inf = {worst:.2e} (<=1e-9)")


def test_criterion_10_conceptor_algebra():
    rng = RandomSource(10).derive("alg").generator()
    tol = 1e-12
    ok = True
    worst = 0.0
    for _ in range(100):
        dim = int(rng.integers(2, 16))
        c = cesn.compute_conceptor(rng.standard_normal((dim, 4 * dim)), 15.0)
        d = cesn.compute_conceptor(rng.standard_normal((dim, 4 * dim)), 15.0)
        zero = zero_conceptor(dim)
        ok = ok and c.s.min() >= -tol and c.s.max() < 1.0
        # the OR identities on the factored form, compared as the matrices it stands for
        checks = [
            np.abs(conceptor_matrix(cesn.conceptor_or(c, zero)) - conceptor_matrix(c)).max(),
            np.abs(conceptor_matrix(cesn.conceptor_or(c, d))
                   - conceptor_matrix(cesn.conceptor_or(d, c))).max(),
        ]
        worst = max(worst, *checks)
        ok = ok and worst <= tol
    _verdict(10, ok, f"eigenvalues in [0,1) and algebra identities within {worst:.2e} (<=1e-12)")


def test_criterion_11_cli_determinism(tmp_path):
    cfg_doc = {"num_users": 12, "num_rrhs": 6, "num_rrh_clusters": 2, "num_uavs": 2,
               "cache_size": 3, "intervals_per_slot": 10, "slots_per_collection": 3,
               "slots_per_cache_period": 12,
               "generators": {"training_weeks": 2, "request_concentration": 2.0}}
    cfg_file = tmp_path / "config.json"
    cfg_file.write_text(json.dumps(cfg_doc))
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["simulate", "--config", str(cfg_file), "--oracle",
                     "--out", str(out), "--seed", "1234"]) == 0
        outs.append(out)
    slots_same = (outs[0] / "slots.csv").read_bytes() == (outs[1] / "slots.csv").read_bytes()
    summary_same = (outs[0] / "summary.json").read_bytes() == (outs[1] / "summary.json").read_bytes()
    _verdict(11, slots_same and summary_same,
             "repeated cmd_simulate produced byte-identical slots.csv and summary.json")
