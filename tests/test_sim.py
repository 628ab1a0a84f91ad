import dataclasses

import numpy as np
import pytest

from conftest import desk_config, idle_config, infeasible_config, reference_reports
from uavcache import placement, sim
from uavcache.generators import SyntheticWorld
from uavcache.predictors import OraclePredictor, train_content_model, train_mobility_model
from uavcache.qoe import LINK_UAV_CACHE, LINK_UAV_FRONTHAUL, delay_lower_bound_s


def run(cfg, **kwargs):
    return sim.run_period(cfg, **kwargs)


class TestRunPeriod:
    def test_zero_users_zero_power(self, tiny_cfg):
        cfg = dataclasses.replace(tiny_cfg, num_users=0, num_uavs=0)
        logs, summary = run(cfg)
        assert summary["requests"] == 0
        assert summary["total_uav_power_w"] == 0.0
        assert all(log.requests == 0 for log in logs)

    def test_full_catalog_cache_all_hits(self, tiny_cfg):
        cfg = dataclasses.replace(tiny_cfg, cache_size=tiny_cfg.num_contents)
        _, summary = run(cfg)
        assert summary["uav_deliveries"] > 0
        assert summary["cache_hit_rate"] == 1.0

    def test_caching_strictly_cheaper_than_none(self, tiny_cfg):
        _, cached = run(tiny_cfg)
        _, bare = run(tiny_cfg, baseline="no_cache")
        assert cached["total_uav_power_w"] < bare["total_uav_power_w"]

    def test_conservation_per_slot(self, tiny_cfg):
        logs, _ = run(tiny_cfg)
        for log in logs:
            outcomes = [r for r in log.reports if r.content >= 0]
            assert len(outcomes) == log.requests
            assert log.delivered + log.failures == log.requests
            delivered = sum(1 for r in outcomes if r.delivered)
            assert delivered == log.delivered

    def test_each_user_logged_every_slot(self, tiny_cfg):
        logs, _ = run(tiny_cfg)
        for log in logs:
            assert sorted(r.user for r in log.reports) == list(range(tiny_cfg.num_users))

    def test_cache_constant_within_period(self, tiny_cfg):
        logs, _ = run(tiny_cfg)
        first = logs[0].caches
        assert all(log.caches == first for log in logs)
        assert all(len(c) <= tiny_cfg.cache_size for c in first)
        assert all(len(set(c)) == len(c) for c in first)

    def test_delay_bound_respected(self, tiny_cfg):
        logs, summary = run(tiny_cfg)
        bound = delay_lower_bound_s(tiny_cfg)
        assert summary["delay_lower_bound_s"] == bound
        for log in logs:
            for r in log.reports:
                if r.delivered:
                    assert r.delay_s >= bound

    def test_per_uav_power_adds_up(self, tiny_cfg):
        logs, summary = run(tiny_cfg)
        total = sum(float(log.uav_power_w.sum()) for log in logs)
        assert summary["total_uav_power_w"] == pytest.approx(total)

    def test_altitude_floor_always_respected(self, tiny_cfg):
        logs, _ = run(tiny_cfg)
        for log in logs:
            assert np.all(log.uav_positions[:, 2] >= tiny_cfg.min_altitude_m - 1e-9)

    def test_low_regime_parks_at_the_closed_form_on_the_floor(self, tiny_cfg, monkeypatch):
        cfg = dataclasses.replace(tiny_cfg, min_altitude_m=1.0, pathloss=dataclasses.replace(
            tiny_cfg.pathloss, exponent_nlos=2.0))
        closed_form, closed_forms = placement.place_uav_closed_form, []

        def recording(*args, **kwargs):
            closed_forms.append(closed_form(*args, **kwargs))
            return closed_forms[-1]

        monkeypatch.setattr(placement, "place_uav_closed_form", recording)
        logs, _ = run(cfg)
        parked = {np.array([*xy, 1.0]).tobytes() for xy in closed_forms}
        assert parked and parked <= {pos.tobytes() for log in logs for pos in log.uav_positions}

    def test_unknown_baseline_rejected(self, tiny_cfg):
        with pytest.raises(ValueError):
            run(tiny_cfg, baseline="half_cache")

    def test_unknown_mode_rejected(self, tiny_cfg):
        with pytest.raises(ValueError):
            run(tiny_cfg, mode="psychic")


class TestPowerCap:
    def test_cap_violations_flagged(self, tiny_cfg):
        cap = 1e-3  # binds on most, not all, aerial deliveries of tiny_cfg
        logs, summary = run(dataclasses.replace(tiny_cfg, uav_max_power_w=cap))
        reports = [r for log in logs for r in log.reports]
        infeasible = [r for r in reports if not r.power_feasible]
        assert 0 < summary["power_cap_violations"] < summary["uav_deliveries"]
        assert summary["power_cap_violations"] == len(infeasible)
        assert all(r.link in (LINK_UAV_CACHE, LINK_UAV_FRONTHAUL) for r in infeasible)
        # power_w is the mean of the clamped per-interval powers; a mean of
        # values all equal to the cap may round one ulp above it.
        assert max(r.power_w for r in reports) <= cap * (1.0 + 1e-12)


    def test_dead_wireless_fronthaul_prices_uncached_routes_at_the_cap(self, tiny_cfg):
        # the BBU -> UAV link carries 0 bits: only cache hits can arrive
        logs, summary = run(dataclasses.replace(tiny_cfg, bbu_power_w=1e-300))
        fetched = [r for log in logs for r in log.reports if r.link == LINK_UAV_FRONTHAUL]
        assert fetched and summary["cache_hit_rate"] > 0.0
        assert not any(r.delivered for r in fetched)
        assert not any(r.power_feasible for r in fetched)
        for r in fetched:
            assert r.power_w == pytest.approx(tiny_cfg.uav_max_power_w, rel=1e-12)


class TestBaselines:
    def test_no_uav_spends_nothing(self, tiny_cfg):
        logs, summary = run(tiny_cfg, baseline="no_uav")
        assert summary["total_uav_power_w"] == 0.0
        assert summary["num_uavs"] == 0
        assert all(log.uav_power_w.size == 0 for log in logs)

    def test_no_uav_satisfaction_from_terrestrial_only(self, tiny_cfg):
        _, with_uavs = run(tiny_cfg)
        _, without = run(tiny_cfg, baseline="no_uav")
        assert without["satisfied_fraction"] <= with_uavs["satisfied_fraction"]

    def test_random_cache_draws_valid_sets(self, tiny_cfg):
        logs, _ = run(tiny_cfg, baseline="random_cache")
        for cache in logs[0].caches:
            assert len(cache) == tiny_cfg.cache_size
            assert len(set(cache)) == len(cache)
            assert all(0 <= n < tiny_cfg.num_contents for n in cache)

    def test_fixed_placement_holds_position(self, tiny_cfg):
        logs, _ = run(tiny_cfg, baseline="fixed_placement")
        first = logs[0].uav_positions
        for log in logs:
            assert np.array_equal(log.uav_positions, first)
        assert np.all(first[:, 2] == tiny_cfg.min_altitude_m)

    def test_fixed_placement_not_cheaper(self, tiny_cfg):
        _, optimized = run(tiny_cfg)
        _, parked = run(tiny_cfg, baseline="fixed_placement")
        assert optimized["total_uav_power_w"] <= parked["total_uav_power_w"]


class TestStageTable:
    def test_baselines_replace_named_stages_only(self):
        for stages in sim.BASELINES.values():
            assert stages and set(stages) <= {"plan_slots", "select_caches", "place_uavs",
                                              "deliver"}

    @pytest.mark.parametrize("baseline", ["no_cache", "random_cache", "fixed_placement"])
    def test_planning_unchanged_when_a_later_stage_is_swapped(self, tiny_cfg, baseline):
        planned, _ = run(tiny_cfg)
        swapped, _ = run(tiny_cfg, baseline=baseline)
        assert "plan_slots" not in sim.BASELINES[baseline]
        assert [log.n_fr for log in swapped] == [log.n_fr for log in planned]


class TestSlotPartition:
    @pytest.mark.parametrize("case", ["desk", "desk_no_uav", "tiny_infeasible"])
    def test_each_slot_splits_the_users_between_the_tiers(self, tiny_cfg, case):
        cfg = infeasible_config(tiny_cfg) if case == "tiny_infeasible" else desk_config()
        stages = sim.BASELINES["no_uav"] if case == "desk_no_uav" else {}
        world = SyntheticWorld(cfg)
        plan = stages.get("plan_slots", sim.plan_slots)(cfg, world, OraclePredictor(world))
        caches = sim.select_caches(plan)
        logs = sim.deliver(plan, caches, sim.place_uavs(plan, caches))
        antennas = [c.n_antennas for c in plan.clusters]
        assert len(plan.rrh) == len(plan.uav) == len(logs) == cfg.slots_per_cache_period
        for rrh, uav, log in zip(plan.rrh, plan.uav, logs):
            assert not np.any((rrh >= 0) & (uav >= 0))
            if plan.n_uavs:
                assert np.all(uav[rrh < 0] >= 0) and np.all(uav < plan.n_uavs)
            else:
                assert np.all(uav < 0)
            assert np.all(np.bincount(rrh[rrh >= 0], minlength=len(antennas)) <= antennas)
            assert log.n_fr == np.count_nonzero(rrh >= 0)


# config, baseline and the (link, delivered) rows each run must reach
SCORING_CASES = {
    "desk": (lambda tiny: desk_config(), None,
             {("rrh", True), ("uav_cache", True), ("uav_fronthaul", True)}),
    "desk_no_uav": (lambda tiny: desk_config(), "no_uav", {("rrh", True), ("unserved", False)}),
    "tiny_infeasible": (infeasible_config, None, {("uav_cache", True), ("uav_fronthaul", True)}),
    "tiny_idle": (idle_config, None, {("idle", False), ("rrh", True), ("uav_cache", True)}),
    # the BBU -> UAV link carries 0 bits, so every fetch is late
    "tiny_dead_fronthaul": (lambda tiny: dataclasses.replace(tiny, bbu_power_w=1e-300), None,
                            {("uav_cache", True), ("uav_fronthaul", False)}),
}


class TestScoring:
    @pytest.mark.parametrize("case", list(SCORING_CASES))
    def test_reports_equal_the_per_user_scorer(self, tiny_cfg, monkeypatch, case):
        make_cfg, baseline, reached = SCORING_CASES[case]
        cfg = make_cfg(tiny_cfg)
        score_routes, links, names, slot = sim._score_routes, set(), set(), [0]

        def checked(plan, content, routes):
            got = score_routes(plan, content, routes)
            assert got == reference_reports(plan, slot[0], routes)
            links.update((r.link, r.delivered) for r in got)
            names.update((name, id(name)) for r in got for name in (r.link, r.mos_label))
            slot[0] += 1
            return got

        monkeypatch.setattr(sim, "_score_routes", checked)
        run(cfg, baseline=baseline)
        assert slot[0] == cfg.slots_per_cache_period
        assert reached <= links
        # the reports of a period share one str object per link or label name
        assert len(names) == len({name for name, _ in names})


    def test_each_uav_power_adds_its_users_in_ascending_order(self):
        cfg = desk_config()
        world = SyntheticWorld(cfg)
        plan = sim.plan_slots(cfg, world, OraclePredictor(world))
        caches = sim.select_caches(plan)
        logs = sim.deliver(plan, caches, sim.place_uavs(plan, caches))
        for uav, log in zip(plan.uav, logs):
            for k, total in enumerate(log.uav_power_w.tolist()):
                running = 0.0
                for r in log.reports:
                    if uav[r.user] == k:
                        running += r.power_w
                assert total == running


class TestDeterminism:
    def test_identical_runs_identical_artifacts(self, tiny_cfg):
        logs1, s1 = run(tiny_cfg)
        logs2, s2 = run(tiny_cfg)
        assert sim.slots_csv_text(logs1) == sim.slots_csv_text(logs2)
        assert sim.summary_json_text(s1) == sim.summary_json_text(s2)

    def test_seed_changes_outcome(self, tiny_cfg):
        _, s1 = run(tiny_cfg)
        _, s2 = run(dataclasses.replace(tiny_cfg, seed=tiny_cfg.seed + 1))
        assert s1["total_uav_power_w"] != s2["total_uav_power_w"]


class TestSweep:
    def test_rows_one_per_value(self, tiny_cfg):
        rows = sim.sweep(tiny_cfg, "cache", [1, 2, 3])
        assert [r["value"] for r in rows] == [1, 2, 3]
        assert all(r["param"] == "cache" for r in rows)

    def test_cache_sweep_hit_rate_nondecreasing(self, tiny_cfg):
        rows = sim.sweep(tiny_cfg, "cache", [1, 3, 6, 10])
        hits = [r["cache_hit_rate"] for r in rows]
        assert all(a <= b + 1e-12 for a, b in zip(hits, hits[1:]))

    def test_cache_sweep_power_nonincreasing(self, tiny_cfg):
        rows = sim.sweep(tiny_cfg, "cache", [1, 3, 6, 10])
        power = [r["total_uav_power_w"] for r in rows]
        assert all(a >= b - 1e-9 for a, b in zip(power, power[1:]))

    def test_users_sweep_baseline_comparison(self, tiny_cfg):
        for value in (10, 14):
            cfg = dataclasses.replace(tiny_cfg, num_users=value)
            _, with_uavs = run(cfg)
            _, without = run(cfg, baseline="no_uav")
            assert with_uavs["satisfied_fraction"] >= without["satisfied_fraction"]

    def test_unknown_param_rejected(self, tiny_cfg):
        with pytest.raises(ValueError):
            sim.sweep(tiny_cfg, "altitude", [1])


class TestEsnMode:
    def test_pipeline_runs_with_trained_models(self, tiny_cfg):
        world = SyntheticWorld(tiny_cfg)
        content = [train_content_model(tiny_cfg, world, u)[0]
                   for u in range(tiny_cfg.num_users)]
        mobility = [train_mobility_model(tiny_cfg, world, u)[0]
                    for u in range(tiny_cfg.num_users)]
        logs, summary = run(tiny_cfg, mode="esn", models=(content, mobility))
        assert summary["mode"] == "esn"
        assert summary["prediction_gap"]["position_error_m"] > 0.0
        assert 0.0 <= summary["satisfied_fraction"] <= 1.0
        assert len(logs) == tiny_cfg.slots_per_cache_period

    def test_models_required(self, tiny_cfg):
        with pytest.raises(ValueError):
            run(tiny_cfg, mode="esn")


class TestSerializationText:
    def test_slots_csv_shape(self, tiny_cfg):
        logs, _ = run(tiny_cfg)
        text = sim.slots_csv_text(logs)
        lines = text.strip().split("\n")
        assert lines[0] == ",".join(sim.SLOTS_COLUMNS)
        assert len(lines) == 1 + tiny_cfg.num_users * tiny_cfg.slots_per_cache_period

    def test_summary_json_round_trips(self, tiny_cfg):
        import json
        _, summary = run(tiny_cfg)
        parsed = json.loads(sim.summary_json_text(summary))
        assert parsed["schema_version"] == sim.SUMMARY_SCHEMA_VERSION
        assert parsed["requests"] == summary["requests"]

    def test_sweep_csv_header(self, tiny_cfg):
        rows = sim.sweep(tiny_cfg, "uavs", [1, 2])
        text = sim.sweep_csv_text(rows)
        assert text.startswith(",".join(sim.SWEEP_COLUMNS))
        assert len(text.strip().split("\n")) == 3
