import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import (desk_config, idle_config, infeasible_config, predicted_positions,
                      reference_reports)
from uavcache import placement, sim
from uavcache.config import ScenarioConfig, serialize
from uavcache.generators import SyntheticWorld, track_positions
from uavcache.predictors import period_collections, train_content_model, train_mobility_model
from uavcache.qoe import LINK_UAV_CACHE, LINK_UAV_FRONTHAUL, delay_lower_bound_s


def run(cfg, **kwargs):
    return sim.run_period(cfg, **kwargs)


def oracle_plan(cfg):
    """The oracle's plan of ``cfg``'s period."""
    world = SyntheticWorld(cfg)
    return sim.plan_slots(cfg, world, world.distributions, period_collections(world))


class TestRunPeriod:
    def test_zero_users_zero_power(self, tiny_cfg):
        cfg = dataclasses.replace(tiny_cfg, num_users=0, num_uavs=0)
        logs, summary = run(cfg)
        assert summary["requests"] == 0
        assert summary["total_uav_power_w"] == 0.0
        assert all(log.requests == 0 for log in logs)
        assert summary["prediction_gap"] == {"position_error_m": 0.0, "distribution_tv": 0.0}

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
            delivered = sum(1 for r in outcomes if r.delivered)
            assert delivered + log.failures == log.requests
            # an idle user's row is never delivered
            assert delivered == np.count_nonzero(log.reports.delivered)

    def test_each_user_logged_every_slot(self, tiny_cfg):
        logs, _ = run(tiny_cfg)
        for log in logs:
            assert sorted(r.user for r in log.reports) == list(range(tiny_cfg.num_users))

    def test_cache_constant_within_period(self, tiny_cfg):
        # the cache stage runs once per period and makes one choice per UAV
        caches = sim.select_caches(oracle_plan(tiny_cfg))
        assert len(caches) == tiny_cfg.num_uavs
        assert all(len(c) <= tiny_cfg.cache_size for c in caches)
        assert all(len(set(c)) == len(c) for c in caches)

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
        caches = sim.BASELINES["random_cache"]["select_caches"](oracle_plan(tiny_cfg))
        assert len(caches) == tiny_cfg.num_uavs
        for cache in caches:
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
        # the proposed pipeline is the one baseline that swaps no stage
        for name, stages in sim.BASELINES.items():
            assert bool(stages) == (name != "none")
            assert set(stages) <= {"plan_slots", "select_caches", "place_uavs"}

    @pytest.mark.parametrize("baseline", ["no_cache", "random_cache", "fixed_placement"])
    def test_planning_unchanged_when_a_later_stage_is_swapped(self, tiny_cfg, baseline):
        planned, _ = run(tiny_cfg)
        swapped, _ = run(tiny_cfg, baseline=baseline)
        assert "plan_slots" not in sim.BASELINES[baseline]
        assert [log.n_fr for log in swapped] == [log.n_fr for log in planned]


# Bound of the oracle's planned positions against the world's, in meters, fixed
# before the first run.  The planner interpolates from the period's first
# collection point, the world from the horizon's, so the two differ in rounding.
PLANNED_POSITION_TOL_M = 1e-9

# Bound of a slot's track against the straight segment between its ends, in
# meters, fixed before the first run: the two interpolations round differently.
SEGMENT_TOL_M = 1e-9

PREDICTION_SCALES = {"tiny": lambda tiny: tiny, "desk": lambda tiny: desk_config(),
                     "paper": lambda tiny: ScenarioConfig()}


class TestPrediction:
    @pytest.mark.parametrize("scale", list(PREDICTION_SCALES))
    def test_oracle_positions_match_the_world_within_the_bound(self, tiny_cfg, scale):
        cfg = PREDICTION_SCALES[scale](tiny_cfg)
        world = SyntheticWorld(cfg)
        plan = sim.plan_slots(cfg, world, world.distributions, period_collections(world))
        users, f = range(cfg.num_users), cfg.intervals_per_slot
        worst = max(np.abs(predicted_positions(plan, users, s, f)
                           - world.interval_positions(users, world.period_slot0 + s, f)).max()
                    for s in range(cfg.slots_per_cache_period))
        assert worst <= PLANNED_POSITION_TOL_M

    @pytest.mark.parametrize("scale", list(PREDICTION_SCALES))
    def test_every_slot_track_is_one_segment_at_constant_speed(self, tiny_cfg, scale):
        # What placement's quadrature rests on: within a slot, a predicted track
        # is the straight segment from the slot's start to its end, run at
        # constant speed, so the nodes and the interval midpoints sit on it.
        cfg = PREDICTION_SCALES[scale](tiny_cfg)
        plan = oracle_plan(cfg)
        f = cfg.intervals_per_slot
        along = np.concatenate([placement.NODE_OFFSETS, (np.arange(f) + 0.5) / f])
        for s in range(cfg.slots_per_cache_period):
            ends = track_positions(plan.collections, range(cfg.num_users), [s, s + 1.0],
                                   cfg.slots_per_collection)
            track = track_positions(plan.collections, range(cfg.num_users), s + along,
                                    cfg.slots_per_collection)
            segment = ends[:, :1] + along[:, None] * (ends[:, 1:] - ends[:, :1])
            assert np.abs(track - segment).max() <= SEGMENT_TOL_M

    def test_a_hand_built_truth_plans_the_oracle_run(self):
        cfg = desk_config()
        world = SyntheticWorld(cfg)
        c0 = world.training_days * world.n_sub
        plan = sim.plan_slots(cfg, world, world.distributions.copy(),
                              world.collections[:, c0:c0 + world.n_sub + 1].copy())
        caches = sim.select_caches(plan)
        logs = sim.deliver(plan, caches, sim.place_uavs(plan, caches))
        oracle, _ = run(cfg, mode="oracle")
        assert sim.slots_csv_text(logs).encode() == sim.slots_csv_text(oracle).encode()

    def test_planning_never_reads_the_simulated_days_first_slot(self, tiny_cfg):
        world = SyntheticWorld(tiny_cfg)
        prediction = world.distributions, period_collections(world)
        slot0 = world.period_slot0
        del world.period_slot0  # any read by a planning stage raises AttributeError
        plan = sim.plan_slots(tiny_cfg, world, *prediction)
        caches = sim.select_caches(plan)
        positions = sim.place_uavs(plan, caches)
        world.period_slot0 = slot0
        logs = sim.deliver(plan, caches, positions)
        oracle, _ = run(tiny_cfg, mode="oracle")
        assert sim.slots_csv_text(logs) == sim.slots_csv_text(oracle)


class TestSlotPartition:
    @pytest.mark.parametrize("case", ["desk", "desk_no_uav", "tiny_infeasible"])
    def test_each_slot_splits_the_users_between_the_tiers(self, tiny_cfg, case):
        cfg = infeasible_config(tiny_cfg) if case == "tiny_infeasible" else desk_config()
        stages = sim.BASELINES["no_uav"] if case == "desk_no_uav" else {}
        world = SyntheticWorld(cfg)
        plan = stages.get("plan_slots", sim.plan_slots)(cfg, world, world.distributions,
                                                        period_collections(world))
        caches = sim.select_caches(plan)
        logs = sim.deliver(plan, caches, sim.place_uavs(plan, caches))
        antennas = [len(c) for c in plan.clusters]
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
    "desk": (lambda tiny: desk_config(), "none",
             {("rrh", True), ("uav_cache", True), ("uav_fronthaul", True)}),
    "desk_no_uav": (lambda tiny: desk_config(), "no_uav", {("rrh", True), ("unserved", False)}),
    "tiny_infeasible": (infeasible_config, "none", {("uav_cache", True), ("uav_fronthaul", True)}),
    "tiny_idle": (idle_config, "none", {("idle", False), ("rrh", True), ("uav_cache", True)}),
    # the BBU -> UAV link carries 0 bits, so every fetch is late
    "tiny_dead_fronthaul": (lambda tiny: dataclasses.replace(tiny, bbu_power_w=1e-300), "none",
                            {("uav_cache", True), ("uav_fronthaul", False)}),
}


class TestScoring:
    @pytest.mark.parametrize("case", list(SCORING_CASES))
    def test_reports_equal_the_per_user_scorer(self, tiny_cfg, monkeypatch, case):
        make_cfg, baseline, reached = SCORING_CASES[case]
        cfg = make_cfg(tiny_cfg)
        score_routes, links, slot = sim._score_routes, set(), [0]

        def checked(plan, content, routes):
            got = score_routes(plan, content, routes)
            assert got.tolist() == reference_reports(plan, slot[0], routes)
            links.update(zip(got.link.tolist(), got.delivered.tolist()))
            slot[0] += 1
            return got

        monkeypatch.setattr(sim, "_score_routes", checked)
        run(cfg, baseline=baseline)
        assert slot[0] == cfg.slots_per_cache_period
        assert reached <= links


    def test_each_uav_power_adds_its_users_in_ascending_order(self):
        plan = oracle_plan(desk_config())
        caches = sim.select_caches(plan)
        logs = sim.deliver(plan, caches, sim.place_uavs(plan, caches))
        for uav, log in zip(plan.uav, logs):
            for k, total in enumerate(log.uav_power_w.tolist()):
                running = 0.0
                for r in log.reports:
                    if uav[r.user] == k:
                        running += r.power_w
                assert total == running


class TestInvariants:
    # The counts are read from the report rows, so only the per-UAV power can disagree.
    @pytest.mark.parametrize("change", [{"uav_power_w": 1e-3}], ids=["power"])
    def test_reconcile_rejects_a_log_that_does_not_add_up(self, tiny_cfg, change):
        log = run(tiny_cfg)[0][0]
        log.reconcile()
        broken = dataclasses.replace(
            log, **{name: getattr(log, name) + step for name, step in change.items()})
        with pytest.raises(sim.SimInvariantError):
            broken.reconcile()


# A steady paper period's delivery makes about 1,000 minor page faults, its workspace's
# first touches; before the workspace it made about 85,000, faulting every slot's arrays in.
DELIVER_FAULT_BOUND = 5_000


class TestDeliveryWorkspace:
    def test_reused_buffers_leak_nothing_between_slots(self, tiny_cfg):
        cfg = idle_config(tiny_cfg)
        plan = oracle_plan(cfg)
        caches = sim.select_caches(plan)
        positions = sim.place_uavs(plan, caches)
        logs = sim.deliver(plan, caches, positions)
        served = [np.count_nonzero(np.isin(log.reports.link, (LINK_UAV_CACHE, LINK_UAV_FRONTHAUL)))
                  for log in logs]
        steps = np.sign(np.diff(served))
        # the served count shrinks and then grows again
        assert any(-1 in steps[:i] and 1 in steps[i:] for i in range(len(steps)))
        cached = sim._cached(plan, caches)
        for s, log in enumerate(logs):
            alone = sim._deliver_slot(plan, cached, s, positions[s], sim.Workspace(max(served)))
            assert alone.reports.tobytes() == log.reports.tobytes()

    def test_a_round_reuses_the_blocks_of_the_first(self):
        work = sim.Workspace(4)
        first = [work((3, 5)), work((3, 5, 2))]
        work.keep()
        again = [work((4, 5)), work((2, 5, 2))]
        assert [a.shape for a in again] == [(4, 5), (2, 5, 2)]
        assert all(np.shares_memory(a, b) for a, b in zip(first, again))
        assert not np.shares_memory(*again)
        with pytest.raises(sim.SimInvariantError):
            work((5, 5))  # more rows than the workspace holds

    def test_a_period_delivers_in_seven_interval_planes(self, tiny_cfg, monkeypatch):
        made = []

        class Recorded(sim.Workspace):
            def __init__(self, rows):
                super().__init__(rows)
                made.append(self)

        monkeypatch.setattr(sim, "Workspace", Recorded)
        plan = oracle_plan(tiny_cfg)
        caches = sim.select_caches(plan)
        sim.deliver(plan, caches, sim.place_uavs(plan, caches))
        work, = made
        # the positions' two planes and five more: dead buffers' blocks serve later ones
        plane = work.rows * tiny_cfg.intervals_per_slot
        assert sorted(b.size // plane for b in work._blocks) == [1, 1, 1, 1, 1, 2]

    def test_keep_hands_the_blocks_of_dead_buffers_to_later_calls(self):
        work = sim.Workspace(4)
        live, dead, plane = work((4, 5)), work((4, 5)), work((4, 5, 2))
        work.keep(live[1:])  # a view keeps its whole block
        reused = [work((3, 5)), work((2, 5, 2))]
        assert np.shares_memory(reused[0], dead) and np.shares_memory(reused[1], plane)
        fresh = work((4, 5))
        assert not any(np.shares_memory(fresh, a) for a in (live, dead, plane))

    @pytest.mark.slow
    def test_a_steady_paper_period_delivers_without_page_faults(self):
        resource = pytest.importorskip("resource")
        cfg = ScenarioConfig()
        world = SyntheticWorld(cfg)
        for _ in range(2):  # the second period is the steady one
            plan = sim.plan_slots(cfg, world, world.distributions, period_collections(world))
            caches = sim.select_caches(plan)
            positions = sim.place_uavs(plan, caches)
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            sim.deliver(plan, caches, positions)
            faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
        assert faults < DELIVER_FAULT_BOUND


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
        rows = sim.sweep(tiny_cfg, "users", [10, 14], baselines=("none", "no_uav"))
        assert [(r["value"], r["baseline"]) for r in rows] == \
            [(10, "none"), (10, "no_uav"), (14, "none"), (14, "no_uav")]
        for with_uavs, without in zip(rows[::2], rows[1::2]):
            assert with_uavs["satisfied_fraction"] >= without["satisfied_fraction"]

    def test_unknown_param_rejected(self, tiny_cfg):
        with pytest.raises(ValueError):
            sim.sweep(tiny_cfg, "altitude", [1])

    def test_unknown_baseline_rejected_before_any_run(self, tiny_cfg, monkeypatch):
        def no_run(*args, **kwargs):
            raise AssertionError("a run started")

        monkeypatch.setattr(sim, "run_period", no_run)
        with pytest.raises(ValueError, match="half_cache"):
            sim.sweep(tiny_cfg, "cache", [1, 2], baselines=("none", "half_cache"))


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


# A tiny oracle period and a tiny learned period in a fresh interpreter; it prints
# whether numpy.ma and numpy.polynomial were imported.  In numpy 2.4 the first
# np.unique call imports numpy.ma and inspect, about a megabyte of live memory the
# run has no use for; importing numpy.polynomial (for its Gauss–Legendre nodes)
# costs 1.75 MB.
LAZY_IMPORT_SCRIPT = """
import sys
from uavcache import predictors, sim
from uavcache.config import load_config_dict, parse_document
from uavcache.generators import SyntheticWorld

cfg = load_config_dict(parse_document(sys.stdin.read()))
world = SyntheticWorld(cfg)
sim.run_period(cfg, world=world)
models = [[train(cfg, world, u)[0] for u in range(cfg.num_users)]
          for train in (predictors.train_content_model, predictors.train_mobility_model)]
sim.run_period(cfg, mode="esn", models=models, world=world)
print("numpy.ma" in sys.modules, "numpy.polynomial" in sys.modules)
"""


def test_a_period_never_imports_masked_arrays(tiny_cfg):
    src = Path(sim.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run([sys.executable, "-c", LAZY_IMPORT_SCRIPT], input=serialize(tiny_cfg),
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False", "False"]
