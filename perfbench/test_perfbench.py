"""Tests of the benchmark itself: exact trace counts, traced == untraced, the contract.

    python3 -m pytest -q perfbench          # about two minutes: two paper-scale runs
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time

import pytest

import run

run.import_package()

import numpy as np  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from uavcache import channel, placement, qoe, sim  # noqa: E402
from uavcache.config import ScenarioConfig  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
PINS = json.loads((run.HERE / "pins.json").read_text())


def test_every_lookup_name_is_wrapped_and_restored():
    original = channel.uav_user_pathloss_db
    assert placement.uav_user_pathloss_db is original and sim.uav_user_pathloss_db is original
    with tracer.Tracer() as tr:
        for module in (channel, placement, sim):
            assert module.uav_user_pathloss_db is not original
        cfg = ScenarioConfig()
        user_pos = np.array([[[10.0, 20.0], [12.0, 21.0]], [[-30.0, 5.0], [-31.0, 4.0]]])
        placement.placement_objective([0.0, 0.0, 120.0], user_pos, [1e6, 2e6], 2,
                                      cfg.pathloss, cfg.uav_bandwidth_hz, cfg.noise_power_w)
        qoe.delay_rate_requirement_bits(True, cfg)  # calls delay_lower_bound_s internally
    stats = tr.table()
    assert stats["channel.pathloss"]["calls"] == 1
    assert stats["channel.pathloss"]["points"] == 4
    assert stats["qoe.min_power"]["calls"] == 1
    assert stats["qoe.delay_lower_bound"]["calls"] == 1
    for module in (channel, placement, sim):
        assert module.uav_user_pathloss_db is original


def test_self_time_excludes_traced_callees():
    cfg = ScenarioConfig()
    with tracer.Tracer() as tr:
        placement.placement_objective([0.0, 0.0, 120.0], np.zeros((3, 50, 2)) + 5.0,
                                      [1e6] * 3, 3, cfg.pathloss, cfg.uav_bandwidth_hz,
                                      cfg.noise_power_w)
    pl = tr.table()["channel.pathloss"]
    assert pl["self_s"] == pytest.approx(pl["s"])


def test_timeline_cuts_repetitions_into_the_same_pieces():
    cfg = ScenarioConfig()
    user_pos = np.zeros((3, 50, 2)) + 5.0
    reps = []
    for _ in range(3):
        with tracer.Timeline() as timeline:
            start = time.perf_counter()
            for _ in range(4):
                placement.place_uav_closed_form(user_pos, [1e6] * 3, 3, cfg.uav_bandwidth_hz)
            end = time.perf_counter()
        assert len(timeline.stamps) == 8  # entry and exit of each call
        reps.append(tracer.pieces(timeline.stamps, start, end))
        assert sum(reps[-1]) == pytest.approx(end - start)
    assert {len(r) for r in reps} == {9}
    assert tracer.fastest_pieces(reps) == sum(min(t) for t in zip(*reps))
    assert tracer.fastest_pieces(reps) <= min(map(sum, reps))
    assert tracer.fastest_pieces(reps[:1]) is None
    assert tracer.fastest_pieces([reps[0], reps[1][:-1]]) is None
    assert placement.place_uav_closed_form.__name__ == "place_uav_closed_form"


def test_repeats_do_not_depend_on_machine_speed():
    for workload in workloads.WORKLOADS.values():
        assert workload.repeats(BENCHMARK["run_seconds"], run.MIN_REPEATS) >= 2
    assert workloads.WORKLOADS["oracle_paper"].repeats(30, 2) == 3


def test_mismatches_tolerance():
    assert workloads.mismatches({"a": 1.0, "b": [1, "x"]}, {"a": 1.0 + 1e-9, "b": [1, "x"]}) == []
    assert workloads.mismatches({"a": 1.0}, {"a": 1.0 + 1e-5})
    assert workloads.mismatches({"a": 1}, {"a": 2})
    assert workloads.mismatches({"a": None}, {"a": None}) == []
    assert workloads.mismatches({"a": 1.0}, {"b": 1.0})


def test_benchmark_json_matches_run_py():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOAD_NAMES)
    assert list(workloads.WORKLOADS) == list(run.WORKLOAD_NAMES)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] == \
        list(tracer.PER_LAYER)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "oracle_paper",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


@pytest.mark.parametrize("seed", ["0", "99"])
def test_pins_cover_default_and_held_out_seed(seed):
    for name in run.WORKLOAD_NAMES:
        assert seed in PINS[name]


def test_train_p12_trace_counts_are_exact():
    workload = workloads.WORKLOADS["train_p12"]
    with tracer.Tracer() as tr:
        cfg, world = workloads.setup(workload, 0)
        outcome = workload.op(cfg, world)
    stats = tr.table()
    assert stats["cesn.load_pattern"]["calls"] == 12
    assert stats["cesn.conceptor_or"]["calls"] == 121
    assert stats["predictors.train_content"]["calls"] == 1
    assert outcome.problems == []
    assert workloads.mismatches(PINS["train_p12"]["0"]["outputs"], outcome.outputs) == []


def test_traced_summary_equals_untraced():
    workload = workloads.WORKLOADS["oracle_paper"]
    cfg, world = workloads.setup(workload, 0)
    untraced = workload.op(cfg, world)
    with tracer.Tracer() as tr:
        traced = workload.op(cfg, world)
    assert traced.outputs == untraced.outputs
    assert traced.info == untraced.info
    assert workloads.mismatches(PINS["oracle_paper"]["0"]["outputs"], untraced.outputs) == []
    stats = tr.table()
    assert stats["sim.run_period"]["calls"] == 1
    assert stats["placement.local_search"]["evals"] > stats["placement.local_search"]["calls"]
    assert stats["cesn.load_pattern"]["calls"] == 0
