"""The benchmark's tracer still finds, runs and counts what it traces.

``perfbench/tracer.py`` looks each target up with ``vars(owner)[attr]``, so a
rename under ``src/`` would crash every benchmark run.  It reads work counts
from what the traced functions return, so a changed return type breaks only
traced benchmark runs.  These checks fail the test suite instead: every target
must resolve, and a small period and one small content model run under the
tracer.  Every benchmark operation runs under the tracer's ``Timeline``, so a
small period runs under it too.  The tracer file is only read, never changed.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np

from uavcache import placement, predictors, sim
from uavcache.config import ScenarioConfig
from uavcache.generators import SyntheticWorld

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_tracer_target_resolves(monkeypatch):
    tracer = load_tracer(monkeypatch)
    assert tracer.TARGETS
    for prefix, owner_spec, attr, _ in tracer.TARGETS:
        owner = tracer._owner(owner_spec)
        assert attr in vars(owner), f"{prefix}: {owner_spec}.{attr} is gone"
        assert callable(vars(owner)[attr]), f"{prefix}: {owner_spec}.{attr} is not callable"


def test_traced_run_matches_untraced_and_counts_stages(tiny_cfg, monkeypatch):
    tracer = load_tracer(monkeypatch)
    world = SyntheticWorld(tiny_cfg)
    untraced, _ = sim.run_period(tiny_cfg, mode="oracle", world=world)
    with tracer.Tracer() as traced:
        logs, _ = sim.run_period(tiny_cfg, mode="oracle", world=world)
        predictors.train_content_model(tiny_cfg, world, 0)
    assert not hasattr(sim.run_period, "__wrapped__")  # the originals are back
    assert sim.slots_csv_text(logs) == sim.slots_csv_text(untraced)
    stats = traced.table()
    n_slots = tiny_cfg.slots_per_cache_period
    assert stats["placement.associate_rrh"]["calls"] == n_slots
    # one SINR for the planned rates and one for the delivered rates per slot
    assert stats["channel.zfbf_sinr"]["calls"] == 2 * n_slots
    assert stats["placement.local_search"]["evals"] > 0
    assert stats["cesn.load_pattern"]["calls"] == world.n_sub


def test_timed_run_matches_untimed_and_stamps_every_call(tiny_cfg, monkeypatch):
    tracer = load_tracer(monkeypatch)
    world = SyntheticWorld(tiny_cfg)
    untimed, _ = sim.run_period(tiny_cfg, mode="oracle", world=world)
    with tracer.Timeline() as timeline:
        logs, _ = sim.run_period(tiny_cfg, mode="oracle", world=world)
    assert not hasattr(sim.run_period, "__wrapped__")  # the originals are back
    assert sim.slots_csv_text(logs) == sim.slots_csv_text(untimed)
    with tracer.Tracer() as traced:
        sim.run_period(tiny_cfg, mode="oracle", world=world)
    calls = sum(stat["calls"] for name, stat in traced.table().items()
                if name not in tracer.UNSTAMPED)
    # one entry and one exit stamp per stamped call, in clock order
    stamps = list(timeline.stamps)
    assert calls > 0 and len(stamps) == 2 * calls
    assert stamps == sorted(stamps)


def test_closed_form_takes_the_benchmark_tests_arguments():
    """``perfbench/test_perfbench.py`` times the closed form called with these four
    positional arguments."""
    bw = ScenarioConfig().uav_bandwidth_hz
    xy = placement.place_uav_closed_form(np.zeros((3, 50, 2)) + 5.0, [1e6] * 3, 3, bw)
    assert xy.shape == (2,) and np.allclose(xy, 5.0)
