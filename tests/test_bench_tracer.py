"""The benchmark's tracer still finds, runs and counts what it traces.

``perfbench/tracer.py`` looks each target up with ``vars(owner)[attr]``, so a
rename under ``src/`` would crash every benchmark run.  It reads work counts
from what the traced functions return, so a changed return type breaks only
traced benchmark runs.  These checks fail the test suite instead: every target
must resolve, and a small period and one small content model run under the
tracer.  The tracer file is only read, never changed.
"""

import importlib.util
import sys
from pathlib import Path

from uavcache import predictors, sim
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
