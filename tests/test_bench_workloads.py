"""The benchmark's checks pass on small runs, and its digest is slots.csv's.

``perfbench/workloads.py`` checks every simulated period from outside: it
reconciles each slot log, reads ``log.reports`` row by row with attribute
access (``r.user``, ``r.delivered``, ``r.delay_s``) and hashes ``slots.csv``.
Its training and learned workloads also check the trained models' quotas and
fits and the learned run's prediction gap against an oracle reference.  A
change to any of these breaks only benchmark runs, so this smoke test runs
those checks on small oracle periods and on the training and learned
operations at tiny scale.  It also runs the ``train_p12`` and ``oracle_paper``
operations at benchmark seed 0 and compares their outputs with the pins, so a
change that breaks a pin fails here and not only in a benchmark run.  The
workloads and pins files are only read, never changed.
"""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from conftest import idle_config
from uavcache import sim
from uavcache.generators import SyntheticWorld

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
PINS = WORKLOADS.with_name("pins.json")


def load_workloads(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up by name while they are built
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    return workloads


@pytest.mark.parametrize("idle", [False, True], ids=["all-request", "idle-users"])
def test_period_checks_pass_and_digest_is_the_slots_csv(tiny_cfg, monkeypatch, idle):
    workloads = load_workloads(monkeypatch)
    cfg = idle_config(tiny_cfg) if idle else tiny_cfg
    logs, summary = sim.run_period(cfg, mode="oracle")
    assert idle == any(log.requests < cfg.num_users for log in logs)
    assert workloads.period_problems(logs, summary) == []
    outputs, info = workloads._period_outputs(logs, summary)
    assert outputs == {"summary": summary}
    csv_bytes = sim.slots_csv_text(logs).encode("utf-8")
    assert info == {"slots_sha256": hashlib.sha256(csv_bytes).hexdigest()}


def test_training_checks_pass(tiny_cfg, monkeypatch):
    workloads = load_workloads(monkeypatch)
    outcome = workloads.train_op(tiny_cfg, SyntheticWorld(tiny_cfg))
    assert outcome.problems == []
    assert set(outcome.outputs) == {"quota_history", "fit_nrmse"}


def test_learned_checks_pass(tiny_cfg, monkeypatch):
    workloads = load_workloads(monkeypatch)
    world = SyntheticWorld(tiny_cfg)
    learned = workloads.learned_op(tiny_cfg, world)
    assert learned.problems == []
    reference = workloads.learned_reference(tiny_cfg, world, learned)
    assert reference.problems == []
    assert "learned_power_ratio" in reference.quality


@pytest.mark.slow
@pytest.mark.parametrize("name", ["train_p12", "oracle_paper"])
def test_seed0_operation_matches_its_pins(monkeypatch, name):
    workloads = load_workloads(monkeypatch)
    workload = workloads.WORKLOADS[name]
    outcome = workload.op(*workloads.setup(workload, 0))
    assert outcome.problems == []
    pinned = json.loads(PINS.read_text())[name]["0"]["outputs"]
    assert workloads.mismatches(pinned, outcome.outputs) == []
