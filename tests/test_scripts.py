"""Every script under scripts/ starts and prints its usage; the quick ones also run."""

import csv
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

from uavcache import sim

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))


def run_script(script: Path, *args: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    return subprocess.run([sys.executable, str(script), *args], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=60)


def test_scripts_found():
    assert SCRIPTS


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: p.name)
def test_help_exits_0(script):
    done = run_script(script, "--help")
    assert done.returncode == 0, done.stderr
    assert "usage:" in done.stdout


def test_pattern_memory_demo_runs():
    done = run_script(ROOT / "scripts" / "pattern_memory_demo.py", "--reservoir", "40")
    assert done.returncode == 0, done.stderr
    assert done.stdout.count("replay ") == 4
    assert "near-duplicate" in done.stdout


def load_script(monkeypatch, name: str):
    """Import a script as a module, without writing bytecode beside it."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_sweep_figures_runs_every_value_under_every_baseline(tmp_path, monkeypatch):
    def fixed_run(cfg, baseline="none", **kwargs):
        return [], {"baseline": baseline, "total_uav_power_w": 1.5, "avg_uav_power_w": 0.5,
                    "satisfied_fraction": 0.75, "cache_hit_rate": 0.25, "avg_altitude_m": 30.0}

    monkeypatch.setattr(sim, "run_period", fixed_run)
    monkeypatch.setattr(sys, "argv", ["sweep_figures.py", "--out", str(tmp_path)])
    script = load_script(monkeypatch, "sweep_figures")
    script.main()
    for param, values in script.SWEEPS.items():
        with open(tmp_path / f"sweep_{param}.csv", newline="") as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == len(values) * 5  # the proposed pipeline and four ablations
        assert [(r["param"], int(r["value"]), r["baseline"]) for r in rows] == \
            [(param, v, b) for v in values for b in sim.BASELINES]
        assert {r["total_uav_power_w"] for r in rows} == {"1.5"}
