"""The benchmark's tracer wraps functions by name; every name must still exist.

``perfbench/tracer.py`` looks each target up with ``vars(owner)[attr]``, so a
rename under ``src/`` would crash every benchmark run.  This check fails the
test suite instead.  The tracer file is only read, never changed.
"""

import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_tracer_target_resolves(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TARGETS
    for prefix, owner_spec, attr, _ in tracer.TARGETS:
        owner = tracer._owner(owner_spec)
        assert attr in vars(owner), f"{prefix}: {owner_spec}.{attr} is gone"
        assert callable(vars(owner)[attr]), f"{prefix}: {owner_spec}.{attr} is not callable"
