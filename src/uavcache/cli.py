"""Command-line entry point: config in, CSV/JSON artifacts out.

Subcommands::

    uavcache train    --config cfg.json --out DIR [--seed S] [--paper-scale]
    uavcache simulate --config cfg.json (--oracle | --models DIR) --out DIR
                      [--seed S] [--baseline NAME] [--paper-scale]
    uavcache sweep    --config cfg.json --param {users,uavs,cache} --values 3,5,7
                      --out DIR [--seed S] [--baseline NAME ...] [--paper-scale]

Exit codes: 0 success, 1 usage error, 2 invalid config or inputs, 3 runtime
invariant violation.  The default output directory comes from $UAVCACHE_OUT.
Unless --paper-scale is given, a desk-scale preset (fewer intervals, a shorter
period, a smaller reservoir) is merged underneath the user's config document.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import sys
import time
import zipfile
import zlib
from pathlib import Path

import numpy as np

from . import cesn, linalg, sim
from .channel import ChannelError
from .config import (DESK_PRESET, ConfigError, ScenarioConfig, load_config_dict, merge_documents,
                     parse_document, serialize)
from .generators import SyntheticWorld
from .predictors import train_content_model, train_mobility_model

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CONFIG = 2
EXIT_INVARIANT = 3

TOOL_VERSION = "0.1.0"


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 instead of argparse's default 2
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="uavcache", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="JSON config document")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--paper-scale", action="store_true",
                       help="skip the desk-scale preset")
        p.add_argument("--out", default=None, help="output directory (default $UAVCACHE_OUT)")

    p_train = sub.add_parser("train", help="train per-user prediction models")
    common(p_train)

    p_sim = sub.add_parser("simulate", help="run one caching period")
    common(p_sim)
    source = p_sim.add_mutually_exclusive_group(required=True)
    source.add_argument("--oracle", action="store_true",
                        help="plan with the generator's exact ground truth")
    source.add_argument("--models", default=None, help="directory of trained models")
    p_sim.add_argument("--baseline", choices=sim.BASELINES, default="none")

    p_sweep = sub.add_parser("sweep", help="re-run the period across one parameter")
    common(p_sweep)
    p_sweep.add_argument("--param", required=True, choices=sorted(sim.SWEEP_PARAMS))
    p_sweep.add_argument("--values", required=True, help="comma-separated integers")
    p_sweep.add_argument("--baseline", choices=sim.BASELINES, action="append",
                         help="repeat for several; none, the default, is the proposed pipeline")
    return parser


def _load_scenario(args) -> ScenarioConfig:
    path = Path(args.config)
    if not path.exists():
        raise UsageError(f"config file not found: {path}")
    try:
        text = path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError([f"cannot read config file {path}: {exc}"]) from exc
    doc = parse_document(text)
    if not args.paper_scale:
        doc = merge_documents(DESK_PRESET, doc)
    if args.seed is not None:
        doc = merge_documents(doc, {"seed": args.seed})
    return load_config_dict(doc)


def _out_dir(args) -> Path:
    out = args.out or os.environ.get("UAVCACHE_OUT") or "uavcache-out"
    path = Path(out)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError([f"cannot use output directory {path}: {exc}"]) from exc
    return path


def _timestamp() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())


@contextlib.contextmanager
def _manifest(out: Path, args, cfg: ScenarioConfig):
    """Write run_manifest.json as "running", then finalize it however the run ends.

    The body appends the paths it wrote to ``manifest["outputs"]``.  A run that
    raises is recorded as "failed" with the error before the error propagates.
    """
    path = out / "run_manifest.json"
    manifest = {
        "tool_version": TOOL_VERSION,
        "command": args.command,
        "argv": args.argv,
        "seed": cfg.seed,
        "config": json.loads(serialize(cfg)),
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            **{name: os.environ.get(name)
               for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        },
        "outputs": [],
        "started_at": _timestamp(),
        "status": "running",
    }
    path.write_text(json.dumps(manifest, indent=2) + "\n")
    try:
        yield manifest
    except BaseException as exc:
        manifest["status"] = "failed"
        manifest["error"] = f"{type(exc).__name__}: {exc}"
        raise
    else:
        manifest["status"] = "complete"
    finally:
        manifest["finished_at"] = _timestamp()
        path.write_text(json.dumps(manifest, indent=2) + "\n")


# -- commands ----------------------------------------------------------------------


TRAINING_COLUMNS = ("user", "task", "pattern", "quota_before", "quota_after", "quota_used",
                    "nrmse")


def cmd_train(args) -> int:
    cfg = _load_scenario(args)
    out = _out_dir(args)
    with _manifest(out, args, cfg) as manifest:
        world = SyntheticWorld(cfg)
        models_dir = out / "models"
        models_dir.mkdir(exist_ok=True)
        rows = []
        for u in range(cfg.num_users):
            for task, trainer in (("content", train_content_model),
                                  ("mobility", train_mobility_model)):
                model, reports = trainer(cfg, world, u)
                path = _model_path(models_dir, u, task)
                cesn.save_model(model, path)
                manifest["outputs"].append(str(path))
                rows += [(u, task, rep["pattern"], rep["quota_before"], rep["quota_after"],
                          rep["quota_used"], model.training_nrmse(rep["pattern"]))
                         for rep in reports]
        report_path = out / "training_report.csv"
        report_path.write_text(sim.csv_text(TRAINING_COLUMNS, rows))
        manifest["outputs"].append(str(report_path))
    print(f"trained {cfg.num_users} users x 2 tasks -> {models_dir}")
    return EXIT_OK


def _model_path(models_dir: Path, user: int, task: str) -> Path:
    """A user's model file of one task, as ``train`` writes and ``simulate`` reads it."""
    return models_dir / f"user{user:03d}_{task}.npz"


def _read_model(path: Path) -> cesn.EsnModel:
    """A model file, read; one that was read but failed a check names the check."""
    try:
        return cesn.load_model(path)
    except ConfigError as exc:
        raise ConfigError([f"model file {path}: {v}" for v in exc.violations]) from exc
    except (OSError, EOFError, LookupError, OverflowError, TypeError, ValueError,
            zipfile.BadZipFile, zlib.error) as exc:
        raise ConfigError([f"unreadable model file {path}: {exc}"]) from exc


class _UserModels:
    """One task's per-user model files under a run directory, read when indexed.

    Nothing is cached, so a caller that indexes each user once and drops the
    model holds one model of this task at a time.  The learned predictor
    checks each model against the config.
    """

    def __init__(self, base: Path, task: str):
        self.base, self.task = base, task

    def __getitem__(self, u: int) -> cesn.EsnModel:
        path = _model_path(self.base / "models", u, self.task)
        if not path.exists():
            raise ConfigError([f"missing model files for user {u} under {self.base}"])
        return _read_model(path)


def cmd_simulate(args) -> int:
    cfg = _load_scenario(args)
    out = _out_dir(args)
    with _manifest(out, args, cfg) as manifest:
        mode = "oracle" if args.oracle else "esn"
        models = None if args.oracle else tuple(_UserModels(Path(args.models), task)
                                                for task in ("content", "mobility"))
        logs, summary = sim.run_period(cfg, mode=mode, models=models, baseline=args.baseline)
        slots_path = out / "slots.csv"
        summary_path = out / "summary.json"
        slots_path.write_text(sim.slots_csv_text(logs))
        summary_path.write_text(sim.summary_json_text(summary))
        manifest["outputs"] += [str(slots_path), str(summary_path)]
    print(f"simulated {summary['slots']} slots: total_uav_power_w="
          f"{summary['total_uav_power_w']:.6g} satisfied_fraction="
          f"{summary['satisfied_fraction']:.4f}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    cfg = _load_scenario(args)
    try:
        values = [int(v) for v in args.values.split(",") if v.strip() != ""]
    except ValueError as exc:
        raise UsageError(f"--values must be comma-separated integers: {exc}") from exc
    if not values:
        raise UsageError("--values must list at least one value")
    out = _out_dir(args)
    with _manifest(out, args, cfg) as manifest:
        rows = sim.sweep(cfg, args.param, values, args.baseline or ("none",))
        sweep_path = out / "sweep.csv"
        sweep_path.write_text(sim.sweep_csv_text(rows))
        manifest["outputs"].append(str(sweep_path))
    print(f"swept {args.param} over {values} -> {sweep_path}")
    return EXIT_OK


COMMANDS = {"train": cmd_train, "simulate": cmd_simulate, "sweep": cmd_sweep}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _build_parser().parse_args(argv)
        args.argv = argv  # recorded in the run manifest
        return COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ConfigError as exc:
        print("invalid config:", file=sys.stderr)
        for violation in exc.violations:
            print(f"  - {violation}", file=sys.stderr)
        return EXIT_CONFIG
    except (cesn.TooFewSamples, cesn.MemoryExhausted, linalg.LinalgError) as exc:
        print(f"invalid inputs: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (sim.SimInvariantError, ChannelError) as exc:
        print(f"invariant violation: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
