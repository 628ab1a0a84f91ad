"""Command-line entry point: config in, CSV/JSON artifacts out.

Subcommands::

    uavcache train    --config cfg.json --out DIR [--seed S] [--paper-scale]
    uavcache simulate --config cfg.json (--oracle | --models DIR) --out DIR
                      [--seed S] [--baseline NAME] [--paper-scale]
    uavcache sweep    --config cfg.json --param {users,uavs,cache}
                      --values 3,5,7 --out DIR [--seed S] [--paper-scale]

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
                     parse_document, serialize, training_violations)
from .generators import DAY_TYPES, SyntheticWorld
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
    p_sim.add_argument("--baseline", choices=sim.BASELINES, default=None)

    p_sweep = sub.add_parser("sweep", help="re-run the period across one parameter")
    common(p_sweep)
    p_sweep.add_argument("--param", required=True, choices=sorted(sim.SWEEP_PARAMS))
    p_sweep.add_argument("--values", required=True, help="comma-separated integers")
    p_sweep.add_argument("--baseline", choices=sim.BASELINES, default=None)
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


def cmd_train(args) -> int:
    cfg = _load_scenario(args)
    problems = training_violations(cfg)
    if problems:
        raise ConfigError(problems)
    out = _out_dir(args)
    with _manifest(out, args, cfg) as manifest:
        world = SyntheticWorld(cfg)
        models_dir = out / "models"
        models_dir.mkdir(exist_ok=True)
        lines = ["user,task,pattern,quota_before,quota_after,quota_used,nrmse"]
        for u in range(cfg.num_users):
            for task, trainer in (("content", train_content_model),
                                  ("mobility", train_mobility_model)):
                model, reports = trainer(cfg, world, u)
                path = models_dir / f"user{u:03d}_{task}.npz"
                cesn.save_model(model, path)
                manifest["outputs"].append(str(path))
                for rep in reports:
                    fit = model.training_nrmse(rep["pattern"])
                    lines.append(",".join([
                        str(u), task, str(rep["pattern"]),
                        format(rep["quota_before"], ".9g"),
                        format(rep["quota_after"], ".9g"),
                        format(rep["quota_used"], ".9g"),
                        format(fit, ".9g")]))
        report_path = out / "training_report.csv"
        report_path.write_text("\n".join(lines) + "\n")
        manifest["outputs"].append(str(report_path))
    print(f"trained {cfg.num_users} users x 2 tasks -> {models_dir}")
    return EXIT_OK


def _read_model(path: Path) -> cesn.EsnModel:
    try:
        return cesn.load_model(path)
    except (OSError, EOFError, LookupError, TypeError, ValueError, zipfile.BadZipFile,
            zlib.error) as exc:
        raise ConfigError([f"unreadable model file {path}: {exc}"]) from exc


def _load_models(cfg: ScenarioConfig, models_dir: str):
    base = Path(models_dir)
    # one content pattern per sub-period, one mobility pattern per day type
    n_sub = cfg.slots_per_cache_period // cfg.slots_per_collection
    content, mobility = [], []
    for u in range(cfg.num_users):
        c_path = base / "models" / f"user{u:03d}_content.npz"
        m_path = c_path.with_name(f"user{u:03d}_mobility.npz")
        if not c_path.exists() or not m_path.exists():
            raise ConfigError([f"missing model files for user {u} under {base}"])
        c_model = _read_model(c_path)
        m_model = _read_model(m_path)
        if c_model.output_dim != cfg.num_contents:
            raise ConfigError([
                f"model/config dimension mismatch: user {u} content model predicts "
                f"{c_model.output_dim} contents, config has {cfg.num_contents}"])
        for task, model, needed in (("content", c_model, n_sub),
                                    ("mobility", m_model, len(DAY_TYPES))):
            if model.n_patterns != needed:
                raise ConfigError([
                    f"model/config pattern mismatch: user {u} {task} model holds "
                    f"{model.n_patterns} patterns, config needs {needed}"])
        content.append(c_model)
        mobility.append(m_model)
    return content, mobility


def cmd_simulate(args) -> int:
    cfg = _load_scenario(args)
    out = _out_dir(args)
    with _manifest(out, args, cfg) as manifest:
        if args.oracle:
            mode, models = "oracle", None
        else:
            mode = "esn"
            models = _load_models(cfg, args.models)
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
    out = _out_dir(args)
    try:
        values = [int(v) for v in args.values.split(",") if v.strip() != ""]
    except ValueError as exc:
        raise UsageError(f"--values must be comma-separated integers: {exc}") from exc
    if not values:
        raise UsageError("--values must list at least one value")
    with _manifest(out, args, cfg) as manifest:
        rows = sim.sweep(cfg, args.param, values, baseline=args.baseline)
        sweep_path = out / "sweep.csv"
        sweep_path.write_text(sim.sweep_csv_text(rows))
        manifest["outputs"].append(str(sweep_path))
    print(f"swept {args.param} over {values} -> {sweep_path}")
    return EXIT_OK


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    args.argv = argv  # recorded in the run manifest
    try:
        if args.command == "train":
            return cmd_train(args)
        if args.command == "simulate":
            return cmd_simulate(args)
        if args.command == "sweep":
            return cmd_sweep(args)
        raise UsageError(f"unknown command {args.command!r}")
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
