"""Command-line entry point: config in, CSV/JSON artifacts out.

Subcommands::

    uavcache train    --config cfg.json --out DIR [--seed S] [--paper-scale]
    uavcache simulate --config cfg.json (--oracle | --models DIR) --out DIR
                      [--seed S] [--baseline NAME] [--paper-scale]
    uavcache sweep    --config cfg.json --param {users,uavs,cache}
                      --values 3,5,7 --out DIR [--seed S] [--paper-scale]
    uavcache verify   [--config cfg.json]

Exit codes: 0 success, 1 usage error, 2 invalid config or inputs, 3 runtime
invariant violation.  The default output directory comes from $UAVCACHE_OUT.
Unless --paper-scale is given, a desk-scale preset (fewer intervals, a shorter
period, a smaller reservoir) is merged underneath the user's config document.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import platform
import sys
import time
import zipfile
import zlib
from pathlib import Path

import numpy as np

from . import cesn, linalg, placement, sim
from .channel import ChannelError, zf_beamformer
from .config import (DESK_PRESET, ConfigError, RandomSource, ScenarioConfig, load_config_dict,
                     merge_documents, parse_document, serialize, training_violations)
from .generators import DAY_TYPES, SyntheticWorld
from .predictors import train_content_model, train_mobility_model
from .qoe import delay_lower_bound_s

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

    def common(p, config_required=True):
        p.add_argument("--config", required=config_required, help="JSON config document")
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

    p_verify = sub.add_parser("verify", help="run the cross-module property suite")
    p_verify.add_argument("--config", default=None)
    p_verify.add_argument("--paper-scale", action="store_true")
    return parser


def _load_scenario(args) -> ScenarioConfig:
    if args.config is None:
        doc = {}
    else:
        path = Path(args.config)
        if not path.exists():
            raise UsageError(f"config file not found: {path}")
        doc = parse_document(path.read_text())
    if not args.paper_scale:
        doc = merge_documents(DESK_PRESET, doc)
    if getattr(args, "seed", None) is not None:
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
        "argv": [a for a in sys.argv[1:]],
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
    except (OSError, EOFError, KeyError, TypeError, ValueError, zipfile.BadZipFile,
            zlib.error) as exc:
        raise ConfigError([f"unreadable model file {path}: {exc}"]) from exc


def _load_models(cfg: ScenarioConfig, models_dir: str):
    base = Path(models_dir)
    # one content pattern per sub-period, one mobility pattern per day type
    n_sub = cfg.slots_per_cache_period // cfg.slots_per_collection
    content, mobility = [], []
    for u in range(cfg.num_users):
        c_path = base / "models" / f"user{u:03d}_content.npz"
        if not c_path.exists():
            c_path = base / f"user{u:03d}_content.npz"
        m_path = c_path.with_name(f"user{u:03d}_mobility.npz")
        if not c_path.exists() or not m_path.exists():
            raise ConfigError([f"missing model files for user {u} under {base}"])
        c_model = _read_model(c_path)
        m_model = _read_model(m_path)
        if c_model.cfg.output_dim != cfg.num_contents:
            raise ConfigError([
                f"model/config dimension mismatch: user {u} content model predicts "
                f"{c_model.cfg.output_dim} contents, config has {cfg.num_contents}"])
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


# -- property suite -----------------------------------------------------------------


def _check_echo_state(cfg: ScenarioConfig) -> str | None:
    n = min(200, cfg.esn.reservoir_size)
    rng = RandomSource(cfg.seed).derive("verify-esn").generator()
    w = rng.uniform(-1.0, 1.0, (n, n))
    w *= cfg.esn.spectral_radius / linalg.spectral_radius(w)
    w_in = cfg.esn.input_scale * rng.uniform(-1.0, 1.0, (n, 1))
    steps = 500
    inputs = np.sin(2.0 * np.pi * np.arange(steps) / 20.0)[:, None]
    gap = cesn.echo_state_gap(w, w_in, inputs, RandomSource(cfg.seed).derive("verify-esn-init"))
    if gap > 1e-6:
        return (f"state gap {gap:.3e} > 1e-6 after {steps} steps at spectral radius "
                f"{cfg.esn.spectral_radius}")
    return None


def _check_conceptor_algebra(cfg: ScenarioConfig) -> str | None:
    rng = RandomSource(cfg.seed).derive("verify-conceptor").generator()
    dim = 12
    for trial in range(100):
        states = rng.standard_normal((dim, 40))
        c = cesn.compute_conceptor(states, cfg.esn.aperture)
        vals = c.eigenvalues()
        if vals.min() < -linalg.ALGEBRA_TOL or vals.max() >= 1.0:
            return f"trial {trial}: eigenvalues outside [0, 1): {vals.min()}, {vals.max()}"
        double_not = cesn.conceptor_not(cesn.conceptor_not(c)).m
        if np.abs(double_not - c.m).max() > linalg.ALGEBRA_TOL:
            return f"trial {trial}: double negation drifts"
        zero = cesn.Conceptor(m=np.zeros((dim, dim)), aperture=cfg.esn.aperture,
                              correlation=np.zeros((dim, dim)))
        if np.abs(cesn.conceptor_or(c, zero).m - c.m).max() > linalg.ALGEBRA_TOL:
            return f"trial {trial}: OR with the empty conceptor moved"
        d = cesn.compute_conceptor(rng.standard_normal((dim, 40)), cfg.esn.aperture)
        ab = cesn.conceptor_or(c, d).m
        ba = cesn.conceptor_or(d, c).m
        if np.abs(ab - ba).max() > linalg.ALGEBRA_TOL:
            return f"trial {trial}: OR does not commute"
    return None


def _check_zf_nulling(cfg: ScenarioConfig) -> str | None:
    rng = RandomSource(cfg.seed).derive("verify-zf").generator()
    for trial in range(100):
        r_q = int(rng.integers(2, 7))
        u_q = int(rng.integers(1, r_q + 1))
        h = rng.standard_normal((u_q, r_q))
        f = zf_beamformer(h)
        residual = np.abs(h @ f - np.eye(u_q)).max()
        if residual > linalg.ZF_NULLING_TOL:
            return f"trial {trial}: ||HF - I|| = {residual:.3e}"
    return None


def _check_delay_bound(cfg: ScenarioConfig) -> str | None:
    small = dataclasses.replace(
        cfg, num_users=12, num_rrhs=8, num_rrh_clusters=2, num_uavs=2,
        intervals_per_slot=10, slots_per_collection=2, slots_per_cache_period=8,
        esn=dataclasses.replace(cfg.esn, reservoir_size=50, training_length=60,
                                washout=10))
    logs, summary = sim.run_period(small, mode="oracle")
    bound = delay_lower_bound_s(small)
    for log in logs:
        for r in log.reports:
            if r.delivered and r.delay_s < bound:
                return f"slot {log.slot} user {r.user}: delay {r.delay_s} < bound {bound}"
    if summary["min_delivered_delay_s"] is not None and summary["min_delivered_delay_s"] < bound:
        return "summary records a delay below the bound"
    return None


def _check_cache_exactness(cfg: ScenarioConfig) -> str | None:
    import itertools

    rng = RandomSource(cfg.seed).derive("verify-cache").generator()
    for trial in range(20):
        n = int(rng.integers(4, 9))
        c = int(rng.integers(1, 4))
        rows = int(rng.integers(1, 6))
        probs = rng.random((rows, n))
        probs /= probs.sum(axis=1, keepdims=True)
        savings = rng.random((rows, n))
        plan = placement.select_cache(0, probs, savings, c)
        best_val, best_set = -np.inf, None
        for subset in itertools.combinations(range(n), c):
            val = float((probs[:, subset] * savings[:, subset]).sum())
            if val > best_val + 1e-12:
                best_val, best_set = val, subset
        if set(plan.contents) != set(best_set):
            return f"trial {trial}: greedy {plan.contents} vs exhaustive {best_set}"
    return None


def _check_closed_form_placement(cfg: ScenarioConfig) -> str | None:
    rng = RandomSource(cfg.seed).derive("verify-placement").generator()
    p = dataclasses.replace(cfg.pathloss, exponent_nlos=2.0)
    users = rng.uniform(-150.0, 150.0, (6, 1, 2))
    targets = rng.uniform(1e6, 8e6, 6)
    h = 10.0
    xy = placement.place_uav_closed_form(users, targets, 6, cfg.uav_bandwidth_hz)
    obj_cf = placement.placement_objective(
        np.array([xy[0], xy[1], h]), users, targets, 6, p,
        cfg.uav_bandwidth_hz, cfg.noise_power_w)
    grid = placement.place_uav_exhaustive(users, targets, 3.0, [h], 6, p,
                                          cfg.uav_bandwidth_hz, cfg.noise_power_w)
    if obj_cf > 1.10 * grid.objective_w:
        return f"closed form {obj_cf:.4e} vs grid {grid.objective_w:.4e}"
    return None


VERIFY_CHECKS = (
    ("echo_state_convergence", _check_echo_state),
    ("conceptor_algebra", _check_conceptor_algebra),
    ("zero_forcing_nulling", _check_zf_nulling),
    ("delay_lower_bound", _check_delay_bound),
    ("cache_greedy_exactness", _check_cache_exactness),
    ("closed_form_placement", _check_closed_form_placement),
)


def cmd_verify(args) -> int:
    cfg = _load_scenario(args)
    failures = 0
    for name, check in VERIFY_CHECKS:
        detail = check(cfg)
        if detail is None:
            print(f"PASS {name}")
        else:
            print(f"FAIL {name}: {detail}")
            failures += 1
    if failures:
        print(f"{failures} of {len(VERIFY_CHECKS)} properties failed")
        return EXIT_INVARIANT
    print(f"all {len(VERIFY_CHECKS)} properties passed")
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        if args.command == "train":
            return cmd_train(args)
        if args.command == "simulate":
            return cmd_simulate(args)
        if args.command == "sweep":
            return cmd_sweep(args)
        if args.command == "verify":
            return cmd_verify(args)
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
