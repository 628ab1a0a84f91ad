"""The benchmark's workloads: inputs from a seed, one timed operation, output checks.

Each workload builds its scenario from the benchmark seed (scenario seed =
``BASE_SEED + seed``, so seed 0 is the package default), runs one operation
per loop iteration and returns what the checks compare:

* ``oracle_paper``: one oracle-mode ``sim.run_period`` at paper scale.
* ``train_p12``: ``predictors.train_content_model`` for user 0 on the paper
  config with all 12 sub-period patterns, the reservoir cut from N=1000 to
  ``TRAIN_RESERVOIR`` so that several models fit one run.
* ``learned_desk``: the desk preset end to end: content and mobility models
  for all users, then one ``run_period(mode="esn")``.
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from uavcache import cesn, predictors, sim
from uavcache.config import DESK_PRESET, ScenarioConfig, load_config_dict, merge_documents
from uavcache.generators import SyntheticWorld

BASE_SEED = ScenarioConfig().seed

# Relative tolerance of every pinned float; integers and strings match exactly.
PIN_RTOL = 1e-6
PIN_ATOL = 1e-12


@dataclass
class Outcome:
    """What one operation produced: comparable outputs, timings and quality figures."""

    outputs: dict                      # compared with pins and across ops
    spans: dict = field(default_factory=dict)    # timed phase -> (start, end) perf_counter
    quality: dict = field(default_factory=dict)  # metric -> (value, unit)
    problems: list = field(default_factory=list)  # failed invariant checks
    info: dict = field(default_factory=dict)     # recorded, never compared

    @property
    def times(self) -> dict:
        """Seconds of each timed phase."""
        return {phase: end - start for phase, (start, end) in self.spans.items()}


@dataclass(frozen=True)
class Workload:
    name: str
    preset: dict
    op: Callable[[ScenarioConfig, SyntheticWorld], Outcome]
    # Once-per-run extras after the timed loop (untimed): returns an Outcome
    # whose outputs are pinned and whose quality figures join the report.
    reference: Callable[[ScenarioConfig, SyntheticWorld, Outcome], Outcome] | None = None
    # Seconds of one whole operation on a 2-vCPU Xeon VM (Python 3.11, numpy
    # 2.4, one BLAS thread); it sets how many operations a run makes.
    nominal_op_s: float = 10.0

    def repeats(self, seconds: float, least: int) -> int:
        """Operations in a run of ``seconds``: fixed, not cut short by a slow machine."""
        return max(least, round(seconds / self.nominal_op_s))


def setup(workload: Workload, seed: int) -> tuple[ScenarioConfig, SyntheticWorld]:
    cfg = load_config_dict(merge_documents(workload.preset, {"seed": BASE_SEED + seed}))
    return cfg, SyntheticWorld(cfg)


def period_problems(logs, summary) -> list[str]:
    """Invariants every simulated period must satisfy, checked from outside."""
    problems = []
    bound = summary["delay_lower_bound_s"]
    for log in logs:
        try:
            log.reconcile()
        except sim.SimInvariantError as exc:
            problems.append(f"reconcile: {exc}")
        for r in log.reports:
            if r.delivered and r.delay_s < bound:
                problems.append(f"slot {log.slot} user {r.user}: delay {r.delay_s} < bound {bound}")
    if summary["requests"] != sum(log.requests for log in logs):
        problems.append("summary requests do not match the slot logs")
    if summary["failures"] != sum(log.failures for log in logs):
        problems.append("summary failures do not match the slot logs")
    if not (summary["total_uav_power_w"] > 0 and math.isfinite(summary["total_uav_power_w"])):
        problems.append(f"total_uav_power_w is {summary['total_uav_power_w']}")
    if not 0.0 < summary["satisfied_fraction"] <= 1.0:
        problems.append(f"satisfied_fraction is {summary['satisfied_fraction']}")
    return problems


def _period_outputs(logs, summary) -> tuple[dict, dict]:
    """Pinned outputs (the summary) and recorded info (the slots.csv digest)."""
    digest = hashlib.sha256(sim.slots_csv_text(logs).encode("utf-8")).hexdigest()
    return {"summary": summary}, {"slots_sha256": digest}


def fit_nrmse(models) -> float:
    """Mean readout NRMSE over every loaded pattern of the given models."""
    fits = [m.training_nrmse(p) for m in models for p in range(m.n_patterns)]
    return float(np.mean(fits))


# -- oracle_paper -------------------------------------------------------------------


def oracle_op(cfg, world) -> Outcome:
    t0 = time.perf_counter()
    logs, summary = sim.run_period(cfg, mode="oracle", world=world)
    t1 = time.perf_counter()
    outputs, info = _period_outputs(logs, summary)
    return Outcome(outputs=outputs, spans={"period_s": (t0, t1)},
                   problems=period_problems(logs, summary), info=info,
                   quality={"oracle_total_uav_power_w": (summary["total_uav_power_w"], "W"),
                            "oracle_satisfied_fraction": (summary["satisfied_fraction"], "fraction")})


# -- train_p12 ----------------------------------------------------------------------

TRAIN_USER = 0
TRAIN_RESERVOIR = 500


def train_op(cfg, world) -> Outcome:
    t0 = time.perf_counter()
    model, reports = predictors.train_content_model(cfg, world, TRAIN_USER)
    t1 = time.perf_counter()
    quotas = [float(q) for q in model.quota_history]
    problems = []
    if model.n_patterns != world.n_sub:
        problems.append(f"{model.n_patterns} patterns loaded, expected {world.n_sub}")
    if len(quotas) != world.n_sub + 1 or quotas[0] != 1.0:
        problems.append(f"quota history has {len(quotas)} entries starting at {quotas[0]}")
    if any(not (cesn.QUOTA_MIN < b < a) for a, b in zip(quotas, quotas[1:])):
        problems.append("quota history is not strictly decreasing above QUOTA_MIN")
    if [r["quota_after"] for r in reports] != quotas[1:]:
        problems.append("load reports disagree with the quota history")
    fit = fit_nrmse([model])
    if not 0.0 < fit < 1.0:
        problems.append(f"fit_nrmse is {fit}")
    return Outcome(outputs={"quota_history": quotas, "fit_nrmse": fit},
                   spans={"train_s": (t0, t1)}, problems=problems,
                   quality={"fit_nrmse": (fit, "nrmse")})


# -- learned_desk -------------------------------------------------------------------


def learned_op(cfg, world) -> Outcome:
    t0 = time.perf_counter()
    content = [predictors.train_content_model(cfg, world, u)[0] for u in range(cfg.num_users)]
    mobility = [predictors.train_mobility_model(cfg, world, u)[0] for u in range(cfg.num_users)]
    t1 = time.perf_counter()
    logs, summary = sim.run_period(cfg, mode="esn", models=(content, mobility), world=world)
    t2 = time.perf_counter()
    outputs, info = _period_outputs(logs, summary)
    fit = fit_nrmse(content + mobility)
    outputs["fit_nrmse"] = fit
    problems = period_problems(logs, summary)
    if not 0.0 < fit < 1.0:
        problems.append(f"fit_nrmse is {fit}")
    gap = summary["prediction_gap"]
    if not 0.0 <= gap["distribution_tv"] <= 1.0:
        problems.append(f"prediction_tv is {gap['distribution_tv']}")
    if not 0.0 <= gap["position_error_m"] <= 2.0 * cfg.area_radius_m:
        problems.append(f"prediction_position_error_m is {gap['position_error_m']}")
    return Outcome(
        outputs=outputs, spans={"train_s": (t0, t1), "period_s": (t1, t2)},
        problems=problems, info=info,
        quality={"fit_nrmse": (fit, "nrmse"),
                 "learned_satisfied_fraction": (summary["satisfied_fraction"], "fraction"),
                 "prediction_tv": (gap["distribution_tv"], "tv"),
                 "prediction_position_error_m": (gap["position_error_m"], "m")})


def learned_reference(cfg, world, learned: Outcome) -> Outcome:
    """Oracle run on the same config and world: the base of learned_power_ratio."""
    ref = oracle_op(cfg, world)
    learned_power = learned.outputs["summary"]["total_uav_power_w"]
    ratio = learned_power / ref.outputs["summary"]["total_uav_power_w"]
    ref.quality["learned_power_ratio"] = (ratio, "ratio")
    if not (0.0 < ratio < 10.0):
        ref.problems.append(f"learned_power_ratio is {ratio}")
    return Outcome(outputs={"oracle_summary": ref.outputs["summary"]}, problems=ref.problems,
                   quality=ref.quality, info={"oracle_slots_sha256": ref.info["slots_sha256"]})


WORKLOADS = {
    w.name: w for w in (
        Workload("oracle_paper", {}, oracle_op, nominal_op_s=11.0),
        Workload("train_p12", {"esn": {"reservoir_size": TRAIN_RESERVOIR}}, train_op,
                 nominal_op_s=7.5),
        Workload("learned_desk", DESK_PRESET, learned_op, learned_reference, nominal_op_s=16.0),
    )
}


# -- comparison with pins -------------------------------------------------------------


def mismatches(expected, actual, path: str = "") -> list[str]:
    """Differences between two output trees: floats within PIN_RTOL, the rest exact."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        out = []
        for key in sorted(set(expected) | set(actual)):
            if key not in expected or key not in actual:
                out.append(f"{path}{key}: present on one side only")
            else:
                out.extend(mismatches(expected[key], actual[key], f"{path}{key}."))
        return out
    if isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            return [f"{path[:-1]}: length {len(actual)} != {len(expected)}"]
        return [m for i, (e, a) in enumerate(zip(expected, actual))
                for m in mismatches(e, a, f"{path}{i}.")]
    if isinstance(expected, float) or isinstance(actual, float):
        if (isinstance(expected, (int, float)) and isinstance(actual, (int, float))
                and not isinstance(expected, bool) and not isinstance(actual, bool)
                and math.isclose(expected, actual, rel_tol=PIN_RTOL, abs_tol=PIN_ATOL)):
            return []
    elif expected == actual:
        return []
    return [f"{path[:-1]}: {actual!r} != pinned {expected!r}"]
