"""Scenario configuration and deterministic random streams.

Every tunable constant of the simulator lives in :class:`ScenarioConfig` and its
nested blocks, each setting with its accepted values beside its default.
Configs are immutable, JSON round-trippable, and validated as a whole:
:func:`load_config_dict` reports *all* violated invariants with their field
paths instead of stopping at the first one, and :func:`load_esn_dict` checks a
model file's stored ``esn`` block the same way.

All values in config files are SI (meters, watts, hertz, bits, seconds); dB
conversions happen inside the channel code only.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np


class ConfigError(ValueError):
    """Raised when a config document cannot be parsed or violates invariants."""

    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


# Upper bounds of the counts.  A count past its bound is a config error (exit
# 2), not a run that grows until memory runs out.  Each bound sits far above
# the paper's setup; its reason is what the count sizes.
# Two models per user, a Python loop per user in the world build and the
# predictor, and a (users, slots) request array: 336 MB at the paper's horizon.
MAX_USERS = 10_000
# One placement search per UAV and slot; 200 times the paper's 5 UAVs.
MAX_UAVS = 1_000
# Content-model readout width and the (users, sub-periods, contents)
# distributions; 400 times the paper's 25-content catalog.
MAX_CONTENTS = 10_000
# Radio heads enter the zero-forcing channel matrices of their cluster; 500
# times the paper's 20 radio heads in 4 clusters.
MAX_RRHS = 10_000
MAX_RRH_CLUSTERS = 1_000
# Each slot prices every (user, interval) link; 100 times the paper's 1,000.
MAX_INTERVALS_PER_SLOT = 100_000
# Slots per period and per collection size the (users, slots) request and
# waypoint arrays; 83 times the paper's 120-slot period.
MAX_SLOTS = 10_000
# The N x N float64 arrays, 200 MB each at this bound (5 times the paper's
# N = 1,000), are all transient: w, which a model keeps as its nonzeros (flat
# int32 indices: N^2 < 2^31) and rebuilds in drive, recall and save_model;
# recall's w + w_in b; the readout Gram; and a conceptor's Gram when its
# factor has at least N columns.  Conceptors are kept N x rank.
MAX_RESERVOIR_SIZE = 5_000
# Training drives N x T states per pattern: 800 MB at N = 1,000.
MAX_TRAINING_LENGTH = 100_000
# Generated history: ten years, 130 times the paper's 4 weeks.
MAX_TRAINING_WEEKS = 520
# Anchor locations a user visits per day.
MAX_WAYPOINTS_PER_DAY = 1_000
# Products of counts size the world's largest arrays.  The request table holds
# 8 bytes per (user, slot) over the training weeks plus the simulated week, 7
# days each: 336 MB at this bound, what MAX_USERS allows at the paper's horizon.
MAX_USER_SLOTS = 42_000_000
# The world's request distributions and a learned predictor's estimate of them
# each hold 8 bytes per (user, sub-period, content): 80 MB at this bound, what
# MAX_CONTENTS allows at the paper's 70 users and 12 sub-periods.
MAX_USER_SUBPERIOD_CONTENTS = 10_000_000
# Each slot prices every served (user, interval) link in float64 arrays, about
# 56 bytes per link: 560 MB at this bound, what MAX_USERS allows at 1,000 intervals.
MAX_USER_INTERVALS = 10_000_000


# A setting's accepted values are its domain, declared beside its default: a
# function from a value to the words of its violation, or to None when the value
# is accepted.  A tuple setting applies its domain to every entry.  Settings with
# no domain are bounded by a cross-field check in ``validate`` or not at all.
def _domain(holds, words: str):
    return lambda value: None if holds(value) else words


POSITIVE = _domain(lambda x: x > 0, "must be positive")
NONNEGATIVE = _domain(lambda x: x >= 0, "must be nonnegative")
AT_LEAST_ONE = _domain(lambda x: x >= 1, "must be at least 1")
UNIT = _domain(lambda x: 0 <= x <= 1, "must lie in [0, 1]")
OPEN_UNIT = _domain(lambda x: 0 < x < 1, "must lie in (0, 1)")
LEFT_OPEN_UNIT = _domain(lambda x: 0 < x <= 1, "must lie in (0, 1]")


def _count(bound: int):
    """[1, bound], for a count whose bound is one of the MAX_* above."""
    return lambda n: AT_LEAST_ONE(n) or (f"must be at most {bound}" if n > bound else None)


def _setting(default, domain):
    """A field holding ``default`` whose accepted values are ``domain``."""
    return field(default=default, metadata={"domain": domain})


@dataclass(frozen=True)
class ChannelParams:
    """Radio propagation constants for the air-to-ground and terrestrial links.

    ``env_x``/``env_y`` are the urban-environment constants of the logistic
    line-of-sight probability curve (elevation angle in degrees).  The
    ground-to-air fronthaul uses a plain power-law gain ``d**-g2a_exponent``
    with an extra attenuation factor ``g2a_nlos_factor`` (>= 1) on NLoS links.
    """

    fs_ref_distance_m: float = _setting(5.0, POSITIVE)
    carrier_hz: float = _setting(38e9, POSITIVE)
    exponent_los: float = _setting(2.0, POSITIVE)
    exponent_nlos: float = 2.4
    shadow_std_los_db: float = _setting(5.3, NONNEGATIVE)
    env_x: float = _setting(11.9, POSITIVE)
    env_y: float = _setting(0.13, POSITIVE)
    g2a_exponent: float = _setting(2.0, POSITIVE)
    g2a_nlos_factor: float = _setting(100.0, AT_LEAST_ONE)


@dataclass(frozen=True)
class EsnConfig:
    """Hyperparameters of one echo-state network with conceptor memory.

    The model's input and output widths come from its task (content or
    mobility prediction), not from here.
    """

    reservoir_size: int = _setting(1000, _count(MAX_RESERVOIR_SIZE))
    spectral_radius: float = _setting(0.9, OPEN_UNIT)
    density: float = _setting(0.1, LEFT_OPEN_UNIT)
    input_scale: float = 1.0
    aperture: float = _setting(15.0, POSITIVE)
    ridge: float = _setting(0.01, NONNEGATIVE)
    washout: int = _setting(50, NONNEGATIVE)
    training_length: int = _setting(1000, _count(MAX_TRAINING_LENGTH))


@dataclass(frozen=True)
class GeneratorConfig:
    """Knobs of the synthetic mobility / context / request generators.

    Mobility: each user follows a daily schedule of anchor locations (one
    schedule per day type, weekday vs weekend), visited at constant speed
    between collection instants, with Gaussian noise on every collected
    waypoint.  Speeds are interpreted on the narrative clock where one
    collection interval corresponds to one hour.

    Requests: each user draws one content per slot from a concentrated
    (zipf-like) base distribution over a user-specific content ranking,
    reshaped by the hour of day: work-class contents are boosted during
    working hours, entertainment-class contents outside them.
    """

    waypoints_per_day: int = _setting(3, _count(MAX_WAYPOINTS_PER_DAY))
    speed_max_mps: float = _setting(1.5, POSITIVE)
    position_noise_m: float = _setting(5.0, NONNEGATIVE)
    request_concentration: float = 1.2
    taste_spread: float = _setting(0.5, NONNEGATIVE)
    work_hour_boost: float = _setting(3.0, NONNEGATIVE)
    request_probability: float = _setting(1.0, UNIT)
    training_weeks: int = _setting(4, _count(MAX_TRAINING_WEEKS))


@dataclass(frozen=True)
class ScenarioConfig:
    """Full description of one simulated deployment.

    Defaults reproduce the reference urban setup: a 500 m disk, 70 users,
    20 radio heads in 4 zero-forcing clusters, 5 cache-equipped UAVs and a
    25-content catalog.
    """

    area_radius_m: float = _setting(500.0, POSITIVE)
    num_users: int = _setting(70, _count(MAX_USERS))
    num_rrhs: int = _setting(20, _count(MAX_RRHS))
    num_rrh_clusters: int = _setting(4, _count(MAX_RRH_CLUSTERS))
    num_uavs: int = _setting(5, _count(MAX_UAVS))
    num_contents: int = _setting(25, _count(MAX_CONTENTS))
    cache_size: int = _setting(1, AT_LEAST_ONE)
    content_size_bits: float = _setting(1e6, POSITIVE)
    intervals_per_slot: int = _setting(1000, _count(MAX_INTERVALS_PER_SLOT))
    slots_per_collection: int = _setting(10, _count(MAX_SLOTS))
    slots_per_cache_period: int = _setting(120, _count(MAX_SLOTS))
    slot_duration_s: float = _setting(1.0, POSITIVE)
    rrh_power_w: float = _setting(0.1, POSITIVE)
    bbu_power_w: float = _setting(1.0, POSITIVE)
    uav_max_power_w: float = _setting(20.0, POSITIVE)
    rrh_bandwidth_hz: float = _setting(1e6, POSITIVE)
    uav_bandwidth_hz: float = _setting(1e9, POSITIVE)
    noise_power_w: float = _setting(10.0 ** (-12.5), POSITIVE)
    fronthaul_rate_bps: float = _setting(1e8, POSITIVE)
    qoe_weight_delay: float = _setting(0.5, UNIT)  # the device score weighs the rest
    mos_min: float = _setting(0.8, LEFT_OPEN_UNIT)
    # One rate that every content uses, or one rate per content
    content_base_rates_bps: tuple[float, ...] = _setting((5e6,), POSITIVE)
    screen_factors: tuple[float, ...] = _setting((0.5, 1.0, 1.5), POSITIVE)
    min_altitude_m: float = _setting(100.0, POSITIVE)
    pathloss: ChannelParams = field(default_factory=ChannelParams)
    esn: EsnConfig = field(default_factory=EsnConfig)
    generators: GeneratorConfig = field(default_factory=GeneratorConfig)
    seed: int = 20240001


# Desk-scale preset applied by the CLI unless --paper-scale is given.  Fewer
# intervals and a shorter period keep runs CI-friendly; the smaller content and
# device rates keep the shared wireless fronthaul feasible for up to 7 UAVs at
# this compressed timescale while preserving the cached/uncached rate contrast.
DESK_PRESET: dict[str, Any] = {
    "intervals_per_slot": 100,
    "slots_per_collection": 6,
    "slots_per_cache_period": 24,
    "content_size_bits": 5e5,
    "content_base_rates_bps": [1.5e6],
    "esn": {"reservoir_size": 200, "training_length": 400},
}


def _at_most(name: str, value: int, bound: int, out: list[str]) -> None:
    if value > bound:
        out.append(f"{name}: must be at most {bound}, got {value}")


def _domain_violations(block, path: str = "") -> list[str]:
    """Every setting of ``block`` and of its nested blocks that lies outside its domain.

    The ESN block is checked by :func:`esn_violations`, its cross-field check included.
    """
    v: list[str] = []
    for f in dataclasses.fields(block):
        value, where = getattr(block, f.name), path + f.name
        if isinstance(value, EsnConfig):
            v.extend(f"{where}.{problem}" for problem in esn_violations(value))
        elif dataclasses.is_dataclass(value):
            v.extend(_domain_violations(value, where + "."))
        elif "domain" in f.metadata:
            if isinstance(value, tuple):
                words = next(filter(None, map(f.metadata["domain"], value)), None)
                words = words and f"every entry {words}"
            else:
                words = f.metadata["domain"](value)
            if words:
                v.append(f"{where}: {words}, got {value}")
    return v


def esn_violations(e: EsnConfig) -> list[str]:
    """Violated invariants of one ESN's hyperparameters, as "field: problem"."""
    v = _domain_violations(e)
    if e.washout >= e.training_length:
        v.append(f"washout: must be smaller than training_length ({e.washout} >= {e.training_length})")
    return v


def validate(cfg: ScenarioConfig) -> list[str]:
    """Return the list of violated invariants (empty when the config is valid)."""
    v = _domain_violations(cfg)
    if cfg.num_users < cfg.num_uavs:
        v.append(f"num_users/num_uavs: need num_users >= num_uavs, got {cfg.num_users}/{cfg.num_uavs}")
    if cfg.cache_size > cfg.num_contents:
        v.append(f"cache_size: cache size exceeds catalog ({cfg.cache_size} > {cfg.num_contents})")
    if cfg.slots_per_collection >= 1 and cfg.slots_per_cache_period % cfg.slots_per_collection != 0:
        v.append(
            "slots_per_collection: must divide slots_per_cache_period "
            f"({cfg.slots_per_collection} does not divide {cfg.slots_per_cache_period})"
        )
    if len(cfg.content_base_rates_bps) not in (1, cfg.num_contents):
        v.append(
            "content_base_rates_bps: need one rate, or one per content "
            f"({len(cfg.content_base_rates_bps)} given, {cfg.num_contents} contents)"
        )
    if not cfg.screen_factors:
        v.append(f"screen_factors: need at least one factor, got {cfg.screen_factors}")
    p = cfg.pathloss
    if not p.exponent_nlos >= p.exponent_los:
        v.append(
            "pathloss.exponent_los/exponent_nlos: need exponent_nlos >= exponent_los, "
            f"got {p.exponent_los}/{p.exponent_nlos}"
        )

    g = cfg.generators
    _at_most("num_users x slots_per_cache_period x 7 (generators.training_weeks + 1)",
             cfg.num_users * cfg.slots_per_cache_period * 7 * (g.training_weeks + 1),
             MAX_USER_SLOTS, v)
    n_sub = cfg.slots_per_cache_period // max(cfg.slots_per_collection, 1)
    _at_most("num_users x (slots_per_cache_period / slots_per_collection) x num_contents",
             cfg.num_users * n_sub * cfg.num_contents, MAX_USER_SUBPERIOD_CONTENTS, v)
    _at_most("num_users x intervals_per_slot", cfg.num_users * cfg.intervals_per_slot,
             MAX_USER_INTERVALS, v)
    return v


_NESTED = {f.name: f.default_factory for f in dataclasses.fields(ScenarioConfig)
           if dataclasses.is_dataclass(f.default_factory)}


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_finite(value) -> bool:
    """A number a float holds finitely; JSON's Infinity and NaN, and a longer integer, are not."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _type_problem(annotation: str, value) -> str | None:
    """Why ``value`` cannot fill a field annotated ``annotation``; None if it can.

    An accepted number is one a float holds, so every later message can print it;
    Python refuses to print an integer of more than 4,300 digits.
    """
    try:
        shown = repr(value)
    except ValueError:
        shown = "a value holding an integer too long to print"
    if value is None:
        return "must not be null"
    if annotation == "int":
        if not (isinstance(value, int) and not isinstance(value, bool)):
            return f"expected an integer, got {shown}"
        return None if _is_finite(value) else f"must be finite, got {shown}"
    if annotation == "float":
        if not _is_number(value):
            return f"expected a number, got {shown}"
        return None if _is_finite(value) else f"must be finite, got {shown}"
    if not (isinstance(value, (list, tuple)) and all(_is_number(x) for x in value)):
        return f"expected a list of numbers, got {shown}"
    return None if all(map(_is_finite, value)) else f"every entry must be finite, got {shown}"


def _build(cls, doc: dict, path: str, violations: list[str]):
    annotations = {f.name: f.type for f in dataclasses.fields(cls)}
    kwargs = {}
    for key, value in doc.items():
        where = f"{path}{key}"
        if key not in annotations:
            violations.append(f"{where}: unknown field")
            continue
        if key in _NESTED:
            if not isinstance(value, dict):
                violations.append(f"{where}: expected an object")
                continue
            kwargs[key] = _build(_NESTED[key], value, where + ".", violations)
            continue
        problem = _type_problem(annotations[key], value)
        if problem is not None:
            violations.append(f"{where}: {problem}")
        else:  # a list passes only for a tuple field
            kwargs[key] = tuple(value) if isinstance(value, list) else value
    return cls(**kwargs)


def merge_documents(base: dict, override: dict) -> dict:
    """Deep-merge two config documents; ``override`` wins on leaves."""
    out = dict(base)
    for key, value in override.items():
        if key in out and isinstance(out[key], dict) and isinstance(value, dict):
            out[key] = merge_documents(out[key], value)
        else:
            out[key] = value
    return out


def _load(cls, doc: dict, path: str, check):
    violations: list[str] = []
    block = _build(cls, doc, path, violations)
    violations.extend(path + problem for problem in check(block))
    if violations:
        raise ConfigError(violations)
    return block


def load_config_dict(doc: dict) -> ScenarioConfig:
    return _load(ScenarioConfig, doc, "", validate)


def load_esn_dict(doc: dict) -> EsnConfig:
    """The ``esn`` block a model file stores, parsed and checked as a config document's is."""
    return _load(EsnConfig, doc, "esn.", esn_violations)


def parse_document(text: str) -> dict:
    """Parse the JSON text of a config document; blank text is an empty document."""
    try:
        doc = json.loads(text) if text.strip() else {}
    # beyond malformed JSON: an integer of more than 4,300 digits, or nesting too deep
    except (ValueError, RecursionError) as exc:
        raise ConfigError([f"parse failure: {exc}"]) from exc
    if not isinstance(doc, dict):
        raise ConfigError(["parse failure: top-level value must be an object"])
    return doc


def serialize(cfg: ScenarioConfig) -> str:
    """Emit the config as a JSON document; load_config_dict(parse_document(serialize(c))) == c."""
    return json.dumps(dataclasses.asdict(cfg), indent=2, sort_keys=True)


# -- deterministic random streams --------------------------------------------


@dataclass(frozen=True)
class RandomSource:
    """A named, reproducible random stream.

    ``derive`` produces an independent child stream; the same (seed, label
    path) always yields the same sequence regardless of the order or thread in
    which streams are consumed.
    """

    seed: int
    path: tuple[str, ...] = ()

    def derive(self, label: str) -> "RandomSource":
        if not label:
            raise ValueError("stream label must be nonempty")
        return RandomSource(self.seed, self.path + (label,))

    def generator(self) -> np.random.Generator:
        material = repr(self.seed) + "\x1f" + "\x1f".join(self.path)
        digest = hashlib.sha256(material.encode("utf-8")).digest()
        return np.random.default_rng(int.from_bytes(digest[:16], "little"))
