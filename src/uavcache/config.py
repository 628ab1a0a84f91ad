"""Scenario configuration, the radio-head cluster type, and deterministic random streams.

Every tunable constant of the simulator lives in :class:`ScenarioConfig` and its
nested blocks.  Configs are immutable, JSON round-trippable, and validated as a
whole: :func:`load_config_dict` reports *all* violated invariants with their field
paths instead of stopping at the first one.

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


@dataclass(frozen=True)
class ChannelParams:
    """Radio propagation constants for the air-to-ground and terrestrial links.

    ``env_x``/``env_y`` are the urban-environment constants of the logistic
    line-of-sight probability curve (elevation angle in degrees).  The
    ground-to-air fronthaul uses a plain power-law gain ``d**-g2a_exponent``
    with an extra attenuation factor ``g2a_nlos_factor`` (>= 1) on NLoS links.
    """

    fs_ref_distance_m: float = 5.0
    carrier_hz: float = 38e9
    exponent_los: float = 2.0
    exponent_nlos: float = 2.4
    shadow_std_los_db: float = 5.3
    env_x: float = 11.9
    env_y: float = 0.13
    g2a_exponent: float = 2.0
    g2a_nlos_factor: float = 100.0


@dataclass(frozen=True)
class EsnConfig:
    """Hyperparameters of one echo-state network with conceptor memory.

    The model's input and output widths come from its task (content or
    mobility prediction), not from here.
    """

    reservoir_size: int = 1000
    spectral_radius: float = 0.9
    density: float = 0.1
    input_scale: float = 1.0
    aperture: float = 15.0
    ridge: float = 0.01
    washout: int = 50
    training_length: int = 1000


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

    waypoints_per_day: int = 3
    speed_max_mps: float = 1.5
    position_noise_m: float = 5.0
    request_concentration: float = 1.2
    taste_spread: float = 0.5
    work_hour_boost: float = 3.0
    request_probability: float = 1.0
    training_weeks: int = 4


@dataclass(frozen=True)
class ScenarioConfig:
    """Full description of one simulated deployment.

    Defaults reproduce the reference urban setup: a 500 m disk, 70 users,
    20 radio heads in 4 zero-forcing clusters, 5 cache-equipped UAVs and a
    25-content catalog.
    """

    area_radius_m: float = 500.0
    num_users: int = 70
    num_rrhs: int = 20
    num_rrh_clusters: int = 4
    num_uavs: int = 5
    num_contents: int = 25
    cache_size: int = 1
    content_size_bits: float = 1e6
    intervals_per_slot: int = 1000
    slots_per_collection: int = 10
    slots_per_cache_period: int = 120
    slot_duration_s: float = 1.0
    rrh_power_w: float = 0.1
    bbu_power_w: float = 1.0
    uav_max_power_w: float = 20.0
    rrh_bandwidth_hz: float = 1e6
    uav_bandwidth_hz: float = 1e9
    noise_power_w: float = 10.0 ** (-12.5)
    fronthaul_rate_bps: float = 1e8
    qoe_weight_delay: float = 0.5
    qoe_weight_device: float = 0.5
    mos_min: float = 0.8
    content_base_rate_bps: float = 5e6
    content_base_rates_bps: tuple[float, ...] | None = None
    screen_factors: tuple[float, ...] = (0.5, 1.0, 1.5)
    min_altitude_m: float = 100.0
    pathloss: ChannelParams = field(default_factory=ChannelParams)
    esn: EsnConfig = field(default_factory=EsnConfig)
    generators: GeneratorConfig = field(default_factory=GeneratorConfig)
    seed: int = 20240001

    def device_rate_bps(self, screen_factor, content):
        """Rate floor of a device with this screen factor; ``content`` may be an index array."""
        if self.content_base_rates_bps is not None:
            return screen_factor * np.asarray(self.content_base_rates_bps)[content]
        return screen_factor * np.full(np.shape(content), self.content_base_rate_bps)[()]


# Desk-scale preset applied by the CLI unless --paper-scale is given.  Fewer
# intervals and a shorter period keep runs CI-friendly; the smaller content and
# device rates keep the shared wireless fronthaul feasible for up to 7 UAVs at
# this compressed timescale while preserving the cached/uncached rate contrast.
DESK_PRESET: dict[str, Any] = {
    "intervals_per_slot": 100,
    "slots_per_collection": 6,
    "slots_per_cache_period": 24,
    "content_size_bits": 5e5,
    "content_base_rate_bps": 1.5e6,
    "esn": {"reservoir_size": 200, "training_length": 400},
}


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
# 64 bytes per link: 640 MB at this bound, what MAX_USERS allows at 1,000 intervals.
MAX_USER_INTERVALS = 10_000_000


def _at_most(name: str, value: int, bound: int, out: list[str]) -> None:
    if value > bound:
        out.append(f"{name}: must be at most {bound}, got {value}")


def _positive(name: str, value: float, out: list[str]) -> None:
    if not (value > 0):
        out.append(f"{name}: must be strictly positive, got {value!r}")


def esn_violations(e: EsnConfig) -> list[str]:
    """Violated invariants of one ESN's hyperparameters, as "field: problem"."""
    v: list[str] = []
    if e.reservoir_size < 1:
        v.append(f"reservoir_size: must be positive, got {e.reservoir_size}")
    if not (0.0 < e.spectral_radius < 1.0):
        v.append(f"spectral_radius: must lie in (0, 1), got {e.spectral_radius}")
    if not (0.0 < e.density <= 1.0):
        v.append(f"density: must lie in (0, 1], got {e.density}")
    if e.washout < 0:
        v.append(f"washout: must be nonnegative, got {e.washout}")
    if e.washout >= e.training_length:
        v.append(f"washout: must be smaller than training_length ({e.washout} >= {e.training_length})")
    if not e.aperture > 0:
        v.append(f"aperture: must be positive, got {e.aperture}")
    if not e.ridge >= 0:
        v.append(f"ridge: must be nonnegative, got {e.ridge}")
    _at_most("reservoir_size", e.reservoir_size, MAX_RESERVOIR_SIZE, v)
    _at_most("training_length", e.training_length, MAX_TRAINING_LENGTH, v)
    return v


def validate(cfg: ScenarioConfig) -> list[str]:
    """Return the list of violated invariants (empty when the config is valid)."""
    v: list[str] = []
    if not (cfg.num_users >= cfg.num_uavs >= 1):
        v.append(f"num_users/num_uavs: need num_users >= num_uavs >= 1, got {cfg.num_users}/{cfg.num_uavs}")
    if cfg.cache_size > cfg.num_contents:
        v.append(f"cache_size: cache size exceeds catalog ({cfg.cache_size} > {cfg.num_contents})")
    if cfg.cache_size < 1:
        v.append(f"cache_size: must be at least 1, got {cfg.cache_size}")
    if cfg.qoe_weight_delay + cfg.qoe_weight_device != 1.0:
        v.append(
            "qoe_weight_delay/qoe_weight_device: weights must sum to 1, got "
            f"{cfg.qoe_weight_delay} + {cfg.qoe_weight_device}"
        )
    for name in ("qoe_weight_delay", "qoe_weight_device"):
        if not (0.0 <= getattr(cfg, name) <= 1.0):
            v.append(f"{name}: must lie in [0, 1], got {getattr(cfg, name)}")
    for name in (
        "area_radius_m",
        "content_size_bits",
        "slot_duration_s",
        "rrh_power_w",
        "bbu_power_w",
        "uav_max_power_w",
        "rrh_bandwidth_hz",
        "uav_bandwidth_hz",
        "noise_power_w",
        "fronthaul_rate_bps",
        "content_base_rate_bps",
        "min_altitude_m",
    ):
        _positive(name, getattr(cfg, name), v)
    for name in ("num_rrhs", "num_rrh_clusters", "num_contents", "intervals_per_slot",
                 "slots_per_collection", "slots_per_cache_period"):
        if getattr(cfg, name) < 1:
            v.append(f"{name}: must be a positive integer, got {getattr(cfg, name)}")
    for name, bound in (("num_users", MAX_USERS), ("num_uavs", MAX_UAVS),
                        ("num_contents", MAX_CONTENTS), ("num_rrhs", MAX_RRHS),
                        ("num_rrh_clusters", MAX_RRH_CLUSTERS),
                        ("intervals_per_slot", MAX_INTERVALS_PER_SLOT),
                        ("slots_per_collection", MAX_SLOTS), ("slots_per_cache_period", MAX_SLOTS)):
        _at_most(name, getattr(cfg, name), bound, v)
    if not (0.0 < cfg.mos_min <= 1.0):
        v.append(f"mos_min: must lie in (0, 1], got {cfg.mos_min}")
    if cfg.slots_per_collection >= 1 and cfg.slots_per_cache_period % cfg.slots_per_collection != 0:
        v.append(
            "slots_per_collection: must divide slots_per_cache_period "
            f"({cfg.slots_per_collection} does not divide {cfg.slots_per_cache_period})"
        )
    if cfg.content_base_rates_bps is not None and len(cfg.content_base_rates_bps) != cfg.num_contents:
        v.append(
            "content_base_rates_bps: need one rate per content "
            f"({len(cfg.content_base_rates_bps)} given, {cfg.num_contents} contents)"
        )
    if cfg.content_base_rates_bps is not None and any(not r > 0 for r in cfg.content_base_rates_bps):
        v.append(f"content_base_rates_bps: every rate must be positive, got {cfg.content_base_rates_bps}")
    if not cfg.screen_factors or any(s <= 0 for s in cfg.screen_factors):
        v.append(f"screen_factors: need at least one factor, all positive, got {cfg.screen_factors}")

    p = cfg.pathloss
    if not (p.exponent_nlos >= p.exponent_los > 0):
        v.append(
            "pathloss.exponent_los/exponent_nlos: need exponent_nlos >= exponent_los > 0, "
            f"got {p.exponent_los}/{p.exponent_nlos}"
        )
    if p.g2a_nlos_factor < 1:
        v.append(f"pathloss.g2a_nlos_factor: must be >= 1, got {p.g2a_nlos_factor}")
    if p.shadow_std_los_db < 0:
        v.append(f"pathloss.shadow_std_los_db: must be nonnegative, got {p.shadow_std_los_db}")
    if p.env_x <= 0 or p.env_y <= 0:
        v.append(f"pathloss.env_x/env_y: must be positive, got {p.env_x}/{p.env_y}")
    _positive("pathloss.fs_ref_distance_m", p.fs_ref_distance_m, v)
    _positive("pathloss.g2a_exponent", p.g2a_exponent, v)
    _positive("pathloss.carrier_hz", p.carrier_hz, v)

    v.extend(f"esn.{problem}" for problem in esn_violations(cfg.esn))

    g = cfg.generators
    if g.position_noise_m < 0:
        v.append(f"generators.position_noise_m: must be nonnegative, got {g.position_noise_m}")
    if not (0.0 <= g.request_probability <= 1.0):
        v.append(f"generators.request_probability: must lie in [0, 1], got {g.request_probability}")
    if g.training_weeks < 1:
        v.append(f"generators.training_weeks: must be at least 1, got {g.training_weeks}")
    if g.waypoints_per_day < 1:
        v.append(f"generators.waypoints_per_day: must be at least 1, got {g.waypoints_per_day}")
    _at_most("generators.training_weeks", g.training_weeks, MAX_TRAINING_WEEKS, v)
    _at_most("generators.waypoints_per_day", g.waypoints_per_day, MAX_WAYPOINTS_PER_DAY, v)
    if g.taste_spread < 0:
        v.append(f"generators.taste_spread: must be nonnegative, got {g.taste_spread}")
    if g.work_hour_boost < 0:
        v.append(f"generators.work_hour_boost: must be nonnegative, got {g.work_hour_boost}")
    _positive("generators.speed_max_mps", g.speed_max_mps, v)

    _at_most("num_users x slots_per_cache_period x 7 (generators.training_weeks + 1)",
             cfg.num_users * cfg.slots_per_cache_period * 7 * (g.training_weeks + 1),
             MAX_USER_SLOTS, v)
    n_sub = cfg.slots_per_cache_period // max(cfg.slots_per_collection, 1)
    _at_most("num_users x (slots_per_cache_period / slots_per_collection) x num_contents",
             cfg.num_users * n_sub * cfg.num_contents, MAX_USER_SUBPERIOD_CONTENTS, v)
    _at_most("num_users x intervals_per_slot", cfg.num_users * cfg.intervals_per_slot,
             MAX_USER_INTERVALS, v)
    return v


def training_violations(cfg: ScenarioConfig) -> list[str]:
    """Invariants that only training needs, for a config that passed :func:`validate`.

    Oracle runs never train, so these do not belong to :func:`validate`.
    """
    g = cfg.generators
    # A content pattern is one sub-period of every training day; a mobility
    # pattern is one day type, of which the weekend has two days a week.
    samples = min(cfg.esn.training_length, 7 * g.training_weeks * cfg.slots_per_collection,
                  2 * g.training_weeks * cfg.slots_per_cache_period)
    if cfg.esn.washout >= samples:
        return [f"esn.washout: must be smaller than the {samples} training samples per "
                f"pattern, got {cfg.esn.washout}"]
    return []


_NESTED = {"pathloss": ChannelParams, "esn": EsnConfig, "generators": GeneratorConfig}
_TUPLE_FIELDS = {"screen_factors", "content_base_rates_bps"}


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
        return None if annotation.endswith(" | None") else "must not be null"
    kind = annotation.removesuffix(" | None")
    if kind == "int":
        if not (isinstance(value, int) and not isinstance(value, bool)):
            return f"expected an integer, got {shown}"
        return None if _is_finite(value) else f"must be finite, got {shown}"
    if kind == "float":
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
        elif key in _TUPLE_FIELDS and value is not None:
            kwargs[key] = tuple(value)
        else:
            kwargs[key] = value
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


def load_config_dict(doc: dict) -> ScenarioConfig:
    violations: list[str] = []
    cfg = _build(ScenarioConfig, doc, "", violations)
    violations.extend(validate(cfg))
    if violations:
        raise ConfigError(violations)
    return cfg


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
    doc = dataclasses.asdict(cfg)
    for key in _TUPLE_FIELDS:
        if doc.get(key) is not None:
            doc[key] = list(doc[key])
    return json.dumps(doc, indent=2, sort_keys=True)


@dataclass
class RrhCluster:
    """A zero-forcing cluster of radio heads acting as one distributed array."""

    id: int
    antennas: np.ndarray  # (R_q, 2) meters

    @property
    def n_antennas(self) -> int:
        return int(self.antennas.shape[0])

    @property
    def centroid(self) -> np.ndarray:
        return self.antennas.mean(axis=0)


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
