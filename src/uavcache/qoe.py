"""Delay, opinion-score, and rate-requirement computations.

Conventions: link rates are bits per slot, so the transmission time of a
content of L bits over a component of rate C is L * slot_duration / C seconds.
A delivery is scored on two axes: a linear delay score in [0, 1] anchored at
the system-wide delay lower bound, and a binary per-interval device score that
checks the instantaneous rate against the device's rate floor.

A quantity the route cannot achieve is ``inf``, and no function here raises
for it: a zero-rate leg takes inf seconds (:func:`transfer_s`), so its
delivery's delay is inf; when the fronthaul leg uses up the whole delay
budget, the access-rate requirement, the rate target and the minimum power
are all inf, and callers clamp that power at the cap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import (db_to_linear, free_space_pl_db, link_rates_bps, slot_capacity_bits,
                      uav_user_snr)
from .config import ScenarioConfig

MOS_BINS = (
    (0.8, "Excellent"),
    (0.6, "Very Good"),
    (0.4, "Good"),
    (0.2, "Fair"),
    (0.0, "Poor"),
)

LINK_RRH = "rrh"
LINK_UAV_FRONTHAUL = "uav_fronthaul"
LINK_UAV_CACHE = "uav_cache"


@dataclass(frozen=True)
class DeliveryPath:
    """A content route: which link family and the component rates (bits/slot).

    Cache hits have no fronthaul component.
    """

    kind: str
    access_bits_per_slot: float
    fronthaul_bits_per_slot: float | None = None

    def __post_init__(self):
        if self.kind == LINK_UAV_CACHE and self.fronthaul_bits_per_slot is not None:
            raise ValueError("cache deliveries have no fronthaul component")
        if self.kind in (LINK_RRH, LINK_UAV_FRONTHAUL) and self.fronthaul_bits_per_slot is None:
            raise ValueError(f"{self.kind} deliveries need a fronthaul rate")


@dataclass
class QoeReport:
    """Scored outcome of one user's content delivery in one slot."""

    user: int
    content: int
    link: str
    delay_s: float
    delay_score: float
    device_score_frac: float
    qoe: float
    mos_label: str
    satisfied: bool
    delivered: bool
    power_w: float
    cache_hit: bool
    power_feasible: bool


def transfer_s(bits_per_slot: float, content_bits: float, slot_duration_s: float) -> float:
    """Time one leg of rate ``bits_per_slot`` takes to carry a content; inf at zero rate."""
    if bits_per_slot <= 0.0:
        return math.inf
    return slot_duration_s * content_bits / bits_per_slot


def delay_s(path: DeliveryPath, content_bits: float, slot_duration_s: float) -> float:
    total = transfer_s(path.access_bits_per_slot, content_bits, slot_duration_s)
    if path.fronthaul_bits_per_slot is not None:
        total += transfer_s(path.fronthaul_bits_per_slot, content_bits, slot_duration_s)
    return total


def max_access_rate_bits(cfg: ScenarioConfig) -> float:
    """Best-case per-slot access capacity: one user, peak power, overhead UAV
    at the altitude floor, LoS law with a 4-sigma favorable shadowing margin."""
    p = cfg.pathloss
    best_pl_db = (free_space_pl_db(p.fs_ref_distance_m, p.carrier_hz)
                  + 10.0 * p.exponent_los * math.log10(cfg.min_altitude_m)
                  - 4.0 * p.shadow_std_los_db)
    snr = uav_user_snr(cfg.uav_max_power_w, best_pl_db, cfg.noise_power_w)
    return slot_capacity_bits(link_rates_bps(snr, cfg.uav_bandwidth_hz), cfg.slot_duration_s)


def delay_lower_bound_s(cfg: ScenarioConfig) -> float:
    """No delivery can beat both the wired fronthaul and the peak access link."""
    wired = cfg.content_size_bits / cfg.fronthaul_rate_bps
    access = transfer_s(max_access_rate_bits(cfg), cfg.content_size_bits, cfg.slot_duration_s)
    return min(wired, access)


def delay_score(value_s: float, cfg: ScenarioConfig) -> float:
    """Linear map from delay to [0, 1]: 1 at the lower bound, 0 at the slot length.

    Deliveries slower than one slot count as failures and score 0.
    """
    if value_s > cfg.slot_duration_s:
        return 0.0
    bound = delay_lower_bound_s(cfg)
    score = (cfg.slot_duration_s - value_s) / (cfg.slot_duration_s - bound)
    return float(np.clip(score, 0.0, 1.0))


def device_score(rates_bps, required_bps: float) -> float:
    """Fraction of intervals whose rate meets the device's rate floor."""
    return float(np.mean(np.asarray(rates_bps, dtype=float) >= required_bps))


def mos_label(qoe: float) -> str:
    for floor, label in MOS_BINS:
        if qoe >= floor:
            return label
    return "Poor"


def qoe_score(delay_score_value: float, device_score_value: float, weight_delay: float,
              weight_device: float) -> tuple[float, str]:
    q = weight_delay * delay_score_value + weight_device * device_score_value
    return float(q), mos_label(q)


def delay_rate_requirement_bits(cfg: ScenarioConfig, fronthaul_s: float = 0.0) -> float:
    """Access rate (bits/slot) at which the delay score reaches its target.

    ``fronthaul_s`` is the time the route's fronthaul leg takes (0 for a cache
    hit); it eats into the delay budget, so caching strictly lowers the
    requirement.  When the leg leaves no budget the requirement is inf.
    """
    dt = cfg.slot_duration_s
    budget_s = dt - cfg.mos_min * (dt - delay_lower_bound_s(cfg)) - fronthaul_s
    if budget_s <= 0.0:
        return math.inf
    return cfg.content_size_bits * dt / budget_s


def qoe_rate_target_bps(delay_req_bits_per_slot, device_req_bps, slot_duration_s: float):
    """The per-interval rate that satisfies both the delay and device criteria.

    Elementwise over arrays; an inf requirement gives an inf target.
    """
    return np.maximum(delay_req_bits_per_slot / slot_duration_s, device_req_bps)


def power_per_loss_w(rate_target_bps, n_served: int, bandwidth_hz: float, noise_w: float):
    """SNR-inversion prefactor (2**(r n / B) - 1) N0: the power per unit linear path loss.

    Elementwise over rate targets; an unreachable target prices at inf.
    """
    rate = np.asarray(rate_target_bps, dtype=float)
    with np.errstate(over="ignore"):
        return (np.exp2(rate * n_served / bandwidth_hz) - 1.0) * noise_w


def min_uav_power_w(pathloss_db, rate_target_bps, n_served: int,
                    bandwidth_hz: float, noise_w: float):
    """Transmit power making the shared-band rate hit the target exactly.

    Vectorized over path loss and rate target; feasibility against the power
    cap is the caller's concern (values are returned unclamped).
    """
    with np.errstate(over="ignore"):  # unreachable targets price at infinity
        return (power_per_loss_w(rate_target_bps, n_served, bandwidth_hz, noise_w)
                * db_to_linear(pathloss_db))
