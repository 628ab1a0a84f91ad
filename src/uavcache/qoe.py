"""Delay, opinion-score, and rate-requirement computations.

Conventions: link rates are bits per slot, so the transmission time of a
content of L bits over a component of rate C is L * slot_duration / C seconds.
A delivery is scored on two axes: a linear delay score in [0, 1] anchored at
the system-wide delay lower bound, and a binary per-interval device score that
checks the instantaneous rate against the device's rate floor.  Every tier is
scored the same way, and the scores run elementwise, so one call scores a
whole slot's users; scalar inputs give scalar results.

A quantity the route cannot achieve is ``inf``, and no function here raises
for it: a zero-rate leg takes inf seconds (:func:`transfer_s`), so its
delivery's delay is inf; an absent leg is an infinite-rate leg, which takes
0 s; when the fronthaul leg uses up the whole delay budget, the access-rate
requirement, the rate target and the minimum power are all inf, and callers
clamp that power at the cap.
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
# Rows of users with no delivery: no request this slot, or no tier serving them.
LINK_IDLE = "idle"
LINK_UNSERVED = "unserved"


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


def transfer_s(bits_per_slot, content_bits: float, slot_duration_s: float):
    """Time a leg of rate ``bits_per_slot`` takes to carry a content, elementwise.

    A zero-rate leg takes inf seconds and an infinite-rate leg 0 s.
    """
    bits = np.asarray(bits_per_slot, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        seconds = slot_duration_s * content_bits / bits
    return np.where(bits <= 0.0, math.inf, seconds)[()]


def max_access_rate_bits(cfg: ScenarioConfig) -> float:
    """Best-case per-slot access capacity: one user, peak power, overhead UAV
    at the altitude floor, LoS law with a 4-sigma favorable shadowing margin."""
    p = cfg.pathloss
    best_pl_db = (free_space_pl_db(p.fs_ref_distance_m, p.carrier_hz)
                  + 10.0 * p.exponent_los * math.log10(cfg.min_altitude_m)
                  - 4.0 * p.shadow_std_los_db)
    snr = uav_user_snr(cfg.uav_max_power_w, db_to_linear(best_pl_db), cfg.noise_power_w)
    return slot_capacity_bits(link_rates_bps(snr, cfg.uav_bandwidth_hz), cfg.slot_duration_s)


def delay_lower_bound_s(cfg: ScenarioConfig) -> float:
    """No delivery can beat both the wired fronthaul and the peak access link.

    It depends on the config alone: a run computes it once per period and
    hands it to :func:`delay_score` and :func:`delay_rate_requirement_bits`.
    """
    wired = cfg.content_size_bits / cfg.fronthaul_rate_bps
    access = transfer_s(max_access_rate_bits(cfg), cfg.content_size_bits, cfg.slot_duration_s)
    return min(wired, access)


def delay_score(value_s, cfg: ScenarioConfig, bound_s: float):
    """Linear map from delay to [0, 1]: 1 at the lower bound ``bound_s``, 0 at the slot length.

    Elementwise.  Deliveries slower than one slot count as failures and score
    0; the ratio is taken only where the delay is at most one slot.
    """
    value = np.asarray(value_s, dtype=float)
    dt = cfg.slot_duration_s
    score = np.divide(dt - value, dt - bound_s, out=np.zeros(value.shape), where=value <= dt)
    return np.clip(score, 0.0, 1.0)[()]


def device_score(rates_bps, required_bps):
    """Fraction of intervals whose rate meets the device's rate floor.

    The intervals run along the last axis: 1-D rates give a scalar, and
    (users, intervals) rates with (users, 1) floors give one fraction per row.
    """
    return np.atleast_1d(np.asarray(rates_bps, dtype=float) >= required_bps).mean(axis=-1)


def mos_label(qoe):
    """The label of the first opinion bin whose floor each QoE value reaches, elementwise."""
    q = np.asarray(qoe, dtype=float)
    return np.select([q >= floor for floor, _ in MOS_BINS], [label for _, label in MOS_BINS],
                     "Poor")[()]


def qoe_score(delay_score_value, device_score_value, weight_delay: float, weight_device: float):
    """The weighted QoE and its opinion label, elementwise."""
    q = weight_delay * delay_score_value + weight_device * device_score_value
    return q, mos_label(q)


def delay_rate_requirement_bits(cfg: ScenarioConfig, bound_s: float,
                                fronthaul_s: float = 0.0) -> float:
    """Access rate (bits/slot) at which the delay score reaches its target.

    ``bound_s`` is :func:`delay_lower_bound_s`, and ``fronthaul_s`` is the
    time the route's fronthaul leg takes (0 for a cache hit); it eats into the
    delay budget, so caching strictly lowers the requirement.  When the leg
    leaves no budget the requirement is inf.
    """
    dt = cfg.slot_duration_s
    budget_s = dt - cfg.mos_min * (dt - bound_s) - fronthaul_s
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


def min_uav_power_w(loss_linear, rate_target_bps, n_served: int,
                    bandwidth_hz: float, noise_w: float):
    """Transmit power making the shared-band rate hit the target exactly.

    ``loss_linear`` is the path loss in linear units (``db_to_linear`` of the
    dB loss).  Vectorized over loss and rate target; feasibility against the
    power cap is the caller's concern (values are returned unclamped).
    """
    with np.errstate(over="ignore"):  # unreachable targets price at infinity
        return power_per_loss_w(rate_target_bps, n_served, bandwidth_hz, noise_w) * loss_linear
