"""Radio propagation and rate computations.

Three link families are modeled:

* UAV -> user mmWave access links: log-distance path loss with probabilistic
  LoS/NLoS mixing driven by the elevation angle (degrees), noise-limited SNR.
* BBU -> UAV ground-to-air wireless fronthaul: power-law gain with an extra
  NLoS attenuation factor, same LoS probability curve.
* RRH-cluster -> user links: zero-forcing beamforming over Rayleigh-faded
  power-law channels, with inter-cluster and fronthaul interference.

Rates are reported as bits per slot: instantaneous rates integrated over the
slot's intervals (each of duration slot/F), so content delays computed from
them come out in seconds.

Each quantity is one plain numpy expression, except where the slot pipeline
spends its time.  The distance, the LoS probability and the dB path loss run
their ufunc sequence in place on fresh buffers from :func:`_buffer_like`, and
never write into their inputs.  They take the same steps on the same operands
as their plain expressions, so they are bit for bit those expressions.  Scalar
inputs give scalar results.  A height is squared by libm's ``pow``, as numpy
squares one float, whether it comes alone or as one UAV height per row.

The placement search prices every candidate position with
:func:`pathloss_linear_into`.  It takes the users' squared x and y offsets
from the UAV, which ``placement.PlacementPricer`` computes per call, and
writes into the caller's buffers.  It runs the distance and LoS steps above
and then the linear loss, 10**(PL/10) = 10**(L_fs/10) * d**(a_nlos + pr
(a_los - a_nlos)), with one log and one exp per point.  That skips the dB
round trip, so it is not bit-identical to
``db_to_linear(mixed_pathloss_db(...))`` but agrees with it within a relative
``linalg.LINEAR_LOSS_RTOL`` (1e-12).  Delivery and cache selection, whose
outputs are written out, keep the dB route and convert each dB loss to linear
units once: :func:`uav_user_snr` and ``qoe.min_uav_power_w`` take the linear
loss.
"""

from __future__ import annotations

import numpy as np

from . import linalg
from .config import ChannelParams

SPEED_OF_LIGHT = 3e8
# np.degrees multiplies by this same constant.
RAD_TO_DEG = 180.0 / np.pi


class ChannelError(ValueError):
    pass


def free_space_pl_db(d0_m: float, carrier_hz: float) -> float:
    if d0_m <= 0 or carrier_hz <= 0:
        raise ChannelError("reference distance and carrier frequency must be positive")
    return 20.0 * np.log10(4.0 * np.pi * d0_m * carrier_hz / SPEED_OF_LIGHT)


def _buffer_like(*arrays) -> np.ndarray:
    """A fresh float array of the arguments' broadcast shape (0-d when all are scalars)."""
    shapes = {np.shape(a) for a in arrays} - {()}
    if len(shapes) > 1:
        return np.empty(np.broadcast_shapes(*shapes))
    return np.empty(shapes.pop() if shapes else ())


def _distance_from_squares(sq_x, sq_y, altitude_sq, out: np.ndarray) -> np.ndarray:
    """3-D distance from squared horizontal offsets and a squared transmitter height, into
    ``out``."""
    np.add(sq_x, sq_y, out=out)
    np.add(out, altitude_sq, out=out)
    return np.sqrt(out, out=out)


def _square_heights(altitude):
    """Each height squared by libm's ``pow``, as numpy squares one float (``h ** 2``).

    ``float_power`` calls ``pow`` per element, so an array of heights squares
    each bit for bit as a lone float would; an array's ``** 2`` multiplies,
    which can differ in the last bit.
    """
    return np.float_power(altitude, 2.0)


def _distance_3d(uav_xyz, user_xy) -> np.ndarray:
    """Distances from UAV positions (..., 3) to users'; one (3,) UAV gives scalar coordinates."""
    x0, y0, height = np.moveaxis(np.asarray(uav_xyz, dtype=float), -1, 0)
    user_xy = np.asarray(user_xy, dtype=float)
    x, y = user_xy[..., 0], user_xy[..., 1]
    d = np.subtract(x, x0, out=_buffer_like(x, x0))
    np.multiply(d, d, out=d)
    dy = np.subtract(y, y0, out=_buffer_like(y, y0))
    np.multiply(dy, dy, out=dy)
    return _distance_from_squares(d, dy, _square_heights(height), d)


def distance_3d(uav_xyz, user_xy):
    return _distance_3d(uav_xyz, user_xy)[()]


def _los_probability(dist: np.ndarray, altitude, p: ChannelParams) -> np.ndarray:
    if (dist <= 0.0).any():
        raise ChannelError("zero distance between transmitter and receiver")
    altitude = np.asarray(altitude, dtype=float)
    return _los_from_sine(np.divide(altitude, dist, out=_buffer_like(altitude, dist)), p)


def _los_from_sine(pr: np.ndarray, p: ChannelParams) -> np.ndarray:
    """The LoS probability from the elevation's sine, altitude / distance, in place."""
    pr.clip(-1.0, 1.0, out=pr)
    np.arcsin(pr, out=pr)
    np.multiply(pr, RAD_TO_DEG, out=pr)
    np.subtract(pr, p.env_x, out=pr)
    np.multiply(pr, -p.env_y, out=pr)
    np.exp(pr, out=pr)
    np.multiply(pr, p.env_x, out=pr)
    np.add(pr, 1.0, out=pr)
    return np.divide(1.0, pr, out=pr)


def los_probability(dist, altitude, p: ChannelParams):
    """Logistic LoS probability in the elevation angle (degrees).

    ``dist`` is the 3-D transmitter-receiver distance and ``altitude`` the
    transmitter height (both broadcastable).
    """
    return _los_probability(np.asarray(dist, dtype=float), altitude, p)[()]


def mixed_pathloss_db(dist, altitude, p: ChannelParams):
    """LoS-probability-weighted log-distance path loss, vectorized over links.

    Shadowing sits at its zero mean, so the result is deterministic.
    """
    dist = np.asarray(dist, dtype=float)
    pr = _los_probability(dist, altitude, p)
    l_fs = free_space_pl_db(p.fs_ref_distance_m, p.carrier_hz)
    log_d = np.log10(dist, out=_buffer_like(pr))
    l_los = np.multiply(log_d, 10.0 * p.exponent_los, out=_buffer_like(pr))
    np.add(l_los, l_fs, out=l_los)
    l_nlos = np.multiply(log_d, 10.0 * p.exponent_nlos, out=log_d)
    np.add(l_nlos, l_fs, out=l_nlos)
    np.multiply(l_los, pr, out=l_los)  # pr * l_los
    np.subtract(1.0, pr, out=pr)
    np.multiply(pr, l_nlos, out=pr)  # (1 - pr) * l_nlos
    return np.add(l_los, pr, out=pr)[()]


def uav_user_pathloss_db(uav_xyz, user_xy, p: ChannelParams):
    """Average access-link path loss in dB from a UAV, or one per user row, to users."""
    uav_xyz = np.asarray(uav_xyz, dtype=float)
    return mixed_pathloss_db(_distance_3d(uav_xyz, user_xy), uav_xyz[..., 2], p)


def pathloss_linear_into(sq_x, sq_y, altitude, p: ChannelParams, dist: np.ndarray,
                         out: np.ndarray) -> np.ndarray:
    """Average access-link path loss in linear units, ``10 ** (PL / 10)``, into ``out``.

    ``sq_x`` and ``sq_y`` hold the users' squared x and y offsets from a UAV
    at height ``altitude``: a float, or a column with one UAV height per row;
    ``dist`` is a work buffer of their shape, and it and ``out`` may be
    ``sq_x`` and ``sq_y`` themselves.  The distance and LoS steps are those of
    :func:`_distance_3d` and :func:`_los_probability`, except that the
    zero-distance scan runs only when some squared height is 0: every distance
    is at least its row's height.
    The LoS-weighted mixture of two log-distance laws is one power of the
    distance, so the loss costs one log and one exp per point.
    """
    altitude_sq = _square_heights(altitude)
    dist = _distance_from_squares(sq_x, sq_y, altitude_sq, dist)
    if not altitude_sq.all() and (dist <= 0.0).any():
        raise ChannelError("zero distance between transmitter and receiver")
    exponent = _los_from_sine(np.divide(altitude, dist, out=out), p)
    np.multiply(exponent, p.exponent_los - p.exponent_nlos, out=exponent)
    np.add(exponent, p.exponent_nlos, out=exponent)
    np.log(dist, out=dist)
    np.multiply(exponent, dist, out=exponent)
    np.exp(exponent, out=exponent)
    l_fs = free_space_pl_db(p.fs_ref_distance_m, p.carrier_hz)
    return np.multiply(exponent, 10.0 ** (l_fs / 10.0), out=exponent)


def db_to_linear(db, out=None):
    """``10 ** (db / 10)``, into the array ``out`` if given (it may be ``db``).

    A scalar ``db`` gives a numpy scalar from numpy's scalar ``**``, which is
    libm's pow and can differ in the last bit from the array power.
    """
    if out is None:
        return 10.0 ** (np.asarray(db, dtype=float) / 10.0)
    return np.power(10.0, np.divide(db, 10.0, out=out), out=out)


def uav_user_snr(power_w, loss_linear, noise_w: float, out=None):
    """SNR of a transmit power over a linear path loss (``db_to_linear`` of the dB loss),
    into the array ``out`` if given (it may be ``loss_linear``)."""
    return np.divide(power_w, np.multiply(loss_linear, noise_w, out=out), out=out)


def link_rates_bps(sinr, bandwidth_hz: float, n_served=1, out=None):
    """Per-interval Shannon rate of one user on a band split n_served ways (one count, or
    one per row), into the array ``out`` if given (it may be ``sinr``)."""
    if np.less(n_served, 1).any():
        raise ChannelError("capacity undefined for an empty association set")
    log2 = np.log2(np.add(1.0, sinr, out=out, dtype=float), out=out)
    return np.multiply(bandwidth_hz / n_served, log2, out=out)


def slot_capacity_bits(rates_bps, slot_duration_s: float):
    """Bits deliverable over one slot at the given per-interval rates.

    The intervals run along the last axis: 1-D rates give a float, and a
    (users, intervals) array gives one capacity per row, each bit for bit
    its row's 1-D capacity.
    """
    rates = np.atleast_1d(np.asarray(rates_bps, dtype=float))
    bits = rates.sum(axis=-1) * slot_duration_s / rates.shape[-1]
    return float(bits) if bits.ndim == 0 else bits


def g2a_gain(uav_xyz, bbu_xy, p: ChannelParams):
    """Expected linear channel gain of the ground-to-air fronthaul link.

    NLoS links suffer an extra attenuation factor g2a_nlos_factor, so the
    average gain is Pr_LoS * d**-beta + (1 - Pr_LoS) * d**-beta / eta.  One
    UAV (3,) gives a float, UAVs (..., 3) one gain each; ``float_power`` takes
    libm's ``pow``, as numpy's power of one float does.
    """
    uav_xyz = np.asarray(uav_xyz, dtype=float)
    d = distance_3d(uav_xyz, bbu_xy)
    pr = los_probability(d, uav_xyz[..., 2], p)
    base = np.float_power(d, -p.g2a_exponent)
    return pr * base + (1.0 - pr) * base / p.g2a_nlos_factor


def g2a_fronthaul_bits(uav_xyz, bbu_xy, p: ChannelParams, bbu_power_w: float,
                       bandwidth_hz: float, noise_w: float, slot_duration_s: float):
    """Bits per slot of the BBU -> UAV wireless fronthaul at expected gain, per UAV."""
    snr = bbu_power_w * g2a_gain(uav_xyz, bbu_xy, p) / noise_w
    # one rate per UAV over the slot: a last axis of one interval
    return slot_capacity_bits(link_rates_bps(np.asarray(snr)[..., None], bandwidth_hz),
                              slot_duration_s)


def rayleigh_channel_rows(user_xy, antennas, gains, exponent: float) -> np.ndarray:
    """Amplitude channel rows h[u, a] = sqrt(g[u, a]) * d[u, a]**-exponent."""
    user_xy = np.atleast_2d(np.asarray(user_xy, dtype=float))
    diff = user_xy[:, None, :] - np.asarray(antennas, dtype=float)[None, :, :]
    dist = np.linalg.norm(diff, axis=2)
    if np.any(dist <= 0.0):
        raise ChannelError("zero distance between user and antenna")
    return np.sqrt(np.asarray(gains, dtype=float)) * dist ** (-exponent)


def zf_beamformer(h: np.ndarray) -> np.ndarray:
    """Zero-forcing matrix F = H^T (H H^T)^-1 for a full-row-rank H."""
    u_q, r_q = h.shape
    if u_q > r_q:
        raise ChannelError(f"cluster overloaded: {u_q} users on {r_q} antennas")
    gram = h @ h.T
    try:
        inv = np.linalg.inv(gram)
    except np.linalg.LinAlgError as exc:
        raise ChannelError("rank-deficient channel matrix") from exc
    f = h.T @ inv
    if np.abs(h @ f - np.eye(u_q)).max() > linalg.ZF_NULLING_TOL * max(1.0, np.abs(f).max()):
        raise ChannelError("zero-forcing nulling failed (ill-conditioned channel)")
    return f


def zfbf_sinr(clusters: list[np.ndarray], assigned: np.ndarray,
              user_xy: np.ndarray, fading_power: list[np.ndarray],
              rrh_power_w: float, bbu_interference_w: np.ndarray,
              noise_w: float, exponent: float) -> np.ndarray:
    """Per-user SINR under zero-forcing within clusters; 0 for users on no cluster.

    ``clusters[q]`` holds cluster q's (R_q, 2) antenna positions, ``assigned``
    each user's cluster index (-1: none), and ``fading_power[q]`` unit-mean
    exponential power gains of shape (num_users, R_q) toward cluster q's
    antennas (rows are indexed by global user id so the same draws serve both
    the direct and the cross channels).  Intra-cluster interference
    is nulled exactly; other clusters' beams and the wireless-fronthaul term
    enter the denominator.
    """
    user_xy = np.asarray(user_xy, dtype=float)
    beams: dict[int, np.ndarray] = {}
    for q, cluster in enumerate(clusters):
        users = np.flatnonzero(assigned == q)
        if not users.size:
            continue
        h = rayleigh_channel_rows(user_xy[users], cluster,
                                  fading_power[q][users], exponent)
        try:
            beams[q] = zf_beamformer(h)
        except ChannelError as exc:
            raise ChannelError(f"cluster {q}: {exc}") from exc

    sinr = np.zeros(user_xy.shape[0])
    for q in beams:
        users = np.flatnonzero(assigned == q)
        interference = bbu_interference_w[users]
        for j, beam in beams.items():
            if j != q:
                cross = rayleigh_channel_rows(user_xy[users], clusters[j],
                                              fading_power[j][users], exponent)
                # a (1, R_j) row per user: one (n, R_j) product rounds differently
                powers = (cross.reshape(users.size, 1, -1) @ beam)[:, 0] ** 2
                interference += rrh_power_w * powers.sum(axis=1)
        sinr[users] = rrh_power_w / (interference + noise_w)
    return sinr
