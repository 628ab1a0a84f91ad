import numpy as np
import pytest
from hypothesis import strategies as st

from uavcache.channel import mixed_pathloss_db, uav_user_pathloss_db
from uavcache.config import (DESK_PRESET, ChannelParams, RandomSource, ScenarioConfig,
                             load_config_dict, merge_documents)
from uavcache.placement import PlacementResult, _flatten_positions
from uavcache.qoe import min_uav_power_w


def desk_config(**overrides) -> ScenarioConfig:
    """Desk-scale scenario with optional leaf overrides (nested dicts merge)."""
    return load_config_dict(merge_documents(DESK_PRESET, overrides))


@pytest.fixture
def tiny_cfg() -> ScenarioConfig:
    """Small but structurally complete scenario for fast end-to-end tests."""
    return desk_config(
        num_users=10, num_rrhs=8, num_rrh_clusters=2, num_uavs=2, cache_size=3,
        intervals_per_slot=10, slots_per_collection=3, slots_per_cache_period=12,
        esn={"reservoir_size": 60, "training_length": 60, "washout": 10},
        generators={"training_weeks": 2, "request_concentration": 2.0},
    )


def log_uniform(lo_exp: float, hi_exp: float):
    """Floats from 10**lo_exp to 10**hi_exp, uniform in the exponent."""
    return st.floats(lo_exp, hi_exp).map(lambda e: 10.0 ** e)


@st.composite
def access_links(draw):
    """A UAV, its users' (n, F, 2) interval positions and channel constants.

    The ranges run from free-space to dense-clutter exponents, from flat to
    steep LoS curves, from UHF to mmWave carriers, from hovering a metre up
    to three kilometres, with users spread over one metre to ten kilometres.
    """
    p = ChannelParams(exponent_los=draw(st.floats(1.5, 4.0)),
                      exponent_nlos=draw(st.floats(1.5, 6.0)),
                      env_x=draw(st.floats(0.5, 40.0)), env_y=draw(st.floats(0.01, 1.0)),
                      fs_ref_distance_m=draw(log_uniform(-1.0, 2.0)),
                      carrier_hz=draw(log_uniform(8.0, 11.0)))
    altitude, spread = draw(log_uniform(0.0, 3.5)), draw(log_uniform(0.0, 4.0))
    n_users, n_intervals = draw(st.integers(1, 20)), draw(st.integers(1, 200))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    users = rng.normal(0.0, spread, (n_users, n_intervals, 2))
    uav = np.array([*rng.normal(0.0, spread, 2), altitude])
    return uav, users, p


# -- independent references the tests compare the production code against -----------


def echo_state_gap(w: np.ndarray, w_in: np.ndarray, inputs: np.ndarray,
                   rs: RandomSource) -> float:
    """Final distance between two state trajectories driven by the same input.

    A reservoir with the echo-state property forgets initial conditions, so
    the gap should vanish; spectral radii >= 1 typically leave it large.
    """
    rng = rs.generator()
    v1 = rng.uniform(-1.0, 1.0, w.shape[0])
    v2 = rng.uniform(-1.0, 1.0, w.shape[0])
    drive_terms = np.atleast_2d(inputs) @ w_in.T
    for t in range(drive_terms.shape[0]):
        v1 = np.tanh(w @ v1 + drive_terms[t])
        v2 = np.tanh(w @ v2 + drive_terms[t])
    return float(np.max(np.abs(v1 - v2)))


def placement_objective_db(xyz, user_pos, rate_targets_bps, n_served: int,
                           p: ChannelParams, bandwidth_hz: float, noise_w: float) -> float:
    """The placement objective by the dB route: ``min_uav_power_w`` of each path loss, summed."""
    pos, _ = _flatten_positions(user_pos)
    pl = uav_user_pathloss_db(np.asarray(xyz, dtype=float), pos, p)
    power = min_uav_power_w(pl, np.asarray(rate_targets_bps, dtype=float)[:, None],
                            n_served, bandwidth_hz, noise_w)
    return float(power.sum())


def place_uav_exhaustive(user_pos, rate_targets_bps, grid_step_m: float,
                         altitudes_m, n_served: int, p: ChannelParams,
                         bandwidth_hz: float, noise_w: float,
                         pad_m: float = 100.0) -> PlacementResult:
    """Global grid minimum of the power objective over the padded user bounding box."""
    pos, _ = _flatten_positions(user_pos)
    altitudes = np.atleast_1d(np.asarray(altitudes_m, dtype=float))
    if pos.shape[0] == 0 or altitudes.size == 0:
        raise ValueError("exhaustive search needs users and at least one altitude")
    flat = pos.reshape(-1, 2)
    weights = np.repeat(np.asarray(rate_targets_bps, dtype=float), pos.shape[1])
    lo = flat.min(axis=0) - pad_m
    hi = flat.max(axis=0) + pad_m
    xs = np.arange(lo[0], hi[0] + grid_step_m / 2, grid_step_m)
    ys = np.arange(lo[1], hi[1] + grid_step_m / 2, grid_step_m)

    best_val = np.inf
    best_pos = None
    evals = 0
    for h in altitudes:
        gx, gy = np.meshgrid(xs, ys, indexing="ij")
        grid = np.stack([gx.ravel(), gy.ravel()], axis=1)  # (G, 2)
        diff = grid[:, None, :] - flat[None, :, :]
        dist = np.sqrt(np.sum(diff ** 2, axis=2) + h * h)  # (G, M)
        pl = mixed_pathloss_db(dist, h, p)
        power = min_uav_power_w(pl, weights[None, :], n_served, bandwidth_hz, noise_w)
        totals = power.sum(axis=1)
        evals += totals.size
        idx = int(np.argmin(totals))
        if totals[idx] < best_val:
            best_val = float(totals[idx])
            best_pos = np.array([grid[idx, 0], grid[idx, 1], h])
    return PlacementResult(position=best_pos, objective_w=best_val, evaluations=evals)
