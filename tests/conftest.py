import dataclasses
import math

import numpy as np
import pytest
from hypothesis import strategies as st

from uavcache import cesn, linalg
from uavcache.channel import (ChannelError, db_to_linear, free_space_pl_db, mixed_pathloss_db,
                              rayleigh_channel_rows, uav_user_pathloss_db, zf_beamformer)
from uavcache.config import (DESK_PRESET, ChannelParams, RandomSource, ScenarioConfig,
                             load_config_dict, merge_documents)
from uavcache.generators import DAY_TYPES, day_type, track_positions
from uavcache.placement import (PlacementPricer, PlacementResult, _flatten_positions,
                                place_uav_local_search, rrh_rate_threshold_bits)
from uavcache.qoe import (LINK_RRH, LINK_UAV_CACHE, LINK_UAV_FRONTHAUL, MOS_BINS,
                          min_uav_power_w, power_per_loss_w)


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


def infeasible_config(tiny_cfg: ScenarioConfig) -> ScenarioConfig:
    """``tiny_cfg`` at a half-second slot with a slow wired fronthaul, a faint BBU link and
    a one-content cache: the RRH threshold goes infinite, uncached routes cannot make the
    delay, and delivery prices unreachable targets at the power cap."""
    return dataclasses.replace(
        tiny_cfg, slot_duration_s=0.5, fronthaul_rate_bps=1e7, bbu_power_w=1e-6, cache_size=1,
        generators=dataclasses.replace(tiny_cfg.generators, request_concentration=0.5))


def idle_config(tiny_cfg: ScenarioConfig) -> ScenarioConfig:
    """``tiny_cfg`` where each user requests in a slot with probability 0.6, so every slot
    has idle users."""
    return dataclasses.replace(tiny_cfg, generators=dataclasses.replace(
        tiny_cfg.generators, request_probability=0.6))


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


# Bound of linalg.spectral_radius against the dense reference, relative, fixed before
# the first run.  A prototype of the restarted Arnoldi read at most 3.0e-14.
RADIUS_AGREEMENT_RTOL = 1e-12

# Bounds the tests hold the linalg kernels and the conceptor algebra to; the
# package itself reads none of them.
SPD_RESIDUAL_RTOL = 1e-9      # relative residual accepted from solve_spd
PINV_PENROSE_TOL = 1e-9       # Moore-Penrose identity slack
EIG_RECONSTRUCT_TOL = 1e-9    # symmetric eigendecomposition reconstruction slack
SOLVE_AGREEMENT_TOL = 1e-8    # solve_spd vs pinv-based solve agreement
RIDGE_FORM_TOL = 1e-10        # solve_ridge's T x T form vs the N x N one, O(1) data, a >= 1e-2
ALGEBRA_TOL = 1e-12           # exact-algebra identities (involution, commutativity)


def dense_radius(a: np.ndarray) -> float:
    """Largest eigenvalue magnitude of a from all N of its eigenvalues, by ``eigvals``."""
    return float(np.abs(np.linalg.eigvals(a)).max())


# Bounds of the block drive and recall against the one-pattern references, fixed
# before the first run.  A prototype read 8.9e-16 on the train_p12 states and
# 1.3e-14 on a paper-scale content recall; recall gets the slack of the
# factored-conceptor test, whose seed-99 model amplifies ulps.
BATCHED_STATE_TOL = 1e-12
BATCHED_RECALL_RTOL = 1e-7


def one_pattern_drive(model: cesn.EsnModel, inputs: np.ndarray) -> np.ndarray:
    """One pattern's states (N, T) from a zero state, one matrix-vector product with
    ``w`` per step."""
    inputs = np.atleast_2d(np.asarray(inputs, dtype=float))
    v = np.zeros(model.cfg.reservoir_size)
    out = np.empty((model.cfg.reservoir_size, inputs.shape[0]))
    w, drive_terms = model.w, inputs @ model.w_in.T
    for t in range(inputs.shape[0]):
        v = np.tanh(w @ v + drive_terms[t])
        out[:, t] = v
    return out


def one_pattern_recall(model: cesn.EsnModel, conceptor, pattern: int, wd: np.ndarray,
                       steps: int) -> np.ndarray:
    """One pattern's (steps, output width) replay from its final training state through
    the recurrent matrix ``wd`` and ``conceptor``, a dense N x N matrix or a
    ``cesn.Conceptor`` applied as u (s * u^T x)."""
    def apply(x):
        if isinstance(conceptor, cesn.Conceptor):
            return conceptor.u @ (conceptor.s * (conceptor.u.T @ x))
        return conceptor @ x

    v = model.pattern_states[pattern]
    outputs = np.empty((steps, model.output_dim))
    for t in range(steps):
        v = apply(np.tanh(wd @ v))
        outputs[t] = model.w_out @ v
    return outputs


class OnePatternEsn(cesn.EsnModel):
    """Reference model that drives and recalls one pattern at a time.

    ``drive`` steps each pattern alone (``one_pattern_drive``), and ``recall``
    replays each pattern alone as u (s * u^T tanh((w + w_in b) v)) with its own
    conceptor, as models did before a model's patterns stepped together as one
    state block.
    """

    def drive(self, inputs) -> list[np.ndarray]:
        return [one_pattern_drive(self, u) for u in inputs]

    def recall(self, patterns, steps: int) -> np.ndarray:
        wd = self.w + self.w_in @ self.b
        return np.stack([one_pattern_recall(self, self.conceptors[p], p, wd, steps)
                         for p in patterns])


def conceptor_matrix(c: cesn.Conceptor) -> np.ndarray:
    """The dense N x N conceptor u diag(s) u^T that ``cesn`` applies without forming."""
    return (c.u * c.s) @ c.u.T


def zero_conceptor(dim: int, aperture: float = 15.0) -> cesn.Conceptor:
    """The conceptor of a zero correlation: no directions."""
    return cesn.Conceptor(u=np.zeros((dim, 0)), lam=np.zeros(0), aperture=aperture)


def dense_cut(r: np.ndarray, aperture: float) -> np.ndarray:
    """A state correlation R less its eigendirections whose conceptor eigenvalue
    lam / (lam + aperture^-2) is at most ``linalg.CONCEPTOR_S_CUT``: what ``cesn`` keeps."""
    lam, v = np.linalg.eigh(r)
    low = lam / (lam + aperture ** -2) <= linalg.CONCEPTOR_S_CUT
    return r - (v[:, low] * lam[low]) @ v[:, low].T


def dense_conceptor(r: np.ndarray, aperture: float) -> np.ndarray:
    """M = R (R + aperture^-2 I)^-1 of a state correlation R, solved densely after
    ``dense_cut``."""
    r = dense_cut(r, aperture)
    m = np.linalg.solve(r + aperture ** -2 * np.eye(r.shape[0]), r)
    return 0.5 * (m + m.T)


def dense_not(m: np.ndarray) -> np.ndarray:
    """NOT of a dense conceptor, I - M."""
    return np.eye(m.shape[0]) - m


class DenseConceptors(cesn.EsnModel):
    """Reference model that keeps every conceptor as a dense N x N matrix.

    ``load_pattern`` loads as models did before conceptors were kept as
    factors: a pattern's conceptor is ``dense_conceptor`` of its state
    correlation, the running memory is the OR of the stored ones, formed as
    the conceptor of the summed correlations, and the free memory is its NOT,
    with quota trace(I - M) / N.  As in ``cesn``, each pattern's correlation
    and each running sum lose the directions the cut drops (``dense_cut``)
    before they are summed.  ``b`` grows as in ``cesn``.  ``conceptors``
    holds the dense matrices, ``memory`` the summed correlation, and
    ``recall`` filters with the dense matrices.  Inputs are not validated.
    """

    def load_pattern(self, inputs, targets, states) -> dict:
        n, aperture = self.cfg.reservoir_size, self.cfg.aperture
        free = np.eye(n) if self.memory is None \
            else dense_not(dense_conceptor(self.memory, aperture))
        quota_before = np.trace(free) / n
        keep = slice(self.cfg.washout, states.shape[1])
        v_old = np.concatenate([np.zeros((n, 1)), states[:, :-1]], axis=1)[:, keep]
        s = free @ v_old
        error = inputs[keep].T - self.b @ v_old
        self.b = self.b + linalg.solve_ridge(s, aperture ** -2 * s.shape[1], error.T).T
        x = states[:, keep]
        r = dense_cut(x @ x.T / x.shape[1], aperture)
        self.memory = r if self.memory is None else dense_cut(self.memory + r, aperture)
        self.conceptors.append(dense_conceptor(r, aperture))
        self.pattern_states.append(states[:, -1].copy())
        self._train_states.append(x)
        self._train_targets.append(targets[keep].T)
        self.quota_history.append(
            np.trace(dense_not(dense_conceptor(self.memory, aperture))) / n)
        return {"quota_before": quota_before, "quota_after": self.quota_history[-1]}

    def recall(self, patterns, steps: int) -> np.ndarray:
        wd = self.w + self.w_in @ self.b
        return np.stack([one_pattern_recall(self, self.conceptors[p], p, wd, steps)
                         for p in patterns])


class DenseInputSimulation(cesn.EsnModel):
    """Reference model that keeps the input simulation as the dense N x N matrix D.

    ``load_pattern`` loads as models did before D was kept as ``w_in @ b``: D
    grows by a ridge solve with the N-column right-hand side ``w_in u - D v``
    inside the free memory I - M, and the conceptor, running memory, buffers
    and quota follow the same steps as in ``cesn``.  ``recall`` replays through
    ``w + D``.  Inputs are not validated.
    """

    def __init__(self, *args):
        super().__init__(*args)
        del self.b
        self.d = np.zeros((self.cfg.reservoir_size,) * 2)

    def load_pattern(self, inputs, targets, states) -> dict:
        n = self.cfg.reservoir_size
        quota_before = cesn.free_memory(self.memory, n)
        free = np.eye(n) if self.memory is None else dense_not(conceptor_matrix(self.memory))
        keep = slice(self.cfg.washout, states.shape[1])
        v_old = np.concatenate([np.zeros((n, 1)), states[:, :-1]], axis=1)[:, keep]
        s = free @ v_old
        t_mat = self.w_in @ inputs[keep].T - self.d @ v_old
        self.d = self.d + linalg.solve_ridge(s, self.cfg.aperture ** -2 * s.shape[1], t_mat.T).T
        c = cesn.compute_conceptor(states[:, keep], self.cfg.aperture)
        self.memory = c if self.memory is None else cesn.conceptor_or(self.memory, c)
        self.conceptors.append(c)
        self.pattern_states.append(states[:, -1].copy())
        self._train_states.append(states[:, keep])
        self._train_targets.append(targets[keep].T)
        self.quota_history.append(cesn.free_memory(self.memory, n))
        return {"quota_before": quota_before, "quota_after": self.quota_history[-1]}

    def recall(self, patterns, steps: int) -> np.ndarray:
        return np.stack([one_pattern_recall(self, conceptor_matrix(self.conceptors[p]), p,
                                            self.w + self.d, steps) for p in patterns])


def reference_associate_rrh(rates_bits, user_xy, device_req_bps, clusters, cfg, bound_s):
    """Terrestrial admission tried at every count from the largest down.

    Each count m rebuilds the whole greedy placement: the users ranked by
    rate (ties by id, NaN rates last) that clear the threshold for m sharers
    go, in rank order, to the nearest cluster with a free antenna, until m are
    placed.  The first m that fills returns; each user's cluster index, or -1.
    A count that fewer than m users clear cannot fill, so it skips the placement.
    """
    rates = np.asarray(rates_bits, dtype=float)
    user_xy = np.asarray(user_xy, dtype=float)
    n_users = rates.shape[0]
    total_antennas = sum(len(c) for c in clusters)
    order = sorted(range(n_users), key=lambda i: (bool(np.isnan(rates[i])),
                                                  0.0 if np.isnan(rates[i]) else -rates[i], i))
    centroids = [c.mean(axis=0) for c in clusters]
    by_distance = [sorted(range(len(clusters)),
                          key=lambda q: (float(np.linalg.norm(user_xy[i] - centroids[q])), q))
                   for i in range(n_users)]
    for m in range(min(n_users, total_antennas), 0, -1):
        thresholds = rrh_rate_threshold_bits(m, device_req_bps, cfg, bound_s)
        if np.count_nonzero(~(rates < thresholds)) < m:
            continue
        chosen: dict[int, int] = {}
        capacity = [len(c) for c in clusters]
        for i in order:
            if len(chosen) == m:
                break
            if rates[i] < thresholds[i]:
                continue
            for q in by_distance[i]:
                if capacity[q] > 0:
                    chosen[i] = q
                    capacity[q] -= 1
                    break
        if len(chosen) == m:
            assigned = np.full(n_users, -1)
            assigned[list(chosen)] = list(chosen.values())
            return assigned
    return np.full(n_users, -1)


def reference_zfbf_sinr(clusters, assigned, user_xy, fading_power, rrh_power_w,
                        bbu_interference_w, noise_w, exponent):
    """Zero-forcing SINR with each user's interference summed on its own, one
    (1, R_j) cross channel row per other cluster with users."""
    user_xy = np.asarray(user_xy, dtype=float)
    beams = {}
    for q, cluster in enumerate(clusters):
        users = np.flatnonzero(assigned == q)
        if users.size:
            beams[q] = zf_beamformer(rayleigh_channel_rows(user_xy[users], cluster,
                                                           fading_power[q][users], exponent))
    sinr = np.zeros(user_xy.shape[0])
    for q, cluster in enumerate(clusters):
        for i in np.flatnonzero(assigned == q).tolist():
            interference = float(bbu_interference_w[i])
            for j, other in enumerate(clusters):
                if j == q or j not in beams:
                    continue
                cross = rayleigh_channel_rows(user_xy[i], other, fading_power[j][i], exponent)
                powers = (cross @ beams[j]) ** 2
                interference += rrh_power_w * float(np.sum(powers))
            sinr[i] = rrh_power_w / (interference + noise_w)
    return sinr


def uav_user_pathloss_linear(uav_xyz, user_xy, p: ChannelParams):
    """Linear path loss from a UAV to users' positions, one plain expression per step.

    The LoS-weighted mixture of two log-distance laws is one power of the
    distance, 10**(PL/10) = 10**(L_fs/10) * d**(a_nlos + pr (a_los - a_nlos)).
    """
    uav_xyz = np.asarray(uav_xyz, dtype=float)
    user_xy = np.asarray(user_xy, dtype=float)
    dx = user_xy[..., 0] - uav_xyz[0]
    dy = user_xy[..., 1] - uav_xyz[1]
    dist = np.sqrt(dx * dx + dy * dy + uav_xyz[2] ** 2)
    if (dist <= 0.0).any():
        raise ChannelError("zero distance between transmitter and receiver")
    phi_deg = np.degrees(np.arcsin(np.clip(uav_xyz[2] / dist, -1.0, 1.0)))
    pr = 1.0 / (1.0 + p.env_x * np.exp(-p.env_y * (phi_deg - p.env_x)))
    exponent = pr * (p.exponent_los - p.exponent_nlos) + p.exponent_nlos
    l_fs = free_space_pl_db(p.fs_ref_distance_m, p.carrier_hz)
    return np.exp(exponent * np.log(dist)) * 10.0 ** (l_fs / 10.0)


def placement_objective(xyz, user_pos, rate_targets_bps, n_served: int,
                        p: ChannelParams, bandwidth_hz: float, noise_w: float,
                        weights=1.0) -> float:
    """The placement objective at one position, priced from scratch in linear units,
    each position's loss times its ``weights`` entry."""
    pos = _flatten_positions(user_pos)
    scale = power_per_loss_w(rate_targets_bps, n_served, bandwidth_hz, noise_w)
    with np.errstate(over="ignore"):  # a loss or price past the float range is inf
        loss = uav_user_pathloss_linear(xyz, pos, p)
        return float((loss * weights).sum(axis=1) @ scale)


def price_alone(user_pos, rate_targets_bps, p, bandwidth_hz, noise_w, weights=1.0):
    """A ``PlacementPricer`` of one set of every row, as a function of one (3,) position."""
    price = PlacementPricer(user_pos, rate_targets_bps, [len(rate_targets_bps)], p,
                            bandwidth_hz, noise_w, weights)
    return lambda xyz: price([xyz], [0])[0]


def search_alone(user_pos, rate_targets_bps, init_xyz, p, bandwidth_hz, noise_w,
                 min_altitude_m, weights=1.0, **kwargs):
    """``place_uav_local_search`` over every row as a batch of one search, in
    ``reference_local_search``'s form: (position, objective, evaluations)."""
    got = place_uav_local_search(user_pos, rate_targets_bps, np.asarray(init_xyz)[None],
                                 [len(rate_targets_bps)], p, bandwidth_hz, noise_w,
                                 min_altitude_m, weights, **kwargs)
    return got.position[0], float(got.objective_w[0]), got.evaluations


def reference_local_search(user_pos, rate_targets_bps, init_xyz, n_served, p, bandwidth_hz,
                           noise_w, min_altitude_m, step_m=3.0, max_evals=10_000, weights=1.0,
                           placement_objective=placement_objective):
    """One coordinate search, alone, pricing every candidate from scratch: the search as
    it ran before searches stepped in lockstep.  Returns (position, objective,
    evaluations)."""
    pos = np.asarray(init_xyz, dtype=float).copy()
    pos[2] = max(pos[2], min_altitude_m)

    # one interval each is every objective's default; the dB route takes no weights
    weighted = () if np.isscalar(weights) and weights == 1.0 else (weights,)

    def objective(xyz):
        return placement_objective(xyz, user_pos, rate_targets_bps, n_served,
                                   p, bandwidth_hz, noise_w, *weighted)

    best = objective(pos)
    evals = 1
    improved = True
    while improved and evals < max_evals:
        improved = False
        for axis in range(3):
            best_cand = None
            best_val = best
            for delta in (step_m, -step_m):
                cand = pos.copy()
                cand[axis] += delta
                if axis == 2:
                    cand[2] = max(cand[2], min_altitude_m)
                    if cand[2] == pos[2]:
                        continue
                val = objective(cand)
                evals += 1
                if val < best_val:
                    best_val = val
                    best_cand = cand
                if evals >= max_evals:
                    break
            if best_cand is not None:
                pos, best = best_cand, best_val
                improved = True
            if evals >= max_evals:
                break
    return pos, best, evals


def placement_objective_db(xyz, user_pos, rate_targets_bps, n_served: int,
                           p: ChannelParams, bandwidth_hz: float, noise_w: float) -> float:
    """The placement objective by the dB route: ``min_uav_power_w`` of each path loss, summed."""
    pos = _flatten_positions(user_pos)
    pl = uav_user_pathloss_db(np.asarray(xyz, dtype=float), pos, p)
    power = min_uav_power_w(db_to_linear(pl), np.asarray(rate_targets_bps, dtype=float)[:, None],
                            n_served, bandwidth_hz, noise_w)
    return float(power.sum())


def gauss_legendre_reference(m: int) -> tuple[np.ndarray, np.ndarray]:
    """The m-node Gauss–Legendre rule on [0, 1]: nodes, and weights that sum to 1.

    Golub–Welsch: the nodes on [-1, 1] are the eigenvalues of the Jacobi matrix
    with off-diagonal k / sqrt(4k² - 1), the weights 2 v0² of its eigenvectors v.
    """
    k = np.arange(1.0, m)
    nodes, vectors = np.linalg.eigh(np.diag(k / np.sqrt(4.0 * k * k - 1.0), 1), UPLO="U")
    return (nodes + 1.0) / 2.0, vectors[0] ** 2


def reference_track_positions(tracks: np.ndarray, users, times,
                              slots_per_collection: int) -> np.ndarray:
    """``generators.track_positions`` as it interpolated before x and y were planes: both
    coordinates of each waypoint taken together, the weights repeated for each."""
    h = slots_per_collection
    g = np.asarray(times, dtype=float)
    c = (g // h).astype(int)
    last = tracks.shape[1] - 1
    lo, hi = np.minimum(c, last), np.minimum(c + 1, last)
    first, stop = int(np.min(lo)), int(np.max(hi)) + 1
    rows = tracks[:, first:stop][np.asarray(users, dtype=np.intp)]
    weight = np.repeat(((g - c * h) / h)[:, None], 2, axis=1)  # same for x and y
    a = np.take(rows, lo - first, axis=-2)
    b = np.take(rows, hi - first, axis=-2)
    a *= 1.0 - weight
    b *= weight
    return np.add(a, b, out=a)


def predicted_positions(plan, users, s: int, n_intervals: int) -> np.ndarray:
    """A plan's predicted positions of ``users`` at the interval midpoints of its slot ``s``."""
    times = s + (np.arange(n_intervals) + 0.5) / n_intervals
    return track_positions(plan.collections, users, times, plan.cfg.slots_per_collection)


def place_uav_exhaustive(user_pos, rate_targets_bps, grid_step_m: float,
                         altitudes_m, n_served: int, p: ChannelParams,
                         bandwidth_hz: float, noise_w: float,
                         pad_m: float = 100.0) -> PlacementResult:
    """Global grid minimum of the power objective over the padded user bounding box, as
    the result of one search."""
    pos = _flatten_positions(user_pos)
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
        power = min_uav_power_w(db_to_linear(pl), weights[None, :], n_served, bandwidth_hz,
                                noise_w)
        totals = power.sum(axis=1)
        evals += totals.size
        idx = int(np.argmin(totals))
        if totals[idx] < best_val:
            best_val = float(totals[idx])
            best_pos = np.array([grid[idx, 0], grid[idx, 1], h])
    return PlacementResult(position=best_pos[None], objective_w=np.array([best_val]),
                           evaluations=evals)


def _failed_report(user: int, content: int, link: str, delay_s: float = math.inf,
                   power_w: float = 0.0, cache_hit: bool = False,
                   feasible: bool = True) -> tuple:
    return (user, content, link, False, delay_s, 0.0, 0.0, 0.0, "Poor", False, power_w,
            cache_hit, feasible)


def reference_reports(plan, s: int, routes) -> list[tuple]:
    """Slot ``s`` scored one user at a time from the rates, powers and device fractions
    in its route table: one tuple per user, in ``sim.REPORT`` order.

    The tier comes from the plan's association: a radio head, a UAV (a cache
    hit has no fronthaul leg) or none.  An idle user's report has no delay;
    an unserved request and a delivery slower than one slot are failures.
    """
    cfg = plan.cfg
    dt = cfg.slot_duration_s

    def leg_s(bits):
        return math.inf if bits <= 0.0 else dt * cfg.content_size_bits / bits

    reports = []
    requests = plan.world.requests[:, plan.world.period_slot0 + s].tolist()
    for u, (content, route) in enumerate(zip(requests, routes.tolist())):
        _, access, fronthaul, device_frac, power_w, hit, feasible = route
        if content < 0:
            reports.append(_failed_report(u, -1, "idle", delay_s=0.0))
            continue
        if plan.rrh[s][u] >= 0:
            link, delay = LINK_RRH, leg_s(access) + leg_s(fronthaul)
        elif plan.uav[s][u] >= 0:
            link = LINK_UAV_CACHE if hit else LINK_UAV_FRONTHAUL
            delay = leg_s(access) if hit else leg_s(access) + leg_s(fronthaul)
        else:
            reports.append(_failed_report(u, content, "unserved"))
            continue
        if delay > dt:
            reports.append(_failed_report(u, content, link, delay, power_w, hit, feasible))
            continue
        d_score = float(np.clip((dt - delay) / (dt - plan.bound_s), 0.0, 1.0))
        q = cfg.qoe_weight_delay * d_score + (1.0 - cfg.qoe_weight_delay) * device_frac
        label = next((name for floor, name in MOS_BINS if q >= floor), "Poor")
        reports.append((u, content, link, True, delay, d_score, device_frac, q, label,
                        q >= MOS_BINS[0][0], power_w, hit, feasible))
    return reports


# -- per-slot references for the synthetic world's tables ----------------------------


def reference_requests(world) -> np.ndarray:
    """The request table drawn slot by slot: a gate, then searchsorted in the CDF."""
    cfg = world.cfg
    t, h = cfg.slots_per_cache_period, cfg.slots_per_collection
    n_slots = world.horizon_days * t
    uniforms = world.rs.derive("request-samples").generator().random(
        (cfg.num_users, n_slots, 2))
    table = np.full((cfg.num_users, n_slots), -1)
    for user in range(cfg.num_users):
        for slot in range(n_slots):
            gate, u = uniforms[user, slot]
            if gate >= cfg.generators.request_probability:
                continue
            p = world.distributions[user, (slot % t) // h]
            table[user, slot] = int(np.searchsorted(np.cumsum(p), u * p.sum()))
    return table


def reference_context(world, user: int, slot: int) -> np.ndarray:
    """One slot's context features from scalar sin and cos of the day phase."""
    t = world.cfg.slots_per_cache_period
    phase = 2.0 * np.pi * (slot % t) / t
    return np.array([np.sin(phase), np.cos(phase), world.demo_features[user],
                     world.device_features[user]])


def _reference_draw_in_disk(rng, radius: float) -> np.ndarray:
    r = radius * np.sqrt(rng.random())
    theta = rng.random() * 2.0 * np.pi
    return np.array([r * np.cos(theta), r * np.sin(theta)])


def reference_collections(world) -> np.ndarray:
    """The collected waypoints built one user and one collection at a time.

    Anchors are drawn one point at a time, and every distance is the 1-D
    ``np.linalg.norm`` of one point.
    """
    cfg = world.cfg
    g = cfg.generators
    n_sub = world.n_sub
    anchor_rng = world.rs.derive("anchors").generator()
    max_step = min(g.speed_max_mps * 3600.0, 2.0 * cfg.area_radius_m)
    schedules, all_anchors = [], []
    for _ in range(cfg.num_users):
        home = _reference_draw_in_disk(anchor_rng, 0.9 * cfg.area_radius_m)
        anchors = [home]
        for _ in range(max(1, g.waypoints_per_day - 1) * len(DAY_TYPES)):
            target = _reference_draw_in_disk(anchor_rng, 0.9 * cfg.area_radius_m)
            step = target - home
            dist = np.linalg.norm(step)
            if dist > max_step:
                target = home + step / dist * max_step
            anchors.append(target)
        per_type = []
        for dt_idx in range(len(DAY_TYPES)):
            schedule = np.zeros(n_sub, dtype=int)
            if g.waypoints_per_day > 1:
                away = [1 + dt_idx * (g.waypoints_per_day - 1) + w
                        for w in range(g.waypoints_per_day - 1)]
                lo, hi = n_sub // 4, max(n_sub // 4 + 1, (3 * n_sub) // 4)
                block = max(1, (hi - lo) // len(away))
                for c in range(lo, min(hi, n_sub)):
                    schedule[c] = away[min((c - lo) // block, len(away) - 1)]
            per_type.append(schedule)
        schedules.append(per_type)
        all_anchors.append(np.array(anchors))

    n_collections = world.horizon_days * n_sub + 1
    shape = (cfg.num_users, n_collections, 2)
    noise = world.rs.derive("waypoint-noise").generator().normal(
        0.0, g.position_noise_m, shape) if g.position_noise_m > 0 else np.zeros(shape)
    collections = np.empty(shape)
    for u in range(cfg.num_users):
        for c in range(n_collections):
            day = (c * cfg.slots_per_collection) // cfg.slots_per_cache_period
            pos = all_anchors[u][schedules[u][day_type(day)][c % n_sub]] + noise[u, c]
            radius = np.linalg.norm(pos)
            if radius > cfg.area_radius_m:
                pos = pos * (cfg.area_radius_m / radius)
            collections[u, c] = pos
    return collections
