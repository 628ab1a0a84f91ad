import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import access_links, reference_zfbf_sinr, uav_user_pathloss_linear
from uavcache import channel, linalg
from uavcache.config import ChannelParams

P = ChannelParams()


def pathloss_linear(uav_xyz, user_xy, p):
    """``channel.pathloss_linear_into`` at one UAV position, fed the way the pricer feeds it."""
    uav_xyz = np.asarray(uav_xyz, dtype=float)
    user_xy = np.asarray(user_xy, dtype=float)
    dx, dy = user_xy[..., 0] - uav_xyz[0], user_xy[..., 1] - uav_xyz[1]
    dist, out = np.empty(dx.shape), np.empty(dx.shape)
    return channel.pathloss_linear_into(dx * dx, dy * dy, uav_xyz[2], p, dist, out)


class TestFreeSpace:
    def test_reference_value_38ghz(self):
        # direct evaluation: 20*log10(4*pi*5*38e9 / 3e8) = 78.017 dB
        assert channel.free_space_pl_db(5.0, 38e9) == pytest.approx(78.017, abs=5e-3)

    def test_unit_argument_gives_zero(self):
        d0 = channel.SPEED_OF_LIGHT / (4.0 * math.pi * 38e9)
        assert channel.free_space_pl_db(d0, 38e9) == pytest.approx(0.0, abs=1e-9)

    def test_doubling_distance_adds_6db(self):
        delta = channel.free_space_pl_db(10.0, 38e9) - channel.free_space_pl_db(5.0, 38e9)
        assert delta == pytest.approx(20.0 * math.log10(2.0), abs=1e-9)


class TestLosProbability:
    def test_angle_at_env_x_threshold(self):
        # elevation exactly env_x degrees makes the exponent vanish
        horizontal = 300.0
        altitude = horizontal * math.tan(math.radians(P.env_x))
        pr = channel.los_probability(math.hypot(horizontal, altitude), altitude, P)
        assert pr == pytest.approx(1.0 / (1.0 + P.env_x), rel=1e-9)

    def test_overhead_user(self):
        pr = channel.los_probability(100.0, 100.0, P)
        expected = 1.0 / (1.0 + P.env_x * math.exp(-P.env_y * (90.0 - P.env_x)))
        assert pr == pytest.approx(expected, rel=1e-12)
        assert pr == pytest.approx(0.9995, abs=5e-4)

    @settings(max_examples=50, deadline=None)
    @given(h1=st.floats(10.0, 500.0), h2=st.floats(10.0, 500.0))
    def test_monotone_in_altitude(self, h1, h2):
        lo, hi = sorted((h1, h2))
        if hi - lo < 1e-6:
            return
        p1 = channel.los_probability(math.hypot(200.0, lo), lo, P)
        p2 = channel.los_probability(math.hypot(200.0, hi), hi, P)
        assert 0.0 < p1 < p2 < 1.0


class TestPathloss:
    def test_forced_los_degenerates(self):
        # overhead geometry with a steep logistic saturates Pr(LoS) at 1
        p_steep = ChannelParams(env_y=5.0)
        uav = [0.0, 0.0, 5000.0]
        user = [0.1, 0.0]
        d = channel.distance_3d(uav, user)
        expected_los = channel.free_space_pl_db(p_steep.fs_ref_distance_m, p_steep.carrier_hz) \
            + 10.0 * p_steep.exponent_los * math.log10(d)
        assert channel.uav_user_pathloss_db(uav, user, p_steep) == pytest.approx(expected_los, rel=1e-9)

    def test_expected_mode_hand_formula(self):
        uav, user = [0.0, 0.0, 60.0], [80.0, 0.0]
        d = channel.distance_3d(uav, user)
        pr = channel.los_probability(d, uav[2], P)
        l_fs = channel.free_space_pl_db(P.fs_ref_distance_m, P.carrier_hz)
        expected = (pr * (l_fs + 10.0 * P.exponent_los * math.log10(d))
                    + (1 - pr) * (l_fs + 10.0 * P.exponent_nlos * math.log10(d)))
        assert channel.uav_user_pathloss_db(uav, user, P) == pytest.approx(expected, rel=1e-12)

    def test_equal_exponents_remove_los_dependence(self):
        p_eq = ChannelParams(exponent_los=2.2, exponent_nlos=2.2)
        low = channel.uav_user_pathloss_db([0, 0, 20.0], [300.0, 0.0], p_eq)
        d = channel.distance_3d([0, 0, 20.0], [300.0, 0.0])
        direct = channel.free_space_pl_db(p_eq.fs_ref_distance_m, p_eq.carrier_hz) \
            + 22.0 * math.log10(d)
        assert low == pytest.approx(direct, rel=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(x=st.floats(5.0, 450.0), h=st.floats(10.0, 800.0))
    def test_between_los_and_nlos(self, x, h):
        uav, user = [0.0, 0.0, h], [x, 0.0]
        d = channel.distance_3d(uav, user)
        l_fs = channel.free_space_pl_db(P.fs_ref_distance_m, P.carrier_hz)
        l_los = l_fs + 10.0 * P.exponent_los * math.log10(d)
        l_nlos = l_fs + 10.0 * P.exponent_nlos * math.log10(d)
        mixed = channel.uav_user_pathloss_db(uav, user, P)
        assert min(l_los, l_nlos) - 1e-9 <= mixed <= max(l_los, l_nlos) + 1e-9

    def test_zero_distance_rejected(self):
        with pytest.raises(channel.ChannelError):
            channel.uav_user_pathloss_db([0, 0, 0.0], [0.0, 0.0], P)


class TestLinearPathloss:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(link=access_links())
    def test_within_tolerance_of_the_db_route(self, link):
        uav, users, p = link
        before = users.copy()
        got = pathloss_linear(uav, users, p)
        assert np.array_equal(users, before) and not np.shares_memory(got, users)
        assert np.array_equal(got, uav_user_pathloss_linear(uav, users, p))
        want = channel.db_to_linear(channel.uav_user_pathloss_db(uav, users, p))
        assert got.shape == want.shape and np.isfinite(got).all()
        assert (np.abs(got - want) <= linalg.LINEAR_LOSS_RTOL * want).all()

    def test_scalar_position_gives_a_scalar(self):
        got = pathloss_linear([0.0, 0.0, 60.0], [80.0, 0.0], P)
        want = channel.db_to_linear(channel.uav_user_pathloss_db([0.0, 0.0, 60.0], [80.0, 0.0], P))
        assert np.ndim(got) == 0 and got == pytest.approx(want, rel=linalg.LINEAR_LOSS_RTOL)

    def test_zero_distance_rejected(self):
        with pytest.raises(channel.ChannelError):
            pathloss_linear([0, 0, 0.0], [0.0, 0.0], P)


class TestSnrAndCapacity:
    def test_snr_reference(self):
        # 1 W over 100 dB loss and -95 dBm noise: 10**2.5 = 316.23
        snr = channel.uav_user_snr(1.0, channel.db_to_linear(100.0), 10.0 ** (-12.5))
        assert snr == pytest.approx(316.2278, rel=1e-4)

    def test_snr_unit_case(self):
        assert channel.uav_user_snr(3.0, channel.db_to_linear(0.0), 3.0) == pytest.approx(1.0)

    def test_snr_decade_scaling(self):
        base = channel.uav_user_snr(1.0, channel.db_to_linear(90.0), 1e-12)
        assert channel.uav_user_snr(1.0, channel.db_to_linear(100.0), 1e-12) == pytest.approx(
            base / 10.0)

    def test_unit_snr_slot_capacity(self):
        # constant SNR=1 on the full band for one second: B log2(2) = 1 Gbit
        noise = 1e-12
        f = 8
        snr = channel.uav_user_snr(np.full(f, noise), np.ones(f), noise)  # 0 dB loss
        rates = channel.link_rates_bps(snr, 1e9, 1)
        assert channel.slot_capacity_bits(rates, 1.0) == pytest.approx(1e9, rel=1e-9)

    def test_zero_power_zero_bits(self):
        pl = channel.uav_user_pathloss_db([0, 0, 100.0], np.tile([[50.0, 0.0]], (4, 1)), P)
        loss = channel.db_to_linear(pl)
        rates = channel.link_rates_bps(channel.uav_user_snr(np.zeros(4), loss, 1e-12), 1e9, 1)
        assert channel.slot_capacity_bits(rates, 1.0) == 0.0

    def test_band_split_halves_capacity(self):
        pl = channel.uav_user_pathloss_db([0, 0, 100.0], np.tile([[50.0, 0.0]], (4, 1)), P)
        snr = channel.uav_user_snr(np.full(4, 0.1), channel.db_to_linear(pl), 1e-12)
        one = channel.slot_capacity_bits(channel.link_rates_bps(snr, 1e9, 1), 1.0)
        two = channel.slot_capacity_bits(channel.link_rates_bps(snr, 1e9, 2), 1.0)
        assert two == pytest.approx(one / 2.0, rel=1e-12)

    def test_empty_association_rejected(self):
        with pytest.raises(channel.ChannelError):
            channel.link_rates_bps([1.0], 1e9, 0)

    def test_rrh_capacity_log4(self):
        # constant SINR 3 over 1 MHz for one second: log2(4) = 2 Mbit
        bits = channel.slot_capacity_bits(channel.link_rates_bps(np.full(5, 3.0), 1e6), 1.0)
        assert bits == pytest.approx(2e6, rel=1e-12)

    def test_rrh_capacity_zero(self):
        assert channel.slot_capacity_bits(channel.link_rates_bps(np.zeros(5), 1e6), 1.0) == 0.0

    @pytest.mark.parametrize("n_intervals", [1, 2, 7, 8, 9, 100, 128, 129, 1000, 4999])
    def test_rows_equal_their_one_dimensional_capacity(self, n_intervals):
        rates = np.random.default_rng(n_intervals).uniform(0.0, 1e9, (13, n_intervals))
        got = channel.slot_capacity_bits(rates, 0.7)
        assert got.shape == (13,)
        assert got.tolist() == [channel.slot_capacity_bits(row, 0.7) for row in rates]

    def test_rrh_interval_additivity(self):
        single = channel.slot_capacity_bits(channel.link_rates_bps(3.0, 1e6), 1.0)
        many = channel.slot_capacity_bits(channel.link_rates_bps(np.full(10, 3.0), 1e6), 1.0)
        assert many == pytest.approx(single, rel=1e-12)


class TestFronthaul:
    def test_unit_nlos_factor_removes_mix(self):
        p_eq = ChannelParams(g2a_nlos_factor=1.0)
        gain = channel.g2a_gain([100.0, 0.0, 200.0], [0.0, 0.0], p_eq)
        d = channel.distance_3d([100.0, 0.0, 200.0], [0.0, 0.0])
        assert gain == pytest.approx(d ** -2.0, rel=1e-12)

    def test_hand_oracle_overhead(self):
        # UAV straight above the hub at 100 m: evaluate the pieces directly
        uav, hub = [0.0, 0.0, 100.0], [0.0, 0.0]
        pr = 1.0 / (1.0 + P.env_x * math.exp(-P.env_y * (90.0 - P.env_x)))
        gain = pr * 100.0 ** -2 + (1 - pr) * 100.0 ** -2 / P.g2a_nlos_factor
        expected = 1e6 * math.log2(1.0 + 1.0 * gain / 10 ** -12.5)
        got = channel.g2a_fronthaul_bits(uav, hub, P, 1.0, 1e6, 10 ** -12.5, 1.0)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_rate_decreases_with_horizontal_distance(self):
        rates = [channel.g2a_fronthaul_bits([x, 0.0, 150.0], [0.0, 0.0], P,
                                            1.0, 1e6, 10 ** -12.5, 1.0)
                 for x in np.linspace(0.0, 900.0, 25)]
        assert all(a > b for a, b in zip(rates, rates[1:]))

    def test_slot_capacity_equals_the_inline_shannon_form(self):
        """B log2(1 + snr) dt, written out, is what the shared rate kernels give, bit for bit."""
        rng = np.random.default_rng(5)
        for _ in range(5_000):
            uav = [*rng.uniform(-2000.0, 2000.0, 2), 10.0 ** rng.uniform(0.0, 3.5)]
            bbu = rng.uniform(-500.0, 500.0, 2)
            power, bandwidth = 10.0 ** rng.uniform(-2.0, 3.0), 10.0 ** rng.uniform(3.0, 10.0)
            noise, dt = 10.0 ** rng.uniform(-20.0, -6.0), 10.0 ** rng.uniform(-3.0, 2.0)
            snr = power * channel.g2a_gain(uav, bbu, P) / noise
            inline = float(bandwidth * np.log2(1.0 + snr) * dt)
            assert channel.g2a_fronthaul_bits(uav, bbu, P, power, bandwidth, noise, dt) == inline


class TestZfbf:
    def _cluster(self, positions):
        return np.asarray(positions, dtype=float)

    def test_single_user_identity(self):
        clusters = [self._cluster([[0.0, 0.0], [10.0, 0.0]])]
        sinr = channel.zfbf_sinr(clusters, np.array([0]), np.array([[5.0, 40.0]]),
                                 [np.array([[1.0, 1.3]])], rrh_power_w=0.1,
                                 bbu_interference_w=np.zeros(1), noise_w=1e-13,
                                 exponent=2.0)
        assert sinr[0] == pytest.approx(0.1 / 1e-13, rel=1e-9)

    def test_users_on_no_cluster_read_zero(self):
        clusters = [self._cluster([[0.0, 0.0], [10.0, 0.0]])]
        users = np.array([[5.0, 40.0], [60.0, -20.0], [-30.0, 15.0]])
        sinr = channel.zfbf_sinr(clusters, np.array([-1, 0, -1]), users,
                                 [np.full((3, 2), 1.1)], rrh_power_w=0.1,
                                 bbu_interference_w=np.zeros(3), noise_w=1e-13, exponent=2.0)
        assert sinr.shape == (3,)
        assert sinr[0] == sinr[2] == 0.0 and sinr[1] > 0.0

    def test_far_clusters_interference_vanishes(self):
        near = self._cluster([[0.0, 0.0], [5.0, 0.0]])
        gains = [np.ones((2, 2)), np.ones((2, 2))]
        users = np.array([[10.0, 10.0], [1e6, 1e6]])
        far = np.array([[1e6, 1e6 + 5.0], [1e6 + 5.0, 1e6]])
        sinr = channel.zfbf_sinr([near, far], np.array([0, 1]), users, gains,
                                 rrh_power_w=0.1, bbu_interference_w=np.zeros(2),
                                 noise_w=1e-13, exponent=2.0)
        assert sinr[0] == pytest.approx(0.1 / 1e-13, rel=1e-3)

    def test_nulling_residual(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            h = rng.standard_normal((2, 3))
            f = channel.zf_beamformer(h)
            assert np.abs(h @ f - np.eye(2)).max() <= linalg.ZF_NULLING_TOL

    def test_overloaded_cluster_rejected(self):
        with pytest.raises(channel.ChannelError):
            channel.zf_beamformer(np.ones((3, 2)))

    def test_rank_deficient_reported_with_cluster(self):
        cluster = self._cluster([[0.0, 0.0], [5.0, 0.0]])
        users = np.array([[100.0, 0.0], [100.0, 0.0]])
        gains = [np.ones((2, 2))]
        with pytest.raises(channel.ChannelError, match="cluster 0"):
            channel.zfbf_sinr([cluster], np.array([0, 0]), users, gains, 0.1,
                              np.zeros(2), 1e-13, 2.0)

    def test_error_names_the_cluster_by_its_index(self):
        healthy = self._cluster([[-500.0, 0.0], [-505.0, 0.0]])
        degenerate = self._cluster([[0.0, 0.0], [5.0, 0.0]])
        users = np.array([[-450.0, 30.0], [100.0, 0.0], [100.0, 0.0]])
        gains = [np.ones((3, 2)), np.ones((3, 2))]
        with pytest.raises(channel.ChannelError, match="^cluster 1: rank-deficient"):
            channel.zfbf_sinr([healthy, degenerate], np.array([0, 1, 1]), users, gains, 0.1,
                              np.zeros(3), 1e-13, 2.0)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_cluster_arrays_equal_the_per_user_reference(self, data):
        # one cluster, or several that may hold no users; users on no cluster
        n_clusters = data.draw(st.integers(1, 3))
        sizes = [data.draw(st.integers(1, 4)) for _ in range(n_clusters)]
        n_users = data.draw(st.integers(0, 8))
        seed = data.draw(st.integers(0, 2 ** 32 - 1))
        rng = np.random.default_rng(seed)
        clusters = [rng.uniform(-300.0, 300.0, (r, 2)) for r in sizes]
        free = [slot for q, r in enumerate(sizes) for slot in [q] * r]
        assigned = np.full(n_users, -1)
        for u in range(n_users):
            choice = data.draw(st.integers(-1, len(free) - 1))
            if choice >= 0:
                assigned[u] = free.pop(choice)
        users = rng.uniform(-400.0, 400.0, (n_users, 2))
        fading = [rng.exponential(1.0, (n_users, r)) for r in sizes]
        bbu = rng.exponential(1e-12, n_users) * data.draw(st.sampled_from([0.0, 1.0]))
        args = (clusters, assigned, users, fading, 0.1, bbu, 1e-13,
                data.draw(st.sampled_from([2.0, 3.7])))
        try:
            want = reference_zfbf_sinr(*args)
        except channel.ChannelError:  # an ill-conditioned draw fails both ways
            with pytest.raises(channel.ChannelError):
                channel.zfbf_sinr(*args)
            return
        assert channel.zfbf_sinr(*args).tobytes() == want.tobytes()

    def test_bbu_interference_lowers_sinr(self):
        cluster = self._cluster([[0.0, 0.0], [10.0, 0.0]])
        common = dict(clusters=[cluster], assigned=np.array([0]),
                      user_xy=np.array([[5.0, 40.0]]),
                      fading_power=[np.array([[1.0, 1.3]])],
                      rrh_power_w=0.1, noise_w=1e-13, exponent=2.0)
        clean = channel.zfbf_sinr(bbu_interference_w=np.zeros(1), **common)[0]
        noisy = channel.zfbf_sinr(bbu_interference_w=np.array([1e-9]), **common)[0]
        assert noisy < clean


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(heights=st.lists(st.floats(0.0, 1e150), min_size=1, max_size=40))
def test_an_array_of_heights_squares_each_as_one_float(heights):
    """Per-row heights, as a lockstep search or a one-pass delivery gives them, square
    bit for bit as each height alone does; an array's ``** 2`` can differ in the last
    bit (``h * h``)."""
    column = np.array(heights)[:, None]
    alone = [np.float64(h) ** 2 for h in heights]
    assert channel._square_heights(column).tobytes() == np.array(alone)[:, None].tobytes()
    assert all(channel._square_heights(np.float64(h)) == sq for h, sq in zip(heights, alone))
