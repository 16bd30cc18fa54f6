import numpy as np
import pytest

from irsrl import channel as ch


@pytest.fixture
def params():
    return ch.ChannelParams()


@pytest.fixture
def geometry():
    return ch.Geometry()


class TestPathloss:
    def test_unit_distance_is_zero(self):
        assert ch.pathloss_db(1.0, 2.3) == 0.0

    def test_ten_meters(self):
        assert ch.pathloss_db(10.0, 2.3) == pytest.approx(-23.0)

    def test_clamps_below_floor(self):
        # below d_min=0.5 the value saturates at -23*log10(0.5) ~ +6.92 dB
        expected = -23.0 * np.log10(0.5)
        assert ch.pathloss_db(1e-3, 2.3) == pytest.approx(expected)
        assert expected == pytest.approx(6.92, abs=0.01)

    @pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf])
    def test_rejects_bad_distance(self, bad):
        with pytest.raises(ValueError):
            ch.pathloss_db(bad)

    def test_strictly_decreasing_above_floor(self):
        d = np.linspace(0.5, 50, 200)
        pl = ch.pathloss_db(d)
        assert np.all(np.diff(pl) < 0)


class TestSpatialCovariance:
    def test_diagonal_is_shadow_power(self, params, geometry):
        K = ch.spatial_covariance(geometry.dest_cells, params)
        assert np.allclose(np.diag(K), 6.0)

    def test_off_diagonal_at_corr_distance(self, params):
        cells = np.array([[0, 0, 0], [1.2, 0, 0]])
        K = ch.spatial_covariance(cells, params)
        assert K[0, 1] == pytest.approx(6.0 * np.exp(-1.0))
        assert K[0, 1] == pytest.approx(2.2073, abs=1e-4)

    def test_far_cells_decorrelate(self, params):
        cells = np.array([[0, 0, 0], [1e6, 0, 0]])
        K = ch.spatial_covariance(cells, params)
        assert K[0, 1] == pytest.approx(0.0, abs=1e-12)

    def test_symmetric_psd(self, params):
        rng = np.random.default_rng(0)
        cells = rng.uniform(0, 20, size=(12, 3))
        K = ch.spatial_covariance(cells, params)
        assert np.allclose(K, K.T)
        np.linalg.cholesky(K + 1e-10 * 6.0 * np.eye(12))  # must not raise


class TestShadowing:
    def test_zero_power_gives_zero_values(self, geometry):
        p = ch.ChannelParams(shadow_power=0.0)
        st = ch.init_shadowing(geometry, p, np.random.default_rng(0))
        assert np.all(st.dest_values == 0.0)
        assert st.src_irs_value == 0.0

    def test_ar_coefficient(self, params, geometry):
        st = ch.init_shadowing(geometry, params, np.random.default_rng(0))
        assert st.ar_coeff == pytest.approx(np.exp(-0.2))
        assert st.ar_coeff == pytest.approx(0.81873, abs=1e-5)

    def test_init_matches_spatial_covariance(self, params, geometry):
        # Monte Carlo oracle: sample covariance over many independent inits.
        rng = np.random.default_rng(7)
        st = ch.init_shadowing(geometry, params, rng, n_chains=100_000)
        K = ch.spatial_covariance(geometry.dest_cells, params)
        assert np.abs(np.mean(st.dest_values)) < 0.05
        K_hat = np.cov(st.dest_values.T)
        rel = np.linalg.norm(K_hat - K) / np.linalg.norm(K)
        assert rel < 0.05

    def test_rho_one_limit_freezes_state(self, geometry):
        p = ch.ChannelParams(corr_time=1e12)
        rng = np.random.default_rng(0)
        st = ch.init_shadowing(geometry, p, rng)
        st2 = ch.step_shadowing(st, p, rng)
        assert np.allclose(st2.dest_values, st.dest_values, atol=1e-5)

    def test_rho_zero_limit_is_fresh_draw(self, geometry):
        p = ch.ChannelParams(corr_time=1e-6)
        rng = np.random.default_rng(0)
        st = ch.init_shadowing(geometry, p, rng, n_chains=20_000)
        st2 = ch.step_shadowing(st, p, rng)
        corr = np.corrcoef(st.dest_values[:, 0], st2.dest_values[:, 0])[0, 1]
        assert abs(corr) < 0.03

    def test_temporal_autocorrelation(self, params, geometry):
        # lag-D autocorrelation of the AR(1) chain must be exp(-D/c2)
        rng = np.random.default_rng(11)
        st = ch.init_shadowing(geometry, params, rng, n_chains=20_000)
        traj = [st.dest_values[:, 0].copy()]
        for _ in range(30):
            st = ch.step_shadowing(st, params, rng)
            traj.append(st.dest_values[:, 0].copy())
        traj = np.array(traj)
        var = params.shadow_power
        for lag in (1, 5, 10):
            prods = traj[:-lag] * traj[lag:]
            assert np.mean(prods) / var == pytest.approx(np.exp(-lag / 5.0), abs=0.02)

    def test_stationary_variance(self, params, geometry):
        rng = np.random.default_rng(3)
        st = ch.init_shadowing(geometry, params, rng, n_chains=20_000)
        for _ in range(50):
            st = ch.step_shadowing(st, params, rng)
        assert np.var(st.dest_values[:, 0]) == pytest.approx(6.0, rel=0.05)
        assert np.var(st.src_irs_value) == pytest.approx(6.0, rel=0.05)


class TestPhases:
    def test_zero_drift_keeps_phases(self, geometry):
        p = ch.ChannelParams(phase_drift=0.0)
        rng = np.random.default_rng(0)
        st = ch.init_phases(geometry, 4, 2, rng)
        st2 = ch.step_phases(st, p, rng)
        assert np.array_equal(st.h_phases, st2.h_phases)
        assert np.array_equal(st.g_phases, st2.g_phases)

    def test_wrap_into_range(self, params, geometry):
        rng = np.random.default_rng(0)
        st = ch.init_phases(geometry, 8, 3, rng)
        for _ in range(100):
            st = ch.step_phases(st, params, rng)
        for arr in (st.h_phases, st.g_phases):
            assert np.all(arr >= 0.0) and np.all(arr < 2 * np.pi)

    def test_wrap_arithmetic(self):
        assert np.mod(2 * np.pi - 0.01 + 0.02, 2 * np.pi) == pytest.approx(0.01)

    def test_circular_autocorrelation(self, geometry):
        # wrapped-Gaussian walk: E[cos(phi_t - phi_{t-D})] = exp(-k^2 D / 2)
        p = ch.ChannelParams(phase_drift=0.2)
        rng = np.random.default_rng(5)
        st = ch.PhaseState(
            h_phases=rng.uniform(0, 2 * np.pi, size=(20_000, 1, 1)),
            g_phases=rng.uniform(0, 2 * np.pi, size=(1, 1)),
        )
        traj = [st.h_phases[:, 0, 0].copy()]
        for _ in range(12):
            st = ch.step_phases(st, p, rng)
            traj.append(st.h_phases[:, 0, 0].copy())
        traj = np.array(traj)
        for lag in (1, 5, 10):
            emp = np.mean(np.cos(traj[lag:] - traj[:-lag]))
            assert emp == pytest.approx(np.exp(-0.04 * lag / 2.0), abs=0.02)


class TestSampleChannels:
    def _frozen(self, dist, geometry=None):
        p = ch.ChannelParams(multipath_std=0.0, shadow_power=0.0)
        g = ch.Geometry(
            source_pos=np.array([0.0, 0.0, 0.0]),
            irs_pos=np.array([dist, 0.0, 0.0]),
            dest_cells=np.array([[2 * dist, 0.0, 0.0]]) if dist <= 10 else None,
        )
        return p, g

    def test_unit_distance_unit_magnitude(self):
        p = ch.ChannelParams(multipath_std=0.0, shadow_power=0.0)
        g = ch.Geometry(
            source_pos=np.array([0.0, 0.0, 0.0]),
            irs_pos=np.array([1.0, 0.0, 0.0]),
            dest_cells=np.array([[2.0, 0.0, 0.0]]),
        )
        rng = np.random.default_rng(0)
        sh = ch.init_shadowing(g, p, rng)
        ph = ch.PhaseState(h_phases=np.zeros((1, 3)), g_phases=np.zeros((3, 2)))
        snap = ch.sample_channels(0, sh, ph, g, p, rng)
        assert np.allclose(snap.h, 1.0 + 0.0j)
        assert np.allclose(snap.G, 1.0 + 0.0j)

    def test_ten_meter_magnitude(self):
        p = ch.ChannelParams(multipath_std=0.0, shadow_power=0.0)
        g = ch.Geometry(
            source_pos=np.array([0.0, 0.0, 0.0]),
            irs_pos=np.array([5.0, 0.0, 0.0]),
            dest_cells=np.array([[5.0, 10.0, 0.0]]),
        )
        rng = np.random.default_rng(0)
        sh = ch.init_shadowing(g, p, rng)
        ph = ch.PhaseState(h_phases=np.zeros((1, 4)), g_phases=np.zeros((4, 1)))
        snap = ch.sample_channels(0, sh, ph, g, p, rng)
        assert np.allclose(np.abs(snap.h), 10 ** (-23.0 / 20.0))
        assert np.abs(snap.h[0]) == pytest.approx(0.0708, abs=1e-4)

    def test_multipath_std(self, geometry):
        # sample std of the per-element log-magnitude must match sigma_xi
        p = ch.ChannelParams(shadow_power=0.0, multipath_std=0.6)
        rng = np.random.default_rng(2)
        sh = ch.init_shadowing(geometry, p, rng)
        ph = ch.PhaseState(h_phases=np.zeros((4, 100)), g_phases=np.zeros((100, 1)))
        mags = []
        for t in range(1000):
            snap = ch.sample_channels(0, sh, ph, geometry, p, rng)
            mags.append(20 * np.log10(np.abs(snap.h)))
        assert np.std(np.concatenate(mags)) == pytest.approx(0.6, rel=0.02)

    def test_rejects_bad_cell(self, params, geometry):
        rng = np.random.default_rng(0)
        sh = ch.init_shadowing(geometry, params, rng)
        ph = ch.init_phases(geometry, 4, 2, rng)
        with pytest.raises(IndexError):
            ch.sample_channels(99, sh, ph, geometry, params, rng)

    def test_deterministic_given_seed(self, params, geometry):
        snaps = []
        for _ in range(2):
            rng = np.random.default_rng(42)
            sh = ch.init_shadowing(geometry, params, rng)
            ph = ch.init_phases(geometry, 4, 2, rng)
            seq = []
            for t in range(5):
                sh = ch.step_shadowing(sh, params, rng)
                ph = ch.step_phases(ph, params, rng)
                seq.append(ch.sample_channels(0, sh, ph, geometry, params, rng))
            snaps.append(seq)
        for a, b in zip(*snaps):
            assert np.array_equal(a.h, b.h)
            assert np.array_equal(a.G, b.G)


class TestOneDrawBits:
    """The one-draw channel functions against the two-draw formulas they
    replaced, bit for bit, and consuming the same stream."""

    @staticmethod
    def _instances(n_instances=120):
        rng = np.random.default_rng(11)
        for i in range(n_instances):
            m, n = int(rng.integers(1, 9)), int(rng.integers(1, 6))
            p = ch.ChannelParams(pathloss_exp=float(rng.uniform(1.5, 4.0)),
                                 multipath_std=float(rng.uniform(0.0, 3.0)),
                                 shadow_power=float(rng.uniform(0.0, 10.0)),
                                 phase_drift=float(rng.uniform(0.0, 2.0)))
            cells = rng.uniform(0.0, 20.0, (int(rng.integers(1, 5)), 3))
            g = ch.Geometry(dest_cells=cells)
            sh = ch.init_shadowing(g, p, rng)
            yield rng, m, n, p, g, sh

    def test_sample_channels_matches_two_draws(self):
        for rng, m, n, p, g, sh in self._instances():
            ph = ch.init_phases(g, m, n, rng)
            cell = int(rng.integers(g.num_cells))
            seed = int(rng.integers(2**32))
            r1, r2 = np.random.default_rng(seed), np.random.default_rng(seed)
            snap = ch.sample_channels(cell, sh, ph, g, p, r1)
            pl_h = ch.pathloss_db(np.linalg.norm(g.irs_pos - g.dest_cells[cell]),
                                  p.pathloss_exp)
            pl_g = ch.pathloss_db(np.linalg.norm(g.source_pos - g.irs_pos),
                                  p.pathloss_exp)
            h_db = pl_h + sh.dest_values[cell] + p.multipath_std * r2.standard_normal(m)
            h = 10.0 ** (h_db / 20.0) * np.exp(1j * ph.h_phases[cell])
            g_db = pl_g + sh.src_irs_value + p.multipath_std * r2.standard_normal((m, n))
            G = 10.0 ** (g_db / 20.0) * np.exp(1j * ph.g_phases)
            assert np.array_equal(snap.h, h) and np.array_equal(snap.G, G)
            assert snap.h.shape == (m,) and snap.G.shape == (m, n)
            assert r1.bit_generator.state == r2.bit_generator.state

    @pytest.mark.parametrize("chains", [None, 3])
    def test_step_phases_matches_two_draws(self, chains):
        for rng, m, n, p, g, _ in self._instances():
            ph = ch.init_phases(g, m, n, rng)
            if chains is not None:
                ph.h_phases = rng.uniform(0, 2 * np.pi, (chains, g.num_cells, m))
            seed = int(rng.integers(2**32))
            r1, r2 = np.random.default_rng(seed), np.random.default_rng(seed)
            got = ch.step_phases(ph, p, r1)
            k = p.phase_drift
            h = np.mod(ph.h_phases + k * r2.standard_normal(ph.h_phases.shape), 2 * np.pi)
            G = np.mod(ph.g_phases + k * r2.standard_normal(ph.g_phases.shape), 2 * np.pi)
            assert np.array_equal(got.h_phases, h) and np.array_equal(got.g_phases, G)
            assert r1.bit_generator.state == r2.bit_generator.state

    def test_step_shadowing_matches_numpy_sqrt(self):
        for rng, _, _, p, _, sh in self._instances():
            sh.ar_coeff = float(rng.uniform(0.0, 1.0))
            seed = int(rng.integers(2**32))
            r1, r2 = np.random.default_rng(seed), np.random.default_rng(seed)
            got = ch.step_shadowing(sh, p, r1)
            rho = sh.ar_coeff
            scale = np.sqrt(max(0.0, 1.0 - rho * rho))
            dest = rho * sh.dest_values + scale * (
                r2.standard_normal(sh.dest_values.shape) @ sh.spatial_chol.T)
            src = rho * sh.src_irs_value + scale * np.sqrt(p.shadow_power) * \
                r2.standard_normal(np.shape(sh.src_irs_value))
            assert np.array_equal(got.dest_values, dest)
            assert np.array_equal(got.src_irs_value, src)


class TestValidation:
    def test_params_invariants(self):
        with pytest.raises(ValueError):
            ch.ChannelParams(pathloss_exp=-1.0)
        with pytest.raises(ValueError):
            ch.ChannelParams(noise_var=0.0)
        with pytest.raises(ValueError):
            ch.ChannelParams(corr_time=0.0)

    def test_geometry_inside_cube(self):
        with pytest.raises(ValueError):
            ch.Geometry(source_pos=np.array([25.0, 0.0, 0.0]))

    def test_tx_power_linear(self):
        p = ch.ChannelParams(tx_power_dbm=30.0)
        assert p.tx_power_linear == pytest.approx(1000.0)
