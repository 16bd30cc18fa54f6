import numpy as np
import pytest

from irsrl import channel as ch
from irsrl import config as cfgmod
from irsrl import signal as sig
from irsrl.env import EnvConfig, IrsEnv, apply_action, move_destination, state_dim


def make_env(seed=0, **kwargs):
    cfg = EnvConfig(**kwargs)
    return cfg, IrsEnv(cfg, np.random.default_rng(seed),
                       np.random.default_rng(seed + 1))


class TestStateDim:
    def test_paper_scale(self):
        cfg = EnvConfig(m=20, n=5, w=5)
        assert state_dim(cfg) == 118
        assert state_dim(cfg) + 20 == (5 + 1) * (20 + 3) == 138

    def test_minimal(self):
        assert state_dim(EnvConfig(m=1, n=1, w=1)) == 7

    def test_snr_state_adds_one(self):
        assert state_dim(EnvConfig(m=20, n=5, w=5, snr_in_state=True)) == 119


class TestApplyAction:
    def test_upper_clamp(self):
        out = apply_action(np.array([3.0]), np.array([1.0]))
        assert out[0] == pytest.approx(np.pi)

    def test_identity(self):
        assert apply_action(np.zeros(3), np.zeros(3)) == pytest.approx(np.zeros(3))

    def test_lower_clamp(self):
        out = apply_action(np.array([-3.0]), np.array([-1.0]))
        assert out[0] == pytest.approx(-np.pi)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            apply_action(np.zeros(3), np.zeros(2))

    def test_matches_np_clip(self):
        # the ufunc clamp against the np.clip it replaced: the +-pi edges,
        # -0.0, and NaN passing through
        rng = np.random.default_rng(8)
        edges = np.array([np.pi, -np.pi, np.nextafter(np.pi, 4.0),
                          np.nextafter(-np.pi, -4.0), 0.0, -0.0, np.nan])
        for _ in range(200):
            m = int(rng.integers(1, 25))
            prev = np.where(rng.random(m) < 0.3, rng.choice(edges, m),
                            rng.uniform(-np.pi, np.pi, m))
            delta = np.where(rng.random(m) < 0.3, rng.choice(edges, m),
                             rng.uniform(-7.0, 7.0, m))
            got = apply_action(prev, delta)
            want = np.clip(prev + delta, -np.pi, np.pi)
            assert np.array_equal(got, want, equal_nan=True)
            assert np.array_equal(np.signbit(got), np.signbit(want))


class TestMoveDestination:
    def test_single_cell_stays(self):
        g = ch.Geometry(dest_cells=np.array([[10.0, 10.0, 0.5]]))
        rng = np.random.default_rng(0)
        assert all(move_destination(g, 0, rng) == 0 for _ in range(50))

    def test_corner_cell_distribution(self):
        # corner of a 2x2 block: uniform over {self, 2 edge neighbors}
        g = ch.Geometry()
        rng = np.random.default_rng(1)
        counts = np.zeros(4)
        for _ in range(30_000):
            counts[move_destination(g, 0, rng)] += 1
        freq = counts / counts.sum()
        assert freq[0] == pytest.approx(1 / 3, abs=0.02)
        assert freq[1] == pytest.approx(1 / 3, abs=0.02)
        assert freq[2] == pytest.approx(1 / 3, abs=0.02)
        assert freq[3] == 0.0  # diagonal is not edge-adjacent

    def test_stationary_distribution_uniform(self):
        g = ch.Geometry()
        rng = np.random.default_rng(2)
        cell, counts = 0, np.zeros(4)
        for _ in range(100_000):
            cell = move_destination(g, cell, rng)
            counts[cell] += 1
        assert np.all(np.abs(counts / counts.sum() - 0.25) < 0.02)


def grid_3x3(spacing=1.0):
    # 3 x 3 x 1 block of cells `spacing` m apart: 4 corners, 4 edge cells,
    # 1 centre (4)
    return ch.Geometry(dest_cells=np.array(
        [[14.5 + spacing * x, 14.5 + spacing * y, 0.5]
         for y in range(3) for x in range(3)]))


def cell_neighbors(g, cell):
    """The cells one grid step from ``cell`` along one axis, pair by pair;
    the step is the smallest gap between two cells that differ in exactly
    one coordinate."""
    def axis_gap(a, b):  # |a - b| when a and b differ in one coordinate only
        gaps = [abs(x - y) for x, y in zip(a, b) if abs(x - y) > 1e-9]
        return gaps[0] if len(gaps) == 1 else None

    cells = g.dest_cells.tolist()
    gaps = [axis_gap(a, b) for a in cells for b in cells]
    step = min((d for d in gaps if d is not None), default=None)
    return [j for j, b in enumerate(cells)
            if (d := axis_gap(cells[cell], b)) is not None and abs(d - step) < 1e-9]


class TestMoveTable:
    def test_matches_cell_neighbors(self):
        # the grid step comes from the cells, so every spacing moves the
        # corner, edge and centre cells to their adjacent cells
        for spacing in (1.0, 0.5, 0.25):
            g = grid_3x3(spacing)
            for i in range(g.num_cells):
                assert g.moves[i] == [i] + cell_neighbors(g, i)
            assert g.moves[0] == [0, 1, 3]
            assert g.moves[1] == [1, 0, 2, 4]
            assert g.moves[4] == [4, 1, 3, 5, 7]

    def test_centre_cell_distribution(self):
        g = grid_3x3()
        rng = np.random.default_rng(3)
        counts = np.zeros(9)
        for _ in range(30_000):
            counts[move_destination(g, 4, rng)] += 1
        freq = counts / counts.sum()
        assert np.allclose(freq[[1, 3, 4, 5, 7]], 0.2, atol=0.02)
        assert np.all(freq[[0, 2, 6, 8]] == 0.0)


def reference_episodes(cfg, seed, actions, episodes):
    """IrsEnv's trajectory recomputed with the per-slot formulas: the link
    distances and pathlosses per slot, cell_neighbors per move, and the
    state concatenated from a list window.  Yields (state, reward, h, G,
    theta) per slot; reward is None after a reset."""
    g, p = cfg.geometry, cfg.params
    rc, rm = np.random.default_rng(seed), np.random.default_rng(seed + 1)

    def sample(cell, sh, ph):
        d_h = np.linalg.norm(g.irs_pos - g.dest_cells[cell])
        d_g = np.linalg.norm(g.source_pos - g.irs_pos)
        xi_h = p.multipath_std * rc.standard_normal(cfg.m)
        h_db = ch.pathloss_db(d_h, p.pathloss_exp) + sh.dest_values[cell] + xi_h
        h = 10.0 ** (h_db / 20.0) * np.exp(1j * ph.h_phases[cell])
        xi_g = p.multipath_std * rc.standard_normal((cfg.m, cfg.n))
        g_db = ch.pathloss_db(d_g, p.pathloss_exp) + sh.src_irs_value + xi_g
        return h, 10.0 ** (g_db / 20.0) * np.exp(1j * ph.g_phases)

    def state(cell, window, prev_db):
        parts = [g.dest_cells[cell] / g.cube_side]
        for c, th in window:
            parts += [g.dest_cells[c] / g.cube_side, th]
        if cfg.snr_in_state:
            parts.append(np.array([prev_db / 100.0]))
        return np.concatenate(parts)

    def snr_db(h, theta, G):
        return sig.snr_db(sig.snr(h, theta, G, p.tx_power_linear, p.noise_var))

    sh = ch.init_shadowing(g, p, rc)
    ph = ch.init_phases(g, cfg.m, cfg.n, rc)
    for _ in range(episodes):
        theta = np.zeros(cfg.m)
        cell = int(rm.integers(g.num_cells))
        window = [(cell, np.zeros(cfg.m)) for _ in range(cfg.w)]
        h, G = sample(cell, sh, ph)
        prev_db = snr_db(h, theta, G)
        yield state(cell, window, prev_db), None, h, G, theta
        for a in actions:
            sh = ch.step_shadowing(sh, p, rc)
            ph = ch.step_phases(ph, p, rc)
            theta = np.clip(theta + a, -np.pi, np.pi)
            h, G = sample(cell, sh, ph)
            prev_db = snr_db(h, theta, G)
            options = [cell] + cell_neighbors(g, cell)
            window = [(cell, theta.copy())] + window[:-1]
            cell = int(options[rm.integers(len(options))])
            yield state(cell, window, prev_db), prev_db, h, G, theta


class TestTrajectoryBytes:
    @pytest.mark.parametrize("preset, variant, grid", [
        ("desk", "base", False), ("desk", "snr-state", False),
        ("desk", "base", True), ("paper", "base", False),
        ("paper", "snr-state", False),
    ])
    def test_matches_per_slot_reference(self, preset, variant, grid):
        cfg = cfgmod.env_config(cfgmod.resolve(
            {"preset": preset, "variant": variant, "episode_len": 40}, use_env=False))
        if grid:
            cfg.geometry = grid_3x3()
        actions = np.random.default_rng(9).uniform(-1.5, 1.5, (cfg.episode_len, cfg.m))
        env = IrsEnv(cfg, np.random.default_rng(4), np.random.default_rng(5))
        got = []
        for _ in range(3):
            got.append((env.reset(), None, env.last_snapshot.h, env.last_snapshot.G,
                        env.theta))
            for a in actions:
                s, r = env.step(a)
                got.append((s, r, env.last_snapshot.h, env.last_snapshot.G, env.theta))
        want = list(reference_episodes(cfg, 4, actions, 3))
        assert len(got) == len(want) == 3 * (cfg.episode_len + 1)
        for g_slot, w_slot in zip(got, want):
            assert g_slot[1] == w_slot[1]
            for a, b in zip(g_slot[:1] + g_slot[2:], w_slot[:1] + w_slot[2:]):
                assert np.array_equal(a, b)


class TestReset:
    def test_zero_phases_and_length(self):
        cfg, env = make_env(m=4, n=2, w=3)
        s = env.reset()
        assert s.shape == (state_dim(cfg),)
        # every theta block is zero
        for j in range(cfg.w):
            block = s[3 + j * 7 + 3 : 3 + (j + 1) * 7]
            assert np.all(block == 0.0)

    def test_deterministic(self):
        s1 = make_env(seed=5, m=4, n=2)[1].reset()
        s2 = make_env(seed=5, m=4, n=2)[1].reset()
        assert np.array_equal(s1, s2)

    def test_window_replicates_initial_position(self):
        cfg, env = make_env(m=2, n=1, w=4)
        s = env.reset()
        head = s[:3]
        for j in range(cfg.w):
            pos = s[3 + j * 5 : 3 + j * 5 + 3]
            assert np.array_equal(pos, head)

    def test_positions_normalized(self):
        _, env = make_env(m=2, n=1)
        s = env.reset()
        assert np.all(s[:3] >= 0.0) and np.all(s[:3] <= 1.0)

    def test_snr_state_padding_uses_initial_snr(self):
        cfg, env = make_env(m=2, n=1, snr_in_state=True)
        s = env.reset()
        assert s[-1] == pytest.approx(env.prev_reward_db / 100.0)


class TestStep:
    def test_reward_matches_logged_snapshot(self):
        cfg, env = make_env(m=3, n=2)
        env.reset()
        action = np.array([0.5, -0.2, 0.1])
        _, reward = env.step(action)
        snap = env.last_snapshot
        p = cfg.params
        expected = sig.snr_db(
            sig.snr(snap.h, env.theta, snap.G, p.tx_power_linear, p.noise_var)
        )
        assert reward == pytest.approx(expected, rel=1e-12)

    def test_window_tracks_accumulated_theta(self):
        # replay the clamp recurrence independently
        cfg, env = make_env(m=2, n=1, w=3)
        env.reset()
        rng = np.random.default_rng(3)
        actions = [rng.uniform(-1, 1, 2) for _ in range(3)]
        theta_ref = np.zeros(2)
        for a in actions:
            s, _ = env.step(a)
            theta_ref = np.clip(theta_ref + a, -np.pi, np.pi)
        oldest = s[3 + 2 * 5 + 3 : 3 + 3 * 5]
        first = np.clip(actions[0], -np.pi, np.pi)
        assert np.allclose(oldest, first)
        newest = s[3 + 3 : 3 + 5]
        assert np.allclose(newest, theta_ref)

    def test_window_fifo_shift(self):
        cfg, env = make_env(m=2, n=1, w=3)
        s_prev = env.reset()
        rng = np.random.default_rng(4)
        for _ in range(4):
            s_next, _ = env.step(rng.uniform(-0.5, 0.5, 2))
            # history entries 2..W of next == entries 1..W-1 of prev
            assert np.array_equal(s_next[3 + 5 : 3 + 15], s_prev[3 : 3 + 10])
            # x_{t-1} of next == x_t of prev
            assert np.array_equal(s_next[3:6], s_prev[:3])
            s_prev = s_next

    def test_theta_blocks_in_range(self):
        cfg, env = make_env(m=3, n=1, w=2)
        env.reset()
        rng = np.random.default_rng(5)
        for _ in range(50):
            s, _ = env.step(rng.uniform(-np.pi, np.pi, 3))
            for j in range(cfg.w):
                block = s[3 + j * 6 + 3 : 3 + (j + 1) * 6]
                assert np.all(np.abs(block) <= np.pi)

    def test_frozen_channel_constant_reward(self):
        # rho ~ 1, no drift, no multipath, single cell: zero action holds SNR
        params = ch.ChannelParams(corr_time=1e12, phase_drift=0.0,
                                  multipath_std=0.0)
        geom = ch.Geometry(dest_cells=np.array([[15.0, 15.0, 0.5]]))
        cfg = EnvConfig(m=3, n=2, params=params, geometry=geom)
        env = IrsEnv(cfg, np.random.default_rng(0), np.random.default_rng(1))
        env.reset()
        rewards = [env.step(np.zeros(3))[1] for _ in range(10)]
        assert np.allclose(rewards, rewards[0], atol=1e-6)

    def test_snr_state_trailing_component(self):
        cfg, env = make_env(m=2, n=1, snr_in_state=True)
        env.reset()
        rng = np.random.default_rng(6)
        prev_reward = None
        for _ in range(5):
            s, r = env.step(rng.uniform(-1, 1, 2))
            assert s[-1] == pytest.approx(r / 100.0)
            prev_reward = r

    def test_step_after_done_raises(self):
        cfg, env = make_env(m=2, n=1, episode_len=3)
        env.reset()
        for _ in range(3):
            env.step(np.zeros(2))
        with pytest.raises(RuntimeError):
            env.step(np.zeros(2))

    def test_bad_action_shape(self):
        _, env = make_env(m=4, n=1)
        env.reset()
        with pytest.raises(ValueError):
            env.step(np.zeros(3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_action_rejected(self, bad):
        _, env = make_env(m=4, n=1)
        env.reset()
        env.step(np.zeros(4))
        theta, t = env.theta.copy(), env.t
        with pytest.raises(ValueError, match="action must be finite"):
            env.step(np.array([0.1, bad, 0.0, 0.0]))
        assert np.array_equal(env.theta, theta) and env.t == t

    def test_state_length_constant(self):
        cfg, env = make_env(m=3, n=2, w=4)
        s = env.reset()
        d = s.shape[0]
        rng = np.random.default_rng(7)
        for _ in range(20):
            s, _ = env.step(rng.uniform(-1, 1, 3))
            assert s.shape == (d,) and d == state_dim(cfg)


class TestChannelPersistence:
    def test_persistent_frozen_channel_survives_reset(self):
        params = ch.ChannelParams(corr_time=1e12, phase_drift=0.0,
                                  multipath_std=0.0)
        geom = ch.Geometry(dest_cells=np.array([[15.0, 15.0, 0.5]]))
        cfg = EnvConfig(m=2, n=1, episode_len=5, params=params, geometry=geom)
        env = IrsEnv(cfg, np.random.default_rng(0), np.random.default_rng(1))
        env.reset()
        h1 = env.last_snapshot.h.copy()
        for _ in range(5):
            env.step(np.zeros(2))
        env.reset()
        assert np.allclose(env.last_snapshot.h, h1, atol=1e-12)
