import os
import signal
import threading
import time
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from irsrl import nn
from irsrl import agent as ag
from irsrl.agent import (AgentConfig, AgentNets, ReplayBuffer, critic_target,
                         polyak_all, select_action, update_actor, update_critics)
from irsrl.env import Transition


def tiny_cfg(**kwargs):
    defaults = dict(hidden=16, n_hidden_layers=2, batch=8, buffer_capacity=100,
                    warmup_steps=0, k_fourier=8)
    defaults.update(kwargs)
    return AgentConfig(**defaults)


def make_nets(state_dim=6, action_dim=2, **kwargs):
    cfg = tiny_cfg(**kwargs)
    return cfg, AgentNets.init(state_dim, action_dim, cfg,
                               np.random.default_rng(0), np.random.default_rng(1))


def make_transition(rng, sdim, adim):
    return Transition(rng.standard_normal(sdim), rng.uniform(-np.pi, np.pi, adim),
                      float(rng.standard_normal()), rng.standard_normal(sdim))


def learner_batch(rng, n=8, sdim=6, adim=2):
    return (rng.standard_normal((n, sdim)).astype(np.float32),
            rng.uniform(-np.pi, np.pi, (n, adim)).astype(np.float32),
            rng.standard_normal(n).astype(np.float32),
            rng.standard_normal((n, sdim)).astype(np.float32))


class TestReplayBuffer:
    def test_fifo_eviction(self):
        buf = ReplayBuffer(2, 1, 1)
        for r in (1.0, 2.0, 3.0):
            buf.push(Transition(np.zeros(1), np.zeros(1), r, np.zeros(1)))
        assert buf.size == 2
        assert sorted(buf.rewards.tolist()) == [2.0, 3.0]

    def test_sample_from_empty_raises(self):
        buf = ReplayBuffer(10, 1, 1)
        with pytest.raises(ValueError):
            buf.sample(1, np.random.default_rng(0))

    def test_underfilled_raises(self):
        buf = ReplayBuffer(10, 1, 1)
        buf.push(Transition(np.zeros(1), np.zeros(1), 0.0, np.zeros(1)))
        with pytest.raises(ValueError):
            buf.sample(2, np.random.default_rng(0))

    def test_uniform_sampling(self):
        buf = ReplayBuffer(8, 1, 1)
        for r in range(8):
            buf.push(Transition(np.zeros(1), np.zeros(1), float(r), np.zeros(1)))
        rng = np.random.default_rng(1)
        counts = np.zeros(8)
        for _ in range(200):
            _, _, r, _ = buf.sample(8, rng)
            for v in r:
                counts[int(v)] += 1
        freq = counts / counts.sum()
        assert np.all(np.abs(freq - 1 / 8) < 0.02)


class TestSelectAction:
    def test_deterministic_when_sigma_zero(self):
        _, nets = make_nets()
        rng = np.random.default_rng(2)
        s = rng.standard_normal(6)
        a1 = select_action(nets, s, 0.0, 2, rng)
        a2 = select_action(nets, s, 0.0, 2, rng)
        assert np.array_equal(a1, a2)

    def test_always_in_range(self):
        _, nets = make_nets()
        rng = np.random.default_rng(3)
        for _ in range(200):
            a = select_action(nets, rng.standard_normal(6), 5.0, 2, rng)
            assert np.all(np.abs(a) <= np.pi)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("sigma", [0.0, 2.0])
    def test_clamp_matches_np_clip(self, dtype, sigma):
        # the ufunc clamp against the np.clip it replaced, at the +-pi edges
        class Actor:
            def forward(self, x):
                return out, None

        nets = SimpleNamespace(actor=Actor())
        rng = np.random.default_rng(6)
        edges = np.array([np.pi, -np.pi, np.float32(np.pi), -np.float32(np.pi), -0.0])
        for _ in range(150):
            m = int(rng.integers(1, 25))
            out = np.where(rng.random(m) < 0.4, rng.choice(edges, m),
                           rng.uniform(-5.0, 5.0, m)).astype(dtype)
            seed = int(rng.integers(2**32))
            r1, r2 = np.random.default_rng(seed), np.random.default_rng(seed)
            got = select_action(nets, np.zeros(3), sigma, m, r1)
            a = out + sigma * r2.standard_normal(m) if sigma > 0 else out
            want = np.clip(a, -np.pi, np.pi)
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_warmup_uniform(self):
        _, nets = make_nets()
        rng = np.random.default_rng(4)
        draws = np.array([select_action(nets, np.zeros(6), 0.1, 2, rng, warmup=True)
                          for _ in range(20_000)])
        assert np.abs(draws.mean()) < 0.05
        assert draws.min() < -3.0 and draws.max() > 3.0


class TestCriticTarget:
    def test_direct_value(self):
        _, nets = make_nets()
        # force both target critics to constant 2, actor irrelevant
        for critic in (nets.target_critic1, nets.target_critic2):
            for w in critic.weights:
                w[:] = 0.0
            critic.biases[-1][:] = 2.0
        y = critic_target(nets, np.array([1.0]), np.zeros((1, 6)), 0.99)
        assert y[0] == pytest.approx(2.98)

    def test_gamma_zero_limit(self):
        _, nets = make_nets()
        r = np.array([3.0, -1.0])
        y = critic_target(nets, r, np.zeros((2, 6)), 1e-12)
        assert np.allclose(y, r, atol=1e-6)

    def test_identical_twins_reduce_to_single(self):
        _, nets = make_nets()
        nets.target_critic2 = nets.target_critic1.copy()
        s2 = np.random.default_rng(5).standard_normal((4, 6)).astype(np.float32)
        y = critic_target(nets, np.zeros(4), s2, 0.9)
        a2, _ = nets.target_actor.forward(s2)
        q, _ = nets.critic_forward(nets.target_critic1, s2, a2)
        assert np.allclose(y, 0.9 * q)


class TestUpdateCritics:
    def test_fixed_point_zero_gradient(self):
        cfg, nets = make_nets()
        rng = np.random.default_rng(7)
        s, a, _, s2 = learner_batch(rng)
        nets.critic2 = nets.critic1.copy()
        nets.target_critic2 = nets.target_critic1.copy()
        # rewards chosen so that y equals the current Q exactly
        y_next1 = critic_target(nets, np.zeros(8), s2, cfg.gamma)
        q1, _ = nets.critic_forward(nets.critic1, s, a)
        r = q1 - y_next1
        before = [w.copy() for w in nets.critic1.weights]
        opts = (nn.Adam.for_mlp(nets.critic1, 1e-3), nn.Adam.for_mlp(nets.critic2, 1e-3))
        l1, l2 = update_critics(nets, (s, a, r, s2), opts, cfg.gamma)
        assert l1 == pytest.approx(0.0, abs=1e-10)
        for w, w0 in zip(nets.critic1.weights, before):
            assert np.allclose(w, w0, atol=1e-7)

    def test_single_transition_moves_toward_target(self):
        cfg, nets = make_nets()
        rng = np.random.default_rng(8)
        s, a, r, s2 = learner_batch(rng, n=1)
        opts = (nn.Adam.for_mlp(nets.critic1, 1e-2), nn.Adam.for_mlp(nets.critic2, 1e-2))
        y1 = critic_target(nets, r, s2, cfg.gamma)
        q_before, _ = nets.critic_forward(nets.critic1, s, a)
        for _ in range(20):
            update_critics(nets, (s, a, r, s2), opts, cfg.gamma)
        q_after, _ = nets.critic_forward(nets.critic1, s, a)
        y_after = critic_target(nets, r, s2, cfg.gamma)
        assert abs(q_after[0] - y_after[0]) < abs(q_before[0] - y1[0])

    def test_fourier_critic_input_width(self):
        cfg, nets = make_nets(critic_input="fourier", k_fourier=16)
        assert nets.critic1.weights[0].shape[0] == 32
        rng = np.random.default_rng(9)
        batch = learner_batch(rng)
        opts = (nn.Adam.for_mlp(nets.critic1, 1e-3), nn.Adam.for_mlp(nets.critic2, 1e-3))
        update_critics(nets, batch, opts, cfg.gamma)  # shapes must be consistent

    def test_gamma_zero_regression(self):
        # with a myopic discount the critics converge to batch regression of r
        cfg, nets = make_nets(gamma=1e-8)
        rng = np.random.default_rng(10)
        batch = learner_batch(rng, n=10)
        opts = (nn.Adam.for_mlp(nets.critic1, 1e-3), nn.Adam.for_mlp(nets.critic2, 1e-3))
        loss = None
        for _ in range(5000):
            loss, _ = update_critics(nets, batch, opts, cfg.gamma)
        assert loss < 1e-3


class TestUpdateActor:
    def test_quadratic_bowl_drives_actions_to_zero(self):
        # frozen critic Q(s, a) = -||a||^2 built by hand
        cfg, nets = make_nets(critic_input="raw")
        sdim, adim = 6, 2
        rng = np.random.default_rng(11)

        class QuadCritic:
            params = np.zeros(0)  # below TWIN_MIN_PARAMS: the serial path

            def forward(self, x):
                a = x[:, sdim:]
                return -np.sum(a**2, axis=1, keepdims=True), ("quad", x)

            def backward(self, cache, gout, **_):
                _, x = cache
                gin = np.zeros_like(x)
                gin[:, sdim:] = -2.0 * x[:, sdim:] * gout
                return ([], []), gin

        nets.critic1 = QuadCritic()
        nets.critic2 = QuadCritic()
        opt = nn.Adam.for_mlp(nets.actor, 1e-2)
        states = rng.standard_normal((16, sdim)).astype(np.float32)
        for _ in range(500):
            update_actor(nets, states, opt)
        a, _ = nets.actor.forward(states)
        assert np.max(np.abs(a)) < 0.05

    def test_act_reg_pulls_actions_to_zero(self):
        # action-independent critics: only the penalty term moves the actor
        cfg, nets = make_nets(critic_input="raw")
        for critic in (nets.critic1, nets.critic2):
            critic.weights[0][6:, :] = 0.0
        opt = nn.Adam.for_mlp(nets.actor, 1e-2)
        states = np.random.default_rng(21).standard_normal((8, 6)).astype(np.float32)
        a0, _ = nets.actor.forward(states)
        for _ in range(300):
            update_actor(nets, states, opt, act_reg=0.1)
        a1, _ = nets.actor.forward(states)
        assert np.mean(np.abs(a1)) < np.mean(np.abs(a0))
        assert np.max(np.abs(a1)) < 0.05

    def test_action_independent_critic_zero_gradient(self):
        cfg, nets = make_nets(critic_input="raw")
        # zero out every critic weight touching the action slice
        for critic in (nets.critic1, nets.critic2):
            critic.weights[0][6:, :] = 0.0
        before = [w.copy() for w in nets.actor.weights]
        opt = nn.Adam.for_mlp(nets.actor, 1e-2)
        states = np.random.default_rng(12).standard_normal((8, 6)).astype(np.float32)
        update_actor(nets, states, opt)
        for w, w0 in zip(nets.actor.weights, before):
            assert np.allclose(w, w0, atol=1e-8)

    def test_lr_zero_keeps_params(self):
        cfg, nets = make_nets()
        before = [w.copy() for w in nets.actor.weights]
        opt = nn.Adam.for_mlp(nets.actor, 0.0)
        states = np.random.default_rng(13).standard_normal((8, 6)).astype(np.float32)
        update_actor(nets, states, opt)
        for w, w0 in zip(nets.actor.weights, before):
            assert np.array_equal(w, w0)

    def test_twin_symmetry(self):
        # swapping the critics leaves the actor update bit-identical
        results = []
        for swap in (False, True):
            cfg, nets = make_nets()
            if swap:
                nets.critic1, nets.critic2 = nets.critic2, nets.critic1
                nets.target_critic1, nets.target_critic2 = (
                    nets.target_critic2, nets.target_critic1)
            opt = nn.Adam.for_mlp(nets.actor, 1e-3)
            states = np.random.default_rng(14).standard_normal((8, 6)).astype(np.float32)
            update_actor(nets, states, opt)
            results.append([w.copy() for w in nets.actor.weights])
        for w_a, w_b in zip(*results):
            assert np.array_equal(w_a, w_b)


def force_threads(monkeypatch):
    """Run critic2's halves on the worker thread even for tiny critics and on
    a one-CPU machine."""
    monkeypatch.setattr(ag, "TWIN_MIN_PARAMS", 0)
    monkeypatch.setattr(ag, "_cpus", lambda: 2)


@pytest.fixture
def threaded(monkeypatch):
    force_threads(monkeypatch)


class TestTwinThread:
    def _steps(self, critic_input):
        """Targets, losses, objectives and all parameters over four updates,
        and the threads that stepped critic2's optimizer."""
        cfg, nets = make_nets(critic_input=critic_input)
        opts = (nn.Adam.for_mlp(nets.critic1, 1e-2), nn.Adam.for_mlp(nets.critic2, 1e-2))
        actor_opt = nn.Adam.for_mlp(nets.actor, 1e-2)
        threads = set()

        def step2(mlp, grads, step=opts[1].step):
            threads.add(threading.current_thread().name.split("_")[0])
            step(mlp, grads)

        opts[1].step = step2
        rng = np.random.default_rng(30)
        out = []
        for _ in range(4):
            s, a, r, s2 = learner_batch(rng)
            out.append(critic_target(nets, r, s2, cfg.gamma))
            out.extend(update_critics(nets, (s, a, r, s2), opts, cfg.gamma))
            out.append(update_actor(nets, s, actor_opt, act_reg=0.1))
            polyak_all(nets, 0.1)
        out.extend(getattr(nets, name).params.copy() for name in ag.MLP_NAMES)
        return out, threads

    @pytest.mark.parametrize("critic_input", ag.CRITIC_INPUTS)
    def test_threaded_matches_serial(self, critic_input, monkeypatch):
        serial, serial_threads = self._steps(critic_input)
        force_threads(monkeypatch)
        threaded, threaded_threads = self._steps(critic_input)
        assert serial_threads == {"MainThread"}
        assert threaded_threads == {"irsrl-twin-critic"}
        assert len(serial) == len(threaded)
        for x, y in zip(serial, threaded):
            assert np.array_equal(x, y)

    def test_polyak_all_covers_every_parameter_once(self, threaded):
        _, nets = make_nets(critic_input="fourier")
        for name in ag.MLP_NAMES[:3]:
            getattr(nets, name).params[:] += 1.0
        ref = nets.copy()
        polyak_all(nets, 0.3)
        for name in ag.MLP_NAMES[3:]:
            nn.polyak_update(getattr(ref, name), getattr(ref, name.removeprefix("target_")), 0.3)
            assert np.array_equal(getattr(nets, name).params, getattr(ref, name).params)

    @pytest.mark.parametrize("bad", [1, 2])
    def test_nonfinite_half_waits_for_other_half(self, bad, threaded):
        cfg, nets = make_nets()
        getattr(nets, f"critic{bad}").biases[-1][:] = np.nan
        opts = (nn.Adam.for_mlp(nets.critic1, 1e-3), nn.Adam.for_mlp(nets.critic2, 1e-3))
        good = opts[2 - bad]
        finished = []

        def slow_step(mlp, grads, step=good.step):
            time.sleep(0.2)
            step(mlp, grads)
            finished.append(True)

        good.step = slow_step
        batch = learner_batch(np.random.default_rng(31))
        with pytest.raises(nn.NonFiniteError, match="critic loss"):
            update_critics(nets, batch, opts, cfg.gamma)
        assert finished == [True]
        assert good.t == 1

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_can_update(self, threaded):
        cfg, nets = make_nets()
        opts = (nn.Adam.for_mlp(nets.critic1, 1e-3), nn.Adam.for_mlp(nets.critic2, 1e-3))
        batch = learner_batch(np.random.default_rng(32))
        update_critics(nets, batch, opts, cfg.gamma)
        assert any(t.name.startswith("irsrl-twin-critic") for t in threading.enumerate())
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)  # fork with threads
            pid = os.fork()
        if pid == 0:
            code = 1
            try:
                update_critics(nets, batch, opts, cfg.gamma)
                code = 0
            finally:
                os._exit(code)
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            done, status = os.waitpid(pid, os.WNOHANG)
            if done:
                break
            time.sleep(0.01)
        else:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("the forked child's update did not finish in 30 s")
        assert os.waitstatus_to_exitcode(status) == 0


class TestFourierSharing:
    def test_one_kernel_for_all_critics(self):
        _, nets = make_nets(critic_input="fourier")
        assert nets.fourier is not None
        s = np.random.default_rng(15).standard_normal((4, 6)).astype(np.float32)
        a = np.zeros((4, 2), dtype=np.float32)
        # all four critic networks consume the same feature space
        for critic in (nets.critic1, nets.critic2,
                       nets.target_critic1, nets.target_critic2):
            q, _ = nets.critic_forward(critic, s, a)
            assert q.shape == (4,)


class TestSeedStreams:
    def test_streams_differ(self):
        st = ag.seed_streams(0)
        draws = {k: rng.standard_normal() for k, rng in st.items()}
        assert len(set(draws.values())) == len(draws)

    def test_reproducible(self):
        a = ag.seed_streams(7)["channel"].standard_normal(5)
        b = ag.seed_streams(7)["channel"].standard_normal(5)
        assert np.array_equal(a, b)
