"""Tests of the benchmark's own checks: they accept the program's real
outputs and reject corrupted ones.

    python3 -m pytest perfbench/test_checks.py -q
"""

import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import checks  # noqa: E402
from irsrl import agent, config as cfgmod, nn  # noqa: E402
from irsrl.env import IrsEnv  # noqa: E402


@pytest.fixture(scope="module")
def slots():
    """Ten slots of the paper-scale env under random actions."""
    cfg = cfgmod.resolve({"preset": "paper"}, use_env=False)
    env_cfg = cfgmod.env_config(cfg)
    streams = agent.seed_streams(3)
    env = IrsEnv(env_cfg, streams["channel"], streams["motion"])
    env.reset()
    rng = np.random.default_rng(0)
    rows = []
    for _ in range(10):
        _, reward = env.step(rng.uniform(-0.5, 0.5, env_cfg.m))
        rows.append((reward, env.last_snapshot.h, env.last_snapshot.G, env.theta))
    reward, h, G, theta = (np.array(c) for c in zip(*rows))
    return reward, h, G, theta, env_cfg.params.tx_power_linear, env_cfg.params.noise_var


def test_real_slots_pass(slots):
    reward, h, G, theta, p, s2 = slots
    checks.check_reward_matches_snr(reward, h, G, theta, p, s2)
    checks.check_reward_below_bound(reward, h, G, p, s2)


def test_corrupted_snr_is_rejected(slots):
    reward, h, G, theta, p, s2 = slots
    bad = reward.copy()
    bad[4] += 1e-6  # dB: a relative error of about 2e-7
    with pytest.raises(checks.CheckError, match="slot 4"):
        checks.check_reward_matches_snr(bad, h, G, theta, p, s2)


def test_snr_above_bound_is_rejected(slots):
    reward, h, G, theta, p, s2 = slots
    bad = reward.copy()
    bad[7] = 10.0 * np.log10(checks.triangle_bound(h, G, p, s2)[7]) + 0.01
    with pytest.raises(checks.CheckError, match="slot 7: SNR .* exceeds"):
        checks.check_reward_below_bound(bad, h, G, p, s2)


def test_checkpoint_and_gradient_checks(tmp_path):
    rng = np.random.default_rng(1)
    cfg = agent.AgentConfig(hidden=16, n_hidden_layers=2, critic_input="fourier",
                            k_fourier=8)
    nets = agent.AgentNets.init(6, 2, cfg, rng, rng)
    path = tmp_path / "n.ckpt"
    nn.save_checkpoint(path, agent.checkpoint_tensors(nets))
    tensors = checks.read_checkpoint(path)
    checks.check_checkpoint(tensors, checks.expected_shapes(6, 2, 16, 2, 8))

    x = rng.uniform(-1.0, 1.0, (2, 8))
    t64 = {k: v.astype(np.float64) for k, v in tensors.items()}
    critic = nn.mlp_from_tensors("critic1", t64, "linear")
    fourier = nn.FourierKernel(B=t64["fourier.B"])
    feats, fcache = fourier.features(x)
    _, cache = critic.forward(feats)
    _, g = critic.backward(cache, np.ones((2, 1)))
    grad = fourier.backward(fcache, g)
    checks.check_input_gradient(grad, tensors, "critic1", x)
    grad[1, 3] *= 1.001
    with pytest.raises(checks.CheckError, match="row 1, input 3"):
        checks.check_input_gradient(grad, tensors, "critic1", x)
