"""Acceptance suite: one test per acceptance criterion, each printing a
PASS/FAIL line.  Run with `pytest tests/test_acceptance.py -v -s`.

The slow end-to-end training criteria (5-8) use the desk-scale preset and are
marked `slow`; deselect with `-m "not slow"` for a quick pass.
"""

from dataclasses import replace

import numpy as np
import pytest

from irsrl import channel as ch
from irsrl import config as cfgmod
from irsrl import harness, nn
from irsrl import signal as sig
from irsrl import agent as ag
from irsrl.env import IrsEnv
from irsrl.plotting import read_metrics

from test_nn import check_mlp_grads


def report(name: str, ok: bool, detail: str = ""):
    print(f"\n[{'PASS' if ok else 'FAIL'}] {name}  {detail}")
    assert ok, f"{name}: {detail}"


# -- criterion 1: oracle suite ----------------------------------------------


def test_criterion_1_oracle_suite():
    rng = np.random.default_rng(101)

    # beamformer optimality vs 1000 random feasible beamformers
    ok_bf = True
    c = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    b_star = sig.optimal_beamformer(c, 2.0)
    best = np.abs(c @ b_star)
    for _ in range(1000):
        b = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        b *= np.sqrt(2.0) / np.linalg.norm(b)
        ok_bf &= np.abs(c @ b) <= best * (1 + 1e-12)

    # N=1 closed form == upper bound (1e-9 rel), dominates 16-level grid, M<=4
    ok_n1 = True
    for m in (2, 3, 4):
        for _ in range(20):
            h = rng.standard_normal(m) + 1j * rng.standard_normal(m)
            g = rng.standard_normal(m) + 1j * rng.standard_normal(m)
            G = g[:, None]
            _, snr_star = sig.phase_oracle_single_antenna(h, g, 1.0, 1.0)
            bound = sig.snr_upper_bound(h, G, 1.0, 1.0)
            ok_n1 &= abs(snr_star - bound) <= 1e-9 * bound
            _, snr_grid = sig.exhaustive_phase_search(h, G, 16, 1.0, 1.0)
            ok_n1 &= snr_star >= snr_grid * (1 - 1e-12)

    # bound chain on 1000 random instances
    ok_chain = True
    for _ in range(1000):
        h = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        G = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
        theta = rng.uniform(-np.pi, np.pi, 3)
        ok_chain &= sig.snr(h, theta, G, 1.0, 1.0) <= sig.snr_upper_bound(
            h, G, 1.0, 1.0) * (1 + 1e-12)

    report("criterion 1: oracle suite", ok_bf and ok_n1 and ok_chain,
           f"beamformer={ok_bf} n1={ok_n1} chain={ok_chain}")


# -- criterion 2: channel statistics ----------------------------------------


def test_criterion_2_channel_statistics():
    params = ch.ChannelParams()
    geom = ch.Geometry()
    rng = np.random.default_rng(202)
    n_chains, n_steps = 10_000, 1_000
    st = ch.init_shadowing(geom, params, rng, n_chains=n_chains)
    lag = 5
    ring = [st.dest_values[:, 0].copy()]
    var_acc, ac_acc, count = 0.0, 0.0, 0
    for t in range(n_steps):
        st = ch.step_shadowing(st, params, rng)
        x = st.dest_values[:, 0]
        var_acc += np.mean(x * x)
        if len(ring) >= lag:
            ac_acc += np.mean(x * ring[-lag])
            count += 1
        ring.append(x.copy())
        if len(ring) > lag + 1:
            ring.pop(0)
    var = var_acc / n_steps
    ac = (ac_acc / count) / params.shadow_power
    ok_var = abs(var - 6.0) <= 0.05 * 6.0
    ok_ac = abs(ac - np.exp(-1.0)) <= 0.02
    report("criterion 2: channel statistics", ok_var and ok_ac,
           f"variance={var:.3f} (target 6±5%), lag-5 ac={ac:.4f} "
           f"(target {np.exp(-1.0):.4f}±0.02)")


# -- criterion 3: gradient correctness --------------------------------------


def test_criterion_3_gradient_correctness():
    rng = np.random.default_rng(303)
    ok = True
    # critic on raw input
    critic_raw = nn.MLP.init([10, 12, 12, 1], rng, dtype=np.float64)
    check_mlp_grads(critic_raw, rng.standard_normal((3, 10)), rng)
    # actor
    actor = nn.MLP.init([8, 12, 12, 4], rng, head="tanh_pi", dtype=np.float64)
    check_mlp_grads(actor, rng.standard_normal((3, 8)), rng)
    # critic behind the Fourier map, checked end to end through the features
    kern = nn.FourierKernel.init(6, 5, 0.5, rng, dtype=np.float64)
    critic_ff = nn.MLP.init([12, 10, 10, 1], rng, dtype=np.float64)
    x = rng.standard_normal((1, 5))
    v, fcache = kern.features(x)
    q, cache = critic_ff.forward(v)
    _, vgrad = critic_ff.backward(cache, np.ones((1, 1)))
    analytic = kern.backward(fcache, vgrad)

    def loss():
        vv, _ = kern.features(x)
        qq, _ = critic_ff.forward(vv)
        return float(qq[0, 0])

    from test_nn import numeric_grad
    num = numeric_grad(loss, x)
    rel = np.max(np.abs(analytic - num)) / max(np.max(np.abs(num)), 1e-8)
    ok &= rel < 1e-4
    report("criterion 3: gradient correctness", ok,
           f"fourier-chain max rel err={rel:.2e} (< 1e-4)")


# -- criterion 4: spectral-bias demonstration --------------------------------


def _fit_regression(use_ff: bool, seed: int) -> float:
    rng = np.random.default_rng(seed)
    x_train = rng.uniform(0, 1, (512, 1))
    x_test = rng.uniform(0, 1, (256, 1))
    y_train = np.sin(2 * np.pi * 8 * x_train)
    y_test = np.sin(2 * np.pi * 8 * x_test)

    if use_ff:
        kern = nn.FourierKernel.init(64, 1, 1.0, rng, dtype=np.float64)
        xin, _ = kern.features(x_train)
        xin_test, _ = kern.features(x_test)
        d = kern.out_dim
    else:
        xin, xin_test, d = x_train, x_test, 1

    net = nn.MLP.init([d, 64, 64, 64, 1], rng, dtype=np.float64)
    opt = nn.Adam.for_mlp(net, lr=1e-3)
    for _ in range(2000):
        out, cache = net.forward(xin)
        err = out - y_train
        grads, _ = net.backward(cache, 2.0 * err / err.shape[0])
        opt.step(net, grads)
    pred, _ = net.forward(xin_test)
    return float(np.mean((pred - y_test) ** 2))


def test_criterion_4_spectral_bias():
    raw, ff = [], []
    for seed in range(5):
        raw.append(_fit_regression(False, 404 + seed))
        ff.append(_fit_regression(True, 404 + seed))
    med_raw, med_ff = np.median(raw), np.median(ff)
    ok = med_ff * 5.0 <= med_raw
    report("criterion 4: spectral bias", ok,
           f"median test MSE raw={med_raw:.4f} ff={med_ff:.5f} "
           f"(ff must be >=5x lower)")


# -- criterion 5: sanity convergence (frozen channel) ------------------------

SANITY = {
    "preset": "desk",
    "m": 2,
    "n": 1,
    "episodes": 100,
    "episode_len": 100,
    "corr_time": 1e9,        # rho ~ 1
    "phase_drift": 0.0,
    "multipath_std": 0.0,
    "dest_cells": [[15.0, 15.0, 0.5]],
    "gamma": 0.9,
    "lr": 1e-3,
    "reward_scale": 0.05,
    "expl_decay": 0.9,
    "warmup_steps": 300,
    "buffer": 5000,
}


def _seed_finals(cfg, out_dir) -> dict[int, float]:
    """Train every seed of cfg through run_experiment (in parallel where the
    CPUs allow); returns each seed's mean SNR over its last 10 episodes."""
    cfg = replace(cfg, out_dir=str(out_dir))
    rows = read_metrics(harness.run_experiment(cfg)["metrics"])
    return {seed: np.mean([r["mean_snr_db"] for r in rows
                           if int(r["seed"]) == seed][-10:])
            for seed in cfg.seeds}


@pytest.mark.slow
def test_criterion_5_sanity_convergence(tmp_path):
    cfg = cfgmod.resolve({**SANITY, "variant": "base", "seeds": [0, 1, 2]},
                         use_env=False)
    hits = 0
    details = []
    for seed, final in _seed_finals(cfg, tmp_path).items():
        # closed-form optimum on the same frozen channel realization
        env_cfg = cfgmod.env_config(cfg)
        streams = ag.seed_streams(seed)
        env = IrsEnv(env_cfg, streams["channel"], streams["motion"])
        env.reset()
        snap = env.last_snapshot
        p = env_cfg.params
        _, opt_lin = sig.phase_oracle_single_antenna(
            snap.h, snap.G[:, 0], p.tx_power_linear, p.noise_var)
        opt_db = sig.snr_db(opt_lin)
        gap = opt_db - final
        details.append(f"seed{seed}: final={final:.2f} opt={opt_db:.2f} gap={gap:.2f}")
        if gap <= 1.0:
            hits += 1
    report("criterion 5: sanity convergence", hits >= 2,
           f"{hits}/3 seeds within 1 dB; " + "; ".join(details))


# -- criteria 6-8: desk-scale training comparisons ---------------------------


_desk_finals: dict[str, float] = {}  # repr of the config without out_dir -> final


def _desk_final(out_dir, variant: str, **overrides) -> float:
    """Mean final SNR over seeds 0-2 of a desk config.  A config that resolves
    like an earlier call's, out_dir aside, reuses that call's result, so that
    criterion 7's W=5 run is criterion 6's ff run when both run."""
    cfg = cfgmod.resolve({"preset": "desk", "variant": variant, "seeds": [0, 1, 2],
                          **overrides}, use_env=False)
    key = repr(replace(cfg, out_dir=""))
    if key not in _desk_finals:
        _desk_finals[key] = float(np.mean(list(_seed_finals(cfg, out_dir).values())))
    return _desk_finals[key]


@pytest.mark.slow
def test_criterion_6_ff_beats_base(tmp_path):
    ff = _desk_final(tmp_path, "ff")
    base = _desk_final(tmp_path, "base")
    gain = ff - base
    report("criterion 6: ff vs base", gain >= 0.5,
           f"ff={ff:.2f} dB, base={base:.2f} dB, gain={gain:.2f} (>= 0.5 dB)")


@pytest.mark.slow
def test_criterion_7_window_ablation(tmp_path):
    w5 = _desk_final(tmp_path / "w5", "ff", w=5)
    w1 = _desk_final(tmp_path / "w1", "ff", w=1)
    report("criterion 7: window ablation", w5 >= w1,
           f"W=5 final={w5:.2f} dB, W=1 final={w1:.2f} dB")


@pytest.mark.slow
def test_criterion_8_snr_state_report(tmp_path):
    cfg = cfgmod.resolve({"preset": "desk", "variant": "snr-state",
                          "seeds": [0, 1, 2], "out_dir": str(tmp_path)},
                         use_env=False)
    manifest = harness.run_experiment(cfg)
    # empirical finding: the run must complete and emit divergence statistics;
    # no pass/fail threshold on the outcome itself
    rows = read_metrics(manifest["metrics"])
    variances = {}
    for seed in cfg.seeds:
        vals = [r["mean_snr_db"] for r in rows
                if int(r["seed"]) == seed and np.isfinite(r["mean_snr_db"])]
        variances[seed] = float(np.var(vals)) if vals else float("nan")
    diverged = [s for s, v in manifest["seeds"].items() if v != "ok"]
    report("criterion 8: snr-state instability report", True,
           f"divergence flags={diverged or 'none'}, "
           f"per-seed reward variance={ {k: round(v, 2) for k, v in variances.items()} }")


# -- criterion 9: determinism ------------------------------------------------


def test_criterion_9_determinism(tmp_path):
    tiny = {"preset": "desk", "episodes": 3, "episode_len": 30, "m": 3, "n": 2,
            "w": 2, "hidden": 16, "n_hidden_layers": 2, "k_fourier": 8,
            "warmup_steps": 10, "batch": 8, "buffer": 500, "seeds": [0],
            "variant": "ff"}
    outputs = []
    for sub in ("a", "b"):
        cfg = cfgmod.resolve({**tiny, "out_dir": str(tmp_path / sub)},
                             use_env=False)
        harness.run_experiment(cfg)
        raw = (tmp_path / sub / "ff" / "metrics.csv").read_text()
        rows = "\n".join(",".join(l.split(",")[:-1]) for l in raw.splitlines())
        ckpt = (tmp_path / sub / "ff" / "seed0.ckpt").read_bytes()
        outputs.append((rows, ckpt))
    ok = outputs[0] == outputs[1]
    report("criterion 9: determinism", ok,
           "metrics (excl. wallclock) and checkpoints byte-identical")
