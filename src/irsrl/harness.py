"""Experiment orchestration: multi-seed runs, metrics persistence, variant
and ablation sweeps, and the signal-model verification suite."""

from __future__ import annotations

import json
import os
import traceback
from dataclasses import replace

import numpy as np

from . import __version__, agent, config as cfgmod, nn, plotting, signal as sig
from .config import ExperimentConfig
from .env import IrsEnv

METRICS_HEADER = "seed,episode,mean_snr_db,critic_loss,actor_obj,sigma,wall_s"


class RunError(Exception):
    """All seeds of a run failed."""


def _fmt_row(seed: int, row: agent.EpisodeStats) -> str:
    return (f"{seed},{row.episode},{row.mean_reward_db!r},{row.critic_loss!r},"
            f"{row.actor_objective!r},{row.sigma!r},{row.wall_s:.3f}")


def train_one(cfg: ExperimentConfig, variant: str, seed: int):
    """Train a single (seed, variant) cell; returns (TrainStats, AgentNets)."""
    streams = agent.seed_streams(seed)
    env = IrsEnv(cfgmod.env_config(cfg, variant), streams["channel"], streams["motion"])
    return agent.train(env, cfgmod.agent_config(cfg, variant), cfg.episodes, streams)


def run_experiment(cfg: ExperimentConfig, variant: str | None = None) -> dict:
    """Run every seed of one variant; writes metrics.csv, checkpoints, manifest.

    Per-seed failures are recorded in the manifest (status under "seeds", the
    traceback under "tracebacks"); raises RunError only when every seed fails.
    Returns the manifest dict.
    """
    variant = variant or cfg.variant
    out = os.path.join(cfg.out_dir, variant)
    os.makedirs(out, exist_ok=True)

    lines = [METRICS_HEADER]
    seed_status: dict[str, str] = {}
    tracebacks: dict[str, str] = {}
    any_ok = False
    for seed in cfg.seeds:
        try:
            stats, nets = train_one(cfg, variant, seed)
        except Exception as e:  # noqa: BLE001 - per-seed isolation
            seed_status[str(seed)] = f"failed: {e}"
            tracebacks[str(seed)] = traceback.format_exc()
            continue
        any_ok = True
        for row in stats.rows:
            lines.append(_fmt_row(seed, row))
        nn.save_checkpoint(os.path.join(out, f"seed{seed}.ckpt"),
                           agent.checkpoint_tensors(nets))
        seed_status[str(seed)] = (
            f"diverged ({stats.divergence_note})" if stats.diverged else "ok"
        )

    metrics_path = os.path.join(out, "metrics.csv")
    with open(metrics_path, "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")

    manifest = {
        "version": __version__,
        "variant": variant,
        "config": cfgmod.to_dict(cfg),
        "seeds": seed_status,
        "tracebacks": tracebacks,
        "metrics": metrics_path,
    }
    with open(os.path.join(out, "manifest.json"), "w", encoding="utf-8") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")

    if not any_ok:
        raise RunError(f"all seeds failed for variant {variant}: {seed_status}")
    return manifest


def final_performance(metrics_path, last: int = 10) -> float:
    """Mean reward over the last `last` episodes, averaged over seeds."""
    rows = plotting.read_metrics(metrics_path)
    max_ep = max(int(r["episode"]) for r in rows)
    cut = max_ep - last + 1
    vals = [r["mean_snr_db"] for r in rows
            if int(r["episode"]) >= cut and np.isfinite(r["mean_snr_db"])]
    if not vals:
        return float("nan")
    return float(np.mean(vals))


SWEEPS = {
    "variant": ("variant", ["base", "snr-state", "ff"]),
    "window": ("w", [1, 3, 5]),
    "irs-size": ("m", [5, 10, 15, 20, 25, 30]),
}


def compare_variants(cfg: ExperimentConfig, sweep: str,
                     values: list | None = None) -> list[dict]:
    """Run a sweep and report final performance per setting.

    sweep "variant" compares the three algorithms; "window" sweeps W;
    "irs-size" sweeps M (the latter two use the configured variant).
    Writes summary.csv, a text table, and an SVG of the training curves.
    """
    if sweep not in SWEEPS:
        raise cfgmod.ConfigError(f"unknown sweep {sweep!r}")
    key, defaults = SWEEPS[sweep]
    values = values if values is not None else defaults

    results = []
    metric_paths, labels = [], []
    for v in values:
        if sweep == "variant":
            sub, variant = cfg, str(v)
            label = variant
        else:
            sub = replace(cfg, **{key: v})
            variant = cfg.variant
            label = f"{key}={v}"
        sub = replace(sub, out_dir=os.path.join(cfg.out_dir, f"{sweep}_{label}"))
        manifest = run_experiment(sub, variant)
        perf = final_performance(manifest["metrics"])
        results.append({"setting": label, "final_snr_db": perf,
                        "metrics": manifest["metrics"]})
        metric_paths.append(manifest["metrics"])
        labels.append(label)

    os.makedirs(cfg.out_dir, exist_ok=True)
    summary_path = os.path.join(cfg.out_dir, f"summary_{sweep}.csv")
    with open(summary_path, "w", encoding="utf-8") as f:
        f.write("setting,final_snr_db\n")
        for r in results:
            f.write(f"{r['setting']},{r['final_snr_db']!r}\n")
    plotting.plot_curves(metric_paths, os.path.join(cfg.out_dir, f"sweep_{sweep}.svg"),
                         labels=labels)

    width = max(len(r["setting"]) for r in results)
    print(f"{'setting':<{width}}  final mean SNR (dB, last 10 episodes)")
    for r in results:
        print(f"{r['setting']:<{width}}  {r['final_snr_db']:.3f}")
    return results


# ---------------------------------------------------------------------------
# Oracle verification suite
# ---------------------------------------------------------------------------


def _random_instance(rng, m, n):
    h = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    G = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
    return h, G


def oracle_check(cfg: ExperimentConfig, n_instances: int = 100,
                 n_bound: int = 1000, verbose: bool = True) -> dict[str, bool]:
    """Cross-checks of the signal model against its independent oracles.

    Properties: maximum-ratio beamformer dominance over random feasible
    beamformers; N=1 closed form equal to the upper bound and dominating an
    exhaustive 16-level grid; the bound chain on random instances; M=1 phase
    invariance.  Returns {property: passed}.
    """
    rng = np.random.default_rng(20240817)
    m = min(cfg.m, 4)
    p_max, s2 = 4.0, 0.5
    results: dict[str, bool] = {}

    ok = True
    for _ in range(n_bound):
        h, G = _random_instance(rng, m, 3)
        theta = rng.uniform(-np.pi, np.pi, m)
        c = sig.composite_channel(h, theta, G)
        b_star = sig.optimal_beamformer(c, p_max)
        best = np.abs(c @ b_star)
        for _ in range(5):
            b = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            b *= np.sqrt(p_max) / np.linalg.norm(b)
            ok &= np.abs(c @ b) <= best * (1 + 1e-12)
    results["beamformer_optimality"] = bool(ok)

    ok = True
    for _ in range(n_instances):
        h, G = _random_instance(rng, m, 1)
        theta_star, snr_star = sig.phase_oracle_single_antenna(h, G[:, 0], p_max, s2)
        bound = sig.snr_upper_bound(h, G, p_max, s2)
        ok &= abs(snr_star - bound) <= 1e-9 * bound
        ok &= abs(sig.snr(h, theta_star, G, p_max, s2) - snr_star) <= 1e-9 * snr_star
        _, snr_grid = sig.exhaustive_phase_search(h, G, 16, p_max, s2)
        ok &= snr_star >= snr_grid * (1 - 1e-12)
    results["n1_closed_form_vs_grid"] = bool(ok)

    ok = True
    for _ in range(n_bound):
        h, G = _random_instance(rng, m, 2)
        theta = rng.uniform(-np.pi, np.pi, m)
        ok &= sig.snr(h, theta, G, p_max, s2) <= sig.snr_upper_bound(h, G, p_max, s2) * (
            1 + 1e-12
        )
    results["bound_chain"] = bool(ok)

    h, G = _random_instance(rng, 1, 2)
    snrs = [sig.snr(h, np.array([th]), G, p_max, s2)
            for th in np.linspace(-np.pi, np.pi, 32)]
    results["m1_phase_invariance"] = bool(
        (max(snrs) - min(snrs)) <= 1e-9 * max(snrs)
    )

    if verbose:
        for name, passed in results.items():
            print(f"{'PASS' if passed else 'FAIL'}  {name}")
    return results
