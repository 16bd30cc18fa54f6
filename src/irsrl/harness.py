"""Experiment orchestration: multi-seed runs, metrics persistence, variant
and ablation sweeps, and the signal-model verification suite.

``run_experiment`` holds one OpenBLAS thread for the whole run.  It trains
a run's seeds in parallel when the process may use more than one CPU: the
caller and one forked worker per spare CPU, each pinned to its own CPU,
train every P-th seed, and the caller merges the results in seed order.
Each process writes the checkpoints of the seeds it trained.  A process
allowed on one CPU (``taskset -c 0``), a one-seed run, or a numpy whose
BLAS is not an OpenBLAS trains the seeds one after another in the caller.
Both paths write the same bytes, except for the wall_s column of
metrics.csv.
"""

from __future__ import annotations

import json
import os
import traceback
from dataclasses import asdict, replace

import numpy as np

from . import __version__, agent, config as cfgmod, nn, plotting, signal as sig
from .config import ExperimentConfig

METRICS_HEADER = "seed,episode,mean_snr_db,critic_loss,actor_obj,sigma,wall_s"


class RunError(Exception):
    """All seeds of a run failed."""


def _fmt_row(seed: int, row: agent.EpisodeStats) -> str:
    return (f"{seed},{row.episode},{row.mean_reward_db!r},{row.critic_loss!r},"
            f"{row.actor_objective!r},{row.sigma!r},{row.wall_s:.3f}")


def _train_seed(cfg: ExperimentConfig, out: str, seed: int):
    """Train one seed and write its checkpoint into ``out``.

    Returns (status, traceback text or None, formatted metrics rows); any
    exception is the seed's own failure.
    """
    try:
        stats, nets = agent.train(cfgmod.env_config(cfg), cfgmod.agent_config(cfg),
                                  cfg.episodes, seed)
        nn.save_checkpoint(os.path.join(out, f"seed{seed}.ckpt"),
                           agent.checkpoint_tensors(nets))
    except Exception as e:  # noqa: BLE001 - per-seed isolation
        return f"failed: {e}", traceback.format_exc(), []
    status = f"diverged ({stats.divergence_note})" if stats.divergence_note else "ok"
    return status, None, [_fmt_row(seed, row) for row in stats.rows]


def _pool_worker(cfg: ExperimentConfig, out: str, seeds: list[int], cpu: int,
                 conn) -> None:
    """A forked worker: pinned to ``cpu``, it trains ``seeds`` and sends
    (seed, result) through ``conn`` as each one finishes."""
    os.sched_setaffinity(0, {cpu})
    with conn:
        for seed in seeds:
            conn.send((seed, _train_seed(cfg, out, seed)))


def _openblas_thread_controls() -> list:
    """(get, set) thread-count functions of each OpenBLAS loaded in this
    process (numpy's wheels bundle one), found through /proc/self/maps."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as f:
            paths = {fields[5].rstrip("\n") for fields in
                     (line.split(maxsplit=5) for line in f)
                     if len(fields) == 6 and "openblas" in os.path.basename(fields[5])}
    except OSError:  # no /proc: not Linux
        return []
    controls = []
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)  # already loaded: this only finds it
        except OSError:  # the file was replaced since it was loaded
            continue
        for prefix in ("openblas", "scipy_openblas"):
            for suffix in ("", "64_"):
                get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                put = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
                if get is not None and put is not None:
                    get.argtypes, get.restype = [], ctypes.c_int
                    put.argtypes, put.restype = [ctypes.c_int], None
                    controls.append((get, put))
    return controls


def _train_pooled(cfg: ExperimentConfig, out: str, cpus: list[int]) -> dict:
    """Train cfg.seeds over one process per CPU in ``cpus``; returns
    {seed: _train_seed result}.

    Process k trains ``seeds[k::P]`` pinned to ``cpus[k]``: the caller is
    process 0, the others are forked before the caller starts any thread.
    A pinned process sees one CPU, so ``agent.train`` starts no twin-critic
    thread in it, and the workers inherit the caller's one BLAS thread.
    Every seed of a worker that dies before reporting it is recorded as
    failed.  Every worker is joined, and the caller's affinity restored,
    before this returns or raises.
    """
    import multiprocessing  # about 15 ms: only runs with spare CPUs pay it

    # fork: a worker starts from the caller's imported modules and state;
    # spawn would import numpy and irsrl again in every worker of every run
    ctx = multiprocessing.get_context("fork")
    n = len(cpus)
    own_cpus = os.sched_getaffinity(0)
    workers = []
    results = {}
    try:
        for k in range(1, n):
            recv, send = ctx.Pipe(duplex=False)
            proc = ctx.Process(target=_pool_worker,
                               args=(cfg, out, cfg.seeds[k::n], cpus[k], send))
            proc.start()
            send.close()
            workers.append((proc, recv))
        os.sched_setaffinity(0, {cpus[0]})
        for seed in cfg.seeds[0::n]:
            results[seed] = _train_seed(cfg, out, seed)
        for k, (proc, recv) in enumerate(workers, start=1):
            with recv:
                while True:
                    try:
                        seed, res = recv.recv()
                    except EOFError:  # the worker closed its end: done or dead
                        break
                    results[seed] = res
            proc.join()
            lost = f"failed: worker process exited (exit code {proc.exitcode})"
            for seed in cfg.seeds[k::n]:
                results.setdefault(seed, (lost, None, []))
    finally:
        for proc, _ in workers:
            if proc.is_alive():
                proc.kill()
            proc.join()
        os.sched_setaffinity(0, own_cpus)
    return results


def run_experiment(cfg: ExperimentConfig) -> dict:
    """Run every seed of cfg.variant; writes metrics.csv, checkpoints, manifest.

    An OpenBLAS runs one thread while the seeds train, on every path: two
    OpenBLAS threads on one CPU busy-wait on each other, and a second thread
    slowed serial desk and paper runs.  With more than one seed and more
    than one allowed CPU the seeds are trained in parallel, one pinned
    process per CPU (``_train_pooled``), if numpy's BLAS is an OpenBLAS;
    outputs are byte-identical to the serial run except the wall_s column.
    Per-seed failures are recorded in the manifest (status under "seeds", the
    traceback under "tracebacks"); raises RunError only when every seed fails.
    Returns the manifest dict.
    """
    out = os.path.join(cfg.out_dir, cfg.variant)
    os.makedirs(out, exist_ok=True)

    try:
        cpus = sorted(os.sched_getaffinity(0))[:len(cfg.seeds)]
    except AttributeError:  # no affinity call on this platform
        cpus = []
    blas = _openblas_thread_controls()
    own_threads = [get() for get, _ in blas]
    try:
        for _, put in blas:  # before any fork, so the workers inherit it
            put(1)
        # a BLAS whose threads cannot be limited would oversubscribe the CPUs
        if blas and len(cpus) > 1:
            results = _train_pooled(cfg, out, cpus)
        else:
            results = {seed: _train_seed(cfg, out, seed) for seed in cfg.seeds}
    finally:
        for (_, put), threads in zip(blas, own_threads):
            put(threads)

    lines = [METRICS_HEADER]
    seed_status: dict[str, str] = {}
    tracebacks: dict[str, str] = {}
    for seed in cfg.seeds:
        status, tb, rows = results[seed]
        seed_status[str(seed)] = status
        if tb is not None:
            tracebacks[str(seed)] = tb
        lines += rows

    metrics_path = os.path.join(out, "metrics.csv")
    with open(metrics_path, "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")

    manifest = {
        "version": __version__,
        "variant": cfg.variant,
        "config": asdict(cfg),
        "seeds": seed_status,
        "tracebacks": tracebacks,
        "metrics": metrics_path,
    }
    with open(os.path.join(out, "manifest.json"), "w", encoding="utf-8") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")

    if all(status.startswith("failed") for status in seed_status.values()):
        raise RunError(f"all seeds failed for variant {cfg.variant}: {seed_status}")
    return manifest


def final_performance(metrics_path, last: int = 10) -> float:
    """Mean reward over the last `last` episodes, averaged over seeds."""
    rows = plotting.read_metrics(metrics_path)
    cut = max(r["episode"] for r in rows) - last + 1
    vals = [r["mean_snr_db"] for r in rows
            if r["episode"] >= cut and np.isfinite(r["mean_snr_db"])]
    if not vals:
        return float("nan")
    return float(np.mean(vals))


SWEEPS = {
    "variant": ("variant", list(cfgmod.VARIANTS)),
    "window": ("w", [1, 3, 5]),
    "irs-size": ("m", [5, 10, 15, 20, 25, 30]),
}


def compare_variants(cfg: ExperimentConfig, sweep: str) -> list[dict]:
    """Run a sweep and report final performance per setting.

    sweep "variant" compares the three algorithms; "window" sweeps W;
    "irs-size" sweeps M (the latter two use the configured variant).
    Writes summary.csv, a text table, and an SVG of the training curves.
    """
    if sweep not in SWEEPS:
        raise cfgmod.ConfigError(f"unknown sweep {sweep!r}")
    key, values = SWEEPS[sweep]

    results = []
    metric_paths, labels = [], []
    for v in values:
        label = str(v) if sweep == "variant" else f"{key}={v}"
        sub = replace(cfg, **{key: v},
                      out_dir=os.path.join(cfg.out_dir, f"{sweep}_{label}"))
        manifest = run_experiment(sub)
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


def oracle_check(cfg: ExperimentConfig) -> dict[str, bool]:
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
    for _ in range(1000):
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
    for _ in range(100):
        h, G = _random_instance(rng, m, 1)
        theta_star, snr_star = sig.phase_oracle_single_antenna(h, G[:, 0], p_max, s2)
        bound = sig.snr_upper_bound(h, G, p_max, s2)
        ok &= abs(snr_star - bound) <= 1e-9 * bound
        ok &= abs(sig.snr(h, theta_star, G, p_max, s2) - snr_star) <= 1e-9 * snr_star
        _, snr_grid = sig.exhaustive_phase_search(h, G, 16, p_max, s2)
        ok &= snr_star >= snr_grid * (1 - 1e-12)
    results["n1_closed_form_vs_grid"] = bool(ok)

    ok = True
    for _ in range(1000):
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

    for name, passed in results.items():
        print(f"{'PASS' if passed else 'FAIL'}  {name}")
    return results
