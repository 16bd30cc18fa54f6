"""One benchmark run in its own process; ``run.py`` starts it.

Usage (normally through run.py, which pins BLAS to one thread):

    python3 perfbench/worker.py --workload desk-train --seed 0 --seconds 25 \
        --trace 0 --spawned-at <time.monotonic() of the parent at spawn>

The worker builds its inputs from ``--seed`` (set-up), then repeats whole
rounds of the workload until ``--seconds`` of timed work are done, checks the
program's outputs, and prints one JSON object as its last line:
``{"correct", "attempted", "failed", "metrics", "setup_s", "rounds",
"raw_steps_per_s", "host_factor"}``.  With
``--setup-only`` it stops after set-up and prints ``{"setup_s": ...}``.
With ``--trace 1`` it runs a fixed number of rounds (about ``--seconds`` of
work on the reference machine), each once untraced and once with every
function in ``spans.TRACED`` wrapped, and reports the per-layer metrics
instead of the end-to-end ones.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import sys
import time

import numpy as np

from irsrl import agent, config as cfgmod, harness, nn, signal
from irsrl.env import IrsEnv, state_dim

import checks
import spans

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, "perfbench", ".out")

# Config overrides per workload; seeds come from --seed.  desk-train keeps the
# desk episode length and warm-up; paper-train is truncated to one episode
# with 100 warm-up steps so that learner updates fill the timed window.
DESK_TRAIN = {"preset": "desk", "variant": "base", "episodes": 5}
PAPER_TRAIN = {"preset": "paper", "variant": "ff", "episodes": 1, "warmup_steps": 100}
PAPER_ROLLOUT = {"preset": "paper", "variant": "ff"}
ROLLOUT_EPISODES = 4        # episodes per rollout round
# Seconds per round at one BLAS thread on the reference machine (README);
# they fix the round count of a traced run.
DESK_ROUND_S, PAPER_ROUND_S, ROLLOUT_ROUND_S = 8.0, 10.0, 0.6
CAL_REF_S = 1e-3            # calibration kernel time on the reference host
CAL_PERIOD_S = 0.1
TAIL_EPISODES = 2           # final_gap_db averages the last episodes of a seed
FD_POINTS = 3               # rows of the finite-difference gradient check


class TrainWorkload:
    """Rounds of ``harness.run_experiment`` on fixed seeds; a seed is one
    operation, and every round repeats the same seeds."""

    def __init__(self, name: str, overrides: dict, seeds: list[int],
                 grad_check: bool, nominal_round_s: float):
        out = os.path.join(OUT, name)
        shutil.rmtree(out, ignore_errors=True)
        self.cfg = cfgmod.resolve({**overrides, "seeds": seeds, "out_dir": out},
                                  use_env=False)
        self.dir = os.path.join(out, self.cfg.variant)
        self.grad_check = grad_check
        self.nominal_round_s = nominal_round_s
        self.ok_seeds: list[int] = []
        self.host = HostClock()
        self.clock = SlotClock(self.host)
        self.windows: list[np.ndarray] = []   # slot latencies per round
        self.first_rows: str | None = None
        self.error: str | None = None

    def round(self):
        cfg = self.cfg
        first_stamp = len(self.clock.stamps)
        t0 = self.host.now()
        try:
            status = harness.run_experiment(cfg)["seeds"]
        except harness.RunError:
            status = {}
        timed = self.host.now() - t0
        self.windows.append(self.clock.gaps(first_stamp))
        self.ok_seeds = [s for s in cfg.seeds if status.get(str(s)) == "ok"]
        self._check_repeat()
        steps = len(self.ok_seeds) * cfg.episodes * cfg.episode_len
        return len(cfg.seeds), len(cfg.seeds) - len(self.ok_seeds), steps, timed

    def _check_repeat(self) -> None:
        """Every round trains the same seeds, so metrics.csv without the
        wall-clock column must repeat exactly."""
        with open(os.path.join(self.dir, "metrics.csv"), encoding="utf-8") as f:
            rows = "\n".join(line.rsplit(",", 1)[0] for line in f)
        if self.first_rows is None:
            self.first_rows = rows
        elif rows != self.first_rows and self.error is None:
            self.error = "metrics.csv differs between identical rounds"

    def _replay_bounds_db(self, seed: int) -> list[float]:
        """Per-episode mean triangle bound (dB) of the seed's channel, replayed
        with zero actions: the channel and motion draws do not depend on
        the actions, so the replay sees the channels training saw."""
        env_cfg = cfgmod.env_config(self.cfg)
        streams = agent.seed_streams(seed)
        env = IrsEnv(env_cfg, streams["channel"], streams["motion"])
        p, s2 = env_cfg.params.tx_power_linear, env_cfg.params.noise_var
        zero = np.zeros(env_cfg.m)
        out = []
        for _ in range(self.cfg.episodes):
            env.reset()
            hs, gs = [], []
            for _ in range(env_cfg.episode_len):
                env.step(zero)
                hs.append(env.last_snapshot.h)
                gs.append(env.last_snapshot.G)
            bound = checks.triangle_bound(np.stack(hs), np.stack(gs), p, s2)
            out.append(float(np.mean(10.0 * np.log10(bound))))
        return out

    def check(self) -> float:
        """Independent checks of the last round's outputs; returns the mean
        gap (dB) between the replayed bound and the logged SNR over the
        last episodes of every seed."""
        if self.error:
            raise checks.CheckError(self.error)
        cfg = self.cfg
        ag_cfg = cfgmod.agent_config(cfg)
        env_cfg = cfgmod.env_config(cfg)
        sdim = state_dim(env_cfg)
        by_seed = checks.read_metrics(os.path.join(self.dir, "metrics.csv"))
        shapes = checks.expected_shapes(
            sdim, env_cfg.m, cfg.hidden, cfg.n_hidden_layers,
            cfg.k_fourier if ag_cfg.critic_input == "fourier" else None)
        gaps = []
        for seed in self.ok_seeds:
            rows = by_seed.get(seed, [])
            bound_db = self._replay_bounds_db(seed)
            checks.check_metrics(rows, cfg.episodes, cfg.episode_len,
                                 cfg.warmup_steps, cfg.expl_sigma0,
                                 cfg.expl_decay, bound_db)
            tensors = checks.read_checkpoint(os.path.join(self.dir, f"seed{seed}.ckpt"))
            checks.check_checkpoint(tensors, shapes)
            if self.grad_check:
                _check_critic_gradient(tensors, sdim, env_cfg.m, seed)
            gaps += [b - r["mean_snr_db"] for r, b in
                     zip(rows[-TAIL_EPISODES:], bound_db[-TAIL_EPISODES:])]
        return float(np.mean(gaps))


def _check_critic_gradient(tensors, sdim: int, m: int, seed: int) -> None:
    """critic1's input gradient from the program's backward pass, in float64,
    against central finite differences of an independent forward pass."""
    t64 = {k: v.astype(np.float64) for k, v in tensors.items()}
    mlps = [nn.mlp_from_tensors(p, t64, "tanh_pi" if p.endswith("actor") else "linear")
            for p in checks.NETS]
    fourier = nn.FourierKernel(B=t64["fourier.B"]) if "fourier.B" in t64 else None
    nets = agent.AgentNets(*mlps, fourier=fourier)
    rng = np.random.default_rng(seed)
    s = rng.uniform(0.0, 1.0, (FD_POINTS, sdim))
    a = rng.uniform(-np.pi, np.pi, (FD_POINTS, m))
    q, caches = nets.critic_forward(nets.critic1, s, a)
    _, grad = nets.critic_backward(nets.critic1, caches, np.ones(FD_POINTS))
    x = np.concatenate([s, a], axis=1)
    q_ref, _ = checks.critic_q(tensors, "critic1", x)
    if grad.dtype != np.float64 or not np.allclose(q, q_ref, rtol=1e-10, atol=0.0):
        raise checks.CheckError(f"critic1 forward {q} != independent {q_ref}")
    checks.check_input_gradient(grad, tensors, "critic1", x)


class RolloutWorkload:
    """The paper-scale env driven slot by slot by a fixed-seed actor at
    sigma = 0, with the program's SNR bound on every slot; a slot is one
    operation.  Every round replays the same channel from the seed."""

    def __init__(self, seed: int):
        cfg = cfgmod.resolve({**PAPER_ROLLOUT, "seeds": [seed]}, use_env=False)
        self.seed = seed
        self.nominal_round_s = ROLLOUT_ROUND_S
        self.host = HostClock()
        self.env_cfg = cfgmod.env_config(cfg)
        streams = agent.seed_streams(seed)
        self.nets = agent.AgentNets.init(state_dim(self.env_cfg), self.env_cfg.m,
                                         cfgmod.agent_config(cfg), streams["init"],
                                         streams["fourier"])
        self.windows: list[list[float]] = []   # slot latencies per round
        self.gap_db: float | None = None
        self.error: str | None = None

    def round(self):
        cfg, nets, m = self.env_cfg, self.nets, self.env_cfg.m
        p, s2 = cfg.params.tx_power_linear, cfg.params.noise_var
        streams = agent.seed_streams(self.seed)
        env = IrsEnv(cfg, streams["channel"], streams["motion"])
        rng = streams["exploration"]
        host, lat = self.host, []
        clock = host.now
        self.windows.append(lat)
        timed, gaps = 0.0, []
        for _ in range(ROLLOUT_EPISODES):
            state = env.reset()
            hs, gs, thetas, rewards, bounds = [], [], [], [], []
            for _ in range(cfg.episode_len):
                t0 = clock()
                action = agent.select_action(nets, state, 0.0, m, rng)
                state, reward = env.step(action)
                t1 = clock()
                snap = env.last_snapshot
                bound = signal.snr_upper_bound(snap.h, snap.G, p, s2)
                timed += clock() - t0
                lat.append(t1 - t0)
                hs.append(snap.h)
                gs.append(snap.G)
                thetas.append(env.theta)
                rewards.append(reward)
                bounds.append(bound)
                host.maybe_calibrate()
            h, G = np.stack(hs), np.stack(gs)
            try:
                checks.check_reward_matches_snr(rewards, h, G, np.stack(thetas), p, s2)
                checks.check_reward_below_bound(rewards, h, G, p, s2, np.array(bounds))
            except checks.CheckError as e:
                self.error = self.error or str(e)
            gaps.append(10.0 * np.log10(bounds) - np.array(rewards))
        gap_db = float(np.mean(gaps))
        if self.gap_db is None:
            self.gap_db = gap_db
        elif gap_db != self.gap_db:
            self.error = self.error or "rollout SNR differs between identical rounds"
        slots = ROLLOUT_EPISODES * cfg.episode_len
        return slots, 0, slots, timed

    def check(self) -> float:
        if self.error:
            raise checks.CheckError(self.error)
        return self.gap_db


class HostClock:
    """Time in reference-host seconds.

    The host's speed drifts by a quarter and more within minutes, because
    other machines share its cores.  Every ``CAL_PERIOD_S`` the clock times
    a fixed calibration kernel (small matmuls, small-array numpy calls and
    a Python loop, like the workloads' mix) and scales the time that follows by ``CAL_REF_S`` over
    the kernel's duration, so that a slow spell of the host counts as much
    reference time as the same work in a fast one.  Calibration time is
    excluded.  ``raw`` keeps the unscaled seconds.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self._a = rng.standard_normal((64, 128)).astype(np.float32)
        self._w = (0.1 * rng.standard_normal((128, 128))).astype(np.float32)
        self._v = rng.standard_normal(20)
        self.virtual = self.raw = 0.0
        self.factor = 1.0
        self.factors: list[float] = []
        self._last = time.perf_counter()
        self.calibrate()

    def _kernel(self) -> float:
        s = 0.0
        for _ in range(7):
            s += float(np.maximum(self._a @ self._w, 0.0).sum())
        v = self._v
        for _ in range(40):
            v = np.clip(0.5 * v + 1.0, -3.0, 3.0)
        for i in range(2000):
            s += i * i
        return s + float(v[0])

    def calibrate(self) -> None:
        t0 = time.perf_counter()
        self._kernel()
        t1 = time.perf_counter()
        self.factor = CAL_REF_S / (t1 - t0)
        self.factors.append(self.factor)
        self._last = t1
        self._due = t1 + CAL_PERIOD_S

    def now(self) -> float:
        t = time.perf_counter()
        self.raw += t - self._last
        self.virtual += (t - self._last) * self.factor
        self._last = t
        return self.virtual

    def maybe_calibrate(self) -> None:
        if time.perf_counter() >= self._due:
            self.now()
            self.calibrate()


class SlotClock:
    """Stamps every ``IrsEnv.step`` return during training; a slot's latency
    is the gap between two stamps of one episode (decide, step, store and
    learn).  The first slot after a reset is not counted."""

    def __init__(self, host: HostClock):
        self.host = host
        self.stamps: list[float] = []
        self._saved = None

    def install(self) -> None:
        stamps, host = self.stamps, self.host
        step, reset = IrsEnv.step, IrsEnv.reset

        def stamped_step(env, action):
            out = step(env, action)
            stamps.append(host.now())
            host.maybe_calibrate()
            return out

        def marked_reset(env):
            stamps.append(math.nan)
            return reset(env)

        self._saved = (step, reset)
        IrsEnv.step, IrsEnv.reset = stamped_step, marked_reset

    def uninstall(self) -> None:
        IrsEnv.step, IrsEnv.reset = self._saved

    def gaps(self, first: int) -> np.ndarray:
        """Slot latencies from the ``first`` stamp on."""
        gaps = np.diff(np.array(self.stamps[first:]))
        return gaps[np.isfinite(gaps)]


def make_workload(name: str, seed: int):
    if name == "desk-train":
        return TrainWorkload(name, DESK_TRAIN, [2 * seed, 2 * seed + 1], grad_check=False,
                             nominal_round_s=DESK_ROUND_S)
    if name == "paper-train":
        return TrainWorkload(name, PAPER_TRAIN, [seed], grad_check=True,
                             nominal_round_s=PAPER_ROUND_S)
    if name == "paper-rollout":
        return RolloutWorkload(seed)
    raise ValueError(f"unknown workload {name!r}")


def run_rounds(wl, seconds: float | None = None, rounds: int | None = None) -> dict:
    """Whole rounds until ``seconds`` of timed work (or ``rounds`` rounds)."""
    tot = {"rounds": 0, "attempted": 0, "failed": 0, "steps": 0, "timed_s": 0.0}
    raw0 = wl.host.raw
    t0 = time.perf_counter()
    while (tot["timed_s"] < seconds) if rounds is None else (tot["rounds"] < rounds):
        attempted, failed, steps, timed = wl.round()
        tot["rounds"] += 1
        tot["attempted"] += attempted
        tot["failed"] += failed
        tot["steps"] += steps
        tot["timed_s"] += timed
    tot["wall_s"] = time.perf_counter() - t0
    tot["raw_s"] = wl.host.raw - raw0
    return tot


def end_to_end(tot: dict, windows: list, gap_db: float, peak_rss_mb: float) -> dict:
    """Slot latency quantiles are taken per round, and the median over the
    rounds is reported: the host's speed swings between two levels every
    few seconds, and a quantile pooled over the whole run jumps between
    them."""
    p50, p99 = np.median([1e3 * np.percentile(w, [50, 99]) for w in windows if len(w)],
                         axis=0)
    return {
        "steps_per_s": {"value": tot["steps"] / tot["timed_s"], "unit": "1/s"},
        "slot_ms_p50": {"value": float(p50), "unit": "ms"},
        "slot_ms_p99": {"value": float(p99), "unit": "ms"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        "final_gap_db": {"value": gap_db, "unit": "dB"},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned-at", type=float, default=None,
                    help="time.monotonic() when the process was started")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    wl = make_workload(args.workload, args.seed)
    setup_s = (time.monotonic() - args.spawned_at) if args.spawned_at is not None \
        else float("nan")
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    if args.trace:
        # A fixed round count, so that call counts repeat exactly and self
        # times compare across versions of the program.  Untraced and traced
        # rounds alternate, so that the host's drift cancels in the overhead.
        tracer, tot, base_s = spans.Tracer(), None, 0.0
        for _ in range(max(1, round(args.seconds / wl.nominal_round_s))):
            base_s += run_rounds(wl, rounds=1)["wall_s"]
            tracer.install()
            try:
                one = run_rounds(wl, rounds=1)
            finally:
                tracer.uninstall()
            tot = one if tot is None else {k: tot[k] + one[k] for k in tot}
        metrics = tracer.metrics(tot["wall_s"] - base_s)
    else:
        clock = getattr(wl, "clock", None)
        if clock:
            clock.install()
        try:
            tot = run_rounds(wl, seconds=args.seconds)
        finally:
            if clock:
                clock.uninstall()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    correct = True
    try:
        gap_db = wl.check()
    except checks.CheckError as e:
        print(f"check failed: {e}", file=sys.stderr)
        correct, gap_db = False, float("nan")
    if not args.trace:
        metrics = end_to_end(tot, wl.windows, gap_db, peak_rss_mb)
    print(json.dumps({"correct": correct, "attempted": tot["attempted"],
                      "failed": tot["failed"], "metrics": metrics,
                      "setup_s": setup_s, "rounds": tot["rounds"],
                      "raw_steps_per_s": tot["steps"] / tot["raw_s"],
                      "host_factor": float(np.median(wl.host.factors))}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
