"""Twin-critic DDPG for the IRS phase-control MDP.

Three main networks (actor, two critics) plus Polyak-tracked targets.  The
critics are trained independently (separate parameters and optimizers) but
both bootstrap from the shared clipped target
r + gamma * min(Q'_1, Q'_2)(s', pi'(s')), as in TD3 but without target-policy
smoothing; the minimum of the two main critics drives the policy update.
When the Fourier critic is enabled, the state-action vector is mapped through
one shared random Fourier kernel before the critic MLPs.

The twin critics meet only at the two minima, so each learner step splits
into one half per critic: critic1's half runs on the calling thread and
critic2's on a worker thread that ``train`` starts and joins, and the two
join where the math needs both (``_twin``).  The halves run the same array
operations as one thread would, so results are byte-identical either way.
Critics smaller than ``TWIN_MIN_PARAMS`` parameters, and processes allowed on
one CPU only, run both halves on the calling thread, where the hand-off would
cost more than the second core saves.

The task is continuing (episodes are time limits only), so the bootstrap is
never terminal-masked.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import nn
from .env import EnvConfig, IrsEnv, state_dim

CRITIC_INPUTS = ("raw", "fourier")
# Critics with fewer parameters update both halves on the calling thread: the
# desk critic (42k) gains nothing from the worker, the paper critic (526k) does.
TWIN_MIN_PARAMS = 1 << 17
# AgentNets' networks in field order, which is also checkpoint order
MLP_NAMES = ("actor", "critic1", "critic2", "target_actor", "target_critic1",
             "target_critic2")


@dataclass
class AgentConfig:
    gamma: float = 0.99
    tau: float = 0.005
    batch: int = 64
    lr: float = 2e-4                # actor and critics
    hidden: int = 400
    n_hidden_layers: int = 3
    buffer: int = 1_000_000         # replay capacity
    expl_sigma0: float = 0.1 * np.pi
    expl_decay: float = 0.999       # per episode
    warmup_steps: int = 1000        # uniform-random action steps
    critic_input: str = "raw"       # "raw" | "fourier"
    sigma_b2: float = 0.01          # variance of Fourier kernel entries
    k_fourier: int = 256
    reward_scale: float = 1.0       # scales rewards seen by the critics only
    act_reg: float = 0.0            # actor penalty weight on mean ||a||^2

    def __post_init__(self):
        if not 0.0 < self.gamma < 1.0:
            raise ValueError(f"gamma must be in (0, 1), got {self.gamma!r}")
        if not 0.0 < self.tau <= 1.0:
            raise ValueError(f"tau must be in (0, 1], got {self.tau!r}")
        if not 0.0 < self.expl_decay <= 1.0:
            raise ValueError(f"expl_decay must be in (0, 1], got {self.expl_decay!r}")
        for name in ("batch", "hidden", "n_hidden_layers", "buffer", "k_fourier"):
            if not getattr(self, name) >= 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)!r}")
        if not self.buffer >= self.batch:  # else no update ever runs
            raise ValueError(f"buffer must be >= batch ({self.batch}), "
                             f"got {self.buffer!r}")
        for name in ("lr", "sigma_b2", "reward_scale"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)!r}")
        for name in ("expl_sigma0", "warmup_steps", "act_reg"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)!r}")
        if self.critic_input not in CRITIC_INPUTS:
            raise ValueError(f"critic_input must be one of {CRITIC_INPUTS}, "
                             f"got {self.critic_input!r}")


class ReplayBuffer:
    """Fixed-capacity FIFO store with uniform sampling (with replacement)."""

    def __init__(self, capacity: int, state_dim: int, action_dim: int):
        self.capacity = int(capacity)
        self.states = np.zeros((self.capacity, state_dim), dtype=np.float32)
        self.actions = np.zeros((self.capacity, action_dim), dtype=np.float32)
        self.rewards = np.zeros(self.capacity, dtype=np.float32)
        self.next_states = np.zeros((self.capacity, state_dim), dtype=np.float32)
        self.count = 0  # total insertions

    @property
    def size(self) -> int:
        return min(self.count, self.capacity)

    def push(self, state: np.ndarray, action: np.ndarray, reward: float,
             next_state: np.ndarray) -> None:
        i = self.count % self.capacity
        self.states[i] = state
        self.actions[i] = action
        self.rewards[i] = reward
        self.next_states[i] = next_state
        self.count += 1

    def sample(self, n: int, rng: np.random.Generator):
        if self.size < n:
            raise ValueError(f"buffer holds {self.size} < batch {n}")
        idx = rng.integers(self.size, size=n)
        return (self.states[idx], self.actions[idx], self.rewards[idx],
                self.next_states[idx])


@dataclass
class AgentNets:
    actor: nn.MLP
    critic1: nn.MLP
    critic2: nn.MLP
    target_actor: nn.MLP
    target_critic1: nn.MLP
    target_critic2: nn.MLP
    fourier: nn.FourierKernel | None = None

    @classmethod
    def init(cls, state_dim: int, action_dim: int, cfg: AgentConfig,
             rng: np.random.Generator, rng_fourier: np.random.Generator) -> "AgentNets":
        hid = [cfg.hidden] * cfg.n_hidden_layers
        actor = nn.MLP.init([state_dim] + hid + [action_dim], rng,
                            head="tanh_pi", out_scale=1e-2)
        fourier = None
        critic_in = state_dim + action_dim
        if cfg.critic_input == "fourier":
            fourier = nn.FourierKernel.init(
                cfg.k_fourier, critic_in, np.sqrt(cfg.sigma_b2), rng_fourier
            )
            critic_in = fourier.out_dim
        c1 = nn.MLP.init([critic_in] + hid + [1], rng)
        c2 = nn.MLP.init([critic_in] + hid + [1], rng)
        return cls(actor, c1, c2, actor.copy(), c1.copy(), c2.copy(), fourier)

    def copy(self) -> "AgentNets":
        return AgentNets(*(getattr(self, n).copy() for n in MLP_NAMES), self.fourier)

    def critic_input(self, s: np.ndarray, a: np.ndarray):
        """(x, fcache): the critics' input for (s, a), which both critics
        share, and the Fourier cache (None for raw critics)."""
        x = np.concatenate([s, a], axis=-1)
        if self.fourier is None:
            return x, None
        return self.fourier.features(x)

    def critic_forward(self, critic: nn.MLP, s: np.ndarray, a: np.ndarray):
        """Q(s, a) with caches for backprop down to the action slice."""
        return _critic_q(critic, *self.critic_input(s, a))

    def critic_backward(self, critic: nn.MLP, caches, q_grad: np.ndarray,
                        params: bool = True):
        """(param grad, gradient wrt the raw (s, a) input); see MLP.backward."""
        cache, fcache = caches
        grad, gin = critic.backward(cache, q_grad[..., None], params=params)
        if self.fourier is not None:
            gin = self.fourier.backward(fcache, gin)
        return grad, gin


def _critic_q(critic: nn.MLP, x: np.ndarray, fcache):
    """Q over a prepared critic input, with caches for critic_backward."""
    q, cache = critic.forward(x)
    return q[..., 0], (cache, fcache)


def _cpus() -> int:
    """How many CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _twin(pool, f, args1, args2):
    """(f(*args1), f(*args2)): one half of a twin-critic step per critic.

    With a one-thread ``pool`` the second half runs on its worker while this
    thread runs the first; with None the halves run here, in order.  An
    exception from either half is raised only after both halves have
    finished, the first half's if both raise.
    """
    if pool is None:
        return f(*args1), f(*args2)
    second = pool.submit(f, *args2)
    try:
        first = f(*args1)
    except BaseException:
        second.exception()  # waits for the second half
        raise
    return first, second.result()


def select_action(nets: AgentNets, state: np.ndarray, sigma: float,
                  action_dim: int, rng: np.random.Generator,
                  warmup: bool = False) -> np.ndarray:
    """Exploratory action: uniform during warmup, else clamped Gaussian noise
    around the deterministic actor output."""
    if warmup:
        return rng.uniform(-np.pi, np.pi, size=action_dim)
    a = nets.actor.forward(state[None].astype(np.float32))[0][0]  # a one-row batch
    if sigma > 0:
        a = a + sigma * rng.standard_normal(action_dim)
    return np.minimum(np.maximum(a, -np.pi), np.pi)


def critic_target(nets: AgentNets, rewards: np.ndarray, next_states: np.ndarray,
                  gamma: float, pool=None) -> np.ndarray:
    """The shared clipped target r + gamma * min(Q'_1, Q'_2)(s', pi'(s')) that
    both critics regress toward; no terminal masking (continuing task)."""
    a_next, _ = nets.target_actor.forward(next_states)
    x, fcache = nets.critic_input(next_states, a_next)
    (q1, _), (q2, _) = _twin(pool, _critic_q, (nets.target_critic1, x, fcache),
                             (nets.target_critic2, x, fcache))
    y = rewards + gamma * np.minimum(q1, q2)
    if not np.all(np.isfinite(y)):
        raise nn.NonFiniteError("non-finite critic target")
    return y


def _critic_step(critic: nn.MLP, opt: nn.Adam, x: np.ndarray,
                 y: np.ndarray) -> float:
    """One Adam step of one critic toward y; returns the loss before it."""
    q, cache = critic.forward(x)
    err = q[..., 0] - y
    loss = float(np.mean(err**2))
    if not np.isfinite(loss):
        raise nn.NonFiniteError("non-finite critic loss")
    grad, _ = critic.backward(cache, (2.0 * err / err.shape[0])[..., None],
                              inputs=False)
    opt.step(critic, grad)
    return loss


def update_critics(nets: AgentNets, batch, opts: tuple[nn.Adam, nn.Adam],
                   gamma: float, pool=None) -> tuple[float, float]:
    """One Adam step per critic on the mean squared Bellman error."""
    s, a, r, s2 = batch
    y = critic_target(nets, r, s2, gamma, pool)
    x, _ = nets.critic_input(s, a)
    return _twin(pool, _critic_step, (nets.critic1, opts[0], x, y),
                 (nets.critic2, opts[1], x, y))


def update_actor(nets: AgentNets, states: np.ndarray, opt: nn.Adam,
                 act_reg: float = 0.0, pool=None) -> float:
    """One Adam ascent step on mean_batch min(Q1, Q2)(s, pi(s)) - act_reg * ||pi(s)||^2.

    The gradient flows through the action slice of the critic input (and the
    Fourier map when enabled) into the actor; ascent is implemented as
    descent on the negated objective.
    """
    a, acache = nets.actor.forward(states)
    x, fcache = nets.critic_input(states, a)
    (q1, c1), (q2, c2) = _twin(pool, _critic_q, (nets.critic1, x, fcache),
                               (nets.critic2, x, fcache))
    objective = float(np.mean(np.minimum(q1, q2)))
    if not np.isfinite(objective):
        raise nn.NonFiniteError("non-finite actor objective")
    b = states.shape[0]
    pick1 = (q1 <= q2).astype(np.float32)
    (_, gin1), (_, gin2) = _twin(pool, partial(nets.critic_backward, params=False),
                                 (nets.critic1, c1, pick1 / b),
                                 (nets.critic2, c2, (1.0 - pick1) / b))
    d = states.shape[1]
    grad_a = gin1[:, d:] + gin2[:, d:]
    if act_reg > 0.0:
        # penalty keeps the delta-action policy away from tanh saturation;
        # it is zero at the fixed point a = 0 of a converged tracking policy
        grad_a = grad_a - (2.0 * act_reg / states.shape[0]) * a
        objective -= act_reg * float(np.mean(np.sum(a * a, axis=1)))
    agrad, _ = nets.actor.backward(acache, -grad_a, inputs=False)  # negate: ascent
    opt.step(nets.actor, agrad)
    return objective


def _polyak_half(target_critic: nn.MLP, critic: nn.MLP, target_actor: nn.MLP,
                 actor: nn.MLP, actor_part: slice, tau: float) -> None:
    nn.polyak_update(target_critic, critic, tau)
    nn.polyak_update(target_actor, actor, tau, actor_part)


def polyak_all(nets: AgentNets, tau: float, pool=None) -> None:
    """Polyak-average every target network; each half takes one critic and
    half of the actor, so that the two threads carry the same load."""
    half = nets.actor.params.size // 2
    _twin(pool, _polyak_half,
          (nets.target_critic1, nets.critic1, nets.target_actor, nets.actor,
           slice(None, half), tau),
          (nets.target_critic2, nets.critic2, nets.target_actor, nets.actor,
           slice(half, None), tau))


@dataclass
class EpisodeStats:
    episode: int
    mean_reward_db: float
    critic_loss: float
    actor_objective: float
    sigma: float
    wall_s: float


@dataclass
class TrainStats:
    rows: list[EpisodeStats] = field(default_factory=list)
    divergence_note: str = ""  # set when training stopped on a non-finite value


def seed_streams(seed: int) -> dict[str, np.random.Generator]:
    """Named substreams of one master seed.  The channel and motion streams
    depend only on (seed, step count), so agent variants sharing a seed see
    identical channel realizations."""
    names = ("channel", "motion", "init", "fourier", "exploration", "sample")
    return {
        name: np.random.default_rng(np.random.SeedSequence([seed, i]))
        for i, name in enumerate(names)
    }


def checkpoint_tensors(nets: AgentNets) -> dict[str, np.ndarray]:
    out = {}
    for name in MLP_NAMES:
        out.update(nn.mlp_tensors(name, getattr(nets, name)))
    if nets.fourier is not None:
        out["fourier.B"] = nets.fourier.B
    return out


def train(env_cfg: EnvConfig, cfg: AgentConfig, episodes: int,
          seed: int) -> tuple[TrainStats, AgentNets]:
    """Full training loop of one seed; deterministic given (env_cfg, cfg,
    episodes, seed).

    The env and the networks draw from ``seed_streams(seed)``.  On divergence
    the loop stops, sets ``divergence_note`` (that episode's row has NaN
    means), and returns the last end-of-episode networks.
    """
    streams = seed_streams(seed)
    env = IrsEnv(env_cfg, streams["channel"], streams["motion"])
    sdim = state_dim(env_cfg)
    m = env_cfg.m
    nets = AgentNets.init(sdim, m, cfg, streams["init"], streams["fourier"])
    opts = (nn.Adam.for_mlp(nets.critic1, cfg.lr), nn.Adam.for_mlp(nets.critic2, cfg.lr))
    actor_opt = nn.Adam.for_mlp(nets.actor, cfg.lr)
    buffer = ReplayBuffer(cfg.buffer, sdim, m)

    stats = TrainStats()
    sigma = cfg.expl_sigma0
    global_step = 0
    last_good = nets.copy()

    if nets.critic1.params.size >= TWIN_MIN_PARAMS and _cpus() >= 2:
        # imported here: the import takes about 5 ms, which runs that never
        # start the worker (desk) should not pay
        from concurrent.futures import ThreadPoolExecutor
        worker = ThreadPoolExecutor(1, thread_name_prefix="irsrl-twin-critic")
    else:
        from contextlib import nullcontext
        worker = nullcontext()  # enters as pool=None: both halves run here
    with worker as pool:
        for ep in range(episodes):
            t0 = time.perf_counter()
            state = env.reset()
            rewards, closses, aobjs = [], [], []
            try:
                for _ in range(env_cfg.episode_len):
                    warmup = global_step < cfg.warmup_steps
                    action = select_action(nets, state, sigma, m,
                                           streams["exploration"], warmup=warmup)
                    next_state, reward = env.step(action)
                    rewards.append(env.prev_reward_db)
                    buffer.push(state, action, cfg.reward_scale * reward, next_state)
                    state = next_state
                    global_step += 1
                    if not warmup and buffer.size >= cfg.batch:
                        batch = buffer.sample(cfg.batch, streams["sample"])
                        l1, l2 = update_critics(nets, batch, opts, cfg.gamma, pool)
                        aobj = update_actor(nets, batch[0], actor_opt, cfg.act_reg,
                                            pool)
                        polyak_all(nets, cfg.tau, pool)
                        closses.append(0.5 * (l1 + l2))
                        aobjs.append(aobj)
            except nn.NonFiniteError as e:
                stats.divergence_note = f"episode {ep}: {e}"
                rewards = closses = aobjs = []  # its means are NaN

            stats.rows.append(EpisodeStats(
                episode=ep,
                mean_reward_db=float(np.mean(rewards)) if rewards else float("nan"),
                critic_loss=float(np.mean(closses)) if closses else float("nan"),
                actor_objective=float(np.mean(aobjs)) if aobjs else float("nan"),
                sigma=sigma,
                wall_s=time.perf_counter() - t0,
            ))
            if stats.divergence_note:
                return stats, last_good
            sigma *= cfg.expl_decay
            last_good = nets.copy()
    return stats, nets
