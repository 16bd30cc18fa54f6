"""Twin-critic DDPG for the IRS phase-control MDP.

Three main networks (actor, two critics) plus Polyak-tracked targets.  The
critics are trained independently (separate parameters and optimizers) but
both bootstrap from the shared clipped target
r + gamma * min(Q'_1, Q'_2)(s', pi'(s')), as in TD3 but without target-policy
smoothing; the minimum of the two main critics drives the policy update.
When the Fourier critic is enabled, the state-action vector is mapped through
one shared random Fourier kernel before the critic MLPs.

``learner_step`` runs one update in stages of two halves each (``_twin``):
the first half on the calling thread, the second on a worker thread that
``train`` starts and joins.  By stage, calling thread | worker:
  1. target actor on s', the target and batch critic inputs | actor on s and
     its critic input (the actor does not move until stage 6);
  2-4. target critic1, critic1's step, critic1's forward and input gradient
     at (s, pi(s)) | the same for critic2;
  5. the actor's backward | Polyak averages of both critics' targets;
  6. Adam step and target average of the first half of the actor's flat
     parameters | of the second half.
The halves run the same array operations as one thread would, so results
are byte-identical either way.  Critics smaller than ``TWIN_MIN_PARAMS``
parameters, and processes allowed on one CPU only, run both halves on the
calling thread, in order, where the hand-off would cost more than the
second core saves.

The task is continuing (episodes are time limits only), so the bootstrap is
never terminal-masked.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field

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
    act_reg: float = 0.05           # actor penalty weight on mean ||a||^2

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


def allowed_cpus() -> list[int]:
    """The CPUs this process may run on, in order; every CPU on a platform
    without an affinity call."""
    try:
        return sorted(os.sched_getaffinity(0))
    except AttributeError:
        return list(range(os.cpu_count() or 1))


def _twin(pool, first, second):
    """(f1(*args1), f2(*args2)) for first = (f1, *args1) and second = (f2, *args2):
    the two halves of one stage of a learner step.

    With a one-thread ``pool`` the second half runs on its worker while this
    thread runs the first; with None the halves run here, in order.  An
    exception from either half is raised only after both halves have
    finished, the first half's if both raise.
    """
    (f1, *args1), (f2, *args2) = first, second
    if pool is None:
        return f1(*args1), f2(*args2)
    later = pool.submit(f2, *args2)
    try:
        result = f1(*args1)
    except BaseException:
        later.exception()  # waits for the second half
        raise
    return result, later.result()


def select_action(nets: AgentNets, state: np.ndarray, sigma: float,
                  action_dim: int, rng: np.random.Generator,
                  warmup: bool = False) -> np.ndarray:
    """Exploratory action: uniform during warmup, else clamped Gaussian noise
    around the deterministic actor output.  A non-finite actor output (the
    actor's parameters overflowed) is a NonFiniteError."""
    if warmup:
        return rng.uniform(-np.pi, np.pi, size=action_dim)
    a = nets.actor.forward(state[None].astype(np.float32))[0][0]  # a one-row batch
    if not np.isfinite(a).all():
        raise nn.NonFiniteError("non-finite action")
    if sigma > 0:
        a = a + sigma * rng.standard_normal(action_dim)
    return np.minimum(np.maximum(a, -np.pi), np.pi)


def _target_inputs(nets: AgentNets, s: np.ndarray, a: np.ndarray, s2: np.ndarray):
    """(x2, x): the target critics' input (with its Fourier cache) for
    (s', pi'(s')), and the critics' input for the batch's (s, a)."""
    a2, _ = nets.target_actor.forward(s2)
    return nets.critic_input(s2, a2), nets.critic_input(s, a)[0]


def _policy_input(nets: AgentNets, s: np.ndarray):
    """(a, actor cache, x, Fourier cache): the actor's actions on s and the
    critics' input for (s, a)."""
    a, acache = nets.actor.forward(s)
    return (a, acache) + nets.critic_input(s, a)


def critic_target(nets: AgentNets, rewards: np.ndarray, x2, gamma: float,
                  pool=None) -> np.ndarray:
    """The shared clipped target r + gamma * min(Q'_1, Q'_2)(s', pi'(s')) that
    both critics regress toward, from the target critics' input ``x2`` (see
    ``_target_inputs``); no terminal masking (continuing task)."""
    (q1, _), (q2, _) = _twin(pool, (_critic_q, nets.target_critic1, *x2),
                             (_critic_q, nets.target_critic2, *x2))
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


def update_critics(nets: AgentNets, x: np.ndarray, y: np.ndarray,
                   opts: tuple[nn.Adam, nn.Adam], pool=None) -> tuple[float, float]:
    """One Adam step per critic on the mean squared Bellman error of its
    input x toward the target y."""
    return _twin(pool, (_critic_step, nets.critic1, opts[0], x, y),
                 (_critic_step, nets.critic2, opts[1], x, y))


def update_actor(nets: AgentNets, pi, act_reg: float = 0.0,
                 pool=None) -> tuple[float, np.ndarray]:
    """The actor's objective mean_batch min(Q1, Q2)(s, pi(s)) - act_reg * ||pi(s)||^2
    and its ascent gradient with respect to the actions, along which
    ``polyak_all`` steps the actor.

    ``pi`` is ``_policy_input`` of the batch's states.  The gradient flows
    through the action slice of the critic input (and the Fourier map when
    enabled).
    """
    a, _, x, fcache = pi
    (q1, c1), (q2, c2) = _twin(pool, (_critic_q, nets.critic1, x, fcache),
                               (_critic_q, nets.critic2, x, fcache))
    objective = float(np.mean(np.minimum(q1, q2)))
    if not np.isfinite(objective):
        raise nn.NonFiniteError("non-finite actor objective")
    b, m = a.shape
    pick1 = (q1 <= q2).astype(np.float32)
    backward = nets.critic_backward
    (_, gin1), (_, gin2) = _twin(pool, (backward, nets.critic1, c1, pick1 / b, False),
                                 (backward, nets.critic2, c2, (1.0 - pick1) / b, False))
    grad_a = gin1[:, -m:] + gin2[:, -m:]
    if act_reg > 0.0:
        # penalty keeps the delta-action policy away from tanh saturation;
        # it is zero at the fixed point a = 0 of a converged tracking policy
        grad_a = grad_a - (2.0 * act_reg / b) * a
        objective -= act_reg * float(np.mean(np.sum(a * a, axis=1)))
    return objective, grad_a


def _polyak_critics(nets: AgentNets, tau: float) -> None:
    nn.polyak_update(nets.target_critic1, nets.critic1, tau)
    nn.polyak_update(nets.target_critic2, nets.critic2, tau)


def _actor_part(nets: AgentNets, opt: nn.Adam, agrad: np.ndarray, part: slice,
                tau: float) -> None:
    opt.step(nets.actor, agrad, part)
    nn.polyak_update(nets.target_actor, nets.actor, tau, part)


def polyak_all(nets: AgentNets, opt: nn.Adam, acache, grad_a: np.ndarray,
               tau: float, pool=None) -> None:
    """Step the actor along ``grad_a`` (see ``update_actor``) and
    Polyak-average every target network.

    This thread runs the actor's backward while the worker averages the
    critics' targets, which depend only on the critics just stepped.  Then
    each thread takes half of the actor's flat parameters: its Adam step,
    then its target's average.  The gradient is checked and counted once
    before either half writes, so a NonFiniteError moves no parameter.
    """
    # the backward of the negated objective: Adam descends
    (agrad, _), _ = _twin(pool, (nets.actor.backward, acache, -grad_a, True, False),
                          (_polyak_critics, nets, tau))
    opt.begin(agrad)
    half = agrad.size // 2
    _twin(pool, (_actor_part, nets, opt, agrad, slice(None, half), tau),
          (_actor_part, nets, opt, agrad, slice(half, None), tau))


def learner_step(nets: AgentNets, batch, opts: tuple[nn.Adam, nn.Adam],
                 actor_opt: nn.Adam, cfg: AgentConfig,
                 pool=None) -> tuple[float, float, float]:
    """One learner update on a replay batch, in the stages that the module
    docstring lists; returns (critic1 loss, critic2 loss, actor objective)."""
    s, a, r, s2 = batch
    (x2, x), pi = _twin(pool, (_target_inputs, nets, s, a, s2), (_policy_input, nets, s))
    y = critic_target(nets, r, x2, cfg.gamma, pool)
    l1, l2 = update_critics(nets, x, y, opts, pool)
    objective, grad_a = update_actor(nets, pi, cfg.act_reg, pool)
    polyak_all(nets, actor_opt, pi[1], grad_a, cfg.tau, pool)
    return l1, l2, objective


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

    if nets.critic1.params.size >= TWIN_MIN_PARAMS and len(allowed_cpus()) >= 2:
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
                        l1, l2, aobj = learner_step(nets, batch, opts, actor_opt,
                                                    cfg, pool)
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
            if ep + 1 < episodes:  # after the last one, train returns nets
                for name in MLP_NAMES:
                    np.copyto(getattr(last_good, name).params, getattr(nets, name).params)
    return stats, nets
