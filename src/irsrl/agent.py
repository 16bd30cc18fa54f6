"""Twin-critic DDPG for the IRS phase-control MDP.

Three main networks (actor, two critics) plus Polyak-tracked targets.  The
critics are trained independently (separate parameters and optimizers) but
both bootstrap from the shared clipped target
r + gamma * min(Q'_1, Q'_2)(s', pi'(s')), as in TD3 but without target-policy
smoothing; the minimum of the two main critics drives the policy update.
When the Fourier critic is enabled, the state-action vector is mapped through
one shared random Fourier kernel before the critic MLPs.

The task is continuing (episodes are time limits only), so the bootstrap is
never terminal-masked.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import nn
from .env import IrsEnv, Transition, state_dim

CRITIC_INPUTS = ("raw", "fourier")


@dataclass
class AgentConfig:
    gamma: float = 0.99
    tau: float = 0.005
    batch: int = 64
    lr: float = 2e-4                # actor and critics
    hidden: int = 400
    n_hidden_layers: int = 3
    buffer_capacity: int = 1_000_000
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
        for name in ("batch", "hidden", "n_hidden_layers", "buffer_capacity",
                     "k_fourier"):
            if not getattr(self, name) >= 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)!r}")
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

    def push(self, tr: Transition) -> None:
        i = self.count % self.capacity
        self.states[i] = tr.state
        self.actions[i] = tr.action
        self.rewards[i] = tr.reward
        self.next_states[i] = tr.next_state
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
        return cls(actor=actor, critic1=c1, critic2=c2,
                   target_actor=actor.copy(), target_critic1=c1.copy(),
                   target_critic2=c2.copy(), fourier=fourier)

    def copy(self) -> "AgentNets":
        return AgentNets(self.actor.copy(), self.critic1.copy(), self.critic2.copy(),
                         self.target_actor.copy(), self.target_critic1.copy(),
                         self.target_critic2.copy(), self.fourier)

    def critic_forward(self, critic: nn.MLP, s: np.ndarray, a: np.ndarray):
        """Q(s, a) with caches for backprop down to the action slice."""
        x = np.concatenate([s, a], axis=-1)
        fcache = None
        if self.fourier is not None:
            x, fcache = self.fourier.features(x)
        q, cache = critic.forward(x)
        return q[..., 0], (cache, fcache)

    def critic_backward(self, critic: nn.MLP, caches, q_grad: np.ndarray):
        """Returns (param grads, gradient wrt the raw (s, a) input)."""
        cache, fcache = caches
        grads, gin = critic.backward(cache, q_grad[..., None])
        if self.fourier is not None:
            gin = self.fourier.backward(fcache, gin)
        return grads, gin


def select_action(nets: AgentNets, state: np.ndarray, sigma: float,
                  action_dim: int, rng: np.random.Generator,
                  warmup: bool = False) -> np.ndarray:
    """Exploratory action: uniform during warmup, else clamped Gaussian noise
    around the deterministic actor output."""
    if warmup:
        return rng.uniform(-np.pi, np.pi, size=action_dim)
    a, _ = nets.actor.forward(state.astype(np.float32))
    if sigma > 0:
        a = a + sigma * rng.standard_normal(action_dim)
    return np.clip(a, -np.pi, np.pi)


def critic_target(nets: AgentNets, rewards: np.ndarray, next_states: np.ndarray,
                  gamma: float) -> np.ndarray:
    """The shared clipped target r + gamma * min(Q'_1, Q'_2)(s', pi'(s')) that
    both critics regress toward; no terminal masking (continuing task)."""
    a_next, _ = nets.target_actor.forward(next_states)
    q1, _ = nets.critic_forward(nets.target_critic1, next_states, a_next)
    q2, _ = nets.critic_forward(nets.target_critic2, next_states, a_next)
    y = rewards + gamma * np.minimum(q1, q2)
    if not np.all(np.isfinite(y)):
        raise nn.NonFiniteError("non-finite critic target")
    return y


def update_critics(nets: AgentNets, batch, opts: tuple[nn.Adam, nn.Adam],
                   gamma: float) -> tuple[float, float]:
    """One Adam step per critic on the mean squared Bellman error."""
    s, a, r, s2 = batch
    y = critic_target(nets, r, s2, gamma)
    losses = []
    for critic, opt in ((nets.critic1, opts[0]), (nets.critic2, opts[1])):
        q, caches = nets.critic_forward(critic, s, a)
        err = q - y
        loss = float(np.mean(err**2))
        if not np.isfinite(loss):
            raise nn.NonFiniteError("non-finite critic loss")
        grads, _ = nets.critic_backward(critic, caches, 2.0 * err / err.shape[0])
        opt.step(critic, grads)
        losses.append(loss)
    return losses[0], losses[1]


def update_actor(nets: AgentNets, states: np.ndarray, opt: nn.Adam,
                 act_reg: float = 0.0) -> float:
    """One Adam ascent step on mean_batch min(Q1, Q2)(s, pi(s)) - act_reg * ||pi(s)||^2.

    The gradient flows through the action slice of the critic input (and the
    Fourier map when enabled) into the actor; ascent is implemented as
    descent on the negated objective.
    """
    a, acache = nets.actor.forward(states)
    q1, c1 = nets.critic_forward(nets.critic1, states, a)
    q2, c2 = nets.critic_forward(nets.critic2, states, a)
    objective = float(np.mean(np.minimum(q1, q2)))
    if not np.isfinite(objective):
        raise nn.NonFiniteError("non-finite actor objective")
    b = states.shape[0]
    pick1 = (q1 <= q2).astype(np.float32)
    _, gin1 = nets.critic_backward(nets.critic1, c1, pick1 / b)
    _, gin2 = nets.critic_backward(nets.critic2, c2, (1.0 - pick1) / b)
    d = states.shape[1]
    grad_a = gin1[:, d:] + gin2[:, d:]
    if act_reg > 0.0:
        # penalty keeps the delta-action policy away from tanh saturation;
        # it is zero at the fixed point a = 0 of a converged tracking policy
        grad_a = grad_a - (2.0 * act_reg / states.shape[0]) * a
        objective -= act_reg * float(np.mean(np.sum(a * a, axis=1)))
    agrads, _ = nets.actor.backward(acache, -grad_a)  # negate: ascent
    opt.step(nets.actor, agrads)
    return objective


def polyak_all(nets: AgentNets, tau: float) -> None:
    nn.polyak_update(nets.target_actor, nets.actor, tau)
    nn.polyak_update(nets.target_critic1, nets.critic1, tau)
    nn.polyak_update(nets.target_critic2, nets.critic2, tau)


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
    diverged: bool = False
    divergence_note: str = ""


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
    out.update(nn.mlp_tensors("actor", nets.actor))
    out.update(nn.mlp_tensors("critic1", nets.critic1))
    out.update(nn.mlp_tensors("critic2", nets.critic2))
    out.update(nn.mlp_tensors("target_actor", nets.target_actor))
    out.update(nn.mlp_tensors("target_critic1", nets.target_critic1))
    out.update(nn.mlp_tensors("target_critic2", nets.target_critic2))
    if nets.fourier is not None:
        out["fourier.B"] = nets.fourier.B
    return out


def train(env: IrsEnv, cfg: AgentConfig, episodes: int,
          streams: dict[str, np.random.Generator]) -> tuple[TrainStats, AgentNets]:
    """Full training loop; deterministic given (env config, cfg, streams).

    ``streams`` is ``seed_streams(seed)`` for the seed whose "channel" and
    "motion" streams ``env`` was built on.  On divergence the loop stops,
    flags the stats, and returns the last end-of-episode networks.
    """
    sdim = state_dim(env.cfg)
    m = env.cfg.m
    nets = AgentNets.init(sdim, m, cfg, streams["init"], streams["fourier"])
    opts = (nn.Adam.for_mlp(nets.critic1, cfg.lr), nn.Adam.for_mlp(nets.critic2, cfg.lr))
    actor_opt = nn.Adam.for_mlp(nets.actor, cfg.lr)
    buffer = ReplayBuffer(cfg.buffer_capacity, sdim, m)

    stats = TrainStats()
    sigma = cfg.expl_sigma0
    global_step = 0
    last_good = nets.copy()

    for ep in range(episodes):
        t0 = time.perf_counter()
        state = env.reset()
        rewards, closses, aobjs = [], [], []
        try:
            for _ in range(env.cfg.episode_len):
                warmup = global_step < cfg.warmup_steps
                action = select_action(nets, state, sigma, m,
                                       streams["exploration"], warmup=warmup)
                next_state, reward = env.step(action)
                rewards.append(env.prev_reward_db)
                buffer.push(Transition(state, action, cfg.reward_scale * reward,
                                       next_state))
                state = next_state
                global_step += 1
                if not warmup and buffer.size >= cfg.batch:
                    batch = buffer.sample(cfg.batch, streams["sample"])
                    l1, l2 = update_critics(nets, batch, opts, cfg.gamma)
                    aobj = update_actor(nets, batch[0], actor_opt, cfg.act_reg)
                    polyak_all(nets, cfg.tau)
                    closses.append(0.5 * (l1 + l2))
                    aobjs.append(aobj)
        except nn.NonFiniteError as e:
            stats.diverged = True
            stats.divergence_note = f"episode {ep}: {e}"
            stats.rows.append(EpisodeStats(
                episode=ep, mean_reward_db=float("nan"),
                critic_loss=float("nan"), actor_objective=float("nan"),
                sigma=sigma, wall_s=time.perf_counter() - t0))
            return stats, last_good

        stats.rows.append(EpisodeStats(
            episode=ep,
            mean_reward_db=float(np.mean(rewards)),
            critic_loss=float(np.mean(closses)) if closses else float("nan"),
            actor_objective=float(np.mean(aobjs)) if aobjs else float("nan"),
            sigma=sigma,
            wall_s=time.perf_counter() - t0,
        ))
        sigma *= cfg.expl_decay
        last_good = nets.copy()

    return stats, nets
