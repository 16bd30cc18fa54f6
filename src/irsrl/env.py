"""The IRS phase-control MDP.

State: current destination position followed by a window of W past
(position, phase-vector) pairs, positions normalized to [0, 1] per axis.
Action: per-element phase deltas in [-pi, pi]; the resulting phases are
clamped (saturated, not wrapped) to [-pi, pi].  Reward: the slot SNR in dB.

With ``snr_in_state`` (the "snr-state" variant) the state ends with the
previous slot's reward (dB, scaled by 1/100).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import channel as ch
from . import signal as sig


@dataclass
class EnvConfig:
    m: int = 20                       # IRS elements
    n: int = 5                        # source antennas
    w: int = 5                        # state window length
    episode_len: int = 300
    snr_in_state: bool = False
    params: ch.ChannelParams = field(default_factory=ch.ChannelParams)
    geometry: ch.Geometry = field(default_factory=ch.Geometry)

    def __post_init__(self):
        for name in ("m", "n", "w", "episode_len"):
            if not getattr(self, name) >= 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)!r}")


def state_dim(config: EnvConfig) -> int:
    """3 + W (3 + M), plus one trailing component with snr_in_state."""
    return 3 + config.w * (3 + config.m) + config.snr_in_state


def apply_action(theta_prev: np.ndarray, delta_theta: np.ndarray) -> np.ndarray:
    """theta <- clamp(theta_prev + delta, -pi, pi); saturating, not wrapping."""
    theta_prev = np.asarray(theta_prev, dtype=float)
    delta_theta = np.asarray(delta_theta, dtype=float)
    if theta_prev.shape != delta_theta.shape:
        raise ValueError("theta_prev and delta_theta must have equal shape")
    return np.minimum(np.maximum(theta_prev + delta_theta, -np.pi), np.pi)


def move_destination(
    geometry: ch.Geometry, cell_index: int, rng: np.random.Generator
) -> int:
    """Uniform choice among the current cell and its edge-adjacent cells."""
    options = geometry.moves[cell_index]
    return int(options[rng.integers(len(options))])


class IrsEnv:
    """Single-threaded environment instance over injected RNG streams.

    ``rng_channel`` drives shadowing/phase/multipath draws and ``rng_motion``
    the destination's random walk, so channel realizations are identical
    across agent variants that share the same seed.  The state is one
    vector whose window, a (W, 3 + M) view, shifts in place each slot.
    """

    def __init__(
        self,
        config: EnvConfig,
        rng_channel: np.random.Generator,
        rng_motion: np.random.Generator,
    ):
        self.cfg = config
        self.rng_channel = rng_channel
        self.rng_motion = rng_motion
        self._shadowing = ch.init_shadowing(config.geometry, config.params, rng_channel)
        self._phases = ch.init_phases(config.geometry, config.m, config.n, rng_channel)
        self.t = 0
        self.done = True
        self.last_snapshot: ch.ChannelSnapshot | None = None

    # -- helpers ----------------------------------------------------------

    def _assemble_state(self) -> np.ndarray:
        s = self._state
        s[:3] = self.cfg.geometry.norm_pos[self.cell]
        if self.cfg.snr_in_state:
            s[-1] = self.prev_reward_db / 100.0
        return s.copy()

    def _reward_db(self, snapshot: ch.ChannelSnapshot) -> float:
        p = self.cfg.params
        return sig.snr_db(
            sig.snr(snapshot.h, self.theta, snapshot.G, p.tx_power_linear, p.noise_var)
        )

    # -- lifecycle --------------------------------------------------------

    def reset(self) -> np.ndarray:
        cfg = self.cfg
        self.t = 0
        self.done = False
        self.theta = np.zeros(cfg.m)
        self.cell = int(self.rng_motion.integers(cfg.geometry.num_cells))
        # Window padded by replicating the initial position with zero phases.
        self._state = np.zeros(state_dim(cfg))
        self._window = self._state[3:3 + cfg.w * (3 + cfg.m)].reshape(cfg.w, 3 + cfg.m)
        self._window[:, :3] = cfg.geometry.norm_pos[self.cell]
        snap = ch.sample_channels(
            self.cell, self._shadowing, self._phases, cfg.geometry, cfg.params,
            self.rng_channel,
        )
        self.last_snapshot = snap
        self.prev_reward_db = self._reward_db(snap)
        return self._assemble_state()

    def step(self, action: np.ndarray) -> tuple[np.ndarray, float]:
        if self.done:
            raise RuntimeError("step() called on a finished episode; call reset()")
        cfg = self.cfg
        action = np.asarray(action, dtype=float)
        if action.shape != (cfg.m,):
            raise ValueError(f"action must have shape ({cfg.m},)")
        if not np.isfinite(action).all():
            raise ValueError("action must be finite")

        # 1) advance channel processes
        self._shadowing = ch.step_shadowing(self._shadowing, cfg.params, self.rng_channel)
        self._phases = ch.step_phases(self._phases, cfg.params, self.rng_channel)
        # 2) apply phase deltas
        prev_cell = self.cell
        self.theta = apply_action(self.theta, action)
        # 3) channel realization at the current cell
        snap = ch.sample_channels(
            self.cell, self._shadowing, self._phases, cfg.geometry, cfg.params,
            self.rng_channel,
        )
        self.last_snapshot = snap
        # 4) reward
        reward = self._reward_db(snap)
        # 5) destination moves
        self.cell = move_destination(cfg.geometry, self.cell, self.rng_motion)
        # 6) window shift (exact FIFO, newest entry first)
        self._window[1:] = self._window[:-1]
        self._window[0, :3] = cfg.geometry.norm_pos[prev_cell]
        self._window[0, 3:] = self.theta
        self.prev_reward_db = reward
        # 7) assemble
        state = self._assemble_state()
        self.t += 1
        if self.t >= cfg.episode_len:
            self.done = True
        return state, float(reward)
