"""Experiment configuration: JSON load, presets, validation, env overrides.

Two presets: "paper" reproduces the published parameter block verbatim
(M=20, N=5, W=5, 50 episodes x 300 steps, 10 seeds, 400-wide nets, k=256,
drifting channel); "desk" is a CI-scale variant (M=8, N=3, hidden 128, k=64,
30 episodes x 200 steps, 3 seeds) that runs in minutes per seed on one CPU
core.  The desk channel is statics-only (frozen shadowing and phases,
multipath noise kept) so that a position-conditional optimum exists within
the small step budget; the desk optimizer block is tuned accordingly.

Any config key can be overridden by an environment variable IRSRL_<KEY>
(value parsed as JSON, falling back to a bare string).

Each key is validated once, in the ``__post_init__`` of the dataclass that
owns it; ``resolve`` builds every component config, so a bad value is a
``ConfigError`` before any run starts.
"""

from __future__ import annotations

import dataclasses
import json
import os
from dataclasses import dataclass, field

import numpy as np

from .channel import ChannelParams, Geometry
from .env import EnvConfig
from .agent import AgentConfig

VARIANTS = ("base", "snr-state", "ff")
PRESETS = ("paper", "desk")

ENV_PREFIX = "IRSRL_"


class ConfigError(Exception):
    """Invalid, malformed, or missing configuration; names the offending key."""


@dataclass
class ExperimentConfig:
    """Every config key.  A key that shares its name with a field of
    ``ChannelParams``, ``Geometry``, ``EnvConfig`` or ``AgentConfig`` feeds
    that field and is validated there; only the keys below that no component
    owns are checked here."""

    preset: str = "desk"
    variant: str = "ff"
    seeds: list[int] = field(default_factory=lambda: [0, 1, 2])
    episodes: int = 30
    episode_len: int = 200
    out_dir: str = "runs"
    # environment
    m: int = 8
    n: int = 3
    w: int = 5
    persistent_channel: bool = True
    # channel (desk default: static shadowing/phases, multipath noise only,
    # so a position-conditional optimum exists within the small step budget)
    pathloss_exp: float = 2.3
    multipath_std: float = 0.6
    shadow_power: float = 6.0
    corr_distance: float = 1.2
    corr_time: float = 1e9
    phase_drift: float = 0.0
    noise_var: float = 0.5
    tx_power_dbm: float = 65.0
    # geometry (None = module defaults)
    source_pos: list[float] | None = None
    irs_pos: list[float] | None = None
    dest_cells: list[list[float]] | None = None
    cube_side: float = 20.0
    cell_side: float = 1.0
    # agent
    gamma: float = 0.9
    tau: float = 0.005
    batch: int = 64
    lr: float = 1e-3
    hidden: int = 128
    n_hidden_layers: int = 3
    buffer: int = 5000
    expl_sigma0: float = 0.1 * np.pi
    expl_decay: float = 0.9
    warmup_steps: int = 300
    sigma_b2: float = 0.01
    k_fourier: int = 64
    reward_scale: float = 0.05
    act_reg: float = 0.05

    def __post_init__(self):
        if self.preset not in PRESETS:
            raise ValueError(f"preset must be one of {PRESETS}, got {self.preset!r}")
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if not isinstance(self.seeds, list) or not self.seeds:
            raise ValueError(f"seeds must be a nonempty list, got {self.seeds!r}")
        if not self.episodes >= 1:
            raise ValueError(f"episodes must be >= 1, got {self.episodes!r}")


_PAPER_OVERRIDES = dict(
    preset="paper",
    seeds=list(range(10)),
    episodes=50,
    episode_len=300,
    m=20,
    n=5,
    w=5,
    hidden=400,
    k_fourier=256,
    corr_time=5.0,
    phase_drift=0.2,
    gamma=0.99,
    lr=2e-4,
    buffer=1_000_000,
    expl_decay=0.999,
    warmup_steps=1000,
    reward_scale=1.0,
)

_FIELDS = {f.name for f in dataclasses.fields(ExperimentConfig)}
_NUMERIC = {f.name for f in dataclasses.fields(ExperimentConfig)
            if f.type in ("int", "float")}


def resolve(overrides: dict, use_env: bool = True) -> ExperimentConfig:
    """Preset defaults -> file overrides -> IRSRL_* environment overrides."""
    if not isinstance(overrides, dict):
        raise ConfigError("config root must be a JSON object")
    unknown = set(overrides) - _FIELDS
    if unknown:
        raise ConfigError(f"unknown config key(s): {', '.join(sorted(unknown))}")

    merged: dict = {}
    if overrides.get("preset", "desk") == "paper":
        merged.update(_PAPER_OVERRIDES)
    merged.update(overrides)

    if use_env:
        for key in _FIELDS:
            raw = os.environ.get(ENV_PREFIX + key.upper())
            if raw is not None:
                try:
                    merged[key] = json.loads(raw)
                except json.JSONDecodeError:
                    merged[key] = raw

    try:
        cfg = ExperimentConfig(**merged)
        env_config(cfg)
        agent_config(cfg)
    except ValueError as e:
        raise ConfigError(str(e)) from None
    except TypeError as e:  # a range check met a non-numeric value
        bad = sorted(k for k in _NUMERIC if not isinstance(merged.get(k, 0), (int, float)))
        raise ConfigError(f"{', '.join(bad) or 'a key'} must be a number: {e}") from None
    return cfg


def load_config(path, use_env: bool = True) -> ExperimentConfig:
    try:
        with open(path) as f:
            raw = json.load(f)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as e:
        raise ConfigError(f"malformed JSON in {path}: {e}")
    return resolve(raw, use_env=use_env)


def to_dict(cfg: ExperimentConfig) -> dict:
    return dataclasses.asdict(cfg)


def save_config(cfg: ExperimentConfig, path) -> None:
    with open(path, "w") as f:
        json.dump(to_dict(cfg), f, indent=2, sort_keys=True)
        f.write("\n")


# -- adapters into the component configs ------------------------------------


def _from_fields(target, cfg: ExperimentConfig, **explicit):
    """``target(...)`` from every key of ``cfg`` named like one of its fields
    (a None key keeps the target's default); ``explicit`` values win."""
    shared = {f.name: getattr(cfg, f.name) for f in dataclasses.fields(target)
              if f.name in _FIELDS and getattr(cfg, f.name) is not None}
    return target(**{**shared, **explicit})


def env_config(cfg: ExperimentConfig, variant: str | None = None) -> EnvConfig:
    variant = variant or cfg.variant
    return _from_fields(
        EnvConfig, cfg,
        variant="snr_state" if variant == "snr-state" else "base",
        params=_from_fields(ChannelParams, cfg),
        geometry=_from_fields(Geometry, cfg),
    )


def agent_config(cfg: ExperimentConfig, variant: str | None = None) -> AgentConfig:
    variant = variant or cfg.variant
    return _from_fields(
        AgentConfig, cfg,
        buffer_capacity=cfg.buffer,
        critic_input="fourier" if variant == "ff" else "raw",
    )
