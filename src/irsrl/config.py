"""Experiment configuration: JSON load, presets, validation, env overrides.

Two presets: "paper" is this repo's paper-scale parameter block (M=20, N=5,
W=5, 50 episodes x 300 steps, 10 seeds, 400-wide nets, k=256, drifting
channel); "desk" is a CI-scale variant (M=8, N=3, hidden 128, k=64,
30 episodes x 200 steps, 3 seeds) that runs in minutes per seed on one CPU
core.  The desk channel is statics-only (frozen shadowing and phases,
multipath noise kept) so that a position-conditional optimum exists within
the small step budget; the desk optimizer block is tuned accordingly.
Either way each seed's env draws one channel and carries it across
episodes, which are time limits of a continuing task.

The desk preset is ``ExperimentConfig``'s own defaults.  The paper preset
is the defaults of ``ChannelParams``, ``EnvConfig`` and ``AgentConfig``,
plus its seeds and episode count (``_PAPER_OVERRIDES``).

Any config key can be overridden by an environment variable IRSRL_<KEY>
(value parsed as JSON, falling back to a bare string).

Each key is validated once, in the ``__post_init__`` of the dataclass that
owns it; ``ExperimentConfig`` builds every component config, so a bad value
is a ``ConfigError`` before any run starts.
"""

from __future__ import annotations

import dataclasses
import json
import numbers
import os
import sys
import types
import typing
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
    """Every config key, defaulting to the desk preset.  A key that shares
    its name with a field of ``ChannelParams``, ``Geometry``, ``EnvConfig``
    or ``AgentConfig`` feeds that field and its range is checked there, when
    construction builds the component configs.  Here every key's type is
    checked against its annotation, and the range of the keys that no
    component owns; any failure is a ``ConfigError``, also from
    ``dataclasses.replace``."""

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
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if not _conforms(value, _HINTS[f.name]):
                raise ConfigError(f"{f.name} must be {f.type}, got {value!r}")
        if self.preset not in PRESETS:
            raise ConfigError(f"preset must be one of {PRESETS}, got {self.preset!r}")
        if self.variant not in VARIANTS:
            raise ConfigError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        # a repeated seed would write its rows and checkpoint twice
        s = self.seeds
        if not s or min(s) < 0 or len(set(s)) < len(s):
            raise ConfigError(f"seeds must be a nonempty list of distinct integers "
                              f">= 0, got {s!r}")
        if not self.episodes >= 1:
            raise ConfigError(f"episodes must be >= 1, got {self.episodes!r}")
        try:
            env_config(self)
            agent_config(self)
        except ValueError as e:
            raise ConfigError(str(e)) from None


def _conforms(value, tp) -> bool:
    """isinstance for the annotations used above; an int is a valid float,
    a bool is not a number, and a float must be finite: JSON and the IRSRL_*
    values accept Infinity, NaN, 1e999 and integers beyond float range."""
    if typing.get_origin(tp) in (typing.Union, types.UnionType):
        return any(_conforms(value, arg) for arg in typing.get_args(tp))
    if typing.get_origin(tp) is list:
        (item,) = typing.get_args(tp)
        return isinstance(value, list) and all(_conforms(v, item) for v in value)
    if tp in (int, float):
        kind = numbers.Integral if tp is int else numbers.Real
        return (isinstance(value, kind) and not isinstance(value, bool)
                and (tp is int or abs(value) <= sys.float_info.max))
    return isinstance(value, tp)


_HINTS = typing.get_type_hints(ExperimentConfig)

_PAPER_OVERRIDES = dict(
    preset="paper", seeds=list(range(10)), episodes=50,
    **{f.name: f.default for owner in (ChannelParams, EnvConfig, AgentConfig)
       for f in dataclasses.fields(owner) if f.name in _HINTS})


def resolve(overrides: dict, use_env: bool = True) -> ExperimentConfig:
    """Preset defaults -> file overrides -> IRSRL_* environment overrides."""
    if not isinstance(overrides, dict):
        raise ConfigError("config root must be a JSON object")
    unknown = set(overrides) - _HINTS.keys()
    if unknown:
        raise ConfigError(f"unknown config key(s): {', '.join(sorted(unknown))}")

    merged = dict(overrides)
    if use_env:
        for key in _HINTS:
            raw = os.environ.get(ENV_PREFIX + key.upper())
            if raw is not None:
                try:
                    value = json.loads(raw)
                except json.JSONDecodeError:
                    value = raw
                if _HINTS[key] is str and not isinstance(value, str):
                    value = raw  # a string key keeps "123" as text
                merged[key] = value

    # the preset block sits under both override layers, so it is chosen by
    # their merged "preset" value
    if merged.get("preset", "desk") == "paper":
        merged = {**_PAPER_OVERRIDES, **merged}
    return ExperimentConfig(**merged)


def load_config(path) -> ExperimentConfig:
    try:
        with open(path, encoding="utf-8") as f:
            raw = json.load(f)
    except OSError as e:  # missing, a directory, unreadable
        raise ConfigError(f"cannot read config file {path}: {e.strerror}")
    except UnicodeDecodeError as e:
        raise ConfigError(f"config file {path} is not valid UTF-8: {e.reason} "
                          f"at byte {e.start}")
    except json.JSONDecodeError as e:
        raise ConfigError(f"malformed JSON in {path}: {e}")
    return resolve(raw)


# -- adapters into the component configs ------------------------------------


def _from_fields(target, cfg: ExperimentConfig, **explicit):
    """``target(...)`` from every key of ``cfg`` named like one of its fields
    (a None key keeps the target's default); ``explicit`` values win."""
    shared = {f.name: getattr(cfg, f.name) for f in dataclasses.fields(target)
              if f.name in _HINTS and getattr(cfg, f.name) is not None}
    return target(**{**shared, **explicit})


def env_config(cfg: ExperimentConfig) -> EnvConfig:
    return _from_fields(
        EnvConfig, cfg,
        snr_in_state=cfg.variant == "snr-state",
        params=_from_fields(ChannelParams, cfg),
        geometry=_from_fields(Geometry, cfg),
    )


def agent_config(cfg: ExperimentConfig) -> AgentConfig:
    return _from_fields(AgentConfig, cfg,
                        critic_input="fourier" if cfg.variant == "ff" else "raw")
