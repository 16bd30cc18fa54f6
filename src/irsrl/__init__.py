"""IRS phase-shift control in spatiotemporally correlated MISO channels.

Modules:
  channel   - correlated shadowing / phase-drift channel simulator, geometry
  signal    - SNR computation, maximum-ratio beamforming, phase-design oracles
  env       - the windowed-state MDP wrapping the simulator
  nn        - from-scratch MLP, Adam, Fourier features, checkpoints
  agent     - twin-critic DDPG training loop and replay buffer
  config    - experiment config: presets, JSON and IRSRL_* overrides, validation
  harness   - multi-seed runs, metrics, sweeps, the oracle verification suite
  plotting  - metrics CSV reader and SVG training curves
  cli       - the ``irsrl`` command (train, compare, plot, oracle-check)
  __main__  - ``python -m irsrl``, the same command
"""

__version__ = "0.1.0"
