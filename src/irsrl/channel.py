"""Spatiotemporally correlated channel simulator.

The log-magnitude (dB) of every channel coefficient is the sum of three
components: distance pathloss, slow shadowing (zero-mean Gaussian, correlated
in space and time), and fast multipath (i.i.d. zero-mean Gaussian per element
per slot).  Shadowing follows a separable exponential covariance

    C((x, t), (x', t')) = eta2 * exp(-||x - x'|| / c1) * exp(-|t - t'| / c2)

realized as a spatially correlated AR(1) process over the candidate
destination cells.  Channel phases evolve as a wrapped-Gaussian random walk,
maintained per destination cell for the reflect link.

All randomness comes from injected ``numpy.random.Generator`` instances; the
module keeps no global state.  ``dest_values`` / ``h_phases`` accept leading
batch dimensions, so many independent chains can be stepped at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

TWO_PI = 2.0 * np.pi

# Distances below this floor are clamped before the pathloss law (avoids the
# log singularity at d = 0).
D_MIN = 0.5
# Side of the cube [0, CUBE_SIDE]^3 (meters) that holds every node; positions
# in the state are normalized by it.
CUBE_SIDE = 20.0


@dataclass
class ChannelParams:
    """Physical parameters of the three-component channel model."""

    pathloss_exp: float = 2.3       # unitless
    multipath_std: float = 0.6      # dB
    shadow_power: float = 6.0       # dB^2 (variance of the shadowing)
    corr_distance: float = 1.2      # meters
    corr_time: float = 5.0          # slots
    phase_drift: float = 0.2        # rad / slot
    noise_var: float = 0.5          # linear power
    tx_power_dbm: float = 65.0      # dBm

    def __post_init__(self):
        for name in ("pathloss_exp", "corr_distance", "corr_time", "noise_var"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)!r}")
        for name in ("multipath_std", "shadow_power", "phase_drift"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)!r}")
        try:
            usable = self.tx_power_linear > 0
        except OverflowError:
            usable = False
        if not usable:
            raise ValueError(f"tx_power_dbm must be a level whose power "
                             f"10 ** (dBm / 10) mW is finite and > 0, "
                             f"got {self.tx_power_dbm!r}")

    @property
    def tx_power_linear(self) -> float:
        """Transmit power budget in linear milliwatts."""
        return 10.0 ** (self.tx_power_dbm / 10.0)


def _default_dest_cells() -> np.ndarray:
    # 2 x 2 x 1 block of unit cells, centers 1 m apart.
    return np.array(
        [
            [14.5, 14.5, 0.5],
            [15.5, 14.5, 0.5],
            [14.5, 15.5, 0.5],
            [15.5, 15.5, 0.5],
        ]
    )


@dataclass
class Geometry:
    """Fixed node positions and the destination's candidate cells (meters).
    Construction builds the per-cell tables each slot reads; do not mutate."""

    source_pos: np.ndarray = field(default_factory=lambda: np.array([1.0, 10.0, 2.0]))
    irs_pos: np.ndarray = field(default_factory=lambda: np.array([10.0, 2.0, 3.0]))
    dest_cells: np.ndarray = field(default_factory=_default_dest_cells)

    def __post_init__(self):
        self.source_pos = np.asarray(self.source_pos, dtype=float)
        self.irs_pos = np.asarray(self.irs_pos, dtype=float)
        self.dest_cells = np.atleast_2d(np.asarray(self.dest_cells, dtype=float))
        if self.dest_cells.shape[0] < 1 or self.dest_cells.shape[1] != 3:
            raise ValueError("dest_cells must be a nonempty (n, 3) array")
        for name, p in (("source_pos", self.source_pos), ("irs_pos", self.irs_pos)):
            if p.shape != (3,):
                raise ValueError(f"{name} must be a 3-vector")
            if not np.all((p >= 0) & (p <= CUBE_SIDE)):
                raise ValueError(f"{name} lies outside the cube")
        if not np.all((self.dest_cells >= 0) & (self.dest_cells <= CUBE_SIDE)):
            raise ValueError("dest_cells lie outside the cube")
        # scalar norms, as the per-slot formula took: a vectorized norm may
        # differ in the last bit
        self.src_irs_dist = np.linalg.norm(self.source_pos - self.irs_pos)
        self.irs_dest_dist = [np.linalg.norm(self.irs_pos - c) for c in self.dest_cells]
        if not min(self.src_irs_dist, *self.irs_dest_dist) > 0:
            raise ValueError("irs_pos coincides with source_pos or a dest_cells row")
        # a cell moves to itself or to a cell one grid step away along one
        # axis; the step is the smallest gap between two cells that differ in
        # exactly one coordinate (a single cell has no step and stays)
        diffs = self.dest_cells[:, None] - self.dest_cells
        dist = np.linalg.norm(diffs, axis=2)
        one_axis = np.sum(np.abs(diffs) > 1e-9, axis=2) == 1
        step = np.min(dist[one_axis], initial=np.inf)
        adjacent = one_axis & (np.abs(dist - step) < 1e-9)
        self.moves = [[i] + np.flatnonzero(a).tolist() for i, a in enumerate(adjacent)]
        self.norm_pos = self.dest_cells / CUBE_SIDE
        self._pathloss: dict[float, tuple[list[float], float]] = {}

    @property
    def num_cells(self) -> int:
        return self.dest_cells.shape[0]

    def link_pathloss_db(self, l: float) -> tuple[list[float], float]:
        """Per-cell IRS-destination and source-IRS pathloss (dB), once per l."""
        if l not in self._pathloss:
            self._pathloss[l] = ([pathloss_db(d, l) for d in self.irs_dest_dist],
                                 pathloss_db(self.src_irs_dist, l))
        return self._pathloss[l]


@dataclass
class ShadowingState:
    """AR(1) state of the shadowing process (dB)."""

    dest_values: np.ndarray     # (..., num_cells), per candidate cell
    src_irs_value: np.ndarray   # (...,) scalar per chain
    spatial_chol: np.ndarray    # (num_cells, num_cells) lower triangular
    ar_coeff: float             # exp(-1 / c2)


@dataclass
class PhaseState:
    """Channel phases (rad, wrapped into [0, 2pi))."""

    h_phases: np.ndarray   # (..., num_cells, M)
    g_phases: np.ndarray   # (..., M, N)


@dataclass
class ChannelSnapshot:
    """One slot's channel realization."""

    h: np.ndarray   # complex (M,)
    G: np.ndarray   # complex (M, N)


def pathloss_db(d, l: float = 2.3):
    """Distance pathloss -10 * l * log10(d) in dB, with d clamped at D_MIN."""
    d = np.asarray(d, dtype=float)
    if not np.all(np.isfinite(d)) or np.any(d <= 0):
        raise ValueError("distance must be finite and > 0")
    out = -10.0 * l * np.log10(np.maximum(d, D_MIN))
    return float(out) if out.ndim == 0 else out


def spatial_covariance(cells: np.ndarray, params: ChannelParams) -> np.ndarray:
    """Exponential-kernel covariance eta2 * exp(-||xi - xj|| / c1) over cells."""
    cells = np.atleast_2d(np.asarray(cells, dtype=float))
    if cells.shape[0] < 1:
        raise ValueError("cells must be nonempty")
    d = np.linalg.norm(cells[:, None, :] - cells[None, :, :], axis=-1)
    return params.shadow_power * np.exp(-d / params.corr_distance)


def _chol_with_jitter(K: np.ndarray, eta2: float) -> np.ndarray:
    if eta2 == 0.0:
        return np.zeros_like(K)
    try:
        return np.linalg.cholesky(K)
    except np.linalg.LinAlgError:
        jitter = 1e-10 * eta2
        return np.linalg.cholesky(K + jitter * np.eye(K.shape[0]))


def init_shadowing(
    geometry: Geometry,
    params: ChannelParams,
    rng: np.random.Generator,
    n_chains: int | None = None,
) -> ShadowingState:
    """Draw a stationary shadowing state: dest_values ~ N(0, K), src ~ N(0, eta2).

    With ``n_chains`` set, draws that many independent chains (leading axis).
    """
    K = spatial_covariance(geometry.dest_cells, params)
    L = _chol_with_jitter(K, params.shadow_power)
    n = geometry.num_cells
    shape = (n,) if n_chains is None else (n_chains, n)
    eps = rng.standard_normal(shape)
    dest = eps @ L.T
    eta = np.sqrt(params.shadow_power)
    src = eta * rng.standard_normal(() if n_chains is None else (n_chains,))
    rho = float(np.exp(-1.0 / params.corr_time))
    return ShadowingState(dest_values=dest, src_irs_value=np.asarray(src),
                          spatial_chol=L, ar_coeff=rho)


def step_shadowing(
    state: ShadowingState, params: ChannelParams, rng: np.random.Generator
) -> ShadowingState:
    """One AR(1) slot update; the stationary marginal N(0, K) is preserved."""
    rho = state.ar_coeff
    scale = math.sqrt(max(0.0, 1.0 - rho * rho))
    eps = rng.standard_normal(state.dest_values.shape)
    dest = rho * state.dest_values + scale * (eps @ state.spatial_chol.T)
    eta = math.sqrt(params.shadow_power)
    eps2 = rng.standard_normal(np.shape(state.src_irs_value))
    src = rho * state.src_irs_value + scale * eta * eps2
    return ShadowingState(dest_values=dest, src_irs_value=src,
                          spatial_chol=state.spatial_chol, ar_coeff=rho)


def init_phases(
    geometry: Geometry, m: int, n: int, rng: np.random.Generator
) -> PhaseState:
    """Uniform initial phases in [0, 2pi) for every link coefficient."""
    h = rng.uniform(0.0, TWO_PI, size=(geometry.num_cells, m))
    g = rng.uniform(0.0, TWO_PI, size=(m, n))
    return PhaseState(h_phases=h, g_phases=g)


def step_phases(
    state: PhaseState, params: ChannelParams, rng: np.random.Generator
) -> PhaseState:
    """Wrapped-Gaussian random walk: phase += kappa * N(0,1), wrapped to [0, 2pi).
    One draw covers h then g, the order two separate draws would take."""
    h, g = state.h_phases, state.g_phases
    x = np.concatenate((h.ravel(), g.ravel()))
    x += params.phase_drift * rng.standard_normal(x.size)
    np.mod(x, TWO_PI, out=x)
    return PhaseState(h_phases=x[:h.size].reshape(h.shape),
                      g_phases=x[h.size:].reshape(g.shape))


def sample_channels(
    dest_cell_index: int,
    shadowing: ShadowingState,
    phases: PhaseState,
    geometry: Geometry,
    params: ChannelParams,
    rng: np.random.Generator,
) -> ChannelSnapshot:
    """Realize h (reflect link) and G (source-IRS link) for one slot.

    Per-element log-magnitude = pathloss + link shadowing + i.i.d. multipath;
    magnitudes via 10^(dB/20); phases taken from the phase state.  One
    multipath draw covers h then G, and ``h`` and ``G`` are views of one
    array: read them, do not write them.
    """
    n_cells = geometry.num_cells
    if not (0 <= dest_cell_index < n_cells):
        raise IndexError(f"dest_cell_index {dest_cell_index} out of range [0, {n_cells})")
    m, n = phases.g_phases.shape
    pl_h, pl_g = geometry.link_pathloss_db(params.pathloss_exp)

    db = params.multipath_std * rng.standard_normal(m + m * n)
    db[:m] += pl_h[dest_cell_index] + shadowing.dest_values[dest_cell_index]
    db[m:] += pl_g + shadowing.src_irs_value
    phase = np.concatenate((phases.h_phases[dest_cell_index], phases.g_phases.ravel()))
    z = 10.0 ** (db / 20.0) * np.exp(1j * phase)
    return ChannelSnapshot(h=z[:m], G=z[m:].reshape(m, n))
