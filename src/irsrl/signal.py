"""SNR computation, maximum-ratio beamforming, and phase-design oracles.

Everything here is a stateless pure function in complex float64.  The oracle
functions (closed-form N=1 optimum, triangle-inequality upper bound,
exhaustive grid search) are intentionally independent of each other so they
can cross-check the main path in tests and the ``oracle-check`` subcommand.
"""

from __future__ import annotations

import math

import numpy as np

TWO_PI = 2.0 * np.pi


def wrap_to_pi(x):
    """Wrap angles into (-pi, pi]; pi maps to pi."""
    x = np.asarray(x, dtype=float)
    out = x - TWO_PI * np.ceil((x - np.pi) / TWO_PI)
    return float(out) if out.ndim == 0 else out


def composite_channel(h: np.ndarray, theta: np.ndarray, G: np.ndarray) -> np.ndarray:
    """Effective row channel c = h^H diag(e^{j theta}) G, length N."""
    h = np.asarray(h, dtype=complex)
    theta = np.asarray(theta, dtype=float)
    G = np.asarray(G, dtype=complex)
    if h.ndim != 1 or theta.shape != h.shape or G.ndim != 2 or G.shape[0] != h.shape[0]:
        raise ValueError(
            f"dimension mismatch: h {h.shape}, theta {theta.shape}, G {G.shape}"
        )
    return (np.conj(h) * np.exp(1j * theta)) @ G


def optimal_beamformer(c: np.ndarray, p_max: float) -> np.ndarray:
    """Maximum-ratio weights b = sqrt(P) c^H / ||c||; uses the full budget."""
    c = np.asarray(c, dtype=complex)
    norm = np.linalg.norm(c)
    if norm == 0.0:
        raise ValueError("composite channel is zero; beamformer undefined")
    return np.sqrt(p_max) * np.conj(c) / norm


def snr(h, theta, G, p_max: float, noise_var: float) -> float:
    """Received SNR (linear) with the optimal beamformer: P ||c||^2 / sigma^2."""
    if not noise_var > 0:
        raise ValueError("noise_var must be > 0")
    c = composite_channel(h, theta, G)
    # np.linalg.norm's own formula for a 1-D complex vector, without its wrapper
    norm = math.sqrt(c.real.dot(c.real) + c.imag.dot(c.imag))
    return float(p_max * norm ** 2 / noise_var)


def snr_db(linear):
    """10 log10 of a positive linear SNR; NaN passes through as NaN."""
    if isinstance(linear, float):
        if linear <= 0:
            raise ValueError("snr_db requires positive input")
        return float(10.0 * np.log10(linear))
    linear = np.asarray(linear, dtype=float)
    if np.any(linear <= 0):
        raise ValueError("snr_db requires positive input")
    out = 10.0 * np.log10(linear)
    return float(out) if out.ndim == 0 else out


def phase_oracle_single_antenna(
    h: np.ndarray, g: np.ndarray, p_max: float, noise_var: float
) -> tuple[np.ndarray, float]:
    """Closed-form optimum for N=1: align every term of c = sum conj(h_m) e^{j th} g_m.

    Returns (theta_star, snr_star).  The achieved |c| is sum_m |h_m| |g_m|,
    which is the N=1 maximum.
    """
    h = np.asarray(h, dtype=complex)
    g = np.asarray(g, dtype=complex).reshape(-1)
    if g.shape != h.shape:
        raise ValueError("h and g must have equal length")
    theta = wrap_to_pi(-np.angle(np.conj(h) * g))
    c_mag = float(np.sum(np.abs(h) * np.abs(g)))
    return np.atleast_1d(theta), float(p_max * c_mag**2 / noise_var)


def snr_upper_bound(h, G, p_max: float, noise_var: float) -> float:
    """Triangle-inequality bound P (sum_m |h_m| ||G_m||)^2 / sigma^2.

    Valid for every theta; tight when N = 1.
    """
    h = np.asarray(h, dtype=complex)
    G = np.asarray(G, dtype=complex)
    # np.linalg.norm(G, axis=1)'s own formula, without its wrapper
    row_norms = np.sqrt(np.add.reduce((G.conj() * G).real, axis=1))
    s = np.add.reduce(np.abs(h) * row_norms)
    return float(p_max * s**2 / noise_var)


def exhaustive_phase_search(
    h, G, levels: int, p_max: float, noise_var: float
) -> tuple[np.ndarray, float]:
    """Brute-force best theta over the uniform grid {-pi + 2 pi k / levels}.

    Deterministic tie-break: the lexicographically smallest grid index wins.
    Only tractable for small M; guarded at levels^M <= 1e8.
    """
    h = np.asarray(h, dtype=complex)
    G = np.asarray(G, dtype=complex)
    m = h.shape[0]
    if levels < 2:
        raise ValueError("levels must be >= 2")
    if levels**m > 10**8:
        raise ValueError(f"grid size {levels}**{m} exceeds the 1e8 guard")

    grid = -np.pi + TWO_PI * np.arange(levels) / levels
    # Candidate terms conj(h_m) e^{j th} g_{m,:} for every (element, level).
    terms = np.conj(h)[:, None, None] * np.exp(1j * grid)[None, :, None] * G[:, None, :]

    best_theta = None
    best_norm2 = -1.0
    # Enumerate grid indices in lexicographic order, chunked over the last axis.
    idx = np.zeros(m, dtype=int)
    total = levels**m
    chunk = total // levels
    for flat in range(chunk):
        rem = flat
        for i in range(m - 2, -1, -1):
            idx[i] = rem % levels
            rem //= levels
        partial = np.zeros(G.shape[1], dtype=complex)
        for i in range(m - 1):
            partial = partial + terms[i, idx[i]]
        cands = partial[None, :] + terms[m - 1]           # (levels, N)
        norms2 = np.sum(np.abs(cands) ** 2, axis=1)
        j = int(np.argmax(norms2))                         # first max: lex tie-break
        if norms2[j] > best_norm2:
            best_norm2 = float(norms2[j])
            best_theta = grid[np.concatenate([idx[: m - 1], [j]])]

    return best_theta, float(p_max * best_norm2 / noise_var)
