"""Correctness checks built on computations made apart from the program.

Everything here is plain numpy and imports nothing from ``irsrl``: the SNR,
the triangle bound, the checkpoint reader and the critic forward pass are
written again from their definitions, so a fault in the program cannot hide
behind the same fault in its check.  Each check raises ``CheckError`` with
the first offending item.
"""

from __future__ import annotations

import csv
import math
import struct

import numpy as np

CKPT_MAGIC = b"IRSRL1"
METRICS_COLUMNS = ("seed", "episode", "mean_snr_db", "critic_loss", "actor_obj",
                   "sigma", "wall_s")
NETS = ("actor", "critic1", "critic2", "target_actor", "target_critic1",
        "target_critic2")


class CheckError(Exception):
    """A program output failed an independent check."""


# -- signal model ------------------------------------------------------------


def slot_snr(h, G, theta, p_max: float, noise_var: float) -> np.ndarray:
    """P ||c||^2 / sigma^2 with c = h^H diag(e^{j theta}) G, per slot.

    h is (S, M), G is (S, M, N) and theta is (S, M).
    """
    c = np.einsum("sm,smn->sn", np.conj(h) * np.exp(1j * theta), G)
    return p_max * np.sum(c.real**2 + c.imag**2, axis=1) / noise_var


def triangle_bound(h, G, p_max: float, noise_var: float) -> np.ndarray:
    """P (sum_m |h_m| ||G_m||)^2 / sigma^2 per slot; no phase vector beats it."""
    row_norms = np.sqrt(np.sum(G.real**2 + G.imag**2, axis=2))
    s = np.sum(np.abs(h) * row_norms, axis=1)
    return p_max * s**2 / noise_var


def check_reward_matches_snr(reward_db, h, G, theta, p_max, noise_var,
                             rtol: float = 1e-9) -> None:
    """The env's dB reward is the recomputed SNR of (h, G, theta)."""
    want = slot_snr(h, G, theta, p_max, noise_var)
    got = 10.0 ** (np.asarray(reward_db, dtype=float) / 10.0)
    rel = np.abs(got - want) / want
    bad = np.flatnonzero(~(rel <= rtol))
    if bad.size:
        k = int(bad[0])
        raise CheckError(f"slot {k}: reward {got[k]!r} differs from "
                         f"P|c|^2/sigma^2 = {want[k]!r} (rel {rel[k]:.3g} > {rtol})")


def check_reward_below_bound(reward_db, h, G, p_max, noise_var,
                             program_bound=None, rtol: float = 1e-9) -> None:
    """Every slot's SNR is at most the triangle bound; the program's own
    bound, when given, equals the independent one."""
    bound = triangle_bound(h, G, p_max, noise_var)
    got = 10.0 ** (np.asarray(reward_db, dtype=float) / 10.0)
    bad = np.flatnonzero(~(got <= bound * (1.0 + 1e-12)))
    if bad.size:
        k = int(bad[0])
        raise CheckError(f"slot {k}: SNR {got[k]!r} exceeds the triangle bound "
                         f"{bound[k]!r}")
    if program_bound is not None:
        rel = np.abs(np.asarray(program_bound) - bound) / bound
        bad = np.flatnonzero(~(rel <= rtol))
        if bad.size:
            k = int(bad[0])
            raise CheckError(f"slot {k}: snr_upper_bound {program_bound[k]!r} "
                             f"differs from {bound[k]!r}")


# -- metrics.csv -------------------------------------------------------------


def read_metrics(path) -> dict[int, list[dict]]:
    """Rows of a metrics.csv grouped by seed, in file order."""
    with open(path, newline="", encoding="utf-8") as f:
        reader = csv.DictReader(f)
        if tuple(reader.fieldnames or ()) != METRICS_COLUMNS:
            raise CheckError(f"{path}: header {reader.fieldnames} != {METRICS_COLUMNS}")
        by_seed: dict[int, list[dict]] = {}
        for row in reader:
            rec = {k: float(v) for k, v in row.items()}
            by_seed.setdefault(int(rec["seed"]), []).append(rec)
    return by_seed


def check_metrics(rows: list[dict], episodes: int, episode_len: int,
                  warmup_steps: int, sigma0: float, decay: float,
                  bound_db: list[float]) -> None:
    """One seed's rows: every episode present in order, the exploration
    schedule sigma0 * decay**ep, finite losses exactly in the episodes that
    ran learner updates, and each episode's mean SNR at most the mean
    triangle bound (dB) of the replayed channel."""
    if [int(r["episode"]) for r in rows] != list(range(episodes)):
        raise CheckError(f"episodes {[r['episode'] for r in rows]} != 0..{episodes - 1}")
    for r, bound in zip(rows, bound_db):
        ep = int(r["episode"])
        want = sigma0 * decay**ep
        if not abs(r["sigma"] - want) <= 1e-9 * abs(want):
            raise CheckError(f"episode {ep}: sigma {r['sigma']!r} != {want!r}")
        updated = (ep + 1) * episode_len > warmup_steps
        for key in ("critic_loss", "actor_obj"):
            if updated != math.isfinite(r[key]):
                raise CheckError(f"episode {ep}: {key} = {r[key]!r} "
                                 f"({'with' if updated else 'without'} updates)")
        if not r["mean_snr_db"] <= bound + 1e-9:
            raise CheckError(f"episode {ep}: mean SNR {r['mean_snr_db']!r} dB "
                             f"exceeds the replayed mean bound {bound!r} dB")


# -- checkpoints -------------------------------------------------------------


def read_checkpoint(path) -> dict[str, np.ndarray]:
    """Reader for the IRSRL1 format: magic, then per tensor a u32 name length,
    the utf-8 name, a u32 rank, u32 dims and a little-endian float32 payload."""
    with open(path, "rb") as f:
        raw = f.read()
    if raw[:len(CKPT_MAGIC)] != CKPT_MAGIC:
        raise CheckError(f"{path}: bad magic")
    off, out = len(CKPT_MAGIC), {}
    try:
        while off < len(raw):
            (nlen,) = struct.unpack_from("<I", raw, off)
            name = raw[off + 4:off + 4 + nlen].decode("utf-8")
            off += 4 + nlen
            (rank,) = struct.unpack_from("<I", raw, off)
            dims = struct.unpack_from(f"<{rank}I", raw, off + 4)
            off += 4 + 4 * rank
            count = math.prod(dims)
            if off + 4 * count > len(raw):
                raise CheckError(f"{path}: tensor {name} truncated")
            out[name] = np.frombuffer(raw, dtype="<f4", count=count,
                                      offset=off).reshape(dims)
            off += 4 * count
    except struct.error as e:
        raise CheckError(f"{path}: truncated header: {e}") from e
    return out


def expected_shapes(state_dim: int, action_dim: int, hidden: int, layers: int,
                    fourier_k: int | None) -> dict[str, tuple]:
    """Tensor name -> shape for the six nets (and the Fourier matrix)."""
    critic_in = state_dim + action_dim if fourier_k is None else 2 * fourier_k
    widths = {"actor": [state_dim] + [hidden] * layers + [action_dim],
              "critic": [critic_in] + [hidden] * layers + [1]}
    out = {}
    for net in NETS:
        sizes = widths["actor" if net.endswith("actor") else "critic"]
        for i, (nin, nout) in enumerate(zip(sizes[:-1], sizes[1:])):
            out[f"{net}.w{i}"] = (nin, nout)
            out[f"{net}.b{i}"] = (nout,)
    if fourier_k is not None:
        out["fourier.B"] = (fourier_k, state_dim + action_dim)
    return out


def check_checkpoint(tensors: dict[str, np.ndarray], shapes: dict[str, tuple]) -> None:
    if set(tensors) != set(shapes):
        raise CheckError(f"tensor names differ: missing {sorted(set(shapes) - set(tensors))}, "
                         f"extra {sorted(set(tensors) - set(shapes))}")
    for name, shape in shapes.items():
        if tensors[name].shape != shape:
            raise CheckError(f"{name}: shape {tensors[name].shape} != {shape}")
        if not np.all(np.isfinite(tensors[name])):
            raise CheckError(f"{name}: non-finite entries")


# -- critic input gradient ---------------------------------------------------


def critic_q(tensors: dict[str, np.ndarray], prefix: str, x: np.ndarray):
    """Float64 critic value of raw (state, action) rows x, and the ReLU
    on/off pattern of every hidden unit (to spot kinks)."""
    a = np.asarray(x, dtype=np.float64)
    if "fourier.B" in tensors:
        ang = 2.0 * np.pi * (a @ tensors["fourier.B"].astype(np.float64).T)
        a = np.concatenate([np.cos(ang), np.sin(ang)], axis=1)
    n_layers = sum(1 for k in tensors if k.startswith(prefix + ".w"))
    pattern = []
    for i in range(n_layers):
        z = a @ tensors[f"{prefix}.w{i}"].astype(np.float64) + \
            tensors[f"{prefix}.b{i}"].astype(np.float64)
        if i < n_layers - 1:
            pattern.append(z > 0.0)
            a = np.maximum(z, 0.0)
    return z[:, 0], np.concatenate(pattern, axis=1)


def check_input_gradient(grad, tensors, prefix: str, x: np.ndarray,
                         eps: float = 1e-6, rtol: float = 1e-6,
                         min_checked: float = 0.9) -> int:
    """Compare the program's dQ/dx (rows of ``grad``) with central finite
    differences of ``critic_q`` in float64.  Coordinates whose +-eps probe
    flips a ReLU are skipped; at least ``min_checked`` of them must remain.
    Returns the number of coordinates compared."""
    x = np.asarray(x, dtype=np.float64)
    n, d = x.shape
    checked = 0
    for row in range(n):
        probes = np.repeat(x[row:row + 1], 2 * d, axis=0)
        idx = np.arange(d)
        probes[idx, idx] += eps
        probes[d + idx, idx] -= eps
        q, pat = critic_q(tensors, prefix, probes)
        _, pat0 = critic_q(tensors, prefix, x[row:row + 1])
        smooth = np.all(pat[:d] == pat0, axis=1) & np.all(pat[d:] == pat0, axis=1)
        fd = (q[:d] - q[d:]) / (2.0 * eps)
        scale = max(1.0, float(np.max(np.abs(grad[row]))))
        err = np.abs(fd - grad[row]) * smooth
        if np.any(err > rtol * scale):
            k = int(np.argmax(err))
            raise CheckError(f"row {row}, input {k}: gradient {grad[row, k]!r} vs "
                             f"finite difference {fd[k]!r}")
        checked += int(np.sum(smooth))
    if checked < min_checked * n * d:
        raise CheckError(f"only {checked} of {n * d} coordinates away from ReLU kinks")
    return checked
