"""From-scratch dense network stack: MLP forward/backward, Adam, Polyak
averaging, random Fourier features, and a binary checkpoint format.

Every network call takes a (batch, d) array; one input is a one-row
batch.  Training arithmetic is float32 by default; pass dtype=np.float64 when
running finite-difference gradient checks.  An MLP's weights and biases are
views of one flat ``params`` array, so Adam and Polyak run over flat arrays.
Reverse-mode gradients are exact; ``backward`` returns the parameter gradient
as one flat array laid out like ``params``, and the gradient with respect to
the network input (needed to push the policy gradient through the critic's
action slice), and can skip either one.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np


class CheckpointError(Exception):
    """Raised for malformed or truncated checkpoint files."""


class NonFiniteError(Exception):
    """Raised when a gradient or update turns non-finite."""


# ---------------------------------------------------------------------------
# MLP
# ---------------------------------------------------------------------------

HEADS = ("linear", "tanh_pi")


@dataclass
class MLP:
    """Dense network with ReLU hidden layers and a configurable head.

    head "linear" is the critic, head "tanh_pi" the actor output pi * tanh(z),
    which keeps every component strictly inside (-pi, pi).  Construction
    copies the tensors into ``params`` (w0, b0, w1, b1, ...) and keeps views.
    """

    weights: list[np.ndarray]
    biases: list[np.ndarray]
    head: str = "linear"
    params: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.params = _flatten(self.weights, self.biases)
        self.weights, self.biases = self.views(self.params)

    @classmethod
    def init(
        cls,
        sizes: list[int],
        rng: np.random.Generator,
        head: str = "linear",
        out_scale: float = 1.0,
        dtype=np.float32,
    ) -> "MLP":
        """Uniform(-1/sqrt(fan_in), 1/sqrt(fan_in)) weights, zero biases.

        ``out_scale`` scales the final layer's weights (the actor uses 1e-2 so
        initial phase deltas are near zero).
        """
        if len(sizes) < 2 or any(s < 1 for s in sizes):
            raise ValueError("need >= 2 layer sizes, all >= 1")
        if head not in HEADS:
            raise ValueError(f"unknown head {head!r}")
        ws, bs = [], []
        for i, (nin, nout) in enumerate(zip(sizes[:-1], sizes[1:])):
            bound = 1.0 / np.sqrt(nin)
            w = rng.uniform(-bound, bound, size=(nin, nout)).astype(dtype)
            if i == len(sizes) - 2:
                w *= dtype(out_scale)
            ws.append(w)
            bs.append(np.zeros(nout, dtype=dtype))
        return cls(weights=ws, biases=bs, head=head)

    @property
    def sizes(self) -> list[int]:
        return [self.weights[0].shape[0]] + [w.shape[1] for w in self.weights]

    def views(self, flat: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """(weights, biases) shaped views of a flat array laid out like ``params``."""
        out, off = [], 0
        for t in (t for wb in zip(self.weights, self.biases) for t in wb):
            out.append(flat[off:off + t.size].reshape(t.shape))
            off += t.size
        return out[0::2], out[1::2]

    def copy(self) -> "MLP":
        return MLP(self.weights, self.biases, self.head)

    def forward(self, x: np.ndarray):
        """Returns (output, cache) for a (batch, d) input."""
        d = self.weights[0].shape[0]
        if x.ndim != 2 or x.shape[1] != d:
            raise ValueError(f"input shape {x.shape} != (batch, {d})")
        if not np.isfinite(x).all():
            raise ValueError("non-finite network input")
        acts = [x]   # post-activation of each layer, acts[0] = input
        z_last = None
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            z = acts[-1] @ w + b
            if i < len(self.weights) - 1:
                acts.append(np.maximum(z, 0.0))
            else:
                z_last = z
        if self.head == "tanh_pi":
            out = np.pi * np.tanh(z_last)
        else:
            out = z_last
        return out, (acts, z_last)

    def backward(self, cache, output_grad: np.ndarray, params: bool = True,
                 inputs: bool = True):
        """Exact reverse-mode gradients.

        Returns (param_grad, input_grad) for the batch that produced
        ``cache``, param_grad flat and laid out like ``params``; output_grad
        carries any loss scaling (e.g. 1/B).  ``params=False`` or
        ``inputs=False`` skips that part and returns None in its place.
        """
        acts, z_last = cache
        g = output_grad
        if self.head == "tanh_pi":
            th = np.tanh(z_last)
            g = g * np.pi * (1.0 - th * th)
        flat = np.empty_like(self.params) if params else None
        wg, bg = self.views(flat) if params else (None, None)
        for i in range(len(self.weights) - 1, -1, -1):
            if params:
                np.matmul(acts[i].T, g, out=wg[i])
                np.sum(g, axis=0, out=bg[i])
            if i == 0 and not inputs:
                return flat, None
            g = g @ self.weights[i].T
            if i > 0:
                # ReLU subgradient: 0 at exactly 0.
                g = g * (acts[i] > 0.0)
        return flat, g


def _flatten(weights, biases) -> np.ndarray:
    """A flat copy of (w0, b0, w1, b1, ...) that starts on a 64-byte boundary:
    BLAS reads a weight matrix that starts on a cache line measurably faster."""
    ts = [t.ravel() for wb in zip(weights, biases) for t in wb]
    dtype = np.result_type(*ts)
    nbytes = sum(t.size for t in ts) * dtype.itemsize
    buf = np.empty(nbytes + 64, np.uint8)
    off = -buf.ctypes.data % 64
    return np.concatenate(ts, out=buf[off:off + nbytes].view(dtype))


# ---------------------------------------------------------------------------
# Adam + Polyak
# ---------------------------------------------------------------------------


# Adam runs its dozen elementwise passes block by block, so that each block
# stays in cache and the two temporaries stay small (no per-step page faults).
ADAM_BLOCK = 65536


@dataclass
class Adam:
    """Bias-corrected Adam over an MLP's flat parameter array."""

    lr: float
    m: np.ndarray
    v: np.ndarray
    t: int = 0
    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-8

    @classmethod
    def for_mlp(cls, mlp: MLP, lr: float) -> "Adam":
        return cls(lr=lr, m=np.zeros_like(mlp.params), v=np.zeros_like(mlp.params))

    def begin(self, g: np.ndarray) -> None:
        """Check the whole flat gradient ``g`` and count one step; raises
        NonFiniteError on a bad gradient before any parameter moves."""
        if g.shape != self.m.shape:
            raise ValueError(f"gradient shape {g.shape} != {self.m.shape}")
        if not np.isfinite(g).all():
            raise NonFiniteError("non-finite gradient in Adam step")
        self.t += 1

    def step(self, mlp: MLP, g: np.ndarray, part: slice | None = None) -> None:
        """One in-place descent step on the flat gradient ``g`` (laid out like
        ``params``); raises NonFiniteError on bad gradients.  With ``part``, a
        contiguous slice of ``params``, it moves only that part at the step
        count of the last ``begin(g)``, so one step can run in parts, one per
        thread, after one check.  The in-place ufuncs keep the float order of
        the per-tensor formula params -= lr * (m / c1) / (sqrt(v / c2) + eps),
        so results are exact however the step is split."""
        if part is None:
            self.begin(g)
            part = slice(None)
        lo, hi, _ = part.indices(g.size)
        c1 = 1.0 - self.beta1**self.t
        c2 = 1.0 - self.beta2**self.t
        tmp, denom = np.empty((2, min(ADAM_BLOCK, hi - lo)), self.m.dtype)
        for start in range(lo, hi, ADAM_BLOCK):
            blk = slice(start, min(start + ADAM_BLOCK, hi))
            m, v, gb, p = self.m[blk], self.v[blk], g[blk], mlp.params[blk]
            t, d = tmp[:gb.size], denom[:gb.size]
            np.multiply(gb, 1.0 - self.beta1, out=t)
            m *= self.beta1
            m += t
            np.multiply(gb, 1.0 - self.beta2, out=t)
            t *= gb
            v *= self.beta2
            v += t
            np.sqrt(np.divide(v, c2, out=d), out=d)
            d += self.eps
            np.multiply(np.divide(m, c1, out=t), self.lr, out=t)
            p -= np.divide(t, d, out=t)


def polyak_update(target: MLP, main: MLP, tau: float,
                  part: slice = slice(None)) -> None:
    """In-place target <- tau * main + (1 - tau) * target over ``params[part]``,
    by default every tensor."""
    if not 0.0 <= tau <= 1.0:
        raise ValueError("tau must be in [0, 1]")
    if target.sizes != main.sizes:
        raise ValueError("shape mismatch between target and main parameters")
    p = target.params[part]
    p *= 1.0 - tau
    p += tau * main.params[part]


# ---------------------------------------------------------------------------
# Random Fourier features
# ---------------------------------------------------------------------------


@dataclass
class FourierKernel:
    """Fixed random projection B (k x d); maps x -> [cos(2 pi B x), sin(2 pi B x)].

    B is drawn once at construction and never trained.
    """

    B: np.ndarray

    @classmethod
    def init(cls, k: int, d: int, sigma_b: float, rng: np.random.Generator,
             dtype=np.float32) -> "FourierKernel":
        return cls(B=(sigma_b * rng.standard_normal((k, d))).astype(dtype))

    @property
    def out_dim(self) -> int:
        return 2 * self.B.shape[0]

    def features(self, x: np.ndarray):
        """Returns (v, cache) with v of shape (batch, 2k) for a (batch, d) input."""
        if x.ndim != 2 or x.shape[1] != self.B.shape[1]:
            raise ValueError(f"input shape {x.shape} != (batch, {self.B.shape[1]})")
        ang = 2.0 * np.pi * (x @ self.B.T)
        return np.concatenate([np.cos(ang), np.sin(ang)], axis=1), ang

    def backward(self, ang, feat_grad: np.ndarray) -> np.ndarray:
        """Gradient of the feature map with respect to its (batch, d) input;
        ``ang`` is the cache that ``features`` returned."""
        k = self.B.shape[0]
        g_ang = -np.sin(ang) * feat_grad[:, :k] + np.cos(ang) * feat_grad[:, k:]
        return 2.0 * np.pi * (g_ang @ self.B)


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

MAGIC = b"IRSRL1"


def save_checkpoint(path, tensors: dict[str, np.ndarray]) -> None:
    """Binary format: magic, then per tensor: u32 name length, name (utf-8),
    u32 rank, u32 dims, little-endian float32 payload."""
    with open(path, "wb") as f:
        f.write(MAGIC)
        for name, arr in tensors.items():
            data = np.ascontiguousarray(arr, dtype="<f4")
            enc = name.encode("utf-8")
            f.write(struct.pack("<I", len(enc)))
            f.write(enc)
            f.write(struct.pack("<I", data.ndim))
            for d in data.shape:
                f.write(struct.pack("<I", d))
            f.write(data.tobytes())


def load_checkpoint(path) -> dict[str, np.ndarray]:
    """Inverse of save_checkpoint; raises CheckpointError on corruption."""
    with open(path, "rb") as f:
        raw = f.read()
    if raw[: len(MAGIC)] != MAGIC:
        raise CheckpointError(f"bad magic in {path}")
    tensors: dict[str, np.ndarray] = {}
    off = len(MAGIC)

    def take(n: int) -> bytes:
        nonlocal off
        if off + n > len(raw):
            raise CheckpointError(f"truncated checkpoint {path}")
        out = raw[off : off + n]
        off += n
        return out

    while off < len(raw):
        (nlen,) = struct.unpack("<I", take(4))
        try:
            name = take(nlen).decode("utf-8")
        except UnicodeDecodeError:
            raise CheckpointError(f"tensor name is not UTF-8 in {path}") from None
        (rank,) = struct.unpack("<I", take(4))
        dims = [struct.unpack("<I", take(4))[0] for _ in range(rank)]
        count = int(np.prod(dims)) if dims else 1
        payload = take(4 * count)
        tensors[name] = np.frombuffer(payload, dtype="<f4").reshape(dims).copy()
    return tensors


def mlp_tensors(prefix: str, mlp: MLP) -> dict[str, np.ndarray]:
    out = {}
    for i, (w, b) in enumerate(zip(mlp.weights, mlp.biases)):
        out[f"{prefix}.w{i}"] = w
        out[f"{prefix}.b{i}"] = b
    return out


def mlp_from_tensors(prefix: str, tensors: dict[str, np.ndarray], head: str) -> MLP:
    """The MLP stored under ``prefix``; raises CheckpointError naming the
    network and the tensor when the tensors do not form one."""
    ws, bs, i = [], [], 0
    while (wname := f"{prefix}.w{i}") in tensors:
        bname = f"{prefix}.b{i}"
        w, b = tensors[wname], tensors.get(bname)
        if w.ndim != 2:
            raise CheckpointError(f"network {prefix!r}: {wname} has shape {w.shape}, "
                                  f"not (in, out)")
        if ws and w.shape[0] != ws[-1].shape[1]:
            raise CheckpointError(f"network {prefix!r}: {wname} takes {w.shape[0]} "
                                  f"inputs, but the layer before gives {ws[-1].shape[1]}")
        if b is None:
            raise CheckpointError(f"network {prefix!r}: {bname} is missing")
        if b.shape != (w.shape[1],):
            raise CheckpointError(f"network {prefix!r}: {bname} has shape {b.shape}, "
                                  f"not ({w.shape[1]},)")
        ws.append(w)
        bs.append(b)
        i += 1
    if not ws:
        raise CheckpointError(f"no tensors with prefix {prefix!r}")
    return MLP(weights=ws, biases=bs, head=head)
