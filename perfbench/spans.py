"""Span tracing around the program's public functions.

``Tracer.install`` replaces each function named in ``TRACED`` (a module
function or a class method) with a wrapper that records a span (name, start,
end, parent) in memory; ``uninstall`` puts the originals back.  The program
looks these names up at call time, so its own internal calls are traced too.
Self time is a span's duration minus the durations of its child spans.
"""

from __future__ import annotations

import time
from array import array

import numpy as np

from irsrl import agent, channel, env, harness, nn, signal


def _mlp_flops(mlp) -> int:
    return sum(w.shape[0] * w.shape[1] for w in mlp.weights)


def _forward_flops(mlp, x, *_):
    return 2 * _mlp_flops(mlp) * (x.shape[0] if np.ndim(x) == 2 else 1)


def _backward_flops(mlp, cache, *_):
    # weight gradient a.T @ g plus input gradient g @ W.T, per layer
    return 4 * _mlp_flops(mlp) * cache[0][0].shape[0]


def _mlp_params(mlp) -> int:
    return sum(w.size for w in mlp.weights) + sum(b.size for b in mlp.biases)


def _adam_params(opt, mlp, *_):
    return _mlp_params(mlp)


def _polyak_params(target, *_):
    return _mlp_params(target)


def _checkpoint_bytes(path, tensors, *_):
    return 4 * sum(np.size(a) for a in tensors.values())


# name -> (owner, attribute, work per call or None)
TRACED = {
    "channel.step_shadowing": (channel, "step_shadowing", None),
    "channel.step_phases": (channel, "step_phases", None),
    "channel.sample_channels": (channel, "sample_channels", None),
    "signal.snr": (signal, "snr", None),
    "signal.snr_upper_bound": (signal, "snr_upper_bound", None),
    "env.step": (env.IrsEnv, "step", None),
    "env.reset": (env.IrsEnv, "reset", None),
    "nn.mlp_forward": (nn.MLP, "forward", _forward_flops),
    "nn.mlp_backward": (nn.MLP, "backward", _backward_flops),
    "nn.adam_step": (nn.Adam, "step", _adam_params),
    "nn.polyak_update": (nn, "polyak_update", _polyak_params),
    "nn.fourier_features": (nn.FourierKernel, "features", None),
    "nn.fourier_backward": (nn.FourierKernel, "backward", None),
    "nn.save_checkpoint": (nn, "save_checkpoint", _checkpoint_bytes),
    "agent.select_action": (agent, "select_action", None),
    "agent.critic_target": (agent, "critic_target", None),
    "agent.update_critics": (agent, "update_critics", None),
    "agent.update_actor": (agent, "update_actor", None),
    "agent.polyak_all": (agent, "polyak_all", None),
    "agent.replay_push": (agent.ReplayBuffer, "push", None),
    "agent.replay_sample": (agent.ReplayBuffer, "sample", None),
    "agent.train": (agent, "train", None),
    "harness.run_experiment": (harness, "run_experiment", None),
}

# derived rate -> (functions whose work and self time it divides, scale, unit)
RATES = {
    "nn.mlp.gflop_per_s": (("nn.mlp_forward", "nn.mlp_backward"), 1e-9, "GFLOP/s"),
    "nn.adam_step.mparam_per_s": (("nn.adam_step",), 1e-6, "Mparam/s"),
    "nn.polyak_update.mparam_per_s": (("nn.polyak_update",), 1e-6, "Mparam/s"),
    "nn.save_checkpoint.mb_per_s": (("nn.save_checkpoint",), 1e-6, "MB/s"),
}


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self):
        self.names = list(TRACED)
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.work = [0] * len(self.names)
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, idx: int, fn, work):
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack, totals, clock = self._stack, self.work, time.perf_counter

        def traced(*args, **kwargs):
            if work is not None:
                totals[idx] += work(*args)
            i = len(name_id)
            name_id.append(idx)
            parent.append(stack[-1] if stack else -1)
            start.append(0.0)
            end.append(0.0)
            stack.append(i)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[i] = t0
                end[i] = t1

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for idx, (owner, attr, work) in enumerate(TRACED.values()):
            fn = owner.__dict__[attr]
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(idx, fn, work))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def metrics(self, overhead_s: float) -> dict[str, dict]:
        ids = np.frombuffer(self.name_id, dtype=np.int32)
        par = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        child = np.zeros_like(dur)
        has_parent = par >= 0
        np.add.at(child, par[has_parent], dur[has_parent])
        n = len(self.names)
        calls = np.bincount(ids, minlength=n)
        self_s = np.bincount(ids, weights=dur - child, minlength=n)
        out = {}
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] = {"value": int(calls[i]), "unit": "count"}
            out[f"{name}.self_s"] = {"value": float(self_s[i]), "unit": "s"}
        for rate, (fns, scale, unit) in RATES.items():
            idx = [self.names.index(f) for f in fns]
            secs = sum(self_s[i] for i in idx)
            work = sum(self.work[i] for i in idx)
            out[rate] = {"value": float(work * scale / secs) if secs > 0 else 0.0,
                         "unit": unit}
        out["trace.overhead_s"] = {"value": float(overhead_s), "unit": "s"}
        return out
