"""Training-and-rollout benchmark for irsrl.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload desk-train --seed 0 --seconds 25 --trace 0

Workloads: desk-train, paper-train, paper-rollout (see perfbench/README.md).
The run happens in a child process (worker.py) with one BLAS thread and the
checkout's own ``src`` on the import path.  With ``--trace 0`` set-up is
also timed in SETUP_PROBES extra children that stop once set-up is done, and
``setup_s`` is the median over them and the measuring child.  The last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics; the line before it records the BLAS library, thread
count, CPU count and git revision of the run, and its raw wall-clock
steps/s next to the reference-clock figure (see worker.HostClock).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("desk-train", "paper-train", "paper-rollout")
SETUP_PROBES = 6
DEADLINE_S = 170.0
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def child_env() -> dict[str, str]:
    """One BLAS thread, the checkout's sources only, no IRSRL_* overrides."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("IRSRL_")}
    env.update({var: "1" for var in BLAS_VARS})
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


def git_revision() -> str:
    """HEAD of the checkout's git directory, or "unknown" outside git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref), encoding="utf-8") as f:
                return f.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs"), encoding="utf-8") as f:
                for line in f:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return "unknown"


def worker(args, deadline: float, setup_only: bool = False) -> dict:
    """Run one child to its end; returns its last stdout line as JSON."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--spawned-at", repr(time.monotonic())]
    if setup_only:
        cmd.append("--setup-only")
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                          text=True, timeout=max(1.0, deadline - time.monotonic()))
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"worker exited with code {proc.returncode} and no result")
    out = json.loads(lines[-1])
    if proc.returncode != 0 and out.get("correct", True):
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return out


def provenance(args) -> dict:
    cmd = [sys.executable, "-c",
           "import json, numpy; c = numpy.show_config(mode='dicts'); "
           "b = c['Build Dependencies']['blas']; "
           "print(json.dumps([numpy.__version__, b.get('name'), b.get('version')]))"]
    np_version, blas, blas_version = json.loads(subprocess.run(
        cmd, env=child_env(), stdout=subprocess.PIPE, text=True, check=True,
        timeout=60).stdout)
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "python": sys.version.split()[0],
            "numpy": np_version, "blas": f"{blas} {blas_version}",
            "blas_threads": child_env()["OPENBLAS_NUM_THREADS"],
            "cpu_count": os.cpu_count(),
            "cpu_affinity": len(os.sched_getaffinity(0)),
            "git_revision": git_revision()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="irsrl training-and-rollout benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "irsrl", "__init__.py")):
        print(f"error: no irsrl sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    info = provenance(args)
    setups = []
    if not args.trace:
        setups = [worker(args, deadline, setup_only=True)["setup_s"]
                  for _ in range(SETUP_PROBES)]
    res = worker(args, deadline)
    metrics = res["metrics"]
    if not args.trace:
        setups.append(res["setup_s"])
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    for key in ("rounds", "raw_steps_per_s", "host_factor"):
        info[key] = res[key]
    print(json.dumps({"provenance": info}))
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0 if res["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
