"""Command-line interface.

Subcommands: train, compare, plot, oracle-check.
Exit codes: 0 success, 2 config error, 3 run or I/O failure (every seed
failed, or a file could not be read, parsed or written), 4 oracle-check
failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from . import config as cfgmod, harness, plotting


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="irsrl",
                                description="IRS phase-shift RL experiments")
    sub = p.add_subparsers(dest="command", required=True)

    t = sub.add_parser("train", help="train one variant over configured seeds")
    t.add_argument("--config", required=True)
    t.add_argument("--variant", choices=cfgmod.VARIANTS)
    t.add_argument("--seed", type=int, help="restrict to a single seed")
    t.add_argument("--out", help="output directory override")

    c = sub.add_parser("compare", help="run a sweep and summarize")
    c.add_argument("--config", required=True)
    c.add_argument("--sweep", required=True, choices=sorted(harness.SWEEPS))

    pl = sub.add_parser("plot", help="render metrics CSVs to SVG")
    pl.add_argument("--in", dest="inputs", nargs="+", required=True)
    pl.add_argument("--out", required=True)

    o = sub.add_parser("oracle-check", help="verify the signal-model oracles")
    o.add_argument("--config", required=True)

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)

    if args.command == "plot":
        try:
            plotting.plot_curves(args.inputs, args.out)
        except (plotting.MetricsError, OSError) as e:
            print(f"error: {e}", file=sys.stderr)
            return 3
        return 0

    try:
        cfg = cfgmod.load_config(args.config)
        if args.command == "train":
            if args.variant:
                cfg = replace(cfg, variant=args.variant)
            if args.seed is not None:
                cfg = replace(cfg, seeds=[args.seed])
            if args.out:
                cfg = replace(cfg, out_dir=args.out)
    except (cfgmod.ConfigError, ValueError) as e:  # replace() re-validates
        print(f"config error: {e}", file=sys.stderr)
        return 2

    try:
        if args.command == "train":
            manifest = harness.run_experiment(cfg)
            print(f"wrote {manifest['metrics']}")
            return 0
        if args.command == "compare":
            harness.compare_variants(cfg, args.sweep)
            return 0
        if args.command == "oracle-check":
            results = harness.oracle_check(cfg)
            return 0 if all(results.values()) else 4
    except cfgmod.ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except (harness.RunError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
