"""Command-line interface.

Subcommands: train, compare, plot, oracle-check.
Exit codes, mapped in ``main`` alone: 0 success; 2 ``ConfigError``, printed
as ``config error: ...``; 3 ``RunError`` (every seed failed), ``MetricsError``
(a metrics CSV that cannot be used, named) or ``OSError``, printed as
``error: ...``; 4 oracle-check failure.
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
    try:
        if args.command == "plot":
            plotting.plot_curves(args.inputs, args.out)
            return 0
        cfg = cfgmod.load_config(args.config)
        if args.command == "train":
            if args.variant:
                cfg = replace(cfg, variant=args.variant)
            if args.seed is not None:
                cfg = replace(cfg, seeds=[args.seed])
            if args.out:
                cfg = replace(cfg, out_dir=args.out)
            manifest = harness.run_experiment(cfg)
            print(f"wrote {manifest['metrics']}")
        elif args.command == "compare":
            harness.compare_variants(cfg, args.sweep)
        elif not all(harness.oracle_check(cfg).values()):  # oracle-check
            return 4
    except cfgmod.ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except (harness.RunError, plotting.MetricsError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
