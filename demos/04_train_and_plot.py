"""End-to-end training demo: tiny run of two critic variants plus a plot.

Trains the base and Fourier-feature agents on a scaled-down configuration
(shared channel streams per seed, so the comparison is paired), writes
metrics.csv and checkpoints under demo_runs/, and renders the training
curves to an SVG.  The full-size presets are available through the CLI,
which reads a config file (here cfg.json holding {"preset": "desk"}):

    irsrl train --config cfg.json --variant ff --out runs/ff
    irsrl compare --config cfg.json --sweep variant
"""

from irsrl import config as cfgmod
from irsrl import harness, plotting

OVERRIDES = {
    "preset": "desk",
    "m": 4,
    "n": 2,
    "episodes": 10,
    "episode_len": 100,
    "hidden": 32,
    "k_fourier": 16,
    "seeds": [0, 1],
    "out_dir": "demo_runs",
}


def main():
    paths = {}
    for variant in ("base", "ff"):
        cfg = cfgmod.resolve({**OVERRIDES}, use_env=False)
        manifest = harness.run_experiment(cfg, variant)
        paths[variant] = manifest["metrics"]
        perf = harness.final_performance(manifest["metrics"], last=5)
        print(f"{variant:4s}: final-5-episode mean SNR {perf:.2f} dB "
              f"({manifest['metrics']})")

    out_svg = "demo_runs/curves.svg"
    plotting.plot_curves(list(paths.values()), out_svg, labels=list(paths))
    print(f"wrote {out_svg}")


if __name__ == "__main__":
    main()
