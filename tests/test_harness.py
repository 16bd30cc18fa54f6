import json
import multiprocessing
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from contextlib import contextmanager

import numpy as np
import pytest

from irsrl import config as cfgmod
from irsrl import harness, plotting
from irsrl.env import IrsEnv
from irsrl.config import ConfigError, load_config, resolve


TINY = {
    "preset": "desk",
    "episodes": 3,
    "episode_len": 20,
    "m": 2,
    "n": 1,
    "w": 2,
    "hidden": 8,
    "n_hidden_layers": 2,
    "k_fourier": 8,
    "warmup_steps": 10,
    "batch": 4,
    "buffer": 500,
    "seeds": [0, 1],
}

ALLOWED_CPUS = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
BLAS = harness._openblas_thread_controls()
multi_cpu = pytest.mark.skipif(len(ALLOWED_CPUS) < 2 or not BLAS,
                               reason="seeds run in parallel only on 2+ CPUs "
                                      "with an OpenBLAS")


@contextmanager
def allowed_cpus(n: int):
    """Restrict this process to its first ``n`` allowed CPUs while inside."""
    os.sched_setaffinity(0, ALLOWED_CPUS[:n])
    try:
        yield
    finally:
        os.sched_setaffinity(0, ALLOWED_CPUS)


def run_outputs(cfg):
    """metrics.csv without wall_s, every checkpoint's bytes, manifest seeds."""
    manifest = harness.run_experiment(cfg)
    out = os.path.join(cfg.out_dir, cfg.variant)
    with open(os.path.join(out, "metrics.csv"), encoding="utf-8") as f:
        rows = [line.rsplit(",", 1)[0] for line in f]
    ckpts = {}
    for seed in cfg.seeds:
        with open(os.path.join(out, f"seed{seed}.ckpt"), "rb") as f:
            ckpts[seed] = f.read()
    return rows, ckpts, manifest["seeds"]


class TestConfig:
    def test_paper_preset_constants(self):
        cfg = resolve({"preset": "paper"}, use_env=False)
        assert cfg.pathloss_exp == 2.3
        assert cfg.multipath_std == 0.6
        assert cfg.corr_distance == 1.2
        assert cfg.corr_time == 5.0
        assert cfg.shadow_power == 6.0
        assert cfg.tx_power_dbm == 65.0
        assert cfg.noise_var == 0.5
        assert cfg.n == 5
        assert cfg.m == 20
        assert cfg.w == 5
        assert cfg.lr == 2e-4
        assert cfg.batch == 64
        assert cfg.gamma == 0.99
        assert cfg.buffer == 1_000_000
        assert cfg.sigma_b2 == 0.01
        assert cfg.episodes == 50
        assert cfg.episode_len == 300
        assert cfg.hidden == 400
        assert len(cfg.seeds) == 10

    def test_rejects_bad_gamma(self):
        with pytest.raises(ConfigError, match="gamma"):
            resolve({"gamma": 1.5}, use_env=False)

    @pytest.mark.parametrize("key, value", [
        ("preset", "huge"), ("variant", "td3"), ("seeds", []), ("episodes", 0),
        ("episode_len", 0), ("m", 0), ("n", 0), ("w", 0),
        ("pathloss_exp", 0.0), ("multipath_std", -0.1), ("shadow_power", -1.0),
        ("corr_distance", 0.0), ("corr_time", 0.0), ("phase_drift", -0.1),
        ("noise_var", 0.0), ("gamma", 1.0), ("tau", 0.0), ("batch", 0),
        ("lr", 0.0), ("hidden", 0), ("n_hidden_layers", 0), ("buffer", 0),
        ("expl_sigma0", -0.1), ("expl_decay", 0.0), ("warmup_steps", -1),
        ("sigma_b2", 0.0), ("k_fourier", 0), ("reward_scale", 0.0),
        ("act_reg", -0.1), ("cube_side", 0.0), ("cube_side", -1.0),
        ("cell_side", 0.0), ("cell_side", -1.0), ("buffer", 10),
        ("seeds", [-1]), ("seeds", [0, 0]),
    ])
    def test_rejects_out_of_range(self, key, value):
        # the key must appear as a word of its own
        with pytest.raises(ConfigError, match=rf"(?<![a-z_]){key}(?![a-z])"):
            resolve({key: value}, use_env=False)

    def test_rejects_non_numeric(self, tmp_path, monkeypatch):
        p = tmp_path / "cfg.json"
        p.write_text("{}")
        monkeypatch.setenv("IRSRL_LR", "fast")
        with pytest.raises(ConfigError, match="lr"):
            load_config(p)

    @pytest.mark.parametrize("key, value", [
        ("m", 2.5), ("episodes", 2.5), ("seeds", ["a", 1.5]),
        ("hidden", 64.0),
    ])
    def test_rejects_wrong_type(self, key, value):
        with pytest.raises(ConfigError, match=rf"^{key} must be "):
            resolve({key: value}, use_env=False)

    def test_accepts_int_for_float_and_env_json(self, monkeypatch):
        for key, raw in (("M", "4"), ("LR", "1"), ("SEEDS", "[3, 4]"),
                         ("OUT_DIR", "123")):
            monkeypatch.setenv("IRSRL_" + key, raw)
        cfg = resolve({"tx_power_dbm": 60, "source_pos": [1, 2, 3]})
        assert (cfg.m, cfg.lr) == (4, 1)
        assert (cfg.seeds, cfg.out_dir, cfg.tx_power_dbm) == ([3, 4], "123", 60)

    @pytest.mark.parametrize("key", ["source_pos", "irs_pos", "dest_cells"])
    def test_rejects_geometry_outside_cube(self, key):
        value = [[14.5, 14.5, 25.0]] if key == "dest_cells" else [1.0, 25.0, 2.0]
        with pytest.raises(ConfigError, match=key):
            resolve({key: value}, use_env=False)

    @pytest.mark.parametrize("key, value", [
        ("irs_pos", [1.0, 10.0, 2.0]), ("source_pos", [10.0, 2.0, 3.0]),
        ("dest_cells", [[14.5, 14.5, 0.5], [10.0, 2.0, 3.0]]),
    ])
    def test_rejects_coincident_nodes(self, key, value):
        # a node on the IRS has no finite pathloss; defaults put the source
        # at [1, 10, 2] and the IRS at [10, 2, 3]
        with pytest.raises(ConfigError, match=key):
            resolve({key: value}, use_env=False)

    def test_rejects_unknown_key(self):
        with pytest.raises(ConfigError, match="not_a_key"):
            resolve({"not_a_key": 1}, use_env=False)

    def test_round_trip(self, tmp_path):
        # the config saved in manifest.json is the config that ran
        cfg = resolve({**TINY, "preset": "paper", "lr": 1e-3, "seeds": [0],
                       "episodes": 1, "out_dir": str(tmp_path)}, use_env=False)
        harness.run_experiment(cfg)
        manifest = json.loads((tmp_path / "ff" / "manifest.json").read_text())
        assert resolve(manifest["config"], use_env=False) == cfg

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            load_config("/nonexistent/cfg.json")

    def test_malformed_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        with pytest.raises(ConfigError, match="malformed"):
            load_config(p)

    def test_env_override(self, tmp_path, monkeypatch):
        p = tmp_path / "cfg.json"
        p.write_text("{}")
        monkeypatch.setenv("IRSRL_GAMMA", "0.5")
        assert load_config(p).gamma == 0.5

    def test_env_preset_selects_paper_values(self, monkeypatch):
        monkeypatch.setenv("IRSRL_PRESET", "paper")
        monkeypatch.setenv("IRSRL_LR", "1e-3")  # a later layer still wins
        cfg = resolve({"episodes": 2})
        paper = resolve({"preset": "paper"}, use_env=False)
        assert (cfg.preset, cfg.m, cfg.hidden, cfg.phase_drift) == (
            "paper", paper.m, paper.hidden, paper.phase_drift)
        assert (cfg.episodes, cfg.lr) == (2, 1e-3)

    def test_env_override_validated(self, tmp_path, monkeypatch):
        p = tmp_path / "cfg.json"
        p.write_text("{}")
        monkeypatch.setenv("IRSRL_GAMMA", "2.0")
        with pytest.raises(ConfigError, match="gamma"):
            load_config(p)


class TestRunExperiment:
    def test_row_accounting_and_files(self, tmp_path):
        cfg = resolve({**TINY, "variant": "base", "out_dir": str(tmp_path)},
                      use_env=False)
        manifest = harness.run_experiment(cfg)
        lines = (tmp_path / "base" / "metrics.csv").read_text().splitlines()
        assert lines[0] == harness.METRICS_HEADER
        assert len(lines) == 1 + 2 * 3  # seeds x episodes
        assert (tmp_path / "base" / "seed0.ckpt").exists()
        assert (tmp_path / "base" / "manifest.json").exists()
        assert manifest["seeds"] == {"0": "ok", "1": "ok"}

    def test_deterministic_rerun(self, tmp_path):
        texts = []
        for sub in ("a", "b"):
            cfg = resolve({**TINY, "variant": "ff", "out_dir": str(tmp_path / sub)},
                          use_env=False)
            harness.run_experiment(cfg)
            raw = (tmp_path / sub / "ff" / "metrics.csv").read_text()
            # strip the wallclock column before comparing
            rows = [",".join(line.split(",")[:-1]) for line in raw.splitlines()]
            texts.append("\n".join(rows))
        assert texts[0] == texts[1]

    def test_deterministic_checkpoints(self, tmp_path):
        blobs = []
        for sub in ("a", "b"):
            cfg = resolve({**TINY, "variant": "ff", "seeds": [0],
                           "out_dir": str(tmp_path / sub)}, use_env=False)
            harness.run_experiment(cfg)
            blobs.append((tmp_path / sub / "ff" / "seed0.ckpt").read_bytes())
        assert blobs[0] == blobs[1]

    def test_nan_injection_flags_divergence(self, tmp_path, monkeypatch):
        # every seed's env returns a NaN reward at its 26th step
        real_step = IrsEnv.step

        def nan_step(env, action):
            state, reward = real_step(env, action)
            env.steps_taken = getattr(env, "steps_taken", 0) + 1
            return state, float("nan") if env.steps_taken == 26 else reward

        monkeypatch.setattr(IrsEnv, "step", nan_step)
        cfg = resolve({**TINY, "variant": "base", "out_dir": str(tmp_path)},
                      use_env=False)
        manifest = harness.run_experiment(cfg)
        # both seeds hit the injected NaN but the run completes
        assert all(v.startswith("diverged") for v in manifest["seeds"].values())
        rows = plotting.read_metrics(tmp_path / "base" / "metrics.csv")
        assert any(np.isnan(r["mean_snr_db"]) for r in rows)

    def test_failed_seed_keeps_traceback(self, tmp_path, monkeypatch):
        real_train_one = harness.train_one

        def train_one(cfg, seed):
            if seed == 1:
                raise RuntimeError("seed 1 exploded")
            return real_train_one(cfg, seed)

        monkeypatch.setattr(harness, "train_one", train_one)
        cfg = resolve({**TINY, "variant": "base", "out_dir": str(tmp_path)},
                      use_env=False)
        manifest = harness.run_experiment(cfg)
        assert manifest["seeds"]["0"] == "ok"
        assert manifest["seeds"]["1"].startswith("failed")
        assert list(manifest["tracebacks"]) == ["1"]
        tb = manifest["tracebacks"]["1"]
        assert tb.startswith("Traceback") and "RuntimeError: seed 1 exploded" in tb
        saved = json.loads((tmp_path / "base" / "manifest.json").read_text())
        assert saved["tracebacks"] == manifest["tracebacks"]
        rows = plotting.read_metrics(tmp_path / "base" / "metrics.csv")
        assert {int(r["seed"]) for r in rows} == {0}
        assert len(rows) == TINY["episodes"]

    @multi_cpu
    def test_dead_worker_keeps_other_seeds(self, tmp_path, monkeypatch):
        # two processes: the caller trains seeds 0 and 2, the worker 1 and 3
        real_train_one = harness.train_one

        def train_one(cfg, seed):
            if seed == 1:
                os._exit(7)
            return real_train_one(cfg, seed)

        monkeypatch.setattr(harness, "train_one", train_one)
        cfg = resolve({**TINY, "variant": "base", "seeds": [0, 1, 2, 3],
                       "out_dir": str(tmp_path)}, use_env=False)
        with allowed_cpus(2):
            manifest = harness.run_experiment(cfg)
        lost = "failed: worker process exited (exit code 7)"
        assert manifest["seeds"] == {"0": "ok", "1": lost, "2": "ok", "3": lost}
        rows = plotting.read_metrics(tmp_path / "base" / "metrics.csv")
        assert [int(r["seed"]) for r in rows] == [0] * 3 + [2] * 3
        assert sorted(p.name for p in (tmp_path / "base").glob("*.ckpt")) == [
            "seed0.ckpt", "seed2.ckpt"]
        assert multiprocessing.active_children() == []


@multi_cpu
class TestSeedPool:
    @pytest.mark.parametrize("variant", ["base", "ff"])
    def test_pooled_matches_serial(self, tmp_path, variant):
        cfgs = [resolve({**TINY, "variant": variant, "seeds": [0, 1, 2],
                         "out_dir": str(tmp_path / sub)}, use_env=False)
                for sub in ("pooled", "serial")]
        pooled = run_outputs(cfgs[0])
        assert multiprocessing.active_children() == []
        with allowed_cpus(1):
            serial = run_outputs(cfgs[1])
        assert pooled == serial
        assert pooled[2] == {"0": "ok", "1": "ok", "2": "ok"}

    def test_one_cpu_and_one_blas_thread_per_process(self, tmp_path, monkeypatch):
        # every seed fails with the affinity and BLAS threads its process saw
        def train_one(cfg, seed):
            raise RuntimeError(f"cpus={len(os.sched_getaffinity(0))} "
                               f"blas={[get() for get, _ in BLAS]}")

        monkeypatch.setattr(harness, "train_one", train_one)
        cfg = resolve({**TINY, "variant": "base", "seeds": [0, 1, 2],
                       "out_dir": str(tmp_path)}, use_env=False)
        own = [get() for get, _ in BLAS]
        try:
            for _, put in BLAS:
                put(2)
            with pytest.raises(harness.RunError):
                harness.run_experiment(cfg)
            assert [get() for get, _ in BLAS] == [2] * len(BLAS)
        finally:
            for (_, put), threads in zip(BLAS, own):
                put(threads)
        saved = json.loads((tmp_path / "base" / "manifest.json").read_text())
        one = f"failed: cpus=1 blas={[1] * len(BLAS)}"
        assert saved["seeds"] == {"0": one, "1": one, "2": one}

    class Abort(BaseException):
        """Escapes run_experiment's per-seed isolation."""

    @pytest.mark.parametrize("error, raised", [
        (RuntimeError, harness.RunError),  # every seed fails
        (Abort, Abort),                    # the caller's own seed aborts
    ])
    def test_joins_workers_and_restores_affinity(self, tmp_path, monkeypatch,
                                                 error, raised):
        def train_one(cfg, seed):
            raise error(f"seed {seed}")

        monkeypatch.setattr(harness, "train_one", train_one)
        cfg = resolve({**TINY, "variant": "base", "out_dir": str(tmp_path)},
                      use_env=False)
        with pytest.raises(raised):
            harness.run_experiment(cfg)
        assert sorted(os.sched_getaffinity(0)) == ALLOWED_CPUS
        assert multiprocessing.active_children() == []


class TestFinalPerformance:
    def test_mean_of_last_episodes(self, tmp_path):
        p = tmp_path / "m.csv"
        lines = [harness.METRICS_HEADER]
        for seed, base in ((0, 1.0), (1, 3.0)):
            for ep in range(15):
                lines.append(f"{seed},{ep},{base + ep},0.0,0.0,0.1,0.0")
        p.write_text("\n".join(lines) + "\n")
        # last 10 episodes are 5..14 -> means 6.5+base per seed, averaged = 11.5
        assert harness.final_performance(p) == pytest.approx(11.5)


class TestPlot:
    def _write_metrics(self, path, seed_rewards, episodes=5):
        lines = [harness.METRICS_HEADER]
        for seed, r in enumerate(seed_rewards):
            for ep in range(episodes):
                lines.append(f"{seed},{ep},{r},0.0,0.0,0.1,0.0")
        path.write_text("\n".join(lines) + "\n")

    def test_single_seed_band_collapses(self, tmp_path):
        m = tmp_path / "m.csv"
        self._write_metrics(m, [2.0])
        eps, mean, lo, hi = plotting.curve_stats(plotting.read_metrics(m))
        assert mean == lo == hi

    def test_two_seed_band(self, tmp_path):
        m = tmp_path / "m.csv"
        self._write_metrics(m, [1.0, 3.0])
        _, mean, lo, hi = plotting.curve_stats(plotting.read_metrics(m))
        assert all(v == 2.0 for v in mean)
        assert all(v == 1.0 for v in lo)
        assert all(v == 3.0 for v in hi)

    def test_output_is_valid_xml(self, tmp_path):
        m = tmp_path / "m.csv"
        self._write_metrics(m, [1.0, 3.0])
        out = tmp_path / "plot.svg"
        plotting.plot_curves([m], out, labels=["demo"])
        root = ET.parse(out).getroot()
        assert root.tag.endswith("svg")

    def test_labels_escaped(self, tmp_path):
        m = tmp_path / "m.csv"
        self._write_metrics(m, [1.0])
        out = tmp_path / "plot.svg"
        plotting.plot_curves([m], out, labels=["a<b & c>\"d'"])
        svg = out.read_text(encoding="utf-8")
        assert ">a&lt;b &amp; c&gt;\"d'</text>" in svg
        assert ">episode</text>" in svg and ">mean SNR (dB)</text>" in svg
        ET.parse(out)

    def test_rejects_empty_csv(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text(harness.METRICS_HEADER + "\n")
        with pytest.raises(plotting.MetricsError):
            plotting.read_metrics(p)


class TestCompare:
    def test_degenerate_sweep(self, tmp_path):
        cfg = resolve({**TINY, "seeds": [0], "out_dir": str(tmp_path),
                       "variant": "base"}, use_env=False)
        results = harness.compare_variants(cfg, "variant")
        assert [r["setting"] for r in results] == list(cfgmod.VARIANTS)
        for r in results:
            ref = harness.final_performance(r["metrics"])
            assert r["final_snr_db"] == pytest.approx(ref)
        assert (tmp_path / "summary_variant.csv").exists()
        assert (tmp_path / "sweep_variant.svg").exists()

    def test_variant_sweep_records_each_variant(self, tmp_path):
        cfg = resolve({**TINY, "seeds": [0], "episodes": 1, "out_dir": str(tmp_path),
                       "variant": "ff"}, use_env=False)
        results = harness.compare_variants(cfg, "variant")
        assert [r["setting"] for r in results] == ["base", "snr-state", "ff"]
        for variant in ("base", "snr-state", "ff"):
            path = tmp_path / f"variant_{variant}" / variant / "manifest.json"
            manifest = json.loads(path.read_text())
            assert manifest["variant"] == manifest["config"]["variant"] == variant

    def test_window_sweep_settings(self, tmp_path):
        cfg = resolve({**TINY, "seeds": [0], "out_dir": str(tmp_path)},
                      use_env=False)
        results = harness.compare_variants(cfg, "window")
        assert [r["setting"] for r in results] == ["w=1", "w=3", "w=5"]


class TestOracleCheck:
    def test_all_properties_pass(self):
        cfg = resolve({"m": 3, "n": 1}, use_env=False)
        results = harness.oracle_check(cfg)
        assert results and all(results.values())


class TestCli:
    def _run(self, *args):
        return subprocess.run([sys.executable, "-m", "irsrl", *args],
                              capture_output=True, text=True)

    def test_config_error_exit_code(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"gamma": 5.0}))
        r = self._run("train", "--config", str(p))
        assert r.returncode == 2
        assert "gamma" in r.stderr

    def test_wrong_type_exit_code(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"m": 2.5}))
        r = self._run("train", "--config", str(p))
        assert r.returncode == 2
        assert "m must be int" in r.stderr

    def test_import_leaves_network_stack_unloaded(self):
        # nor the process pool, which only multi-seed runs on 2+ CPUs import
        code = ("import sys, irsrl.harness, irsrl.cli; print(sorted(m for m in "
                "('ssl', 'http.client', 'urllib.request', 'multiprocessing', "
                "'concurrent.futures.process') if m in sys.modules))")
        r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert r.returncode == 0, r.stderr
        assert r.stdout.strip() == "[]"

    def test_negative_seed_exit_code(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({**TINY, "out_dir": str(tmp_path)}))
        r = self._run("train", "--config", str(p), "--seed", "-1")
        assert r.returncode == 2
        assert r.stderr.startswith("config error: seeds")
        assert len(r.stderr.strip().splitlines()) == 1

    def test_train_and_plot(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({**TINY, "seeds": [0], "out_dir": str(tmp_path)}))
        r = self._run("train", "--config", str(p), "--variant", "base")
        assert r.returncode == 0, r.stderr
        csv_path = tmp_path / "base" / "metrics.csv"
        assert csv_path.exists()
        svg = tmp_path / "out.svg"
        r = self._run("plot", "--in", str(csv_path), "--out", str(svg))
        assert r.returncode == 0
        ET.parse(svg)

    def test_unwritable_out_exit_code(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({**TINY, "seeds": [0]}))
        blocker = tmp_path / "file"
        blocker.write_text("")
        r = self._run("train", "--config", str(p), "--out", str(blocker / "out"))
        assert r.returncode == 3
        assert r.stderr.startswith("error:")
        assert len(r.stderr.strip().splitlines()) == 1

    def test_plot_csv_without_snr_column_exit_code(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("seed,episode\n0,0\n")
        r = self._run("plot", "--in", str(p), "--out", str(tmp_path / "out.svg"))
        assert r.returncode == 3
        assert r.stderr.startswith("error:") and "mean_snr_db" in r.stderr
        assert len(r.stderr.strip().splitlines()) == 1

    def test_config_directory_exit_code(self, tmp_path):
        r = self._run("train", "--config", str(tmp_path))
        assert r.returncode == 2
        assert r.stderr.startswith("config error:") and str(tmp_path) in r.stderr
        assert len(r.stderr.strip().splitlines()) == 1

    def test_config_not_utf8_exit_code(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_bytes(b"\xff\xfe{")
        r = self._run("train", "--config", str(p))
        assert r.returncode == 2
        assert r.stderr.startswith("config error:") and str(p) in r.stderr
        assert len(r.stderr.strip().splitlines()) == 1

    def test_plot_missing_input_exit_code(self, tmp_path):
        r = self._run("plot", "--in", str(tmp_path / "missing.csv"),
                      "--out", str(tmp_path / "out.svg"))
        assert r.returncode == 3
        assert r.stderr.startswith("error:")

    def test_oracle_check_cli(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"m": 2, "n": 1}))
        r = self._run("oracle-check", "--config", str(p))
        assert r.returncode == 0
        assert "PASS" in r.stdout
