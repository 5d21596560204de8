import json

import numpy as np
import pytest

from credal.harness.config import (
    EXPERIMENTS,
    SCHEMA_VERSION,
    ConfigError,
    config_hash,
    load_config,
    preset_config,
    validate_config,
)
from credal.harness.cli import main as cli_main
from credal.harness.experiments import run
from credal.harness.summary import SummaryError, summarize, wilson_interval
from credal.estimation import write_annotations
from credal.measures import Gaussian, Sigmoid, Threshold, joint_tv_exact
from credal.sets import CredalSpec, pairwise_bounds
from credal.synthgen import GenSeed, sample_annotated


def _csv_body(path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# generated_at=")
    return "\n".join(lines[1:])


def _csv_rows(path):
    lines = path.read_text().splitlines()
    header = lines[1].split(",")
    return [dict(zip(header, ln.split(","))) for ln in lines[2:]]


class TestConfig:
    def test_presets_exist_for_every_experiment(self):
        for name in EXPERIMENTS:
            for preset in ("desk", "paper"):
                cfg = preset_config(name, preset)
                assert cfg.experiment == name
                assert cfg.preset == preset

    def test_unknown_experiment(self):
        with pytest.raises(ConfigError):
            preset_config("cold_fusion")

    def test_schema_version_required(self):
        with pytest.raises(ConfigError, match="schema_version"):
            validate_config({"experiment": "gating_curve"})

    def test_unknown_top_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown keys"):
            validate_config(
                {"schema_version": SCHEMA_VERSION, "experiment": "gating_curve", "extra": 1}
            )

    def test_unknown_param_rejected(self):
        with pytest.raises(ConfigError, match="unknown keys"):
            validate_config(
                {
                    "schema_version": SCHEMA_VERSION,
                    "experiment": "gating_curve",
                    "params": {"window_stdd": 2.0},
                }
            )

    def test_param_overlay(self):
        cfg = validate_config(
            {
                "schema_version": SCHEMA_VERSION,
                "experiment": "sample_complexity",
                "seed": 3,
                "params": {"replications": 7},
            }
        )
        assert cfg.params["replications"] == 7
        assert cfg.delta == 0.005  # experiment-specific default

    def test_hash_stable_and_sensitive(self):
        a = preset_config("gating_curve", "desk", seed=1)
        b = preset_config("gating_curve", "desk", seed=1)
        c = preset_config("gating_curve", "desk", seed=2)
        assert config_hash(a) == config_hash(b)
        assert config_hash(a) != config_hash(c)

    def test_load_config_round_trip(self, tmp_path):
        cfg = preset_config("minimax_demo", "desk", seed=5)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg.document()))
        assert load_config(path) == cfg

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(ConfigError, match="valid JSON"):
            load_config(path)


class TestSummarize:
    def _rows(self, values, experiment="x"):
        return [{"experiment": experiment, "metric": v} for v in values]

    def test_single_row_equals_itself(self):
        out = summarize(self._rows([0.5]))
        assert out["metrics"]["metric"]["mean"] == 0.5
        assert out["metrics"]["metric"]["median"] == 0.5

    def test_known_quantiles_sort_oracle(self):
        rng = np.random.default_rng(0)
        vals = rng.random(501).tolist()
        out = summarize(self._rows(vals))
        arr = np.sort(vals)
        for q, key in ((0.5, "median"), (0.9, "q90"), (0.95, "q95"), (0.99, "q99")):
            assert out["metrics"]["metric"][key] == pytest.approx(float(np.quantile(arr, q)))

    def test_permutation_invariant(self):
        rng = np.random.default_rng(1)
        vals = rng.random(100).tolist()
        a = summarize(self._rows(vals))
        b = summarize(self._rows(list(reversed(vals))))
        assert a == b

    def test_mixed_experiments_rejected(self):
        with pytest.raises(SummaryError):
            summarize(self._rows([1.0]) + self._rows([2.0], experiment="y"))

    def test_empty_rejected(self):
        with pytest.raises(SummaryError):
            summarize([])

    def test_binary_metric_gets_wilson(self):
        rows = self._rows([0.0] * 2000)
        out = summarize(rows)
        assert out["metrics"]["metric"]["wilson_high"] == pytest.approx(0.002, abs=2e-4)

    def test_wilson_interval_values(self):
        lo, hi = wilson_interval(0, 2000)
        assert lo == pytest.approx(0.0, abs=1e-12)
        assert hi == pytest.approx(0.0019, abs=2e-4)
        lo, hi = wilson_interval(10, 20)
        assert 0.29 < lo < 0.5 < hi < 0.71


class TestRunners:
    def test_gating_curve_columns_and_gating_shape(self, tmp_path):
        cfg = preset_config("gating_curve", "desk", seed=1)
        manifest = run(cfg, tmp_path)
        lines = (tmp_path / "gating_curve.csv").read_text().splitlines()
        header = lines[1].split(",")
        rows = [dict(zip(header, ln.split(","))) for ln in lines[2:]]
        cov = np.asarray([float(r["cov_tv"]) for r in rows])
        joint = np.asarray([float(r["joint_tv"]) for r in rows])
        upper = np.asarray([float(r["upper_bound"]) for r in rows])
        centers = np.asarray([float(r["window_center"]) for r in rows])
        assert np.allclose(cov, 0.3829, atol=1e-3)
        assert np.all(upper >= joint - 1e-8)
        assert abs(centers[int(np.argmax(joint))]) <= 0.5
        assert joint.max() > joint[0] + 0.08  # visible spike over the far-tail floor

    def test_rerun_is_byte_identical_modulo_header(self, tmp_path):
        cfg = preset_config("minimax_demo", "desk", seed=4)
        run(cfg, tmp_path / "a")
        run(cfg, tmp_path / "b")
        assert _csv_body(tmp_path / "a" / "minimax_demo.csv") == _csv_body(
            tmp_path / "b" / "minimax_demo.csv"
        )

    def test_jobs_do_not_change_output(self, tmp_path):
        cfg = validate_config(
            {
                "schema_version": SCHEMA_VERSION,
                "experiment": "sample_complexity",
                "seed": 11,
                "params": {
                    "n_list": [10, 30, 100],
                    "replications": 40,
                    "violation_n_list": [10],
                    "violation_replications": 60,
                },
            }
        )
        run(cfg, tmp_path / "serial", jobs=1)
        run(cfg, tmp_path / "parallel", jobs=3)
        assert _csv_body(tmp_path / "serial" / "sample_complexity.csv") == _csv_body(
            tmp_path / "parallel" / "sample_complexity.csv"
        )

    def test_minimax_demo_labels_each_crisp_family_once_per_grid(self, tmp_path, monkeypatch):
        # every (theta, world) pair of one eta's grid goes in one exact
        # batch, which calls each crisp family's label kernel once, on the
        # points of all its labelers
        import credal.dro as dro

        batches = []
        batched = dro.joint_tv_many

        def batch(pairs, cfg):
            batches.append(({id(lab) for pair in pairs for lab in pair[1::2]}, {}))
            return batched(pairs, cfg)

        def spy(cls):
            label_kernel = cls.label_kernel

            def counted(x, *row):
                calls = batches[-1][1]
                calls[cls] = calls.get(cls, 0) + 1
                return label_kernel(x, *row)

            monkeypatch.setattr(cls, "label_kernel", staticmethod(counted))

        monkeypatch.setattr(dro, "joint_tv_many", batch)
        spy(Threshold)
        spy(dro.ThresholdClassifier)
        cfg = validate_config(
            {
                "schema_version": SCHEMA_VERSION,
                "experiment": "minimax_demo",
                "params": {"etas": [0.2, 0.6], "grid_n": 40},
            }
        )
        run(cfg, tmp_path)
        assert len(batches) == 2
        for labelers, calls in batches:
            assert len(labelers) == 40 + 2
            assert calls == {Threshold: 1, dro.ThresholdClassifier: 1}

    def test_summary_carries_config_provenance(self, tmp_path):
        cfg = preset_config("minimax_demo", "desk", seed=4)
        manifest = run(cfg, tmp_path)
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["config_hash"] == manifest["config_hash"]
        assert summary["config"]["experiment"] == "minimax_demo"
        assert summary["abs_tol"] == cfg.quadrature.abs_tol

    def test_sweep_and_gating_bounds_match_pairwise_bounds(self, tmp_path):
        cfg = validate_config(
            {
                "schema_version": SCHEMA_VERSION,
                "experiment": "bounds_sweep",
                "seed": 5,
                "params": {"grid_env_count": 3, "random_env_count": 1, "labeler_count": 3},
            }
        )
        run(cfg, tmp_path / "sweep")
        p = cfg.params
        envs = [
            Gaussian(float(m), float(p["env_std"]))
            for m in np.linspace(*p["env_mean_range"], p["grid_env_count"])
        ]
        rng = GenSeed(cfg.seed).derive(0).generator()
        envs.append(
            Gaussian(
                float(rng.uniform(*p["random_mean_range"])),
                float(rng.uniform(*p["random_std_range"])),
            )
        )
        grid = np.linspace(*p["labeler_range"], p["labeler_count"])
        specs = {
            "hard": CredalSpec(tuple(envs), tuple(Threshold(float(t)) for t in grid)),
            "soft": CredalSpec(tuple(envs), tuple(Sigmoid(1.0, -float(b)) for b in grid)),
        }
        rows = _csv_rows(tmp_path / "sweep" / "bounds_sweep.csv")
        classes = {(r["regime"], r["pair_class"]) for r in rows}
        assert classes == {
            (regime, c)
            for regime in ("hard", "soft")
            for c in ("fixed_covariate", "fixed_labeler", "joint_shift")
        }
        for r in rows:
            a = (int(r["i"]), int(r["j"]))
            b = (int(r["ip"]), int(r["jp"]))
            spec = specs[r["regime"]]
            want = pairwise_bounds(spec, a, b, cfg.quadrature, with_exact=True)
            got = (float(r["lower"]), float(r["upper"]), float(r["exact"]))
            assert got == (want.lower, want.upper, want.exact)
            if r["pair_class"] == "joint_shift":
                exact = joint_tv_exact(
                    spec.environments[a[0]], spec.labelers[a[1]],
                    spec.environments[b[0]], spec.labelers[b[1]], cfg.quadrature,
                )
                assert float(r["exact"]) == exact

        cfg = validate_config(
            {
                "schema_version": SCHEMA_VERSION,
                "experiment": "gating_curve",
                "params": {"window_means": [0.5, -1.0, 2.25]},
            }
        )
        run(cfg, tmp_path / "gating")
        rows = _csv_rows(tmp_path / "gating" / "gating_curve.csv")
        assert len(rows) == 3
        p = cfg.params
        slope, gap, std = float(p["sigmoid_slope"]), float(p["env_gap"]), float(p["window_std"])
        for row in rows:
            m = float(row["window_center"])
            spec = CredalSpec(
                (Gaussian(m - gap / 2.0, std), Gaussian(m + gap / 2.0, std)),
                tuple(Sigmoid(slope, -slope * float(b)) for b in p["sigmoid_boundaries"]),
            )
            want = pairwise_bounds(spec, (0, 0), (1, 1), cfg.quadrature, with_exact=True)
            got = (float(row["lower_bound"]), float(row["upper_bound"]), float(row["joint_tv"]))
            assert got == (want.lower, want.upper, want.exact)
            envs, labs = spec.environments, spec.labelers
            joint = joint_tv_exact(envs[0], labs[0], envs[1], labs[1], cfg.quadrature)
            assert float(row["joint_tv"]) == joint

    def test_every_row_carries_hash_and_seed(self, tmp_path):
        cfg = preset_config("minimax_demo", "desk", seed=4)
        run(cfg, tmp_path)
        lines = (tmp_path / "minimax_demo.csv").read_text().splitlines()
        header = lines[1].split(",")
        for ln in lines[2:]:
            row = dict(zip(header, ln.split(",")))
            assert row["config_hash"] == config_hash(cfg)
            assert row["seed"] == "4"


class TestCli:
    def test_invalid_config_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema_version": 99, "experiment": "gating_curve"}))
        code = cli_main(["gating_curve", "--config", str(bad), "--out", str(tmp_path)])
        assert code == 2
        assert "schema_version" in capsys.readouterr().err

    def test_experiment_mismatch_exits_2(self, tmp_path, capsys):
        cfg = preset_config("minimax_demo", "desk")
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg.document()))
        code = cli_main(["gating_curve", "--config", str(path), "--out", str(tmp_path)])
        assert code == 2

    def test_config_without_rows_exits_2(self, tmp_path, capsys):
        for params in ({"regimes": []}, {"regimes": ["hard"], "grid_env_count": 1, "labeler_count": 1}):
            path = tmp_path / "cfg.json"
            doc = {"schema_version": SCHEMA_VERSION, "experiment": "bounds_sweep", "params": params}
            path.write_text(json.dumps(doc))
            code = cli_main(["bounds_sweep", "--config", str(path), "--out", str(tmp_path / "out")])
            assert code == 2
            assert "bounds_sweep" in capsys.readouterr().err

    def test_certificate_end_to_end(self, tmp_path, capsys):
        samples = sample_annotated(
            Gaussian(0, 1), [Threshold(-1), Threshold(1)], 400, "hard", GenSeed(3)
        )
        ann = tmp_path / "ann.csv"
        write_annotations(ann, samples)
        code = cli_main(
            [
                "certificate",
                "--annotations",
                str(ann),
                "--delta",
                "0.05",
                "--out",
                str(tmp_path / "out"),
            ]
        )
        assert code == 0
        cert = json.loads(capsys.readouterr().out)
        assert cert["n"] == 400
        assert cert["k"] == 2
        assert cert["penalty_upper"] == pytest.approx(cert["eta_hat"] + cert["epsilon"])

    def test_minimax_demo_cli(self, tmp_path, capsys):
        code = cli_main(["minimax_demo", "--out", str(tmp_path), "--seed", "2"])
        assert code == 0
        manifest = json.loads(capsys.readouterr().out)
        assert manifest["rows"] == 3
