import hashlib
import json
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import summarize_by_row_scan

from credal.harness.config import (
    _PRESETS,
    EXPERIMENTS,
    SCHEMA_VERSION,
    ConfigError,
    config_hash,
    load_config,
    parse_env,
    preset_config,
    validate_config,
)
from credal import dro, measures
from credal.harness.cli import main as cli_main
from credal.harness import experiments
from credal.harness.experiments import run
from credal.harness.summary import SummaryError, summarize_columns, wilson_interval
from credal.estimation import write_annotations
from credal.measures import DiscreteGrid, Gaussian, Sigmoid, Threshold, joint_tv_exact
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
        hashes = []
        for name in EXPERIMENTS:
            for preset in ("desk", "paper"):
                cfg = preset_config(name, preset)
                assert cfg.experiment == name
                assert cfg.preset == preset
                hashes.append(config_hash(cfg))
        # every preset's params and delta, pinned
        assert " ".join(hashes) == (
            "47750d146478 33d8872b87ab b42720463e28 d9d6e48255b9 73351b2efa91 8110e0bee3ae "
            "e94c6012b9c7 17e052fd3c96 42f138fa3b70 81a81c9b37c3 348125e82982 4ea23ee6f79c "
            "6f406a0f6d21 6dcfc8acb6e1 29919af4e19b 012c9dfb9579 b28d18851e9d 36acdc006dd3"
        )
        # a config owns its params: changing one leaves the presets as they were
        preset_config("noise_ablation").params["env"]["mean"] = 5.0
        assert config_hash(preset_config("noise_ablation")) == hashes[6]

    @pytest.mark.parametrize(
        "doc, match",
        [
            ([("experiment", "gating_curve")], "must be a mapping"),
            ({"preset": "laptop"}, "preset must be"),
            ({"seed": 1.5}, "seed must be"),
            ({"seed": True}, "seed must be"),
            ({"seed": -1}, "seed must be a non-negative integer"),
            ({"delta": 1.0}, "delta must lie"),
            ({"delta": "0.1"}, "delta must lie"),
            ({"quadrature": {"abs_tol": 1e-8}}, "unknown keys in config"),
            ({"params": ["n"]}, "params must be a mapping"),
        ],
    )
    def test_malformed_document_rejected(self, doc, match):
        if isinstance(doc, dict):
            doc = {"schema_version": SCHEMA_VERSION, "experiment": "noise_ablation", **doc}
        with pytest.raises(ConfigError, match=match):
            validate_config(doc)

    @pytest.mark.parametrize(
        "env, match",
        [
            ("gaussian", "must be a mapping with a 'type'"),
            ({"mean": 0.0, "std": 1.0}, "must be a mapping with a 'type'"),
            ({"type": "laplace", "mean": 0.0}, "unknown environment type"),
            ({"type": "gaussian", "mean": 0.0, "sd": 1.0}, "unknown keys in gaussian environment"),
            ({"type": "gaussian", "mean": "abc", "std": 1.0}, "gaussian environment mean must be a number"),
            ({"type": "gaussian", "mean": 0.0}, "gaussian environment std must be a number, got None"),
            ({"type": "gaussian", "mean": 0.0, "std": 0.0}, "invalid gaussian environment"),
            ({"type": "grid", "points": [0.0, 1.0], "weights": [1.0]}, "invalid grid environment"),
            ({"type": "grid", "points": 0.0, "weights": [1.0]}, "grid environment points must be a list"),
            ({"type": ["gaussian"]}, "unknown environment type"),
        ],
    )
    def test_malformed_environment_rejected(self, env, match):
        with pytest.raises(ConfigError, match=match):
            parse_env(env)

    def test_preset_values_validate_as_given(self):
        # every preset value, given as a param in the table's form (tuples for
        # fixed-length lists) or in its JSON form, gives the preset's config
        for name in EXPERIMENTS:
            for preset in ("desk", "paper"):
                desk, paper = _PRESETS[name]
                params = {**desk, **paper} if preset == "paper" else desk
                want = preset_config(name, preset)
                for given_params in (params, json.loads(json.dumps(params))):
                    doc = {"schema_version": SCHEMA_VERSION, "experiment": name, "preset": preset, "params": given_params}
                    assert validate_config(doc) == want

    @pytest.mark.parametrize("name, key", [(name, key) for name in EXPERIMENTS for key in _PRESETS[name][0]])
    @given(data=st.data())
    @settings(max_examples=15, deadline=None, derandomize=True)
    def test_params_take_their_preset_shapes(self, name, key, data):
        # a param changed in type and shape is rejected, or every param of
        # the config has the JSON shape of its preset value
        preset = data.draw(st.sampled_from(("desk", "paper")))
        desk, paper = _PRESETS[name]
        base = {**desk, **paper} if preset == "paper" else desk
        for value in _near(base[key]) + [data.draw(_mutants(base[key]))]:
            doc = {"schema_version": SCHEMA_VERSION, "experiment": name, "preset": preset, "params": {key: value}}
            try:
                params = validate_config(doc).params
            except ConfigError:
                continue
            assert params[key] == json.loads(json.dumps(value))
            for k, v in params.items():
                assert _has_shape(v, base[k]), (name, k, v)

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


# JSON values near the preset fields: scalars of every type, lists and mappings
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats(-3, 3) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["type", "mean", "std", "points", "weights"]), inner, max_size=3),
    max_leaves=8,
)


_GRID = {"type": "grid", "points": [-1.0, 1], "weights": [0.5, 0.5]}


def _near(preset) -> list:
    """The preset value, and ones changed in type or shape: a list for a scalar, a scalar
    for a list, a wrong length, a string, a bool or a float for an int, in a list too."""
    near = [preset, [preset], str(preset), True, 1.5, 2, None]
    if isinstance(preset, (list, tuple)):
        items = list(preset)
        near += [items, items[0], items + items[:1], items[:-1], [str(items[0])], [True] * len(items), [1.5] * len(items)]
    if isinstance(preset, dict):
        near += [_GRID, {**preset, "type": "grid"}]
    return near


def _mutants(preset):
    """Random JSON values, and the preset value with one item or environment field replaced by one."""
    mutants = [_JSON]
    if isinstance(preset, (list, tuple)):
        items = list(preset)
        mutants.append(st.integers(0, len(items) - 1).flatmap(lambda k: _JSON.map(lambda v: items[:k] + [v] + items[k + 1 :])))
    if isinstance(preset, dict):
        for env in (preset, _GRID):
            mutants.append(st.sampled_from(sorted(env)).flatmap(lambda k, env=env: _JSON.map(lambda v: {**env, k: v})))
    return st.one_of(mutants)


def _has_shape(value, preset) -> bool:
    """Whether a validated value has the JSON shape of its preset value, stated by exact types."""
    if isinstance(preset, dict):
        return isinstance(parse_env(value), (Gaussian, DiscreteGrid))
    if isinstance(preset, (list, tuple)):
        shapes = preset if isinstance(preset, tuple) else [preset[0]] * len(value)
        return type(value) is list and len(value) == len(shapes) and all(map(_has_shape, value, shapes))
    return type(value) in ((int, float) if type(preset) is float else (type(preset),))


def _columns(rows):
    """The list columns of dict rows, ``None`` where a row lacks a key."""
    keys = dict.fromkeys(k for row in rows for k in row)
    return {k: [row.get(k) for row in rows] for k in keys}


class TestSummarize:
    def test_single_row_equals_itself(self):
        out = summarize_columns({"metric": [0.5]})
        assert out["metrics"]["metric"]["mean"] == 0.5
        assert out["metrics"]["metric"]["median"] == 0.5

    def test_known_quantiles_sort_oracle(self):
        rng = np.random.default_rng(0)
        vals = rng.random(501).tolist()
        out = summarize_columns({"metric": vals})
        arr = np.sort(vals)
        for q, key in ((0.5, "median"), (0.9, "q90"), (0.95, "q95"), (0.99, "q99")):
            assert out["metrics"]["metric"][key] == pytest.approx(float(np.quantile(arr, q)))

    def test_permutation_invariant(self):
        rng = np.random.default_rng(1)
        vals = rng.random(100).tolist()
        a = summarize_columns({"metric": vals})
        b = summarize_columns({"metric": list(reversed(vals))})
        assert a == b

    def test_empty_rejected(self):
        with pytest.raises(SummaryError):
            summarize_columns({"metric": []})

    def test_binary_metric_gets_wilson(self):
        out = summarize_columns({"metric": [0.0] * 2000})
        assert out["metrics"]["metric"]["wilson_high"] == pytest.approx(0.002, abs=2e-4)

    def test_wilson_interval_values(self):
        lo, hi = wilson_interval(0, 2000)
        assert lo == pytest.approx(0.0, abs=1e-12)
        assert hi == pytest.approx(0.0019, abs=2e-4)
        lo, hi = wilson_interval(10, 20)
        assert 0.29 < lo < 0.5 < hi < 0.71


def _mixed_rows(count=240, seed=7):
    """Rows with missing keys, None, string and bool cells, ints and 0/1 metrics."""
    rng = np.random.default_rng(seed)
    rows = []
    for k in range(count):
        row = {
            "cls": ("b", "a", "c")[k % 3],
            "n": (30, 10)[k % 2],
            "eps": (0.25, 0.1, 0.5, 1e-3)[k % 4],
            "value": float(rng.normal()),
            "flag": float(rng.random() < 0.3),
            "ok": bool(rng.random() < 0.5),
            "count": int(rng.integers(0, 5)),
            "note": "text",
            "maybe": None if k % 4 == 0 else float(rng.random()),
            "mixed": "n/a" if k % 5 == 0 else int(rng.integers(0, 2)),
        }
        if k % 7 == 0:
            del row["value"]
        if row["cls"] == "a":
            row["only_a"] = float(rng.random())
        rows.append(row)
    return rows


class TestSummarizeRowsAndColumns:
    @pytest.mark.parametrize("group_by", [None, "cls", "n", "eps", "ok", "count"])
    def test_matches_the_row_scan(self, group_by):
        rows = _mixed_rows()
        assert summarize_columns(_columns(rows), group_by=group_by) == summarize_by_row_scan(rows, group_by=group_by)

    @pytest.mark.parametrize("group_by", [None, "cls", "n", "eps"])
    def test_permutation_invariant(self, group_by):
        rows = _mixed_rows()
        shuffled = list(rows)
        random.Random(3).shuffle(shuffled)
        assert summarize_columns(_columns(shuffled), group_by=group_by) == summarize_columns(_columns(rows), group_by=group_by)

    def test_edge_rows_match_the_row_scan(self):
        cases = [
            [{"a": None}, {"b": "s"}],
            [{"tag": "x", "v": True}, {"tag": "x", "v": False}],
            [{"v": 0}, {"v": 1}, {"v": 1.0}],
            [{"g": 1, "v": 0.5}, {"g": 2.5, "v": 1.0}, {"g": 1.0, "v": 2.0}],
            [{"g": "b", "v": 1}, {"g": "a"}, {"g": "b", "v": 3}],
        ]
        for rows in cases:
            group_by = "g" if "g" in rows[0] else None
            assert summarize_columns(_columns(rows), group_by=group_by) == summarize_by_row_scan(rows, group_by=group_by)

    def test_array_columns_equal_dict_rows(self):
        rng = np.random.default_rng(11)
        table = {
            "cls": np.array(["joint", "fixed", "joint", "fixed", "joint"] * 40),
            "i": rng.integers(0, 6, 200),
            "x": rng.normal(size=200),
            "viol": (rng.random(200) < 0.1).astype(float),
        }
        rows = [dict(zip(table, cells)) for cells in zip(*(c.tolist() for c in table.values()))]
        for group_by in (None, "cls", "i"):
            got = summarize_columns(table, group_by=group_by)
            assert got == summarize_columns(_columns(rows), group_by=group_by) == summarize_by_row_scan(rows, group_by=group_by)

    def test_no_columns_and_no_rows_rejected(self):
        with pytest.raises(SummaryError):
            summarize_columns({})
        with pytest.raises(SummaryError):
            summarize_columns({"v": np.zeros(0)})


def _cell_text(value) -> str:
    return "" if value is None else repr(value) if isinstance(value, float) else str(value)


class TestCsvWriter:
    @pytest.mark.parametrize("rows", [1, experiments._BLOCK_ROWS, experiments._BLOCK_ROWS + 1])
    def test_blocks_match_per_cell_formatting(self, tmp_path, rows):
        rng = np.random.default_rng(rows)
        # numeric columns are formatted once per distinct bit pattern: -0.0
        # and 0.0, and every nan, must keep their own per-cell text
        tricky = [0.1, 1e-300, 1e16, 123456789.125, 5e-324, 1.0, -2.5, -0.0, 0.0, math.nan, math.inf, -math.inf, 1e-05]
        big = [2**62, -(2**63), 2**63 - 1, 0, -1]
        table = {
            "f": np.array([tricky[k % len(tricky)] * rng.random() if k % 3 else tricky[k % len(tricky)] for k in range(rows)]),
            "i": np.arange(rows) - 3,
            "big": np.array([big[k % len(big)] for k in range(rows)]),
            "s": np.array(["fixed_labeler", "joint_shift"])[np.arange(rows) % 2],
            "b": np.arange(rows) % 3 == 0,
            "cell": [None if k % 3 == 0 else k if k % 3 == 1 else k / 7 for k in range(rows)],
        }
        cfg = preset_config("minimax_demo", "desk", seed=6)
        path = tmp_path / "out.csv"
        assert experiments._write_csv(path, table, cfg, "0123abcd") == rows
        lines = path.read_text().split("\n")
        assert lines[0].startswith("# generated_at=") and lines[0].endswith(" config_hash=0123abcd")
        assert lines[1] == "experiment,config_hash,seed,f,i,big,s,b,cell"
        cells = [c.tolist() if isinstance(c, np.ndarray) else c for c in table.values()]
        want = ["minimax_demo,0123abcd,6," + ",".join(map(_cell_text, row)) for row in zip(*cells)]
        assert lines[2:] == want + [""]


# SHA-256 of the CSV body (below the timestamped line) and of summary.json of
# every desk experiment at seed 3 and of the paper hard sweep at seed 104;
# replication experiments run smaller overlays
_PINNED = {
    "gating_curve": ({}, "fce3ee6a5270b495dc9d4c4bc4ad142f0e1e7a8b59e8d6996c2b6c3e3e994794", "8e64e2de349f5e1ab82f3f6de2fc9bca902adacaf65901ab4c65e3db1e11c7ed"),
    "bounds_sweep": ({}, "5e2e68554923dd468e7db02c414414e88609cb581da18dd8324e575bdee161c0", "1f3da0f95f62c8c5d8569c61bc4e16b8be422d4159187daef040caa8a7dd99e3"),
    "diameter_ablation": ({}, "1a232061efdf983b7fcd3deb7d84ccfc761d2a253aa710eb689507489641a056", "1a8db6e91b1404034882c4d86fcdf0448b04c05a32960363ef425f3b32fdb2b2"),
    "noise_ablation": ({"replications": 20}, "0acd12f4920a0125e552b1d6adad7f28bd6f8beebf408e611e1a82fb7780efbc", "e06fe9e370463a7c357d36bb14b54c5879b479fc5c20bb5118db32b00d1292ab"),
    "sample_complexity": (
        {"replications": 40, "violation_replications": 60},
        "1cb398128b041c21dc02a2099d90830f35c3bac3ce09b5eea544c400c9de3789",
        "ad99d2faf36a3373fe48785714df23d101067e1a927d8f583aab2d8e83fd166a",
    ),
    "mechanism_complexity": ({"replications": 20}, "bdee5a178f4c5246c86b0876c44be8e3f3761a0e6d93fc3f1cff569caf21cb12", "1f88e1f5228195805ef6da153592dd486540233d4fae9dae48c1e73b57991f21"),
    "minimax_demo": ({}, "5c05a5c50140256b18917db18ced5f1474a965984d140fb21784e9dfced5b911", "a30778851754229032e057ea094dc275e2671fcba82405cc3a4d2777572f221a"),
    "dro_train": ({}, "51c56dd37104c0a49ae157016513966e32b1450e68cc219bda996ae902dad3bb", "914b30eb1a4627860ba7bd6fb3f2a898b770baa8eb35961f0f8d67969c1854f7"),
    "certificate": (
        {"annotations": "ann.csv", "regime": "conservative_stochastic_hard"},
        "95f4fedf18d5982be188c1dee3c350f2d740711984bd12629854e791c4592e9f",
        "9c5f0e8493bed6b7d04dbaec56e0e17af2d1e601c93b93819efdc2bc16268ca0",
    ),
}


class TestByteIdentity:
    def _digests(self, doc, out):
        run(validate_config({"schema_version": SCHEMA_VERSION, **doc}), out)
        body = (out / f"{doc['experiment']}.csv").read_bytes().split(b"\n", 1)[1]
        return hashlib.sha256(body).hexdigest(), hashlib.sha256((out / "summary.json").read_bytes()).hexdigest()

    @pytest.mark.parametrize("experiment", sorted(_PINNED))
    def test_desk_outputs_are_pinned(self, experiment, tmp_path, monkeypatch):
        params, body, summary = _PINNED[experiment]
        if experiment == "certificate":
            # a relative path, so the config (and its hash) is the same in every directory
            monkeypatch.chdir(tmp_path)
            labs = [Threshold(-1.0), Threshold(0.5), Sigmoid(2.0, -0.3)]
            write_annotations("ann.csv", sample_annotated(Gaussian(0.0, 1.0), labs, 300, "hard", GenSeed(7)))
        doc = {"experiment": experiment, "seed": 3, "params": params}
        assert self._digests(doc, tmp_path / "out") == (body, summary)

    def test_paper_hard_sweep_is_pinned(self, tmp_path):
        doc = {"experiment": "bounds_sweep", "preset": "paper", "seed": 104, "params": {"regimes": ["hard"]}}
        assert self._digests(doc, tmp_path) == (
            "7411e06774e8229e57e35d7d9480d16659d15ae5a91da675ada22d9378621d59",
            "2aa8dc045a4dfa43903d383572f3d9be8e046c3314ec5deb7036dcbba5778cc0",
        )

    def test_soft_diameter_ablation_is_pinned(self, tmp_path):
        # the Probit labelers, soft sampling and the soft disagreement Gram
        doc = {"experiment": "diameter_ablation", "seed": 3, "params": {"regime": "soft", "env_count": 8, "runs_per_env": 4}}
        assert self._digests(doc, tmp_path) == (
            "b89ab7ee25cbf7b3b0362cc81eaec70cfe64437a5eef48ce48fd3303f5cd8c30",
            "c8b37015777c6d18acfbdcd9776655003783396c3b9e3be08e1fee322b767630",
        )


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

    @pytest.mark.parametrize(
        "experiment, params",
        [
            pytest.param(
                "sample_complexity",
                {"n_list": [10, 30, 100], "replications": 40, "violation_n_list": [10], "violation_replications": 60},
                id="sample_complexity",
            ),
            pytest.param("mechanism_complexity", {"n_y_list": [2, 12], "replications": 30}, id="mechanism_interval"),
            pytest.param(
                "noise_ablation", {"eps_max_list": [0.1, 0.25], "replications": 20, "n": 200}, id="noise_ablation"
            ),
            pytest.param("diameter_ablation", {"env_count": 4, "runs_per_env": 5}, id="diameter_hard"),
            pytest.param(
                "diameter_ablation", {"regime": "soft", "env_count": 4, "runs_per_env": 5}, id="diameter_soft"
            ),
        ],
    )
    def test_jobs_do_not_change_output(self, experiment, params, tmp_path):
        cfg = validate_config({"schema_version": SCHEMA_VERSION, "experiment": experiment, "seed": 11, "params": params})
        run(cfg, tmp_path / "serial", jobs=1)
        run(cfg, tmp_path / "parallel", jobs=3)
        for out in (f"{experiment}.csv", "summary.json"):
            serial, parallel = (tmp_path / d / out for d in ("serial", "parallel"))
            if out == "summary.json":
                assert serial.read_text() == parallel.read_text()
            else:
                assert _csv_body(serial) == _csv_body(parallel)

    @pytest.mark.parametrize(
        "experiment, key, repeated, once, params",
        [
            (
                "sample_complexity", "n_list", [10, 30, 30, 100], [10, 30, 100],
                {"violation_n_list": [10], "violation_replications": 20},
            ),
            ("mechanism_complexity", "n_y_list", [2, 12, 12], [2, 12], {}),
            ("noise_ablation", "eps_max_list", [0.1, 0.1, 0.25], [0.1, 0.25], {}),
        ],
        ids=["sample_complexity", "mechanism_complexity", "noise_ablation"],
    )
    def test_repeated_size_is_run_once(self, experiment, key, repeated, once, params):
        # a size (or noise level) listed twice gives the table and summary of
        # the one listed once: no group's replications run twice, and the
        # log-log slope is fitted over distinct n
        runner = getattr(experiments, f"_run_{experiment}")
        results = []
        for sizes in (repeated, once):
            doc = {"schema_version": SCHEMA_VERSION, "experiment": experiment, "seed": 5}
            cfg = validate_config({**doc, "params": {**params, key: sizes, "replications": 20}})
            results.append(runner(cfg, 1))
        (table, summary), (want, want_summary) = results
        assert len(table["rep"]) == len(want["rep"])
        assert list(table) == list(want)
        for column in want:
            assert np.array_equal(table[column], want[column])
        assert summary == want_summary

    def test_grid_environment_is_parsed(self):
        # Threshold(-1) and Threshold(1) disagree only on the atom at 0
        env = {"type": "grid", "points": [-1, 0, 2], "weights": [0.25, 0.5, 0.25]}
        doc = {"schema_version": SCHEMA_VERSION, "experiment": "sample_complexity", "seed": 5}
        params = {"env": env, "n_list": [10], "replications": 5, "violation_n_list": [10], "violation_replications": 5}
        _, summary = experiments._run_sample_complexity(validate_config({**doc, "params": params}), 1)
        assert summary["population_diameter"] == 0.5

    def test_repeated_regime_is_swept_once(self, tmp_path):
        # a regime listed twice gives the table of the regime listed once
        tables = []
        for regimes in (["hard", "hard"], ["hard"]):
            cfg = validate_config(
                {"schema_version": SCHEMA_VERSION, "experiment": "bounds_sweep", "params": {"regimes": regimes}}
            )
            table, summary = experiments._run_bounds_sweep(cfg, 1)
            tables.append(table)
            assert summary["joint_shift_hard"]["pairs"] == 180
        assert list(tables[0]) == list(tables[1])
        for column in tables[1]:
            assert np.array_equal(tables[0][column], tables[1][column])

    def test_minimax_demo_labels_each_crisp_family_once_per_grid(self, tmp_path, monkeypatch):
        # every (theta, world) pair of one eta's grid goes in one exact
        # batch, which calls each crisp family's label kernel once, on the
        # points of all its labelers
        import credal.dro as dro

        batches = []
        batched = dro.joint_tv_many

        def batch(pairs):
            batches.append(({id(lab) for pair in pairs for lab in pair[1::2]}, {}))
            return batched(pairs)

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
        assert summary["abs_tol"] == measures.ABS_TOL == 1e-8

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
            want = pairwise_bounds(spec, a, b, with_exact=True)
            got = (float(r["lower"]), float(r["upper"]), float(r["exact"]))
            assert got == (want.lower, want.upper, want.exact)
            if r["pair_class"] == "joint_shift":
                exact = joint_tv_exact(
                    spec.environments[a[0]], spec.labelers[a[1]],
                    spec.environments[b[0]], spec.labelers[b[1]],
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
            want = pairwise_bounds(spec, (0, 0), (1, 1), with_exact=True)
            got = (float(row["lower_bound"]), float(row["upper_bound"]), float(row["joint_tv"]))
            assert got == (want.lower, want.upper, want.exact)
            envs, labs = spec.environments, spec.labelers
            joint = joint_tv_exact(envs[0], labs[0], envs[1], labs[1])
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
        # an integer longer than Python parses is a JSON error too, not a traceback
        bad.write_text('{"schema_version": %d, "experiment": "gating_curve", "params": {"window_std": 1%s}}' % (SCHEMA_VERSION, "0" * 5000))
        assert cli_main(["gating_curve", "--config", str(bad), "--out", str(tmp_path)]) == 2
        assert "is not valid JSON" in capsys.readouterr().err
        # the quadrature tolerance is not a setting: a quadrature block is an unknown key
        doc = {"schema_version": SCHEMA_VERSION, "experiment": "gating_curve", "quadrature": {"abs_tol": 1e-8}}
        bad.write_text(json.dumps(doc))
        assert cli_main(["gating_curve", "--config", str(bad), "--out", str(tmp_path)]) == 2
        assert "unknown keys in config: ['quadrature']" in capsys.readouterr().err

    def test_experiment_mismatch_exits_2(self, tmp_path, capsys):
        cfg = preset_config("minimax_demo", "desk")
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg.document()))
        code = cli_main(["gating_curve", "--config", str(path), "--out", str(tmp_path)])
        assert code == 2

    @pytest.mark.parametrize(
        "flags, match",
        [
            (["noise_ablation", "--seed", "-1"], "seed must be a non-negative integer"),
            (["minimax_demo", "--config", "{cfg}", "--seed", "-1"], "seed must be a non-negative integer"),
            (["minimax_demo", "--config", "{cfg}", "--preset", "paper"], "--preset conflicts"),
            (["certificate"], "needs params.annotations"),
        ],
    )
    def test_flag_errors_exit_2(self, tmp_path, capsys, flags, match):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(preset_config("minimax_demo", "desk", seed=5).document()))
        code = cli_main([f.format(cfg=path) for f in flags] + ["--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and match in err

    def test_flags_overlay_a_config_file(self, tmp_path, capsys):
        doc = {
            "schema_version": SCHEMA_VERSION,
            "experiment": "sample_complexity",
            "seed": 2,
            "params": {"n_list": [10, 100], "replications": 5, "violation_n_list": [10], "violation_replications": 5},
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        code = cli_main(["sample_complexity", "--config", str(path), "--delta", "0.1", "--seed", "4", "--out", str(tmp_path / "out")])
        assert code == 0
        manifest = json.loads(capsys.readouterr().out)
        assert manifest["config_hash"] == config_hash(validate_config({**doc, "delta": 0.1, "seed": 4}))
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert (summary["config"]["delta"], summary["config"]["seed"]) == (0.1, 4)
        assert summary["config"]["params"]["replications"] == 5

    def test_certificate_regime_overlays_a_config_file(self, tmp_path, capsys):
        ann = tmp_path / "ann.csv"
        write_annotations(ann, sample_annotated(Gaussian(0, 1), [Threshold(-1), Threshold(1)], 200, "hard", GenSeed(3)))
        doc = {"schema_version": SCHEMA_VERSION, "experiment": "certificate", "delta": 0.2, "params": {"annotations": str(ann)}}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        code = cli_main(["certificate", "--config", str(path), "--regime", "conservative_stochastic_hard", "--out", str(tmp_path / "out")])
        assert code == 0
        cert = json.loads(capsys.readouterr().out)
        assert (cert["regime"], cert["delta"], cert["n"]) == ("conservative_stochastic_hard", 0.2, 200)

    def test_config_without_rows_exits_2(self, tmp_path, capsys):
        for params in ({"regimes": []}, {"regimes": ["hard"], "grid_env_count": 1, "labeler_count": 1}):
            path = tmp_path / "cfg.json"
            doc = {"schema_version": SCHEMA_VERSION, "experiment": "bounds_sweep", "params": params}
            path.write_text(json.dumps(doc))
            code = cli_main(["bounds_sweep", "--config", str(path), "--out", str(tmp_path / "out")])
            assert code == 2
            assert "bounds_sweep" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "experiment, params",
        [
            ("mechanism_complexity", {"n_y_list": [1]}),
            ("noise_ablation", {"annotators": 1}),
            ("bounds_sweep", {"labeler_count": 0}),
            ("gating_curve", {"window_std": -1}),
            # a value the sampler rejects inside a replication is a config error too
            ("diameter_ablation", {"n": 0}),
            ("noise_ablation", {"n": 0}),
            # an empty grid, and a group of replications with none
            ("minimax_demo", {"grid_n": 0}),
            ("sample_complexity", {"replications": 0}),
        ],
    )
    def test_invalid_library_input_exits_2(self, tmp_path, capsys, experiment, params):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"schema_version": SCHEMA_VERSION, "experiment": experiment, "params": params}))
        code = cli_main([experiment, "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and experiment in err

    @pytest.mark.parametrize(
        "params, param",
        [({"thresholds": [0.0]}, "thresholds"), ({"regime": "soft", "probit_biases": []}, "probit_biases")],
    )
    def test_diameter_ablation_needs_two_labelers(self, tmp_path, capsys, params, param):
        path = tmp_path / "cfg.json"
        doc = {"schema_version": SCHEMA_VERSION, "experiment": "diameter_ablation", "params": params}
        path.write_text(json.dumps(doc))
        assert cli_main(["diameter_ablation", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: diameter_ablation needs at least two") and param in err

    @pytest.mark.parametrize(
        "experiment, params, where",
        [
            ("diameter_ablation", {"env_count": 3, "runs_per_env": 4}, "env_index=1 rep=2"),
            ("noise_ablation", {"eps_max_list": [0.1, 0.25], "replications": 4, "n": 50}, "eps_max=0.25 rep=2"),
            (
                "sample_complexity",
                {"n_list": [10, 30], "replications": 4, "violation_n_list": [10], "violation_replications": 4},
                "n=30 rep=2",
            ),
            ("mechanism_complexity", {"n_y_list": [2, 12], "replications": 4}, "n_y=12 rep=2"),
        ],
    )
    def test_failed_replication_names_its_coordinates(self, tmp_path, capsys, monkeypatch, experiment, params, where):
        # four replications a group, run serially: the seventh estimate is group 1's replication 2
        estimate, calls = experiments.empirical_disagreement, []

        def failing(batch):
            calls.append(None)
            if len(calls) == 7:
                raise FloatingPointError("injected")
            return estimate(batch)

        monkeypatch.setattr(experiments, "empirical_disagreement", failing)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"schema_version": SCHEMA_VERSION, "experiment": experiment, "params": params}))
        code = cli_main([experiment, "--config", str(path), "--jobs", "1", "--out", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr().err == f"numerical failure: {experiment} failed at {where}: injected\n"

    def test_quadrature_failure_names_its_pair(self, tmp_path, capsys, monkeypatch):
        # at an unreachable tolerance the first window's expected conditional TV runs out of budget: the
        # error names window 0's vertex pair (i, j, ip, jp) and the value, with the value's own residual
        monkeypatch.setattr(measures, "ABS_TOL", 1e-300)
        code = cli_main(["gating_curve", "--out", str(tmp_path / "out")])
        assert code == 1
        env, labs = Gaussian(-6.5, 1.0), (Sigmoid(1.0, 1.0), Sigmoid(1.0, -1.0))
        value = (env, labs[0], env, labs[1])
        with pytest.raises(measures.QuadratureError) as alone:
            measures.expected_conditional_tv(env, *labs)
        where = f"vertex pair (0, 0, 1, 1) (row 0), value {value!r}"
        residual = f"(residual estimate {alone.value.residual:.3e})"
        assert capsys.readouterr().err == f"numerical failure: {where}: quadrature eval budget exhausted {residual}\n"

    def test_sweep_failure_names_its_vertex_pair(self, tmp_path, capsys, monkeypatch):
        # the error names the first row that reads the value that ran out of budget, an expected
        # conditional TV of the soft sweep, not the value's slot among the sweep's distinct integrals
        monkeypatch.setattr(measures, "ABS_TOL", 1e-300)
        code = cli_main(["bounds_sweep", "--out", str(tmp_path / "out")])
        assert code == 1
        env, labs = Gaussian(1.7999999999999998, 1.0), (Sigmoid(1.0, 4.0), Sigmoid(1.0, 1.3333333333333335))
        where = f"vertex pair (0, 0, 4, 1) (row 16), value {(env, labs[0], env, labs[1])!r}"
        assert capsys.readouterr().err.startswith(f"numerical failure: {where}: quadrature eval budget exhausted (")

    def test_training_failure_names_its_world(self, tmp_path, capsys, monkeypatch):
        # the exact 0-1 risks need no quadrature; the first smoothed gradient, the worst world's, fails
        monkeypatch.setattr(measures, "ABS_TOL", 1e-300)
        code = cli_main(["dro_train", "--out", str(tmp_path / "out")])
        assert code == 1
        cfg = preset_config("dro_train")
        spec = CredalSpec((Gaussian(0.0, 1.0),), (Threshold(-1.0), Threshold(1.0)))
        h = dro._default_init(spec, cfg.seed)
        i, j = dro.world_risks(h, spec).worst_world
        world = (spec.environments[i], spec.labelers[j])
        with pytest.raises(measures.QuadratureError) as alone:
            dro._smoothed_gradient(h, [world], [1.0])
        assert str(alone.value).startswith(f"world {world!r}, parameter 0 of {h!r}: quadrature eval budget exhausted (")
        assert capsys.readouterr().err == f"numerical failure: {alone.value}\n"

    @pytest.mark.parametrize(
        "experiment, params, match",
        [
            ("gating_curve", {"sigmoid_boundaries": [-1.0, 0.0, 1.0]}, "params.sigmoid_boundaries must be a list of 2 items"),
            ("sample_complexity", {"n_list": 100}, "params.n_list must be a list"),
            ("dro_train", {"steps": "10"}, "params.steps must be an integer"),
            ("dro_train", {"oracle_grid": [-3.0, 3.0, 601.0]}, "params.oracle_grid[2] must be an integer"),
            ("bounds_sweep", {"labeler_count": True}, "params.labeler_count must be an integer"),
            ("noise_ablation", {"env": {"type": "gaussian", "mean": "abc", "std": 1.0}}, "params.env: gaussian environment mean"),
            ("mechanism_complexity", {"method": "interval"}, "unknown keys in params for mechanism_complexity: ['method']"),
            ("gating_curve", {"window_std": 10**400}, "params.window_std must be a number that a float can hold"),
            # every integer param is a count
            ("bounds_sweep", {"grid_env_count": -1}, "params.grid_env_count must be a non-negative integer"),
            ("bounds_sweep", {"random_env_count": -1}, "params.random_env_count must be a non-negative integer"),
        ],
    )
    def test_wrong_shaped_param_exits_2(self, tmp_path, capsys, experiment, params, match):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"schema_version": SCHEMA_VERSION, "experiment": experiment, "params": params}))
        code = cli_main([experiment, "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and experiment in err and match in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "experiment, params, match",
        [
            ("bounds_sweep", {"regimes": ["hard", "medium"]}, "unknown labeler regime 'medium'"),
            ("diameter_ablation", {"regime": "medium"}, "unknown regime 'medium'"),
            ("sample_complexity", {"thresholds": [0.5]}, "sample_complexity needs at least two thresholds"),
        ],
    )
    def test_param_the_runner_rejects_exits_2(self, tmp_path, capsys, experiment, params, match):
        # well-shaped params whose values the runner cannot use
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"schema_version": SCHEMA_VERSION, "experiment": experiment, "params": params}))
        code = cli_main([experiment, "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err == f"configuration error: {match}\n"

    @pytest.mark.parametrize(
        "text, match",
        [
            (None, "cannot read annotations file"),
            ("# kind=hard classes=2 annotators=2\n0.5,0,1\n0.7,1\n", "malformed annotations file"),
        ],
    )
    def test_certificate_of_a_bad_file_exits_2(self, tmp_path, capsys, text, match):
        ann = tmp_path / "ann.csv"
        if text is not None:
            ann.write_text(text)
        code = cli_main(["certificate", "--annotations", str(ann), "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: {match} {str(ann)!r}: "), err
        if text is not None:
            assert err.endswith("line 3: expected 3 cells, got 2: '0.7,1'\n"), err

    @staticmethod
    def _fake_pool(monkeypatch, cpus):
        """Make the process pool a serial stand-in that records its size and starts no process."""
        sizes = []

        class FakePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(experiments, "ProcessPoolExecutor", FakePool)
        monkeypatch.setattr(experiments.os, "cpu_count", lambda: cpus)
        return sizes

    def test_jobs_below_one_exit_2(self, tmp_path, capsys, monkeypatch):
        sizes = self._fake_pool(monkeypatch, 4)
        for jobs in ("0", "-3"):
            with pytest.raises(SystemExit) as exc:
                cli_main(["sample_complexity", "--jobs", jobs, "--out", str(tmp_path / "out")])
            assert exc.value.code == 2 and f"--jobs must be at least 1, got {jobs}" in capsys.readouterr().err
        assert sizes == [] and not (tmp_path / "out").exists()

    def test_pool_size_is_bounded_by_items_and_cores(self, tmp_path, capsys, monkeypatch):
        sizes = self._fake_pool(monkeypatch, 4)
        assert experiments._parallel_map(abs, [-1, 2, -3], 5000) == [1, 2, 3]
        assert experiments._parallel_map(abs, list(range(-9, 0)), 5000) == list(range(9, 0, -1))
        assert experiments._parallel_map(abs, list(range(-9, 0)), 2) == list(range(9, 0, -1))
        assert sizes == [3, 4, 2]
        monkeypatch.setattr(experiments.os, "cpu_count", lambda: None)  # unknown: one core, run serially
        assert experiments._parallel_map(abs, [-1, 2], 5000) == [1, 2] and sizes == [3, 4, 2]
        monkeypatch.setattr(experiments.os, "cpu_count", lambda: 4)
        path = tmp_path / "cfg.json"
        # every replication experiment reaches the pool
        for experiment, params in [
            (
                "sample_complexity",
                {"n_list": [10, 30], "replications": 4, "violation_n_list": [10], "violation_replications": 4},
            ),
            ("diameter_ablation", {"env_count": 2, "runs_per_env": 4}),
            ("noise_ablation", {"eps_max_list": [0.1], "replications": 4, "n": 50}),
        ]:
            before = len(sizes)
            path.write_text(json.dumps({"schema_version": SCHEMA_VERSION, "experiment": experiment, "params": params}))
            code = cli_main([experiment, "--config", str(path), "--jobs", "5000", "--out", str(tmp_path / experiment)])
            assert code == 0 and sizes[before:] and max(sizes[before:]) <= 4, experiment

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
