"""Experiment runners: seeded replication sweeps emitting CSV rows + a JSON summary.

Every runner is deterministic given the config seed: replication r of
experiment e draws from an independent Philox substream, rows carry the
replication coordinates, and the CSV body is sorted before writing so the
output is schedule-independent.  Runners return ``(table, summary)``: the
table maps each CSV column, in order, to an equal-length column, a numpy
array or a list of cells (see :mod:`credal.harness.summary`).  :func:`run`
writes the table in blocks of rows, prefixing every CSV line with the
``experiment,config_hash,seed`` provenance columns.  The CSV gets one
timestamped comment line; everything below it is byte-reproducible for a
given config hash.
"""

from __future__ import annotations

import datetime
import itertools
import json
import os
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from credal.dro import ThresholdClassifier, TrainConfig, _risks, brute_force_minimax, train, world_risks
from credal.estimation import (
    certificate,
    disagreement_hard_from_labels,
    disagreement_soft_from_probs,
    hoeffding_epsilon,
    noisy_closed_form,
    read_annotations,
    empirical_disagreement_hard,
    empirical_disagreement_soft,
)
from credal.harness.config import ConfigError, ExperimentConfig, config_hash, parse_env
from credal.harness.summary import SummaryError, summarize_columns
from credal.measures import (
    Environment,
    Gaussian,
    Probit,
    Sigmoid,
    SymmetricNoise,
    Threshold,
    ValidationError,
    joint_tv_many,
)
from credal.sets import PAIR_CLASSES, CredalSpec, _pair_classes, _pair_values, _vertex_pairs
from credal.synthgen import (
    GenSeed,
    interval_mechanisms,
    minimax_instance,
    sample_hard_arrays,
    sample_soft_arrays,
)


class ExperimentError(RuntimeError):
    """A replication failed; message carries the (config, replication) coordinates."""


def _parallel_map(fn: Callable, items: Sequence, jobs: int) -> list:
    # a fork pool starts all its workers at the first submit: no more than there are items or cores
    workers = min(jobs, len(items), os.cpu_count() or 1)
    if workers <= 1:
        return [fn(item) for item in items]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


# rows formatted and written at a time: the text of one block is in memory
_BLOCK_ROWS = 4096


def _cells(column) -> Callable[[int, int], list[str]]:
    """CSV text of rows ``[a, b)``: ``repr`` for floats, ``str`` for ints, bools and strings, ``""`` for None.

    Numbers are formatted once per distinct bit pattern (``-0.0`` keeps its text), strings and lists per block.
    """
    if isinstance(column, np.ndarray) and column.dtype.kind in "fiub":
        # return_index sorts stably, with a kernel a run already maps in; the default sort maps ~190 KiB more code
        values, _, at = np.unique(column.view(f"i{column.itemsize}"), return_index=True, return_inverse=True)
        fmt = repr if column.dtype.kind == "f" else str
        texts = np.array(list(map(fmt, values.view(column.dtype).tolist())), dtype=object)
        return lambda a, b: texts.take(at[a:b]).tolist()
    if isinstance(column, np.ndarray):
        return lambda a, b: list(map(str, column[a:b].tolist()))
    return lambda a, b: ["" if v is None else repr(v) if isinstance(v, float) else str(v) for v in column[a:b]]


def _write_csv(path: Path, table: dict, config: ExperimentConfig, cfg_hash: str) -> int:
    """Write the table under the stamped and header lines, one block of rows at a time; return its row count."""
    columns = list(table)
    rows = len(table[columns[0]])
    stamped = f"# generated_at={datetime.datetime.now(datetime.timezone.utc).isoformat()} config_hash={cfg_hash}"
    prefix = f"{config.experiment},{cfg_hash},{config.seed},"
    cells = [_cells(table[c]) for c in columns]
    with open(path, "w") as out:
        out.write(f"{stamped}\nexperiment,config_hash,seed,{','.join(columns)}\n")
        for start in range(0, rows, _BLOCK_ROWS):
            block = [c(start, start + _BLOCK_ROWS) for c in cells]
            out.write(prefix + f"\n{prefix}".join(map(",".join, zip(*block))) + "\n")
    return rows


def _table(names: Sequence[str], rows: Sequence[tuple]) -> dict:
    """The table of row tuples, columns named in order: an array each, or a list where a cell is None."""
    columns = {name: [row[k] for row in rows] for k, name in enumerate(names)}
    return {name: column if None in column else np.array(column) for name, column in columns.items()}


def _stack(tables: list[dict]) -> dict:
    """One table of the rows of ``tables`` (which share their columns), in order."""
    return {key: np.concatenate([t[key] for t in tables]) for key in (tables[0] if tables else ())}


def _sort_rows(table: dict, *keys: str) -> dict:
    """The table's rows ordered by the ``keys`` columns, stably, as ``list.sort`` on them."""
    if not table:
        return table
    order = np.lexsort([table[k] for k in reversed(keys)])
    return {name: column[order] for name, column in table.items()}


def _rep_chunks(total: int, jobs: int) -> list[list[int]]:
    """Replication indices 0..total-1 split into about ``jobs`` contiguous chunks."""
    chunk = max(1, total // max(jobs, 1))
    return [list(range(s, min(s + chunk, total))) for s in range(0, total, chunk)]


def _concentration_summary(metrics: dict, eps: float) -> dict:
    """Error quantiles and Hoeffding-violation rate of one replication group, from its summary metrics."""
    err, viol = metrics["err"], metrics["viol"]
    return {
        "replications": err["count"], "q50_err": err["median"], "q95_err": err["q95"], "eps_hoeff": eps,
        "p_viol": viol["mean"], "wilson_low": viol["wilson_low"], "wilson_high": viol["wilson_high"],
        "tightness_ratio": eps / err["q95"] if err["q95"] > 0 else float("inf"),
    }


# ---------------------------------------------------------------------------
# Individual experiments
# ---------------------------------------------------------------------------


def _run_gating_curve(config: ExperimentConfig, jobs: int) -> tuple[dict, dict]:
    p = config.params
    quad = config.quadrature
    slope = float(p["sigmoid_slope"])
    b_left, b_right = (float(b) for b in p["sigmoid_boundaries"])
    l_left = Sigmoid(slope, -slope * b_left)
    l_right = Sigmoid(slope, -slope * b_right)
    gap = float(p["env_gap"])
    std = float(p["window_std"])
    envs = [Gaussian(float(m) + side * gap / 2.0, std) for m in p["window_means"] for side in (-1.0, 1.0)]
    # window k is the joint-shift vertex pair (2k, l_left) -- (2k + 1, l_right)
    pairs = np.arange(len(p["window_means"]))[:, None] * [2, 0, 2, 0] + [0, 0, 1, 1]
    cov, _, _, lower, upper, _, joint = _pair_values(CredalSpec(tuple(envs), (l_left, l_right)), pairs, quad, True)
    names = ("window_center", "cov_tv", "joint_tv", "lower_bound", "upper_bound")
    table = dict(zip(names, (np.array(p["window_means"], dtype=float), cov, joint, lower, upper)))
    table = _sort_rows(table, "window_center")
    return table, summarize_columns(table)


def _sweep_labelers(regime: str, count: int, lo: float, hi: float):
    grid = np.linspace(lo, hi, count)
    if regime == "hard":
        return tuple(Threshold(float(t)) for t in grid)
    if regime == "soft":
        return tuple(Sigmoid(1.0, -float(b)) for b in grid)
    raise ConfigError(f"unknown labeler regime {regime!r}")


def _run_bounds_sweep(config: ExperimentConfig, jobs: int) -> tuple[dict, dict]:
    p = config.params
    quad = config.quadrature
    rng = GenSeed(config.seed).derive(0).generator()
    mean_lo, mean_hi = p["env_mean_range"]
    envs = [Gaussian(float(m), float(p["env_std"])) for m in np.linspace(mean_lo, mean_hi, p["grid_env_count"])]
    for _ in range(p["random_env_count"]):
        envs.append(
            Gaussian(
                float(rng.uniform(*p["random_mean_range"])),
                float(rng.uniform(*p["random_std_range"])),
            )
        )
    regimes = sorted(set(p["regimes"]))
    if not regimes:
        raise ConfigError("bounds_sweep needs at least one labeler regime")
    tables = []
    tol = 2.0 * quad.abs_tol
    for regime in regimes:
        spec = CredalSpec(tuple(envs), _sweep_labelers(regime, p["labeler_count"], *p["labeler_range"]))
        pairs = _vertex_pairs(spec)
        _, _, _, lower, upper, upper_raw, exact = _pair_values(spec, pairs, quad, True)
        tables.append(
            {
                "regime": np.full(len(pairs), regimes.index(regime)),
                "pair_class": _pair_classes(pairs),
                **dict(zip(("i", "j", "ip", "jp"), pairs.T)),
                "exact": exact,
                "lower": lower,
                "upper": upper,
                "gap_low": exact - lower,
                "gap_up": upper_raw - exact,
                "viol": ((exact < lower - tol) | (exact > upper + tol)).astype(float),
            }
        )
    # the regime and class codes sort as their names
    table = _sort_rows(_stack(tables), "regime", "pair_class", "i", "j", "ip", "jp")
    table["regime"] = np.array(regimes)[table["regime"]]
    table["pair_class"] = np.array(PAIR_CLASSES)[table["pair_class"]]
    summary = summarize_columns(table, group_by="pair_class")
    # headline Table-1-style aggregates: mean gaps over joint-shift pairs per regime
    for regime in regimes:
        joint = (table["regime"] == regime) & (table["pair_class"] == "joint_shift")
        if joint.any():
            summary[f"joint_shift_{regime}"] = {
                "pairs": int(joint.sum()),
                "delta_low": float(np.mean(table["gap_low"][joint])),
                "delta_up": float(np.mean(table["gap_up"][joint])),
                "violations": int(table["viol"][joint].sum()),
            }
    return table, summary


def _run_diameter_ablation(config: ExperimentConfig, jobs: int) -> tuple[dict, dict]:
    p = config.params
    quad = config.quadrature
    regime = p["regime"]
    if regime == "hard":
        labs = tuple(Threshold(float(t)) for t in p["thresholds"])
    elif regime == "soft":
        labs = tuple(Probit(float(p["probit_kappa"]), -float(p["probit_kappa"]) * float(b)) for b in p["probit_biases"])
    else:
        raise ConfigError(f"unknown regime {regime!r}")
    seed = GenSeed(config.seed)
    env_rng = seed.derive(0).generator()
    n = int(p["n"])
    rows = []
    for e_idx in range(int(p["env_count"])):
        env = Gaussian(
            float(env_rng.uniform(*p["mean_range"])), float(env_rng.uniform(*p["std_range"]))
        )
        lab_pairs = itertools.combinations(labs, 2)
        eta_star = max(joint_tv_many([(env, l1, env, l2) for l1, l2 in lab_pairs], quad))
        for run in range(int(p["runs_per_env"])):
            sub = seed.derive(1, e_idx, run)
            try:
                if regime == "hard":
                    _, labels = sample_hard_arrays(env, labs, n, sub)
                    eta_hat = disagreement_hard_from_labels(labels).eta_hat
                else:
                    _, probs = sample_soft_arrays(env, labs, n, sub)
                    eta_hat = disagreement_soft_from_probs(probs).eta_hat
            except Exception as exc:
                raise ExperimentError(
                    f"diameter_ablation failed at env={e_idx} run={run}: {exc}"
                ) from exc
            rows.append((e_idx, run, env.mean, env.std, eta_star, eta_hat))
    table = _table(("env_index", "rep", "env_mean", "env_std", "eta_star", "eta_hat"), rows)
    table["gap"] = table["eta_hat"] - table["eta_star"]
    table["abs_gap"] = np.abs(table["gap"])
    return table, summarize_columns(table)


def _run_noise_ablation(config: ExperimentConfig, jobs: int) -> tuple[dict, dict]:
    p = config.params
    env = parse_env(p["env"])
    base = Threshold(float(p["base_threshold"]))
    k = int(p["annotators"])
    n = int(p["n"])
    seed = GenSeed(config.seed)
    rows = []
    for eps_idx, eps_max in enumerate(dict.fromkeys(map(float, p["eps_max_list"]))):
        for rep in range(int(p["replications"])):
            sub = seed.derive(eps_idx, rep)
            rng = sub.generator()
            eps = rng.uniform(0.0, eps_max, size=k)
            eta_true, bound = noisy_closed_form(eps.tolist())
            labs = tuple(SymmetricNoise(base, float(e)) for e in eps)
            try:
                _, labels = sample_hard_arrays(env, labs, n, sub.derive(1))
                eta_hat = disagreement_hard_from_labels(labels).eta_hat
            except Exception as exc:
                raise ExperimentError(
                    f"noise_ablation failed at eps_max={eps_max} rep={rep}: {exc}"
                ) from exc
            rows.append((eps_max, rep, eta_true, bound, eta_hat))
    table = _table(("eps_max", "rep", "eta_true", "bound", "eta_hat"), rows)
    table["gap"] = table["eta_hat"] - table["eta_true"]
    table["abs_gap"] = np.abs(table["gap"])
    table["hat_exceeds_bound"] = (table["eta_hat"] > table["bound"]).astype(float)
    table = _sort_rows(table, "eps_max", "rep")
    return table, summarize_columns(table, group_by="eps_max")


def _concentration_reps(args) -> dict:
    key, value, n, env, labs, stream, reps, master, constants, eta_star, eps = args
    seed = GenSeed(master)
    rows = []
    for rep in reps:
        _, labels = sample_hard_arrays(env, labs, n, seed.derive(stream, value, rep))
        rows.append((value, rep, *constants.values(), disagreement_hard_from_labels(labels).eta_hat))
    table = _table((key, "rep", *constants, "eta_hat"), rows)
    table["err"] = np.abs(table["eta_hat"] - eta_star)
    table["viol"] = (table["err"] > eps).astype(float)
    return table


def _run_concentration(
    config: ExperimentConfig, jobs: int, env: Environment, key: str, stream: int, groups: list
) -> tuple[dict, dict]:
    """Hard-label replications of ``eta_hat`` against ``eta_star`` and its Hoeffding radius, per group.

    A group is ``(value, n, labelers, replications, constants, eta_star, eps)``: its ``key`` column
    holds ``value``, the columns ``constants`` go before ``eta_hat``, and replication ``rep`` draws
    ``n`` labels under ``env`` from substream ``(stream, value, rep)``.  The summary has one
    :func:`_concentration_summary` per group under ``per_<key>``.
    """
    tasks = [
        (key, value, n, env, labs, stream, reps, config.seed, constants, eta_star, eps)
        for value, n, labs, total, constants, eta_star, eps in groups
        for reps in _rep_chunks(total, jobs)
    ]
    try:
        chunks = _parallel_map(_concentration_reps, tasks, jobs)
    except Exception as exc:
        raise ExperimentError(f"{config.experiment} replication failed: {exc}") from exc
    table = _sort_rows(_stack(chunks), key, "rep")
    summary = summarize_columns(table, group_by=key)
    summary[f"per_{key}"] = {
        str(value): _concentration_summary(summary["groups"][str(value)], eps) for value, *_, eps in groups
    }
    return table, summary


def _run_sample_complexity(config: ExperimentConfig, jobs: int) -> tuple[dict, dict]:
    p = config.params
    env = parse_env(p["env"])
    labs = tuple(Threshold(float(t)) for t in p["thresholds"])
    if len(labs) < 2:
        raise ConfigError("sample_complexity needs at least two thresholds")
    lab_pairs = itertools.combinations(labs, 2)
    eta_star = max(joint_tv_many([(env, l1, env, l2) for l1, l2 in lab_pairs], config.quadrature))
    plan: dict[int, int] = {}
    for n in p["n_list"]:
        plan[int(n)] = max(plan.get(int(n), 0), int(p["replications"]))
    for n in p["violation_n_list"]:
        plan[int(n)] = max(plan.get(int(n), 0), int(p["violation_replications"]))
    groups = [
        (n, n, labs, total, {}, eta_star, hoeffding_epsilon(n, len(labs), config.delta))
        for n, total in sorted(plan.items())
    ]
    table, summary = _run_concentration(config, jobs, env, "n", 2, groups)
    summary["population_diameter"] = eta_star
    slope_ns = list(dict.fromkeys(map(int, p["n_list"])))
    if len(slope_ns) >= 3:
        ys = np.log([max(summary["per_n"][str(n)]["q50_err"], 1e-12) for n in slope_ns])
        summary["log_log_slope"] = float(np.polyfit(np.log(slope_ns), ys, 1)[0])
    return table, summary


def _run_mechanism_complexity(config: ExperimentConfig, jobs: int) -> tuple[dict, dict]:
    p = config.params
    env = parse_env(p["env"])
    n = int(p["n"])
    groups = []
    for n_y in dict.fromkeys(map(int, p["n_y_list"])):
        labs, eta_star = interval_mechanisms(n_y, env, float(p["pinned_mass"]))
        eps = hoeffding_epsilon(n, n_y, config.delta)
        groups.append((n_y, n, labs, int(p["replications"]), {"eta_star": eta_star}, eta_star, eps))
    table, summary = _run_concentration(config, jobs, env, "n_y", 3, groups)
    for n_y, *_, eta_star, _ in groups:
        summary["per_n_y"][str(n_y)]["implied_eta_star"] = eta_star
    return table, summary


def _run_minimax_demo(config: ExperimentConfig, jobs: int) -> tuple[dict, dict]:
    p = config.params
    env = parse_env(p["env"])
    quad = config.quadrature
    grid_n = int(p["grid_n"])
    rows = []
    for eta in p["etas"]:
        spec = minimax_instance(float(eta), env)
        grid = np.linspace(env.mean - 4.0 * env.std, env.mean + 4.0 * env.std, grid_n)
        hs = [ThresholdClassifier(float(theta), 1) for theta in grid]
        risks = np.asarray(_risks(hs, spec, quad)).reshape(grid_n, -1)
        min_sum = float(risks.sum(axis=1).min())
        min_max = float(risks.max(axis=1).min())
        sum_ok, minimax_ok = min_sum >= float(eta) - 1e-9, min_max >= float(eta) / 2.0 - 1e-3
        rows.append((float(eta), min_sum, min_max, float(sum_ok), float(minimax_ok)))
    table = _sort_rows(_table(("eta", "min_risk_sum", "min_max_risk", "sum_floor_ok", "minimax_floor_ok"), rows), "eta")
    return table, summarize_columns(table)


def _run_dro_train(config: ExperimentConfig, jobs: int) -> tuple[dict, dict]:
    p = config.params
    env = parse_env(p["env"])
    spec = CredalSpec((env,), tuple(Threshold(float(t)) for t in p["thresholds"]))
    quad = config.quadrature
    mode = p["mode"]
    tau = float(p["tau"]) if mode == "lse" else None
    cfg = TrainConfig(
        mode=mode, tau=tau, step_size=float(p["step_size"]), steps=int(p["steps"]), seed=config.seed
    )
    h, trace = train(spec, cfg, quad)
    lo, hi, count = p["oracle_grid"]
    theta_star, oracle_value = brute_force_minimax(spec, np.linspace(float(lo), float(hi), int(count)), quad)
    rows = [(step, wr.worst_value, *wr.worst_world, wr.lse_value) for step, wr in enumerate(trace)]
    final = world_risks(h, spec, quad)
    table = _table(("step", "worst_value", "worst_i", "worst_j", "lse_value"), rows)
    summary = summarize_columns(table)
    summary["trained"] = {
        "hypothesis": repr(h),
        "worst_value": final.worst_value,
        "oracle_theta": theta_star,
        "oracle_value": oracle_value,
        "gap_to_oracle": final.worst_value - oracle_value,
    }
    return table, summary


def _run_certificate(config: ExperimentConfig, jobs: int) -> tuple[dict, dict]:
    p = config.params
    path = p["annotations"]
    if not path:
        raise ConfigError("certificate experiment needs params.annotations = <file path>")
    try:
        batch = read_annotations(path)
    except OSError as exc:
        raise ConfigError(f"cannot read annotations file {path!r}: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"malformed annotations file {path!r}: {exc}") from exc
    matrix = (
        empirical_disagreement_hard(batch) if batch.kind == "hard" else empirical_disagreement_soft(batch)
    )
    regime = p["regime"]
    cert = certificate(matrix, delta=config.delta, regime=regime)
    row = cert.to_dict()
    return _table(list(row), [tuple(row.values())]), {"certificate": row}


_RUNNERS = {
    "gating_curve": _run_gating_curve,
    "bounds_sweep": _run_bounds_sweep,
    "diameter_ablation": _run_diameter_ablation,
    "noise_ablation": _run_noise_ablation,
    "sample_complexity": _run_sample_complexity,
    "mechanism_complexity": _run_mechanism_complexity,
    "minimax_demo": _run_minimax_demo,
    "dro_train": _run_dro_train,
    "certificate": _run_certificate,
}


def run(config: ExperimentConfig, out_dir, jobs: int = 1) -> dict:
    """Run one experiment; write ``<experiment>.csv`` and ``summary.json``.

    Returns a manifest with the output paths, row count, and config hash.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    try:
        table, summary = _RUNNERS[config.experiment](config, jobs)
    except (SummaryError, ValidationError) as exc:
        raise ConfigError(f"the {config.experiment} config yields no valid result: {exc}") from exc
    cfg_hash = config_hash(config)
    csv_path = out / f"{config.experiment}.csv"
    rows = _write_csv(csv_path, table, config, cfg_hash)
    summary = {
        **summary,
        "experiment": config.experiment,
        "config": config.document(),
        "config_hash": cfg_hash,
        "abs_tol": config.quadrature.abs_tol,
    }
    summary_path = out / "summary.json"
    summary_path.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return {
        "csv": str(csv_path),
        "summary": str(summary_path),
        "rows": rows,
        "config_hash": cfg_hash,
    }
