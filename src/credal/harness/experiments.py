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


def _draw_reps(task) -> list[tuple]:
    """The rows of one chunk of a group's replications (see :func:`_replicate`)."""
    draw, args, reps, where = task
    rows = []
    for rep in reps:
        try:
            rows.append(draw(*args, rep))
        except (ValidationError, ConfigError):
            raise
        except Exception as exc:
            raise ExperimentError(f"{where} rep={rep}: {exc}") from exc
    return rows


def _replicate(config: ExperimentConfig, jobs: int, names: Sequence[str], groups: list, draw: Callable) -> dict:
    """The replication rows of every group as one table, sorted by its first column and ``rep``.

    A group is ``(value, replications, args)``: replication ``rep`` is the row ``draw(*args, rep)``,
    whose first cell is ``value``.  Each group's replications run in about ``jobs`` contiguous
    chunks.  ``draw`` is a top-level function that draws from its own substream of ``rep``, so the
    rows do not depend on the chunks or the workers.  A ``ValidationError`` or ``ConfigError``
    passes through; any other failure becomes an :class:`ExperimentError` naming the group value
    and the replication.
    """
    where = f"{config.experiment} failed at {names[0]}="
    tasks = []
    for value, total, args in groups:
        step = max(1, total // max(jobs, 1))
        tasks += [(draw, args, range(total)[s : s + step], f"{where}{value}") for s in range(0, total, step)]
    rows = [row for chunk in _parallel_map(_draw_reps, tasks, jobs) for row in chunk]
    return _sort_rows(_table(names, rows), names[0], "rep")


def _concentration_summary(table: dict, key: str, eps: dict) -> dict:
    """The table's summary by ``key``, with each group's error quantiles and Hoeffding-violation rate
    (radius ``eps[value]``) under ``per_<key>``."""
    summary = summarize_columns(table, group_by=key)
    summary[f"per_{key}"] = {}
    for value, radius in eps.items():
        err, viol = summary["groups"][str(value)]["err"], summary["groups"][str(value)]["viol"]
        summary[f"per_{key}"][str(value)] = {
            "replications": err["count"], "q50_err": err["median"], "q95_err": err["q95"], "eps_hoeff": radius,
            "p_viol": viol["mean"], "wilson_low": viol["wilson_low"], "wilson_high": viol["wilson_high"],
            "tightness_ratio": radius / err["q95"] if err["q95"] > 0 else float("inf"),
        }
    return summary


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


def _diameter_row(regime, env, labs, n, master, e_idx, eta_star, rep) -> tuple:
    sub = GenSeed(master).derive(1, e_idx, rep)
    if regime == "hard":
        eta_hat = disagreement_hard_from_labels(sample_hard_arrays(env, labs, n, sub)[1]).eta_hat
    else:
        eta_hat = disagreement_soft_from_probs(sample_soft_arrays(env, labs, n, sub)[1]).eta_hat
    return e_idx, rep, env.mean, env.std, eta_star, eta_hat


def _run_diameter_ablation(config: ExperimentConfig, jobs: int) -> tuple[dict, dict]:
    p = config.params
    regime = p["regime"]
    if regime == "hard":
        param, labs = "thresholds", tuple(Threshold(float(t)) for t in p["thresholds"])
    elif regime == "soft":
        kappa = float(p["probit_kappa"])
        param, labs = "probit_biases", tuple(Probit(kappa, -kappa * float(b)) for b in p["probit_biases"])
    else:
        raise ConfigError(f"unknown regime {regime!r}")
    if len(labs) < 2:
        raise ConfigError(f"diameter_ablation needs at least two {param} in the {regime} regime")
    env_rng = GenSeed(config.seed).derive(0).generator()
    envs = [
        Gaussian(float(env_rng.uniform(*p["mean_range"])), float(env_rng.uniform(*p["std_range"])))
        for _ in range(int(p["env_count"]))
    ]
    lab_pairs = list(itertools.combinations(labs, 2))
    pairs = [(env, l1, env, l2) for env in envs for l1, l2 in lab_pairs]
    eta_stars = np.reshape(joint_tv_many(pairs, config.quadrature), (-1, len(lab_pairs))).max(axis=1)
    groups = [
        (e_idx, int(p["runs_per_env"]), (regime, env, labs, int(p["n"]), config.seed, e_idx, eta_star))
        for e_idx, (env, eta_star) in enumerate(zip(envs, eta_stars))
    ]
    names = ("env_index", "rep", "env_mean", "env_std", "eta_star", "eta_hat")
    table = _replicate(config, jobs, names, groups, _diameter_row)
    table["gap"] = table["eta_hat"] - table["eta_star"]
    table["abs_gap"] = np.abs(table["gap"])
    return table, summarize_columns(table)


def _noise_row(env, base, k, n, master, eps_idx, eps_max, rep) -> tuple:
    sub = GenSeed(master).derive(eps_idx, rep)
    eps = sub.generator().uniform(0.0, eps_max, size=k)
    eta_true, bound = noisy_closed_form(eps.tolist())
    _, labels = sample_hard_arrays(env, tuple(SymmetricNoise(base, float(e)) for e in eps), n, sub.derive(1))
    return eps_max, rep, eta_true, bound, disagreement_hard_from_labels(labels).eta_hat


def _run_noise_ablation(config: ExperimentConfig, jobs: int) -> tuple[dict, dict]:
    p = config.params
    args = (parse_env(p["env"]), Threshold(float(p["base_threshold"])), int(p["annotators"]), int(p["n"]), config.seed)
    groups = [
        (eps_max, int(p["replications"]), (*args, eps_idx, eps_max))
        for eps_idx, eps_max in enumerate(dict.fromkeys(map(float, p["eps_max_list"])))
    ]
    table = _replicate(config, jobs, ("eps_max", "rep", "eta_true", "bound", "eta_hat"), groups, _noise_row)
    table["gap"] = table["eta_hat"] - table["eta_true"]
    table["abs_gap"] = np.abs(table["gap"])
    table["hat_exceeds_bound"] = (table["eta_hat"] > table["bound"]).astype(float)
    return table, summarize_columns(table, group_by="eps_max")


def _concentration_row(env, labs, n, master, stream, value, constants, eta_star, eps, rep) -> tuple:
    """Replication ``rep`` of a concentration group, from substream ``(stream, value, rep)``."""
    _, labels = sample_hard_arrays(env, labs, n, GenSeed(master).derive(stream, value, rep))
    eta_hat = disagreement_hard_from_labels(labels).eta_hat
    err = abs(eta_hat - eta_star)
    return value, rep, *constants, eta_hat, err, float(err > eps)


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
    eps = {n: hoeffding_epsilon(n, len(labs), config.delta) for n in sorted(plan)}
    groups = [(n, plan[n], (env, labs, n, config.seed, 2, n, (), eta_star, eps[n])) for n in eps]
    table = _replicate(config, jobs, ("n", "rep", "eta_hat", "err", "viol"), groups, _concentration_row)
    summary = _concentration_summary(table, "n", eps)
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
    groups, eta_stars, eps = [], {}, {}
    for n_y in dict.fromkeys(map(int, p["n_y_list"])):
        labs, eta_stars[n_y] = interval_mechanisms(n_y, env, float(p["pinned_mass"]))
        eps[n_y] = hoeffding_epsilon(n, n_y, config.delta)
        args = (env, labs, n, config.seed, 3, n_y, (eta_stars[n_y],), eta_stars[n_y], eps[n_y])
        groups.append((n_y, int(p["replications"]), args))
    names = ("n_y", "rep", "eta_star", "eta_hat", "err", "viol")
    table = _replicate(config, jobs, names, groups, _concentration_row)
    summary = _concentration_summary(table, "n_y", eps)
    for n_y, eta_star in eta_stars.items():
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
