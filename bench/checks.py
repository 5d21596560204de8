"""Check each workload's outputs against the oracles, and count the failures.

A check compares one output with an oracle (or tests one invariant) and
fails when the output misses its advertised tolerance, breaks its bound
sandwich, or breaks the invariant.  Checks come in two classes:

* ``hard``: outputs of exact paths (CDF arithmetic, discrete sums, closed
  forms, counts, file round trips, re-run identity) and the acceptance
  gates.  Any hard failure makes the run incorrect.
* ``quadrature``: values from numerical integration.  Their failures are
  the library's known accuracy defects: they are counted in ``fail_frac``
  and ``err_over_tol`` and listed, but do not make the run incorrect.

A quadrature check counts as failed only when the trapezoid oracle is
resolved well below the tolerance (its two grid sizes agree to a tenth of
it); otherwise it is counted as unresolved.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import re

import numpy as np

import reference

# the trapezoid oracles resolve errors to a tenth of the tolerance, so a
# smaller error reads as this floor
ERR_FLOOR = 0.1
EXACT_TOL = 1e-12


class Checker:
    """Tally of checked outputs, failures and the worst error relative to tolerance."""

    def __init__(self) -> None:
        self.checked = 0
        self.failed = 0
        self.unresolved = 0
        self.hard_failures: list[str] = []
        self.quadrature_failures: list[str] = []
        self.worst_ratio = 0.0
        self.worst_name = ""

    def value(self, name: str, got, want: float, tol: float, hard: bool, resolution: float = 0.0) -> bool:
        """Check |got - want| <= tol; a missing or non-finite value fails."""
        if got is None or not math.isfinite(got):
            self.checked += 1
            return self._fail(name, f"got {got!r}, oracle {want!r}", hard)
        return self.error(name, abs(got - want), tol, hard, resolution, f"{got!r} vs oracle {want!r}")

    def error(self, name: str, err: float, tol: float, hard: bool, resolution: float = 0.0, detail: str = "") -> bool:
        """Check an absolute error against its tolerance."""
        self.checked += 1
        if not hard and resolution > 0.1 * tol:
            self.unresolved += 1
            return True
        if err / tol > self.worst_ratio:
            self.worst_ratio, self.worst_name = err / tol, name
        if err > tol:
            return self._fail(name, f"error {err:.3e} > {tol:.1e} {detail}", hard)
        return True

    def flag(self, name: str, ok: bool, hard: bool, detail: str = "") -> bool:
        self.checked += 1
        return True if ok else self._fail(name, detail, hard)

    def _fail(self, name: str, detail: str, hard: bool) -> bool:
        self.failed += 1
        (self.hard_failures if hard else self.quadrature_failures).append(f"{name}: {detail}")
        return False

    @property
    def fail_frac(self) -> float:
        # add-one rate: never 0, so a parent with no failures still has a base
        return (self.failed + 1) / (self.checked + 1)

    @property
    def err_over_tol(self) -> float:
        return max(self.worst_ratio, ERR_FLOOR)

    def report(self) -> dict:
        return {
            "checked": self.checked,
            "failed": self.failed,
            "unresolved": self.unresolved,
            "fail_frac": self.fail_frac,
            "err_over_tol": self.err_over_tol,
            "worst": self.worst_name,
            "hard_failures": self.hard_failures[:20],
            "hard_failure_count": len(self.hard_failures),
            "quadrature_failures": self.quadrature_failures[:20],
            "quadrature_failure_count": len(self.quadrature_failures),
        }


def _rows(record: dict) -> list[dict]:
    return list(csv.DictReader(io.StringIO(record["csv"])))


def _summary(record: dict) -> dict:
    return json.loads(record["summary"])


def _sweep_worlds(summary: dict) -> tuple[list[tuple], list[float]]:
    """Environments (mean, std) and labeler boundaries of a bounds_sweep, from its documented config."""
    p = summary["config"]["params"]
    envs = [(float(m), float(p["env_std"])) for m in np.linspace(*p["env_mean_range"], p["grid_env_count"])]
    # the harness draws random environments from Philox substream (0,) of the config seed
    seq = np.random.SeedSequence(entropy=summary["config"]["seed"], spawn_key=(0,))
    r = np.random.Generator(np.random.Philox(seq))
    for _ in range(p["random_env_count"]):
        envs.append((float(r.uniform(*p["random_mean_range"])), float(r.uniform(*p["random_std_range"]))))
    return envs, [float(b) for b in np.linspace(*p["labeler_range"], p["labeler_count"])]


def _vertex(row: dict) -> tuple[int, int, int, int]:
    return int(row["i"]), int(row["j"]), int(row["ip"]), int(row["jp"])


def check_soft_set(inputs: dict, records: dict, chk: Checker) -> None:
    sweep = records["sweep"]
    summary = _summary(sweep)
    tol1 = float(summary["abs_tol"])
    tol2 = 2.0 * tol1
    envs, bounds = _sweep_worlds(summary)
    labs = [("sigmoid", 1.0, -b) for b in bounds]
    for n, row in enumerate(_rows(sweep)):
        i, j, ip, jp = _vertex(row)
        where = f"sweep row {n} ({i},{j})-({ip},{jp})"
        chk.flag(f"{where} viol", float(row["viol"]) == 0.0, hard=False, detail=f"viol={row['viol']}")
        if row["pair_class"] == "fixed_labeler":
            chk.value(f"{where} tv_env", float(row["exact"]), reference.gaussian_tv(envs[i], envs[ip]), tol1, hard=False)
        elif row["pair_class"] == "joint_shift":
            want, res = reference.resolved(reference.smooth_joint_tv, envs[i], labs[j], envs[ip], labs[jp])
            chk.value(f"{where} joint_tv", float(row["exact"]), want, tol2, hard=False, resolution=res)

    spec = inputs["spec"]
    got = records["spec"]
    ect_oracle = []
    for e_idx, env in enumerate(spec["envs"]):
        for p_idx, (l1, l2) in enumerate(itertools.combinations(spec["labelers"], 2)):
            want, res = reference.resolved(reference.smooth_joint_tv, env, l1, env, l2)
            ect_oracle.append(want)
            chk.value(
                f"ect env {e_idx} labelers {l1}-{l2}",
                got["ect"][e_idx][p_idx], want, tol1, hard=False, resolution=res,
            )
    rep = got["report"]
    eta_x = max((reference.gaussian_tv(a, b) for a, b in itertools.combinations(spec["envs"], 2)), default=0.0)
    chk.value("diameter eta_x", rep["eta_x"], eta_x, tol1, hard=False)
    chk.value("diameter eta_star", rep["eta_star"], max(ect_oracle), tol1, hard=False)
    (ia, ja), (ib, jb) = got["argmax_pair"]
    want, res = reference.resolved(
        reference.smooth_joint_tv, spec["envs"][ia], spec["labelers"][ja], spec["envs"][ib], spec["labelers"][jb]
    )
    chk.value("diameter exact at argmax pair", rep["exact"], want, tol2, hard=False, resolution=res)
    chk.flag(
        "diameter sandwich",
        rep["lower"] - tol2 <= rep["exact"] <= rep["upper"] + tol2,
        hard=False,
        detail=f"exact {rep['exact']!r} outside [{rep['lower']!r}, {rep['upper']!r}]",
    )


def check_exact_set(inputs: dict, records: dict, chk: Checker) -> None:
    sweep = records["sweep"]
    summary = _summary(sweep)
    tol1 = float(summary["abs_tol"])
    tol2 = 2.0 * tol1
    envs, thresholds = _sweep_worlds(summary)
    cov_cache: dict = {}
    for n, row in enumerate(_rows(sweep)):
        i, j, ip, jp = _vertex(row)
        ti, tp = thresholds[j], thresholds[jp]
        where = f"sweep row {n} ({i},{j})-({ip},{jp}) {row['pair_class']}"
        exact, lower, upper = (float(row[k]) for k in ("exact", "lower", "upper"))
        # tv_env between unequal-std environments is adaptive quadrature;
        # every other value in a hard row comes from CDF arithmetic
        exact_cov = envs[i][1] == envs[ip][1]
        if row["pair_class"] == "fixed_covariate":
            want = reference.threshold_disagreement(envs[i], ti, tp)
            if chk.value(where, exact, want, tol2, hard=True):
                chk.flag(f"{where} bounds", lower == upper == exact, hard=True)
        elif row["pair_class"] == "fixed_labeler":
            want = reference.gaussian_tv(envs[i], envs[ip])
            chk.value(where, exact, want, tol1, hard=exact_cov)
        else:
            key = (min(i, ip), max(i, ip))
            if key not in cov_cache:
                cov_cache[key] = reference.gaussian_tv(envs[key[0]], envs[key[1]])
            c = cov_cache[key]
            a_i = reference.threshold_disagreement(envs[i], ti, tp)
            a_ip = reference.threshold_disagreement(envs[ip], ti, tp)
            chk.value(where, exact, reference.threshold_joint_tv(envs[i], ti, envs[ip], tp), tol2, hard=True)
            err = max(abs(lower - max(abs(a_i - c), abs(a_ip - c))), abs(upper - min(1.0, c + min(a_i, a_ip))))
            chk.error(f"{where} bounds", err, tol2, hard=exact_cov)
        chk.flag(f"{where} viol", float(row["viol"]) == 0.0, hard=exact_cov, detail=f"viol={row['viol']}")

    for s_idx, (spec, diam, pairs) in enumerate(
        zip(inputs["specs"], records["specs"]["diameters"], records["specs"]["pairs"])
    ):
        pair_oracle = {}
        for a, b, lower, upper, exact, tol in pairs:
            want = reference.discrete_pair_tv(spec, a, b)
            pair_oracle[(tuple(a), tuple(b))] = want
            where = f"spec {s_idx} pair {a}-{b}"
            if chk.value(where, exact, want, tol, hard=True):
                chk.flag(
                    f"{where} sandwich", lower - tol <= want <= upper + tol, hard=True,
                    detail=f"oracle {want!r} outside [{lower!r}, {upper!r}]",
                )
        want = max(pair_oracle.values(), default=0.0)
        lower, upper, exact = diam
        where = f"spec {s_idx} diameter"
        if chk.value(where, exact, want, tol2, hard=True):
            chk.flag(
                f"{where} sandwich", lower - tol2 <= want <= upper + tol2, hard=True,
                detail=f"oracle {want!r} outside [{lower!r}, {upper!r}]",
            )


def check_estimate(inputs: dict, records: dict, chk: Checker) -> None:
    mech = records["mechanism"]
    summary = _summary(mech)
    p = summary["config"]["params"]
    delta = float(summary["config"]["delta"])
    eps_by_ny = {}
    for n_y, entry in summary["per_n_y"].items():
        eps_by_ny[int(n_y)] = reference.hoeffding(int(p["n"]), int(n_y), delta)
        chk.value(f"mechanism n_y={n_y} eps_hoeff", entry["eps_hoeff"], eps_by_ny[int(n_y)], EXACT_TOL, hard=True)
    for n, row in enumerate(_rows(mech)):
        where = f"mechanism row {n} n_y={row['n_y']} rep={row['rep']}"
        eta_star, eta_hat, err = (float(row[k]) for k in ("eta_star", "eta_hat", "err"))
        ok = (
            abs(eta_star - float(p["pinned_mass"])) <= EXACT_TOL
            and err == abs(eta_hat - eta_star)
            and float(row["viol"]) == (1.0 if err > eps_by_ny[int(row["n_y"])] else 0.0)
        )
        chk.flag(where, ok, hard=True, detail=str(row))

    noise = records["noise"]
    summary = _summary(noise)
    p = summary["config"]["params"]
    eps_list = [float(e) for e in p["eps_max_list"]]
    for n, row in enumerate(_rows(noise)):
        e_idx, rep = eps_list.index(float(row["eps_max"])), int(row["rep"])
        # the harness draws annotator error rates from Philox substream (eps_idx, rep)
        seq = np.random.SeedSequence(entropy=summary["config"]["seed"], spawn_key=(e_idx, rep))
        eps = np.random.Generator(np.random.Philox(seq)).uniform(0.0, eps_list[e_idx], size=int(p["annotators"]))
        eta_true, bound = reference.noisy_pair_max(eps)
        where = f"noise row {n} eps_max={row['eps_max']} rep={rep}"
        if chk.value(f"{where} eta_true", float(row["eta_true"]), eta_true, EXACT_TOL, hard=True):
            chk.value(f"{where} bound", float(row["bound"]), bound, EXACT_TOL, hard=True)

    cert = records["certificate"]
    panel = inputs["annotations"]
    got = _summary(cert)["certificate"]
    labels = cert["labels"]
    chk.value("certificate eta_hat", got["eta_hat"], reference.max_pair_disagreement(labels), EXACT_TOL, hard=True)
    n, k = labels.shape
    chk.flag("certificate n, k", (got["n"], got["k"]) == (n, k) == (panel["n"], 5), hard=True, detail=str(got))
    chk.value("certificate epsilon", got["epsilon"], reference.hoeffding(n, k, got["delta"]), EXACT_TOL, hard=True)
    chk.flag(
        "annotation round trip",
        _round_trip(cert["annotations"], cert["x"], labels),
        hard=True,
        detail="annotation file does not reproduce the sampled covariates and labels bit for bit",
    )


def _round_trip(text: str, x: np.ndarray, labels: np.ndarray) -> bool:
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    cells = [ln.split(",") for ln in lines]
    if len(cells) != x.size:
        return False
    got_x = np.asarray([float(c[0]) for c in cells])
    got_labels = np.asarray([[int(v) for v in c[1:]] for c in cells], dtype=np.int64)
    return got_x.tobytes() == x.tobytes() and np.array_equal(got_labels, labels)


_THETA = re.compile(r"theta=([-+0-9.eE]+|nan|inf)")


def check_robust_train(inputs: dict, records: dict, chk: Checker) -> None:
    gate = 0.01  # acceptance gate on the trained worst-world risk
    for mode in ("greedy", "lse"):
        rec = records[mode]
        summary = _summary(rec)
        p = summary["config"]["params"]
        tol = float(summary["abs_tol"])
        env = (float(p["env"]["mean"]), float(p["env"]["std"]))
        thresholds = [float(t) for t in p["thresholds"]]
        trained = summary["trained"]
        theta = float(_THETA.search(trained["hypothesis"]).group(1))
        chk.value(f"{mode} trained worst risk", trained["worst_value"],
                  max(reference.threshold_risk(env, theta, thresholds)), tol, hard=True)
        lo, hi, count = p["oracle_grid"]
        grid_min = min(max(reference.threshold_risk(env, float(t), thresholds)) for t in np.linspace(lo, hi, int(count)))
        chk.value(f"{mode} brute-force oracle", trained["oracle_value"], grid_min, tol, hard=True)
        if mode == "greedy":
            chk.value("greedy trained vs oracle", trained["worst_value"], grid_min, gate, hard=True)
        else:
            tau = float(p["tau"])
            worlds = len(thresholds)
            bad = [
                r["step"] for r in _rows(rec)
                if not (float(r["worst_value"]) - 1e-12 <= float(r["lse_value"])
                        <= float(r["worst_value"]) + tau * math.log(worlds) + 1e-12)
            ]
            chk.flag("lse sandwich on every step", not bad, hard=True, detail=f"steps {bad[:10]}")

    rec = records["minimax"]
    summary = _summary(rec)
    p = summary["config"]["params"]
    tol = float(summary["abs_tol"])
    env = (float(p["env"]["mean"]), float(p["env"]["std"]))
    grid = np.linspace(env[0] - 4.0 * env[1], env[0] + 4.0 * env[1], int(p["grid_n"]))
    for row in _rows(rec):
        eta = float(row["eta"])
        cut = reference.gauss_ppf(1.0 - eta, *env)
        risks = np.asarray([reference.threshold_risk(env, float(t), (math.inf, cut)) for t in grid])
        chk.value(f"minimax eta={eta} min sum", float(row["min_risk_sum"]), float(risks.sum(axis=1).min()), tol, hard=True)
        chk.value(f"minimax eta={eta} min max", float(row["min_max_risk"]), float(risks.max(axis=1).min()), tol, hard=True)
        for flag in ("sum_floor_ok", "minimax_floor_ok"):
            chk.flag(f"minimax eta={eta} {flag}", float(row[flag]) == 1.0, hard=True, detail=row[flag])


def useful_frac(records: dict) -> float:
    """First greedy step within 1e-3 of the brute-force oracle, over the steps run."""
    rec = records["greedy"]
    oracle = _summary(rec)["trained"]["oracle_value"]
    worst = [float(r["worst_value"]) for r in _rows(rec)]
    first = next((s for s, v in enumerate(worst) if abs(v - oracle) <= 1e-3), len(worst))
    return first / len(worst)


CHECKS = {
    "soft_set": check_soft_set,
    "exact_set": check_exact_set,
    "estimate": check_estimate,
    "robust_train": check_robust_train,
}
