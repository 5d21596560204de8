"""Acceptance gate: every release criterion at its stated tolerance.

Each check prints one ``[criterion-..] PASS/FAIL`` line (visible with
``pytest -s`` or on failure).  Criterion 4 reproduces the full-scale
joint-shift table (about 6 s on a 2-core x86_64 host).
"""

import itertools
import json
import math
import os
import time

import numpy as np
import pytest

from credal.dro import (
    ThresholdClassifier,
    TrainConfig,
    WorldRisk,
    brute_force_minimax,
    lse_objective,
    train,
    world_risks,
    _smoothed_risk,
)
from credal.estimation import (
    disagreement_hard_from_labels,
    hoeffding_epsilon,
    noisy_closed_form,
    required_samples,
)
from credal.harness.config import preset_config
from credal.harness.experiments import run
from credal.measures import (
    DiscreteGrid,
    Gaussian,
    QuadratureConfig,
    Tabular,
    Threshold,
    expected_conditional_tv,
    tv_env,
)
from credal.sets import CredalSpec, diameter_bounds, pairwise_bounds
from credal.synthgen import GenSeed, minimax_instance, sample_hard_arrays

from oracles import bsc_disagreement_mc, discrete_spec_diameter, discrete_spec_pair_tv

QUAD = QuadratureConfig()


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"{criterion}: {detail}"


def test_criterion_01_gaussian_covariate_tv():
    t0 = time.time()
    got = tv_env(Gaussian(0, 1), Gaussian(1, 1))
    elapsed = time.time() - t0
    report(
        "criterion-01 covariate TV",
        abs(got - 0.3829) <= 1e-3 and elapsed < 1.0,
        f"tv_env(N(0,1), N(1,1)) = {got:.6f} (target 0.3829 +/- 1e-3) in {elapsed:.3f}s",
    )


def test_criterion_02_bound_coverage():
    t0 = time.time()
    # part 1: desk-preset quadrature sweep, hard + soft
    cfg = preset_config("bounds_sweep", "desk", seed=0)
    import tempfile

    out = tempfile.mkdtemp()
    run(cfg, out)
    summary = json.loads(open(os.path.join(out, "summary.json")).read())
    sweep_viols = sum(
        summary[f"joint_shift_{regime}"]["violations"] for regime in ("hard", "soft")
    )
    unordered_pairs = summary["rows"]
    ordered_pairs = 2 * unordered_pairs  # TV is symmetric: each row covers both orders

    # part 2: 1000 random discrete specs against brute-force joints
    rng = np.random.default_rng(20260809)
    spec_viols = 0
    pair_viols = 0
    for _ in range(1000):
        n_x, n_y = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        classes, grid_n = int(rng.integers(2, 4)), int(rng.integers(2, 17))
        pts = tuple(np.sort(rng.uniform(-3, 3, grid_n)).tolist())
        envs = tuple(
            DiscreteGrid(pts, tuple(rng.dirichlet(np.ones(grid_n)).tolist()))
            for _ in range(n_x)
        )
        labs = tuple(
            Tabular(pts, tuple(tuple(r) for r in rng.dirichlet(np.ones(classes), size=grid_n)))
            for _ in range(n_y)
        )
        spec = CredalSpec(envs, labs)
        rep = diameter_bounds(spec, QUAD, with_exact=False)
        brute = discrete_spec_diameter(spec)
        if not (rep.lower - 1e-9 <= brute <= rep.upper + 1e-9):
            spec_viols += 1
        for va, vb in itertools.combinations(spec.vertices(), 2):
            pb = pairwise_bounds(spec, va, vb, QUAD)
            exact = discrete_spec_pair_tv(spec, va, vb)
            if not (pb.lower - 1e-9 <= exact <= pb.upper + 1e-9):
                pair_viols += 1
    elapsed = time.time() - t0
    report(
        "criterion-02 bound coverage",
        sweep_viols == 0
        and spec_viols == 0
        and pair_viols == 0
        and ordered_pairs >= 1000
        and elapsed < 120.0,
        f"sweep {ordered_pairs} ordered pairs: {sweep_viols} violations; "
        f"1000 random discrete specs: {spec_viols} diameter / {pair_viols} pairwise "
        f"violations in {elapsed:.1f}s",
    )


def test_criterion_03_pure_regime_exactness():
    # quadrature spec: every fixed-covariate / fixed-labeler pair has
    # |exact - bound| within 2 * abs_tol
    from credal.measures import Sigmoid, joint_tv_exact

    spec = CredalSpec(
        (Gaussian(0, 1), Gaussian(0.8, 1.4)),
        (Sigmoid(1.0, -0.7), Threshold(0.4)),
    )
    worst_quad = 0.0
    for va, vb in itertools.combinations(spec.vertices(), 2):
        if va[0] != vb[0] and va[1] != vb[1]:
            continue
        pb = pairwise_bounds(spec, va, vb, QUAD)
        exact = joint_tv_exact(
            spec.environments[va[0]], spec.labelers[va[1]],
            spec.environments[vb[0]], spec.labelers[vb[1]], QUAD,
        )
        worst_quad = max(worst_quad, abs(pb.lower - exact), abs(pb.upper - exact))

    rng = np.random.default_rng(5)
    pts = tuple(np.linspace(-2, 2, 9).tolist())
    envs = tuple(
        DiscreteGrid(pts, tuple(rng.dirichlet(np.ones(9)).tolist())) for _ in range(2)
    )
    labs = tuple(
        Tabular(pts, tuple(tuple(r) for r in rng.dirichlet(np.ones(2), size=9)))
        for _ in range(2)
    )
    disc = CredalSpec(envs, labs)
    worst_disc = 0.0
    for va, vb in itertools.combinations(disc.vertices(), 2):
        if va[0] != vb[0] and va[1] != vb[1]:
            continue
        pb = pairwise_bounds(disc, va, vb, QUAD)
        exact = discrete_spec_pair_tv(disc, va, vb)
        worst_disc = max(worst_disc, abs(pb.lower - exact), abs(pb.upper - exact))
    report(
        "criterion-03 pure-regime exactness",
        worst_quad <= 2 * QUAD.abs_tol and worst_disc <= 1e-6,
        f"max |exact - bound|: quadrature {worst_quad:.2e} (<= {2 * QUAD.abs_tol:.0e}), "
        f"discrete {worst_disc:.2e} (<= 1e-6)",
    )


@pytest.mark.paper
def test_criterion_04_joint_shift_gap_magnitudes(tmp_path):
    t0 = time.time()
    cfg = preset_config("bounds_sweep", "paper", seed=0)
    run(cfg, tmp_path)
    summary = json.loads((tmp_path / "summary.json").read_text())
    hard = summary["joint_shift_hard"]
    soft = summary["joint_shift_soft"]
    elapsed = time.time() - t0
    ok = (
        abs(soft["delta_low"] - 0.242) <= 0.05
        and abs(soft["delta_up"] - 0.165) <= 0.05
        and abs(hard["delta_low"] - 0.228) <= 0.05
        and abs(hard["delta_up"] - 0.096) <= 0.05
        and hard["violations"] == 0
        and soft["violations"] == 0
        and elapsed < 900.0
    )
    report(
        "criterion-04 joint-shift gaps (paper preset)",
        ok,
        f"soft: d_low={soft['delta_low']:.3f}/0.242 d_up={soft['delta_up']:.3f}/0.165; "
        f"hard: d_low={hard['delta_low']:.3f}/0.228 d_up={hard['delta_up']:.3f}/0.096 "
        f"(tolerance +/- 0.05) in {elapsed:.0f}s",
    )


def test_criterion_05_population_diameters():
    t = (Threshold(-1), Threshold(1))
    vals = {
        "N(0,1)": (expected_conditional_tv(Gaussian(0, 1), *t, QUAD), 0.6827),
        "N(0,2)": (expected_conditional_tv(Gaussian(0, 2), *t, QUAD), 0.3829),
        "N(2,1)": (expected_conditional_tv(Gaussian(2, 1), *t, QUAD), 0.1573),
    }
    ok = all(abs(got - want) <= 1e-3 for got, want in vals.values())
    report(
        "criterion-05 population diameters",
        ok,
        "; ".join(f"{k}: {got:.4f} vs {want}" for k, (got, want) in vals.items()),
    )


def test_criterion_06_estimator_bias():
    env = Gaussian(0, 1)
    labs = (Threshold(-1), Threshold(1))
    eta_star = expected_conditional_tv(env, *labs, QUAD)
    seed = GenSeed(101)
    hats = np.empty(500)
    for r in range(500):
        _, labels = sample_hard_arrays(env, labs, 1000, seed.derive(0, r))
        hats[r] = disagreement_hard_from_labels(labels).eta_hat
    mean_abs = float(np.mean(np.abs(hats - eta_star)))
    signed = float(np.mean(hats) - eta_star)
    report(
        "criterion-06 estimator bias",
        abs(mean_abs - 0.012) <= 0.003 and abs(signed) <= 0.003,
        f"mean abs gap {mean_abs:.4f} (target 0.012 +/- 0.003), signed bias {signed:+.5f} (<= 0.003)",
    )


def test_criterion_07_concentration():
    ok_n = required_samples(0.1, 10, 0.05) == 375
    env = Gaussian(0, 1)
    labs = (Threshold(-1), Threshold(1))
    eta_star = expected_conditional_tv(env, *labs, QUAD)
    seed = GenSeed(101)
    delta = 0.005
    viol_rates = {}
    for n in (10, 100, 1000):
        eps = hoeffding_epsilon(n, 2, delta)
        viols = 0
        for r in range(2000):
            _, labels = sample_hard_arrays(env, labs, n, seed.derive(1, n, r))
            viols += abs(disagreement_hard_from_labels(labels).eta_hat - eta_star) > eps
        viol_rates[n] = viols / 2000
    ok_viol = all(rate <= delta for rate in viol_rates.values())

    ns = (10, 30, 100, 500, 1000, 5000)
    medians = []
    for n in ns:
        errs = np.empty(500)
        for r in range(500):
            _, labels = sample_hard_arrays(env, labs, n, seed.derive(2, n, r))
            errs[r] = abs(disagreement_hard_from_labels(labels).eta_hat - eta_star)
        medians.append(float(np.median(errs)))
    slope = float(np.polyfit(np.log(ns), np.log(medians), 1)[0])
    ok_slope = -0.6 <= slope <= -0.4
    report(
        "criterion-07 concentration",
        ok_n and ok_viol and ok_slope,
        f"required_samples(0.1,10,0.05)={required_samples(0.1, 10, 0.05)} (=375); "
        f"violation rates {viol_rates} (delta={delta}); log-log slope {slope:.3f} in [-0.6,-0.4]",
    )


def test_criterion_08_noisy_closed_form():
    rng = np.random.default_rng(2024)
    trials = 1_000_000
    worst_sigma = 0.0
    bound_breaches = 0
    for _ in range(50):
        e1, e2 = (float(v) for v in rng.uniform(0, 0.5, size=2))
        eta, bound = noisy_closed_form([e1, e2])
        mc = bsc_disagreement_mc(e1, e2, trials, rng)
        se = math.sqrt(max(eta * (1 - eta), 1e-12) / trials)
        worst_sigma = max(worst_sigma, abs(mc - eta) / se if se > 0 else 0.0)
        if eta > bound + 1e-12:
            bound_breaches += 1
    eta_half, bound_half = noisy_closed_form([0.5, 0.5])
    report(
        "criterion-08 noisy closed form",
        worst_sigma <= 3.0 and bound_breaches == 0 and eta_half == 0.5 and bound_half == 0.5,
        f"worst MC deviation {worst_sigma:.2f} sigma (<= 3) over 50 pairs x 1e6 trials; "
        f"{bound_breaches} budget-bound breaches; ceiling at eps=0.5: ({eta_half}, {bound_half})",
    )


def test_criterion_09_dro_optimality():
    spec = CredalSpec((Gaussian(0, 1),), (Threshold(-1), Threshold(1)))
    theta_star, oracle = brute_force_minimax(spec, np.linspace(-3, 3, 6001), QUAD)
    h, _ = train(spec, TrainConfig(mode="greedy", steps=300, seed=1), QUAD)
    trained = world_risks(h, spec, QUAD).worst_value
    ok_train = abs(trained - oracle) <= 0.01 and abs(oracle - 0.3413) <= 1e-3

    tau = 0.02
    _, trace = train(spec, TrainConfig(mode="lse", tau=tau, steps=200, seed=1), QUAD)
    ok_sandwich = all(
        wr.worst_value - 1e-12 <= wr.lse_value <= wr.worst_value + tau * math.log(2) + 1e-12
        for wr in trace
    )

    rng = np.random.default_rng(4)
    two_env = CredalSpec(
        (Gaussian(0, 1), Gaussian(0.8, 1.3)),
        (Threshold(-0.5), Threshold(0.9)),
    )
    worst_rel = 0.0
    for _ in range(20):
        h0 = ThresholdClassifier(float(rng.uniform(-1.5, 1.5)), 1)
        t = float(rng.uniform(0.05, 0.5))
        risks = np.asarray(
            [
                [_smoothed_risk(h0, env, lab, QUAD) for lab in two_env.labelers]
                for env in two_env.environments
            ]
        )
        wr = WorldRisk(risks=risks, worst_world=(0, 0), worst_value=float(risks.max()))
        _, weights = lse_objective(wr, t)
        eps = 1e-5
        parts = np.zeros_like(weights)
        for i, env in enumerate(two_env.environments):
            for j, lab in enumerate(two_env.labelers):
                up = _smoothed_risk(h0.with_params(h0.params + eps), env, lab, QUAD)
                dn = _smoothed_risk(h0.with_params(h0.params - eps), env, lab, QUAD)
                parts[i, j] = (up - dn) / (2 * eps)
        analytic = float((weights * parts).sum())

        def lse_at(params):
            r = np.asarray(
                [
                    [
                        _smoothed_risk(h0.with_params(params), env, lab, QUAD)
                        for lab in two_env.labelers
                    ]
                    for env in two_env.environments
                ]
            )
            m = r.max()
            return float(m + t * math.log(np.exp((r - m) / t).sum()))

        fd = (lse_at(h0.params + eps) - lse_at(h0.params - eps)) / (2 * eps)
        denom = max(abs(fd), 1e-10)
        worst_rel = max(worst_rel, abs(analytic - fd) / denom)
    ok_grad = worst_rel <= 1e-4
    report(
        "criterion-09 DRO optimality",
        ok_train and ok_sandwich and ok_grad,
        f"trained worst {trained:.4f} vs oracle {oracle:.4f} (gap <= 0.01, oracle = 0.3413); "
        f"LSE sandwich on {len(trace)} steps: {ok_sandwich}; "
        f"max LSE gradient mismatch {worst_rel:.2e} (<= 1e-4)",
    )


def test_criterion_10_minimax_instance():
    env = Gaussian(0, 1)
    all_ok = True
    details = []
    for eta in (0.1, 0.5, 0.9):
        spec = minimax_instance(eta, env)
        grid = np.linspace(-4, 4, 1000)
        min_sum = math.inf
        min_max = math.inf
        for theta in grid:
            wr = world_risks(ThresholdClassifier(float(theta), 1), spec, QUAD)
            min_sum = min(min_sum, float(wr.risks.sum()))
            min_max = min(min_max, wr.worst_value)
        ok = min_sum >= eta - 1e-9 and min_max >= eta / 2 - 1e-3
        all_ok = all_ok and ok
        details.append(f"eta={eta}: min sum {min_sum:.4f} (>= eta), min-max {min_max:.4f} (>= eta/2)")
    report("criterion-10 minimax instance", all_ok, "; ".join(details))


def test_criterion_11_mechanism_complexity():
    t0 = time.time()
    cfg = preset_config("mechanism_complexity", "desk", seed=0)
    import tempfile

    out = tempfile.mkdtemp()
    run(cfg, out)
    summary = json.loads(open(os.path.join(out, "summary.json")).read())
    per = summary["per_n_y"]
    ratios = {k: per[k]["tightness_ratio"] for k in per}
    viols = sum(int(per[k]["p_viol"] * per[k]["replications"]) for k in per)
    q50s = [per[k]["q50_err"] for k in per]
    eps = [per[str(k)]["eps_hoeff"] for k in (2, 12, 100)]
    formula = [hoeffding_epsilon(1000, k, cfg.delta) for k in (2, 12, 100)]
    ok = (
        all(1.4 <= r <= 5.0 for r in ratios.values())
        and viols == 0
        and max(q50s) <= 2.0 * min(q50s)
        and eps == formula
        and eps[0] < eps[1] < eps[2]
    )
    report(
        "criterion-11 mechanism complexity",
        ok,
        f"ratios {({k: round(v, 2) for k, v in ratios.items()})} in [1.4, 5]; {viols} violations; "
        f"q50 flat (max/min = {max(q50s) / min(q50s):.2f} <= 2); eps_Hoeff grows "
        f"{[round(e, 4) for e in eps]} in {time.time() - t0:.0f}s",
    )
