"""Seeded workload inputs, as plain numbers.

Nothing here imports ``credal``: the oracles rebuild the same inputs from
the same seed without touching the library, and the jobs turn them into
library objects.  The same seed always gives the same inputs.
"""

from __future__ import annotations

import numpy as np

WORKLOADS = ("soft_set", "exact_set", "estimate", "robust_train")


def _rng(seed: int, *key: int) -> np.random.Generator:
    """Independent stream ``key`` of the benchmark seed."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=key)))


def _crossing_spec() -> dict:
    # 6 unequal-std Gaussians x 5 mixed-slope labelers: slopes alternate in
    # sign and links alternate between logistic and probit, so every pair of
    # labelers crosses inside the environments' bulk
    r = _rng(0, 1)
    envs = [(float(r.uniform(-2.0, 2.0)), float(r.uniform(0.5, 2.0))) for _ in range(6)]
    labelers = []
    for j in range(5):
        slope = float(r.uniform(0.5, 3.0)) * (1.0 if j % 2 == 0 else -1.0)
        boundary = float(r.uniform(-1.5, 1.5))
        labelers.append(("sigmoid" if j % 2 == 0 else "probit", slope, -slope * boundary))
    return {"envs": envs, "labelers": labelers}


def _discrete_specs(seed: int, count: int = 32) -> list[dict]:
    # the acceptance suite's random discrete-spec generator, except that the
    # sizes cycle instead of being drawn: (n_x, n_y) through all 16
    # combinations, grid sizes through 2..16 and class counts through 2..3.
    # Every seed then checks the same pairs and does the same work; the seed
    # draws the grid points, weights and probabilities.
    r = _rng(seed, 2)
    specs = []
    for k in range(count):
        n_x, n_y = 1 + k % 4, 1 + (k // 4) % 4
        classes, grid_n = 2 + (k // 16) % 2, 2 + (5 * k) % 15
        pts = np.sort(r.uniform(-3.0, 3.0, grid_n)).tolist()
        weights = [r.dirichlet(np.ones(grid_n)).tolist() for _ in range(n_x)]
        probs = [r.dirichlet(np.ones(classes), size=grid_n).tolist() for _ in range(n_y)]
        specs.append({"points": pts, "weights": weights, "probs": probs})
    return specs


def _annotation_panel(seed: int) -> dict:
    # three deterministic and two stochastic annotators, so the hard labels
    # mix function values with independent draws
    r = _rng(seed, 3)
    thresholds = [float(t) for t in np.sort(r.uniform(-1.5, 1.5, 3))]
    sigmoids = [(float(r.uniform(1.0, 3.0)), float(r.uniform(-1.0, 1.0))) for _ in range(2)]
    return {
        "env": (float(r.uniform(-1.0, 1.0)), float(r.uniform(0.5, 2.0))),
        "thresholds": thresholds,
        "sigmoids": [(a, -a * c) for a, c in sigmoids],
        "n": 100_000,
        "substream": 5,
    }


def make_inputs(workload: str, seed: int) -> dict:
    """The complete input description of one workload at one seed."""
    if workload == "soft_set":
        # the same at every seed: its accuracy metrics are counts and maxima
        # of quadrature misses, and with seeded environments and labelers
        # they spread by more than 50% between seeds (miss counts 36 to 55,
        # worst error 3e5 to 1.2e6 tolerances), which no bound could hold
        return {
            "sweep": {
                "experiment": "bounds_sweep",
                "preset": "desk",
                "seed": 0,
                "params": {
                    "grid_env_count": 4,
                    "random_env_count": 2,
                    "labeler_count": 4,
                    "regimes": ["soft"],
                },
            },
            "spec": _crossing_spec(),
        }
    if workload == "exact_set":
        return {
            "sweep": {
                "experiment": "bounds_sweep",
                "preset": "paper",
                # the harness draws the 5 random environments from this seed;
                # fixed so that every seed does the same work and meets the
                # same tv_env miss (environments 5 and 15, error 2.3e-8)
                "seed": 104,
                "params": {"regimes": ["hard"]},
            },
            "specs": _discrete_specs(seed),
        }
    if workload == "estimate":
        return {
            "mechanism": {
                "experiment": "mechanism_complexity", "preset": "desk", "seed": seed,
                "params": {"replications": 50},
            },
            "noise": {"experiment": "noise_ablation", "preset": "desk", "seed": seed, "params": {"replications": 20}},
            "annotations": _annotation_panel(seed),
        }
    if workload == "robust_train":
        return {
            "greedy": {"experiment": "dro_train", "preset": "desk", "seed": seed, "params": {"mode": "greedy", "steps": 150}},
            "lse": {"experiment": "dro_train", "preset": "desk", "seed": seed, "params": {"mode": "lse", "steps": 50}},
            "minimax": {"experiment": "minimax_demo", "preset": "desk", "seed": seed, "params": {}},
        }
    raise ValueError(f"unknown workload {workload!r}; choose one of {WORKLOADS}")
