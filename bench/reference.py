"""Independent oracles for the benchmark's checks.

Everything here works on plain numbers (means, stds, slopes, thresholds,
mass tables) with numpy and scipy only.  It shares no code with
``credal``: Gaussian quantities come from CDF arithmetic over density
crossings, smooth integrals from a dense trapezoid rule, and discrete
quantities from explicit joint mass tables.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy.special import expit, ndtr, ndtri

SQRT_2PI = math.sqrt(2.0 * math.pi)


def gauss_pdf(x: np.ndarray, mean: float, std: float) -> np.ndarray:
    z = (x - mean) / std
    return np.exp(-0.5 * z * z) / (std * SQRT_2PI)


def gauss_cdf(x: float, mean: float, std: float) -> float:
    if x == math.inf:
        return 1.0
    if x == -math.inf:
        return 0.0
    return float(ndtr((x - mean) / std))


def gauss_ppf(u: float, mean: float, std: float) -> float:
    return mean + std * float(ndtri(u))


def density_crossings(m1: float, s1: float, m2: float, s2: float) -> list[float]:
    """Points where the two Gaussian densities are equal."""
    if s1 == s2:
        return [] if m1 == m2 else [0.5 * (m1 + m2)]
    # log phi1 = log phi2  <=>  a x^2 + b x + c = 0
    a = 0.5 / s2**2 - 0.5 / s1**2
    b = m1 / s1**2 - m2 / s2**2
    c = 0.5 * m2**2 / s2**2 - 0.5 * m1**2 / s1**2 + math.log(s2 / s1)
    disc = b * b - 4.0 * a * c
    if disc <= 0.0:
        return []
    r = math.sqrt(disc)
    return sorted(((-b - r) / (2.0 * a), (-b + r) / (2.0 * a)))


def abs_density_gap(e1: tuple, e2: tuple, lo: float, hi: float) -> float:
    """Integral of |phi1 - phi2| over (lo, hi], split where the densities cross."""
    cuts = [lo, *(p for p in density_crossings(*e1, *e2) if lo < p < hi), hi]
    total = 0.0
    for a, b in zip(cuts[:-1], cuts[1:]):
        d1 = gauss_cdf(b, *e1) - gauss_cdf(a, *e1)
        d2 = gauss_cdf(b, *e2) - gauss_cdf(a, *e2)
        total += abs(d1 - d2)
    return total


def gaussian_tv(e1: tuple, e2: tuple) -> float:
    """TV between N(e1) and N(e2); e = (mean, std)."""
    return 0.5 * abs_density_gap(e1, e2, -math.inf, math.inf)


def threshold_disagreement(env: tuple, t1: float, t2: float) -> float:
    """Mass between two thresholds under a Gaussian."""
    return abs(gauss_cdf(t2, *env) - gauss_cdf(t1, *env))


def threshold_joint_tv(e1: tuple, t1: float, e2: tuple, t2: float) -> float:
    """Joint TV of (N(e1), 1[x > t1]) and (N(e2), 1[x > t2]).

    Between the thresholds the labels differ and the integrand is
    phi1 + phi2; outside they agree and it is |phi1 - phi2|.
    """
    lo, hi = min(t1, t2), max(t1, t2)
    between = (gauss_cdf(hi, *e1) - gauss_cdf(lo, *e1)) + (gauss_cdf(hi, *e2) - gauss_cdf(lo, *e2))
    outside = abs_density_gap(e1, e2, -math.inf, lo) + abs_density_gap(e1, e2, hi, math.inf)
    return 0.5 * (between + outside)


def link_p1(labeler: tuple, x: np.ndarray) -> np.ndarray:
    """P(class 1 | x) of ("sigmoid" | "probit", slope, bias)."""
    kind, slope, bias = labeler
    z = slope * x + bias
    return expit(z) if kind == "sigmoid" else ndtr(z)


def _trapezoid(xs: np.ndarray, ys: np.ndarray) -> float:
    return float(np.sum(0.5 * (ys[1:] + ys[:-1]) * np.diff(xs)))


def smooth_joint_tv(e1: tuple, l1: tuple, e2: tuple, l2: tuple, n: int, halfwidth: float = 10.0) -> float:
    """Dense-trapezoid joint TV of two binary smooth-labeler worlds on n points."""
    lo = min(e1[0] - halfwidth * e1[1], e2[0] - halfwidth * e2[1])
    hi = max(e1[0] + halfwidth * e1[1], e2[0] + halfwidth * e2[1])
    xs = np.linspace(lo, hi, n)
    f1, f2 = gauss_pdf(xs, *e1), gauss_pdf(xs, *e2)
    p1, p2 = link_p1(l1, xs), link_p1(l2, xs)
    ys = 0.5 * (np.abs(f1 * p1 - f2 * p2) + np.abs(f1 * (1.0 - p1) - f2 * (1.0 - p2)))
    return _trapezoid(xs, ys)


def resolved(fn, *args, n: int = 100_001) -> tuple[float, float]:
    """(value on 2n - 1 points, |change from n points|): the oracle and its resolution."""
    coarse = fn(*args, n=n)
    fine = fn(*args, n=2 * n - 1)
    return fine, abs(fine - coarse)


def discrete_joint(weights, probs) -> np.ndarray:
    """(grid point, class) joint mass table of one discrete vertex."""
    return np.asarray(weights, dtype=float)[:, None] * np.asarray(probs, dtype=float)


def discrete_pair_tv(spec: dict, a, b) -> float:
    ja = discrete_joint(spec["weights"][a[0]], spec["probs"][a[1]])
    jb = discrete_joint(spec["weights"][b[0]], spec["probs"][b[1]])
    return 0.5 * float(np.abs(ja - jb).sum())


def hoeffding(n: int, k: int, delta: float) -> float:
    return math.sqrt(math.log(k * (k - 1) / delta) / (2.0 * n))


def max_pair_disagreement(labels: np.ndarray) -> float:
    """Largest pairwise disagreement rate, by direct counting."""
    n, k = labels.shape
    best = 0
    for a, b in itertools.combinations(range(k), 2):
        best = max(best, int(np.count_nonzero(labels[:, a] != labels[:, b])))
    return best / n


def noisy_pair_max(eps: np.ndarray) -> tuple[float, float]:
    """(max pairwise BSC disagreement, 2 e_max - 2 e_max^2)."""
    e = np.asarray(eps, dtype=float)
    pair = e[:, None] + e[None, :] - 2.0 * e[:, None] * e[None, :]
    np.fill_diagonal(pair, -np.inf)
    e_max = float(e.max())
    return float(pair.max()), 2.0 * e_max - 2.0 * e_max * e_max


def threshold_risk(env: tuple, theta: float, thresholds) -> list[float]:
    """0-1 risk of 1[x > theta] in each threshold-labeler world."""
    return [threshold_disagreement(env, theta, t) for t in thresholds]
