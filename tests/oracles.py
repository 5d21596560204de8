"""Independent oracles used to freeze expected values.

Everything here is deliberately dumb and slow: enumeration over event
subsets, CDF arithmetic from density crossings, joint mass tables, and
Monte-Carlo channels.  None of it shares code with the library paths it
checks.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy.special import expit, ndtr


def tv_subset_brute_force(p, q) -> float:
    """sup over all event subsets of |P(A) - Q(A)| by full enumeration."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    best = 0.0
    for mask in itertools.product((0, 1), repeat=p.size):
        sel = np.asarray(mask, dtype=bool)
        best = max(best, abs(p[sel].sum() - q[sel].sum()))
    return best


def gaussian_tv_via_crossings(m1: float, s1: float, m2: float, s2: float) -> float:
    """Exact TV between two Gaussians from their density crossing points."""
    if math.isclose(s1, s2, rel_tol=1e-12):
        if m1 == m2:
            return 0.0
        cuts = [0.5 * (m1 + m2)]
    else:
        a = 0.5 / s2**2 - 0.5 / s1**2
        b = m1 / s1**2 - m2 / s2**2
        c = 0.5 * m2**2 / s2**2 - 0.5 * m1**2 / s1**2 + math.log(s2 / s1)
        disc = b * b - 4 * a * c
        if disc <= 0:
            cuts = []
        else:
            r = math.sqrt(disc)
            cuts = sorted([(-b - r) / (2 * a), (-b + r) / (2 * a)])
    edges = [-math.inf, *cuts, math.inf]

    def cdf(x, m, s):
        if x == math.inf:
            return 1.0
        if x == -math.inf:
            return 0.0
        return float(ndtr((x - m) / s))

    total = 0.0
    for a_, b_ in zip(edges[:-1], edges[1:]):
        d1 = cdf(b_, m1, s1) - cdf(a_, m1, s1)
        d2 = cdf(b_, m2, s2) - cdf(a_, m2, s2)
        total += abs(d1 - d2)
    return 0.5 * total


def threshold_pair_disagreement(mean: float, std: float, t1: float, t2: float) -> float:
    """Mass between two thresholds under a Gaussian: |Phi(z2) - Phi(z1)|."""
    return abs(float(ndtr((t2 - mean) / std)) - float(ndtr((t1 - mean) / std)))


def discrete_joint_pmf(env, labeler) -> np.ndarray:
    """Joint (grid point, class) mass table of one product vertex."""
    pts = np.asarray(env.points)
    return np.asarray(env.weights)[:, None] * labeler.prob_matrix(pts)


def discrete_spec_pair_tv(spec, a, b) -> float:
    """Half-L1 between two vertex joint mass tables of a grid spec."""
    pa = discrete_joint_pmf(spec.environments[a[0]], spec.labelers[a[1]])
    pb = discrete_joint_pmf(spec.environments[b[0]], spec.labelers[b[1]])
    return 0.5 * float(np.abs(pa - pb).sum())


def discrete_spec_diameter(spec) -> float:
    verts = spec.vertices()
    return max(
        (discrete_spec_pair_tv(spec, a, b) for a, b in itertools.combinations(verts, 2)),
        default=0.0,
    )


def bsc_disagreement_mc(eps1: float, eps2: float, trials: int, rng: np.random.Generator) -> float:
    """Monte-Carlo disagreement rate of two binary symmetric channels."""
    flips1 = rng.random(trials) < eps1
    flips2 = rng.random(trials) < eps2
    return float(np.mean(flips1 != flips2))


def _link_transition(lab) -> list[float]:
    """Where a Sigmoid/Probit link argument is 0, +/-1, +/-4, +/-16, +/-64; nothing for other labelers."""
    slope = getattr(lab, "slope", getattr(lab, "kappa", 0.0))
    if not slope:
        return []
    return [(k - lab.bias) / slope for k in (0, -1, 1, -4, 4, -16, 16, -64, 64)]


def quadrature_joint_tv(e1, l1, e2, l2, panels: int = 64, halfwidth: float = 10.0) -> float:
    """Composite Gauss-Legendre joint TV oracle, independent of the adaptive engine.

    The window is cut at every labeler breakpoint, across each smooth
    labeler's transition, and at every kink of the integrand: the points
    where, for some class y, the joint densities ``phi1 p1(y|x)`` and
    ``phi2 p2(y|x)`` cross.  Under one environment these are the label
    crossings.  They are found as sign changes on a dense scan, refined by
    ``brentq``.  Each smooth piece gets ``panels`` equal panels of 20-node
    Gauss-Legendre; the nodes are interior, so jumps at the cuts cost
    nothing.
    """
    from scipy.optimize import brentq

    lo = min(e1.mean - halfwidth * e1.std, e2.mean - halfwidth * e2.std)
    hi = max(e1.mean + halfwidth * e1.std, e2.mean + halfwidth * e2.std)
    hints = (*l1.breakpoints(), *l2.breakpoints(), *_link_transition(l1), *_link_transition(l2))
    cuts = sorted({lo, hi} | {p for p in hints if lo < p < hi})

    def gaps(xs):
        return l1.prob_matrix(xs) * e1.pdf(xs)[:, None] - l2.prob_matrix(xs) * e2.pdf(xs)[:, None]

    kinks = []
    for a, b in zip(cuts[:-1], cuts[1:]):
        # from one ulp inside the left cut: at the cut a labeler takes its
        # left value, and a kink just right of a jump would be bracketed
        # against the jump
        xs = np.linspace(np.nextafter(a, b), b, 1025)
        d = gaps(xs)
        for y in range(d.shape[1]):
            for k in np.flatnonzero(d[:-1, y] * d[1:, y] < 0):
                kinks.append(brentq(lambda x: gaps(np.asarray([x]))[0, y], xs[k], xs[k + 1], xtol=1e-15))
    cuts = sorted(set(cuts) | set(kinks))

    nodes, weights = np.polynomial.legendre.leggauss(20)
    total = 0.0
    for a, b in zip(cuts[:-1], cuts[1:]):
        edges = np.linspace(a, b, panels + 1)
        half = 0.5 * np.diff(edges)
        xs = ((edges[:-1] + half)[:, None] + half[:, None] * nodes).ravel()
        vals = 0.5 * np.abs(gaps(xs)).sum(axis=1).reshape(panels, -1)
        total += float((half[:, None] * weights * vals).sum())
    return total


def sup_link_tv_scan(l1, l2, n: int = 100_001) -> tuple[float, float]:
    """Largest ``|P1(1|x) - P2(1|x)|`` of two Sigmoid/Probit links on a scan, and its certified slack.

    Each link is scanned at ``n`` evenly spaced x across its transition,
    where its argument ``z = slope*x + bias`` runs over [-40, 40], and the
    TV is also taken at the links' limits at +/-inf.  Outside a link's
    transition it is flat to 1e-17.  Inside, the scan of the steeper link
    whose transition holds x leaves at most ``h/2`` to the nearest point,
    with ``|slope|*h = 80 / (n - 1)``, so the supremum exceeds the value by
    at most ``sum_k |slope_k| max L'_k h/2 = (L'_1 + L'_2) 40 / (n - 1)``,
    plus 1e-12 for the flat tails.
    """
    def link(lab):
        # slope, link function and its largest derivative
        if type(lab).__name__ == "Sigmoid":
            return lab.slope, expit, 0.25
        return lab.kappa, ndtr, 1.0 / math.sqrt(2.0 * math.pi)

    (s1, f1, d1), (s2, f2, d2) = link(l1), link(l2)
    xs = np.concatenate([np.linspace((-40.0 - lab.bias) / s, (40.0 - lab.bias) / s, n) for s, lab in ((s1, l1), (s2, l2))])
    scan = float(np.abs(f1(s1 * xs + l1.bias) - f2(s2 * xs + l2.bias)).max())
    # at x -> +/-inf a link with slope s tends to 1 where s*x > 0, else to 0
    limits = [abs(float(s1 * sign > 0) - float(s2 * sign > 0)) for sign in (-1.0, 1.0)]
    return max(scan, *limits), (d1 + d2) * 40.0 / (n - 1) + 1e-12


def smoothed_risk(env, labeler, h, temperature: float, n_grid: int = 200_001, halfwidth: float = 10.0) -> float:
    """Dense-trapezoid E[p1(X) (1 - s(X)) + p0(X) s(X)] with s = sigma(h.score / T).

    Splits at the labeler's breakpoints and at the hypothesis's decision
    points, nudged just inside each piece.
    """
    lo, hi = env.mean - halfwidth * env.std, env.mean + halfwidth * env.std
    cuts = sorted(
        {lo, hi} | {p for p in (*labeler.breakpoints(), *h.breakpoints()) if lo < p < hi}
    )

    def integrand(xs):
        probs = labeler.prob_matrix(xs)
        s = expit(h.score(xs) / temperature)
        return (probs[:, 1] * (1.0 - s) + probs[:, 0] * s) * env.pdf(xs)

    total = 0.0
    for a, b in zip(cuts[:-1], cuts[1:]):
        xs = np.linspace(a + 1e-9, b - 1e-9, n_grid)
        total += float(np.trapezoid(integrand(xs), xs))
    return total


def _score_grad_by_hand(h, xs) -> np.ndarray:
    """(points x params) derivative of a hypothesis's score in its parameters, written out per family."""
    name = type(h).__name__
    if name == "ThresholdClassifier":  # score = orientation * (x - theta)
        return np.full((xs.size, 1), -float(h.orientation))
    if name == "LinearLogistic":  # score = weight * x + bias
        return np.column_stack([xs, np.ones_like(xs)])
    raise TypeError(f"no score derivative for {name}")


def smoothed_risk_gradient(env, labeler, h, temperature: float, n_grid: int = 200_001, halfwidth: float = 10.0) -> np.ndarray:
    """Gradient of :func:`smoothed_risk` in h's parameters, from its analytic integrand.

    ``E[(p0(X) - p1(X)) s (1 - s) / T * dscore/dparams]`` with
    ``s = sigma(h.score / T)``: a finite sum over a grid's atoms, else a
    dense trapezoid split like :func:`smoothed_risk`.
    """

    def integrand(xs):
        probs = labeler.prob_matrix(xs)
        s = expit(h.score(xs) / temperature)
        return ((probs[:, 0] - probs[:, 1]) * s * (1.0 - s) / temperature)[:, None] * _score_grad_by_hand(h, xs)

    if type(env).__name__ == "DiscreteGrid":
        xs = np.asarray(env.points)
        return (np.asarray(env.weights)[:, None] * integrand(xs)).sum(axis=0)
    lo, hi = env.mean - halfwidth * env.std, env.mean + halfwidth * env.std
    cuts = sorted(
        {lo, hi} | {p for p in (*labeler.breakpoints(), *h.breakpoints()) if lo < p < hi}
    )
    total = 0.0
    for a, b in zip(cuts[:-1], cuts[1:]):
        xs = np.linspace(a + 1e-9, b - 1e-9, n_grid)
        total = total + np.trapezoid(integrand(xs) * env.pdf(xs)[:, None], xs, axis=0)
    return total


def prob_matrix_by_hand(lab, x) -> np.ndarray:
    """(points x 2) label probabilities of a binary labeler family, written out per family."""
    x = np.asarray(x, dtype=float)
    name = type(lab).__name__
    if name in ("Sigmoid", "Probit"):
        slope = lab.slope if name == "Sigmoid" else lab.kappa
        p1 = (expit if name == "Sigmoid" else ndtr)(slope * x + lab.bias)
        return np.column_stack([1.0 - p1, p1])
    if name == "SymmetricNoise":
        label = prob_matrix_by_hand(lab.base, x)[:, 1] == 1.0
        eps = lab.epsilon
        return np.column_stack([np.where(label, eps, 1.0 - eps), np.where(label, 1.0 - eps, eps)])
    if name == "Threshold":
        label = x > lab.theta
    elif name == "Interval":
        label = (lab.a < x) & (x <= lab.b)
    elif name == "ThresholdClassifier":
        label = x > lab.theta if lab.orientation == 1 else x < lab.theta
    elif name == "LinearLogistic":
        label = lab.weight * x + lab.bias > 0
    else:
        raise TypeError(f"no hand formula for {name}")
    return np.column_stack([~label, label]).astype(float)


def hard_gram_by_class(labels) -> np.ndarray:
    """Hard-label disagreement matrix from one indicator Gram per distinct label value."""
    labels = np.asarray(labels)
    n, k = labels.shape
    agree = np.zeros((k, k))
    for c in np.unique(labels):
        ind = (labels == c).astype(float)
        agree += ind.T @ ind
    values = 1.0 - agree / n
    np.fill_diagonal(values, 0.0)
    values = np.clip(0.5 * (values + values.T), 0.0, 1.0)
    np.fill_diagonal(values, 0.0)
    return values


def summarize_by_row_scan(rows, group_by=None) -> dict:
    """Row summary by scanning every row once per key, groups as dicts of row lists.

    Per key, the int/float/bool cells of the rows that have it are sorted;
    the entry holds count, mean, median, q90, q95, q99, and a Wilson 95%
    interval when every value is 0 or 1.
    """
    z = 1.959963984540054

    def wilson(successes, trials):
        p = successes / trials
        denom = 1.0 + z * z / trials
        center = (p + z * z / (2 * trials)) / denom
        half = z * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials)) / denom
        return max(0.0, center - half), min(1.0, center + half)

    def aggregate(members):
        metrics = {}
        for key in sorted({k for row in members for k in row}):
            vals = [row[key] for row in members if key in row and isinstance(row[key], (int, float))]
            if not vals:
                continue
            arr = np.sort(np.asarray(vals, dtype=float))
            entry = {"count": int(arr.size), "mean": float(arr.mean())}
            for name, q in (("median", 0.5), ("q90", 0.90), ("q95", 0.95), ("q99", 0.99)):
                entry[name] = float(np.quantile(arr, q))
            if set(np.unique(arr)) <= {0.0, 1.0}:
                entry["wilson_low"], entry["wilson_high"] = wilson(int(arr.sum()), int(arr.size))
            metrics[key] = entry
        return metrics

    out = {"rows": len(rows), "metrics": aggregate(rows)}
    if group_by is not None:
        groups = {}
        for row in rows:
            groups.setdefault(row[group_by], []).append(row)
        out["groups"] = {str(value): aggregate(members) for value, members in sorted(groups.items())}
        out["group_by"] = group_by
    return out
