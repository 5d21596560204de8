"""Distribution primitives and total-variation computations.

Environments are univariate covariate distributions (Gaussian or a finite
grid of atoms).  Labelers are conditional label mechanisms over ``C``
classes.  Every TV quantity the rest of the package needs is a TV between
product distributions P = (environment, labeler): the TV between
environments holds the labeler fixed, the expected conditional TV holds the
environment fixed, and a crisp hypothesis is one more labeler, so its 0-1
risk in a world is an expected conditional TV too.

Exact values come from one partition kernel.  When the two product
distributions share a finite partition of the covariate line (the union
atoms of two grids, or the CDF cells between label boundaries and density
crossings of two Gaussians with deterministic labelers), each becomes a
(cells x classes) joint mass table and the TV is the half-L1 distance
between the tables.  Every other pair is integrated by Gauss-Hermite or
breakpoint-split adaptive Simpson quadrature.

Adaptive Simpson is one worklist engine for many integrals, each getting
the same bits as alone: :func:`adaptive_simpson` and :func:`joint_tv_exact`
are batches of one, and :func:`joint_tv_many` integrates a group of pairs
per pass.  Its memory grows with the batch, so callers pass natural groups
(one vertex row, one environment pair) rather than a whole sweep.

The module also provides discrete TV between probability vectors,
pointwise conditional TV, and a grid-based supremum of the conditional
TV.

Conventions
-----------
* TV is half the L1 distance between densities / mass functions.
* Binary labelers use class 1 as the "positive" event (``x > theta`` for a
  threshold, ``a < x <= b`` for an interval); ties at an exact boundary
  resolve to class 0.
* All TV outputs are clamped to [0, 1]; raw pre-clamp values are emitted at
  DEBUG log level.  A NaN value raises :class:`MeasureError` instead.
* Everything here is immutable and pure, so concurrent use is safe.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Literal, Optional, Sequence, Union, get_args

import numpy as np
from scipy.special import expit, ndtr, ndtri

logger = logging.getLogger(__name__)

SIMPLEX_TOL = 1e-9
WEIGHT_TOL = 1e-12


class MeasureError(Exception):
    """Base error for distribution / TV computations."""


class ValidationError(MeasureError, ValueError):
    """Inputs violate a documented contract (domain, shape, simplex, ...)."""


class SupportError(MeasureError):
    """Operands live on incompatible supports (e.g. Gaussian vs. grid)."""


class QuadratureError(MeasureError):
    """Adaptive quadrature did not converge within the node budget.

    Carries ``residual``, the remaining error estimate when the budget ran
    out.
    """

    def __init__(self, message: str, residual: float):
        super().__init__(f"{message} (residual estimate {residual:.3e})")
        self.residual = residual


def _require_finite(value: float, name: str) -> float:
    v = float(value)
    if not math.isfinite(v):
        raise ValidationError(f"{name} must be finite, got {value!r}")
    return v


def _clip01(value: float, label: str) -> float:
    if math.isnan(value):
        raise MeasureError(f"{label} is NaN")
    if value < 0.0 or value > 1.0:
        logger.debug("%s raw value %r clamped to [0, 1]", label, value)
    return min(1.0, max(0.0, float(value)))


# ---------------------------------------------------------------------------
# Environments
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Gaussian:
    """Normal covariate distribution N(mean, std^2)."""

    mean: float
    std: float

    def __post_init__(self) -> None:
        _require_finite(self.mean, "mean")
        if not (math.isfinite(self.std) and self.std > 0):
            raise ValidationError(f"std must be finite and > 0, got {self.std!r}")

    def pdf(self, x: np.ndarray) -> np.ndarray:
        z = (np.asarray(x, dtype=float) - self.mean) / self.std
        return np.exp(-0.5 * z * z) / (self.std * math.sqrt(2.0 * math.pi))

    def cdf(self, x) -> np.ndarray:
        return ndtr((np.asarray(x, dtype=float) - self.mean) / self.std)

    def ppf(self, u) -> np.ndarray:
        return self.mean + self.std * ndtri(np.asarray(u, dtype=float))

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.normal(self.mean, self.std, size=n)


@dataclass(frozen=True)
class DiscreteGrid:
    """Atomic covariate distribution on strictly increasing grid points."""

    points: tuple[float, ...]
    weights: tuple[float, ...]

    def __post_init__(self) -> None:
        pts = tuple(float(p) for p in self.points)
        wts = tuple(float(w) for w in self.weights)
        if len(pts) != len(wts) or not pts:
            raise ValidationError("points and weights must be equal-length and non-empty")
        if any(not math.isfinite(p) for p in pts):
            raise ValidationError("grid points must be finite")
        if any(b <= a for a, b in zip(pts, pts[1:])):
            raise ValidationError("grid points must be strictly increasing")
        if any(not (math.isfinite(w) and w >= 0) for w in wts):
            raise ValidationError("weights must be finite and non-negative")
        if abs(sum(wts) - 1.0) > WEIGHT_TOL:
            raise ValidationError(f"weights must sum to 1 within {WEIGHT_TOL}, got {sum(wts)!r}")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", wts)

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        idx = rng.choice(len(self.points), size=n, p=np.asarray(self.weights))
        return np.asarray(self.points)[idx]


Environment = Union[Gaussian, DiscreteGrid]


# ---------------------------------------------------------------------------
# Labelers
# ---------------------------------------------------------------------------


class _LabelerBase:
    """Defaults of the labeler families: binary, stochastic, no hard breakpoints."""

    class_count = 2
    is_deterministic = False

    def breakpoints(self) -> tuple[float, ...]:
        return ()


_ONE_HOT = np.eye(2)
_ONE_HOT.setflags(write=False)


class CrispLabeler(_LabelerBase):
    """Deterministic binary labeler: ``prob_matrix`` is the one-hot of ``labels``.

    Subclasses supply ``labels(x)`` (class 0 or 1 per point) and the
    ``breakpoints`` where the label can change.
    """

    is_deterministic = True

    def prob_matrix(self, x: np.ndarray) -> np.ndarray:
        return _ONE_HOT.take(self.labels(x), axis=0)


@dataclass(frozen=True)
class Threshold(CrispLabeler):
    """Deterministic binary labeler: class 1 iff x > theta.

    ``theta`` may be +/-inf, which realizes the constant class-0 / class-1
    labeler while staying in the threshold family.
    """

    theta: float

    def __post_init__(self) -> None:
        if math.isnan(self.theta):
            raise ValidationError("theta must not be NaN")

    def breakpoints(self) -> tuple[float, ...]:
        return (self.theta,) if math.isfinite(self.theta) else ()

    def labels(self, x: np.ndarray) -> np.ndarray:
        return (np.asarray(x, dtype=float) > self.theta).astype(np.int64)


@dataclass(frozen=True)
class Interval(CrispLabeler):
    """Deterministic binary labeler: class 1 iff a < x <= b."""

    a: float
    b: float

    def __post_init__(self) -> None:
        _require_finite(self.a, "a")
        _require_finite(self.b, "b")
        if not self.a < self.b:
            raise ValidationError(f"interval needs a < b, got ({self.a}, {self.b})")

    def breakpoints(self) -> tuple[float, ...]:
        return (self.a, self.b)

    def labels(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return ((x > self.a) & (x <= self.b)).astype(np.int64)


@dataclass(frozen=True)
class Sigmoid(_LabelerBase):
    """Stochastic binary labeler with logistic link: P(1|x) = sigma(slope*x + bias)."""

    slope: float
    bias: float

    def __post_init__(self) -> None:
        _require_finite(self.slope, "slope")
        _require_finite(self.bias, "bias")

    def prob_matrix(self, x: np.ndarray) -> np.ndarray:
        p1 = expit(self.slope * np.asarray(x, dtype=float) + self.bias)
        return np.column_stack([1.0 - p1, p1])


@dataclass(frozen=True)
class Probit(_LabelerBase):
    """Stochastic binary labeler with probit link: P(1|x) = Phi(kappa*x + bias)."""

    kappa: float
    bias: float

    def __post_init__(self) -> None:
        _require_finite(self.kappa, "kappa")
        _require_finite(self.bias, "bias")

    def prob_matrix(self, x: np.ndarray) -> np.ndarray:
        p1 = ndtr(self.kappa * np.asarray(x, dtype=float) + self.bias)
        return np.column_stack([1.0 - p1, p1])


@dataclass(frozen=True)
class SymmetricNoise(_LabelerBase):
    """Binary symmetric channel on top of a deterministic base labeler.

    With probability ``epsilon`` the base label is flipped.
    """

    base: Union[Threshold, Interval]
    epsilon: float

    def __post_init__(self) -> None:
        if not isinstance(self.base, (Threshold, Interval)):
            raise ValidationError("SymmetricNoise base must be deterministic (Threshold or Interval)")
        if not (0.0 <= self.epsilon <= 0.5):
            raise ValidationError(f"epsilon must lie in [0, 0.5], got {self.epsilon!r}")

    def breakpoints(self) -> tuple[float, ...]:
        return self.base.breakpoints()

    def prob_matrix(self, x: np.ndarray) -> np.ndarray:
        base = self.base.prob_matrix(x)
        return base * (1.0 - self.epsilon) + (1.0 - base) * self.epsilon


@dataclass(frozen=True)
class Tabular(_LabelerBase):
    """Labeler defined only on explicit grid points; off-grid evaluation errors.

    ``probs[i]`` is the conditional probability vector at ``grid[i]``.
    """

    grid: tuple[float, ...]
    probs: tuple[tuple[float, ...], ...]

    def __post_init__(self) -> None:
        grid = tuple(float(g) for g in self.grid)
        probs = tuple(tuple(float(p) for p in row) for row in self.probs)
        if len(grid) != len(probs) or not grid:
            raise ValidationError("grid and probs must be equal-length and non-empty")
        if any(not math.isfinite(g) for g in grid):
            raise ValidationError("tabular grid points must be finite")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValidationError("tabular grid must be strictly increasing")
        widths = {len(row) for row in probs}
        if len(widths) != 1 or min(widths) < 2:
            raise ValidationError("probs rows must share one class count >= 2")
        for row in probs:
            off = any(not (math.isfinite(p) and p >= -WEIGHT_TOL) for p in row)
            if off or abs(sum(row) - 1.0) > WEIGHT_TOL:
                raise ValidationError(f"probs row off the simplex beyond {WEIGHT_TOL}: {row!r}")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "probs", probs)

    @property
    def class_count(self) -> int:
        return len(self.probs[0])

    def breakpoints(self) -> tuple[float, ...]:
        return self.grid

    def prob_matrix(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        grid = np.asarray(self.grid)
        # nearest grid point: the first midpoint between neighbours at or
        # above x (halving before adding keeps the midpoints finite)
        idx = np.searchsorted(0.5 * grid[:-1] + 0.5 * grid[1:], x)
        hit = np.abs(grid[idx] - x) <= 1e-12
        if not np.all(hit):
            raise SupportError(f"tabular labeler evaluated off-grid at x={x[~hit][0]!r}")
        return np.asarray(self.probs, dtype=float)[idx]


Labeler = Union[Threshold, Interval, Sigmoid, Probit, SymmetricNoise, Tabular]


# ---------------------------------------------------------------------------
# Quadrature configuration and engine
# ---------------------------------------------------------------------------

QuadratureMethod = Literal["gauss_hermite", "adaptive_simpson"]


@dataclass(frozen=True)
class QuadratureConfig:
    """Settings for 1-D numerical integration against an environment.

    ``gauss_hermite`` is used for smooth integrands under a Gaussian;
    integrands with label-boundary kinks are handled by breakpoint-split
    adaptive Simpson on a [mean +/- domain_halfwidth_sigmas * std] window.
    """

    method: QuadratureMethod = "gauss_hermite"
    node_count: int = 128
    abs_tol: float = 1e-8
    domain_halfwidth_sigmas: float = 8.0

    def __post_init__(self) -> None:
        if self.method not in get_args(QuadratureMethod):
            raise ValidationError(f"unknown quadrature method {self.method!r}")
        if self.node_count < 16:
            raise ValidationError("node_count must be >= 16")
        if not (0 < self.abs_tol <= 1e-4):
            raise ValidationError("abs_tol must be in (0, 1e-4]")
        if self.domain_halfwidth_sigmas <= 0:
            raise ValidationError("domain_halfwidth_sigmas must be > 0")

    @property
    def eval_budget(self) -> int:
        return max(200_000, self.node_count * 2_000)


DEFAULT_QUADRATURE = QuadratureConfig()


@lru_cache(maxsize=16)
def _hermite_nodes(n: int) -> tuple[np.ndarray, np.ndarray]:
    nodes, weights = np.polynomial.hermite.hermgauss(n)
    return nodes, weights / math.sqrt(math.pi)


def gauss_hermite_expectation(g: Callable[[np.ndarray], np.ndarray], env: Gaussian, n: int) -> float:
    """E[g(X)] for X ~ env via n-node Gauss-Hermite (smooth integrands only)."""
    nodes, weights = _hermite_nodes(n)
    x = env.mean + math.sqrt(2.0) * env.std * nodes
    return float(np.dot(weights, g(x)))


def adaptive_simpson(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    abs_tol: float,
    breakpoints: tuple[float, ...] = (),
    eval_budget: int = 200_000,
) -> float:
    """Integrate a vectorized scalar integrand over [a, b].

    The interval is pre-split at ``breakpoints`` so kinks and jumps sit at
    segment edges, and refined by :func:`_simpson_worklist` as a batch of
    one integral.  Raises :class:`QuadratureError` carrying the remaining
    error estimate if the evaluation budget is exhausted.
    """
    return float(_simpson_worklist(lambda x, own: f(x), [(a, b, breakpoints)], abs_tol, eval_budget)[0])


def _simpson_worklist(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray],
    windows: Sequence[tuple[float, float, tuple[float, ...]]],
    abs_tol: float,
    eval_budget: int,
) -> np.ndarray:
    """Adaptive Simpson over many integrals in one worklist; one value per window.

    Window ``k = (a, b, breakpoints)`` is integral ``k`` over [a, b], split
    at its breakpoints inside (a, b).  Every segment carries its owner
    ``k``, and ``f(x, own)`` evaluates integral ``own[i]``'s integrand at
    ``x[i]``.  Each initial segment's end values are one-sided limits,
    taken one ulp inside the segment, so a jump at a cut lies outside every
    segment whichever side the integrand assigns the cut point itself to.
    Segments are refined by standard adaptive Simpson with Richardson
    extrapolation.  Acceptance depends only on the owner's own width, and
    an owner's accepted values are summed in worklist order, where its
    segments keep the order they have alone, so each integral comes out
    bit for bit as in a batch of one.  Raises :class:`QuadratureError`
    with the residual of the first integral whose own evaluation count
    passes ``eval_budget``.
    """
    lo_cuts, hi_cuts, owners = [], [], []
    for k, (a, b, bps) in enumerate(windows):
        if not (b > a):
            raise ValidationError(f"empty integration interval [{a}, {b}]")
        cuts = sorted({a, b, *(p for p in bps if a < p < b)})
        lo_cuts += cuts[:-1]
        hi_cuts += cuts[1:]
        owners += [k] * (len(cuts) - 1)
    n_int = len(windows)
    own = np.asarray(owners, dtype=np.intp)
    lo = np.asarray(lo_cuts, dtype=float)
    hi = np.asarray(hi_cuts, dtype=float)
    mid = 0.5 * (lo + hi)
    n = lo.size
    fx = f(np.concatenate([np.nextafter(lo, hi), mid, np.nextafter(hi, lo)]), np.tile(own, 3))
    f_lo, f_mid, f_hi = fx[:n], fx[n : 2 * n], fx[2 * n :]
    coarse = (hi - lo) / 6.0 * (f_lo + 4.0 * f_mid + f_hi)
    width = np.asarray([b - a for a, b, _ in windows])[own]
    # the worklist: one column per segment, one row per field (owner indices
    # are exact in float64)
    state = np.array([lo, mid, hi, f_lo, f_mid, f_hi, coarse, width, own])
    # a pass stacks m1, m2, f_m1, f_m2, left, right under the state as rows
    # 9-14; field r of a kept segment's left and right children comes from
    # rows children[r] of that table
    children = np.asarray([[0, 1], [9, 10], [1, 2], [3, 4], [11, 12], [4, 5], [13, 14], [7, 7], [8, 8]])

    total = np.zeros(n_int)
    evals = 3 * np.bincount(own, minlength=n_int)
    while state.shape[1]:
        lo, mid, hi, f_lo, f_mid, f_hi, coarse, width, own = state
        n = lo.size
        own = own.astype(np.intp)
        m1 = 0.5 * (lo + mid)
        m2 = 0.5 * (mid + hi)
        f_m = f(np.concatenate([m1, m2]), np.concatenate([own, own]))
        f_m1, f_m2 = f_m[:n], f_m[n:]
        evals += 2 * np.bincount(own, minlength=n_int)
        left = (mid - lo) / 6.0 * (f_lo + 4.0 * f_m1 + f_mid)
        right = (hi - mid) / 6.0 * (f_mid + 4.0 * f_m2 + f_hi)
        fine = left + right
        err = np.abs(fine - coarse) / 15.0
        # factor 4 guards against the Richardson estimate running optimistic
        # near kinks; the integrals here are cheap enough to over-refine
        accept = err <= 0.25 * abs_tol * np.maximum((hi - lo) / width, 1e-300)
        total += np.bincount(
            own[accept], weights=(fine + (fine - coarse) / 15.0)[accept], minlength=n_int
        )
        keep = ~accept
        if evals.max() > eval_budget:
            over = (evals > eval_budget) & (np.bincount(own[keep], minlength=n_int) > 0)
            if over.any():
                k = int(np.argmax(over))
                residual = float(np.sum(err[keep & (own == k)]))
                raise QuadratureError("quadrature eval budget exhausted", residual)
        table = np.concatenate([state, np.array([m1, m2, f_m1, f_m2, left, right])])
        state = table[:, keep][children].reshape(len(children), -1)
    return total


def gaussian_domain(*envs: Gaussian, halfwidth_sigmas: float) -> tuple[float, float]:
    lo = min(e.mean - halfwidth_sigmas * e.std for e in envs)
    hi = max(e.mean + halfwidth_sigmas * e.std for e in envs)
    return lo, hi


def _expectation(
    env: Environment,
    g: Callable[[np.ndarray], np.ndarray],
    cfg: QuadratureConfig,
    breakpoints: tuple[float, ...] = (),
) -> float:
    """E[g(X)] for bounded vectorized g, dispatching on env type and method."""
    if isinstance(env, DiscreteGrid):
        return float(np.dot(env.weights, g(np.asarray(env.points))))
    lo, hi = gaussian_domain(env, halfwidth_sigmas=cfg.domain_halfwidth_sigmas)
    finite_bps = tuple(p for p in breakpoints if math.isfinite(p))
    if cfg.method == "gauss_hermite" and not finite_bps:
        return gauss_hermite_expectation(g, env, cfg.node_count)
    return adaptive_simpson(
        lambda x: g(x) * env.pdf(x), lo, hi, cfg.abs_tol, finite_bps, cfg.eval_budget
    )


# ---------------------------------------------------------------------------
# Total-variation operations
# ---------------------------------------------------------------------------


def tv_discrete(p, q) -> float:
    """TV distance between two probability vectors: half the L1 distance."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape or p.ndim != 1:
        raise ValidationError(f"probability vectors must share one dimension, got {p.shape} vs {q.shape}")
    for name, v in (("p", p), ("q", q)):
        if not np.all(np.isfinite(v)) or np.any(v < -SIMPLEX_TOL) or abs(v.sum() - 1.0) > SIMPLEX_TOL:
            raise ValidationError(f"{name} is off the simplex beyond {SIMPLEX_TOL}")
    return _clip01(0.5 * float(np.abs(p - q).sum()), "tv_discrete")


def _check_class_counts(l1: Labeler, l2: Labeler) -> int:
    if l1.class_count != l2.class_count:
        raise ValidationError(
            f"labelers disagree on class count: {l1.class_count} vs {l2.class_count}"
        )
    return l1.class_count


def conditional_tv(l1: Labeler, l2: Labeler, x: float) -> float:
    """Pointwise TV between the two conditional label distributions at x."""
    _check_class_counts(l1, l2)
    xs = np.asarray([float(x)])
    diff = np.abs(l1.prob_matrix(xs) - l2.prob_matrix(xs)).sum()
    return _clip01(0.5 * float(diff), "conditional_tv")


def _conditional_tv_vec(l1: Labeler, l2: Labeler) -> Callable[[np.ndarray], np.ndarray]:
    def g(x: np.ndarray) -> np.ndarray:
        return 0.5 * np.abs(l1.prob_matrix(x) - l2.prob_matrix(x)).sum(axis=1)

    return g


def _joint_pmf_tables(
    e1: Environment, l1: Labeler, e2: Environment, l2: Labeler
) -> Optional[tuple[np.ndarray, np.ndarray]]:
    """Joint (cell, class) mass tables of (e1, l1) and (e2, l2) on one shared partition.

    Returns ``(m1, m2)``, each of shape (cells, classes), so that the joint
    TV is the half-L1 distance ``0.5 * |m1 - m2|`` summed over each cell
    and then over the cells.  Both environments must be of one kind.  Two
    grids share their union atoms.  Two Gaussians with deterministic
    labelers share the cells between label boundaries and density
    crossings: inside a cell both labels and the sign of ``phi1 - phi2``
    are constant, so a row is the cell's CDF mass times the one-hot label
    at an inner point.  Any other pair has no finite partition and gives
    ``None``.
    """
    if isinstance(e1, DiscreteGrid):
        pts, w1, w2 = _union_grid(e1, e2)
        return l1.prob_matrix(pts) * w1[:, None], l2.prob_matrix(pts) * w2[:, None]
    if not (l1.is_deterministic and l2.is_deterministic):
        return None
    # a non-finite breakpoint (a crisp labeler whose boundary overflowed)
    # bounds an empty cell, so only finite cuts split the line
    cuts = sorted(
        {*l1.breakpoints(), *l2.breakpoints(), *_gaussian_crossings(e1, e2)} - {-math.inf, math.inf}
    )
    inner = np.asarray(
        [cuts[0] - 1.0, *(0.5 * (u + v) for u, v in zip(cuts, cuts[1:])), cuts[-1] + 1.0] if cuts else [0.0]
    )
    edges = np.asarray([-np.inf, *cuts, np.inf])
    w1 = np.diff(e1.cdf(edges))
    w2 = w1 if e2 is e1 else np.diff(e2.cdf(edges))
    return l1.prob_matrix(inner) * w1[:, None], l2.prob_matrix(inner) * w2[:, None]


def _half_l1(m1: np.ndarray, m2: np.ndarray) -> float:
    return 0.5 * float(np.abs(m1 - m2).sum(axis=1).sum())


def expected_conditional_tv(
    env: Environment, l1: Labeler, l2: Labeler, cfg: QuadratureConfig = DEFAULT_QUADRATURE
) -> float:
    """E_{X~env}[ TV(l1(.|X), l2(.|X)) ]: the joint TV with the environment held fixed.

    Grid environments, and deterministic labeler pairs under a Gaussian,
    take the exact partition sum of :func:`joint_tv_exact` with ``e2 = e1``
    (the quadrature-free value that smooth-pair quadrature is cross-checked
    against in the test suite).  Other pairs are integrated by quadrature.
    """
    _check_class_counts(l1, l2)
    tables = _joint_pmf_tables(env, l1, env, l2)
    if tables is not None:
        return _clip01(_half_l1(*tables), "expected_conditional_tv")
    bps = tuple(l1.breakpoints()) + tuple(l2.breakpoints())
    value = _expectation(env, _conditional_tv_vec(l1, l2), cfg, bps)
    return _clip01(value, "expected_conditional_tv")


def sup_conditional_tv(
    l1: Labeler, l2: Labeler, domain: tuple[float, float], grid_n: int = 512
) -> float:
    """Max pointwise conditional TV over a uniform grid, plus one refinement pass.

    This is a lower estimate of the true supremum: features finer than the
    grid resolution can be missed.  Labeler breakpoints inside the domain are
    added to the candidate set, which makes deterministic disagreement
    regions exact for the families shipped here.
    """
    _check_class_counts(l1, l2)
    lo, hi = float(domain[0]), float(domain[1])
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ValidationError(f"domain must be a finite non-degenerate interval, got {domain!r}")
    if grid_n < 256:
        raise ValidationError("grid_n must be >= 256")

    g = _conditional_tv_vec(l1, l2)
    if isinstance(l1, Tabular) or isinstance(l2, Tabular):
        tab = l1 if isinstance(l1, Tabular) else l2
        pts = np.asarray([p for p in tab.grid if lo <= p <= hi])
        if pts.size == 0:
            raise ValidationError("no tabular grid points inside the domain")
        return _clip01(float(g(pts).max()), "sup_conditional_tv")

    xs = np.linspace(lo, hi, grid_n)
    step = xs[1] - xs[0]
    bps = [p for l in (l1, l2) for p in l.breakpoints() if lo < p < hi and math.isfinite(p)]
    extra = []
    for p in bps:
        extra.extend((p, min(hi, p + 1e-9), max(lo, p - 1e-9), min(hi, p + 0.5 * step)))
    cand = np.concatenate([xs, np.asarray(extra)]) if extra else xs
    vals = g(cand)
    best_x = float(cand[int(np.argmax(vals))])
    best = float(vals.max())
    refine = np.linspace(max(lo, best_x - step), min(hi, best_x + step), 65)
    best = max(best, float(g(refine).max()))
    return _clip01(best, "sup_conditional_tv")


def _gaussian_tv_closed_form(e1: Gaussian, e2: Gaussian) -> float:
    # equal-std case only: 2*Phi(|mu1-mu2| / (2*sigma)) - 1
    return 2.0 * float(ndtr(abs(e1.mean - e2.mean) / (2.0 * e1.std))) - 1.0


def _gaussian_crossings(e1: Gaussian, e2: Gaussian) -> tuple[float, ...]:
    # density crossings; used only as split hints for adaptive quadrature
    if math.isclose(e1.std, e2.std, rel_tol=1e-12, abs_tol=0.0):
        if e1.mean == e2.mean:
            return ()
        return (0.5 * (e1.mean + e2.mean),)
    a = 0.5 / e2.std**2 - 0.5 / e1.std**2
    b = e1.mean / e1.std**2 - e2.mean / e2.std**2
    c = (
        0.5 * e2.mean**2 / e2.std**2
        - 0.5 * e1.mean**2 / e1.std**2
        + math.log(e2.std / e1.std)
    )
    disc = b * b - 4.0 * a * c
    if disc < 0:
        return ()
    root = math.sqrt(disc)
    return tuple(sorted(((-b - root) / (2.0 * a), (-b + root) / (2.0 * a))))


def _union_grid(e1: DiscreteGrid, e2: DiscreteGrid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    pts = np.asarray(sorted(set(e1.points) | set(e2.points)))

    def lift(env: DiscreteGrid) -> np.ndarray:
        w = np.zeros(pts.size)
        w[np.searchsorted(pts, np.asarray(env.points))] = env.weights
        return w

    return pts, lift(e1), lift(e2)


def tv_env(e1: Environment, e2: Environment, cfg: QuadratureConfig = DEFAULT_QUADRATURE) -> float:
    """TV distance between two environments."""
    if isinstance(e1, DiscreteGrid) and isinstance(e2, DiscreteGrid):
        _, w1, w2 = _union_grid(e1, e2)
        return _clip01(0.5 * float(np.abs(w1 - w2).sum()), "tv_env")
    if not (isinstance(e1, Gaussian) and isinstance(e2, Gaussian)):
        raise SupportError("tv_env between a Gaussian and a DiscreteGrid is not defined")
    if math.isclose(e1.std, e2.std, rel_tol=1e-12, abs_tol=0.0):
        return _clip01(_gaussian_tv_closed_form(e1, e2), "tv_env")
    lo, hi = gaussian_domain(e1, e2, halfwidth_sigmas=cfg.domain_halfwidth_sigmas)
    value = 0.5 * adaptive_simpson(
        lambda x: np.abs(e1.pdf(x) - e2.pdf(x)),
        lo,
        hi,
        cfg.abs_tol,
        _gaussian_crossings(e1, e2),
        cfg.eval_budget,
    )
    return _clip01(value, "tv_env")


def joint_tv_exact(
    e1: Environment,
    l1: Labeler,
    e2: Environment,
    l2: Labeler,
    cfg: QuadratureConfig = DEFAULT_QUADRATURE,
) -> float:
    """TV distance between the product distributions (e1, l1) and (e2, l2).

    Computes (1/2) * integral of sum_y |p1(x) p1(y|x) - p2(x) p2(y|x)| dx
    as :func:`joint_tv_many` of the one pair.  Reduces to :func:`tv_env`
    when l1 == l2 and to :func:`expected_conditional_tv` when e1 == e2.
    """
    return joint_tv_many([(e1, l1, e2, l2)], cfg)[0]


def joint_tv_many(
    pairs: Sequence[tuple[Environment, Labeler, Environment, Labeler]],
    cfg: QuadratureConfig = DEFAULT_QUADRATURE,
) -> list[float]:
    """Joint TV of every pair ``(e1, l1, e2, l2)`` of product distributions.

    Two grid environments, or two Gaussians with deterministic labelers,
    give an exact sum over a shared finite partition (union atoms, or CDF
    cells between label boundaries and density crossings).  All other
    Gaussian pairs share one breakpoint-split adaptive Simpson worklist,
    whose memory grows with their number; each value is bit for bit that
    of the pair alone.
    """
    values = [0.0] * len(pairs)
    windows, quad = [], []
    for k, (e1, l1, e2, l2) in enumerate(pairs):
        _check_class_counts(l1, l2)
        if isinstance(e1, Gaussian) != isinstance(e2, Gaussian):
            raise SupportError("joint TV requires both environments Gaussian or both DiscreteGrid")
        tables = _joint_pmf_tables(e1, l1, e2, l2)
        if tables is not None:
            values[k] = _half_l1(*tables)
            continue
        lo, hi = gaussian_domain(e1, e2, halfwidth_sigmas=cfg.domain_halfwidth_sigmas)
        windows.append((lo, hi, (*l1.breakpoints(), *l2.breakpoints(), *_gaussian_crossings(e1, e2))))
        quad.append(k)
    if quad:
        integrand = _joint_density_gap([pairs[k] for k in quad])
        for k, v in zip(quad, _simpson_worklist(integrand, windows, cfg.abs_tol, cfg.eval_budget)):
            values[k] = float(v)
    return [_clip01(v, "joint_tv") for v in values]


def _joint_density_gap(
    pairs: Sequence[tuple[Gaussian, Labeler, Gaussian, Labeler]],
) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """Worklist integrand ``0.5 * sum_y |phi1 p1(y|x) - phi2 p2(y|x)|`` of pair ``own`` at x.

    Both sides of all owners are stacked, so each distinct environment's
    ``pdf`` and each distinct labeler's ``prob_matrix`` is called once per
    pass, on the points whose owners use it.
    """
    envs: dict = {}
    labs: dict = {}
    env_ids = np.asarray([[envs.setdefault(e, len(envs)) for e in (e1, e2)] for e1, _, e2, _ in pairs])
    lab_ids = np.asarray([[labs.setdefault(l, len(labs)) for l in (l1, l2)] for _, l1, _, l2 in pairs])
    env_fns = [e.pdf for e in envs]
    lab_fns = [l.prob_matrix for l in labs]
    classes = pairs[0][1].class_count

    def integrand(x: np.ndarray, own: np.ndarray) -> np.ndarray:
        n = x.size
        xs = np.concatenate([x, x])
        dens = _by_group(env_fns, env_ids[own].T.ravel(), xs, np.empty(2 * n))
        probs = _by_group(lab_fns, lab_ids[own].T.ravel(), xs, np.empty((2 * n, classes)))
        joint = probs * dens[:, None]
        return 0.5 * np.abs(joint[:n] - joint[n:]).sum(axis=1)

    return integrand


def _by_group(fns: list, ids: np.ndarray, x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``out[i] = fns[ids[i]](x[i])``, calling each function once on all its points."""
    order = ids.argsort(kind="stable")
    xs = x[order]
    start = 0
    for fn, stop in zip(fns, np.bincount(ids, minlength=len(fns)).cumsum().tolist()):
        if stop > start:
            out[order[start:stop]] = fn(xs[start:stop])
        start = stop
    return out
