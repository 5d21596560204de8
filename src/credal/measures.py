"""Distribution primitives and total-variation computations.

Environments are univariate covariate distributions (Gaussian or a finite
grid of atoms).  Labelers are conditional label mechanisms over ``C``
classes.  Every TV quantity the rest of the package needs is a TV between
product distributions P = (environment, labeler): the TV between
environments holds the labeler fixed, the expected conditional TV holds the
environment fixed, and a crisp hypothesis is one more labeler, so its 0-1
risk in a world is an expected conditional TV too.

Each family (``Gaussian``, ``Threshold``, ``Interval``, the links of
``Sigmoid`` and ``Probit``, ``SymmetricNoise``, and the hypotheses of
:mod:`credal.dro`) is one vectorised kernel over parameter rows, and an
instance's ``pdf`` or ``prob_matrix`` is that kernel on its own row.  Batched
code gathers each point's parameters by owner and calls one kernel per
family, never one per instance; a ``Tabular`` is a family of its own.

Exact values come from one batched partition kernel.  When the two product
distributions share a finite partition of the covariate line (the union
atoms of two grids, or the CDF cells between label boundaries and density
crossings of two Gaussians with deterministic labelers), each becomes a
(cells x classes) joint mass table and the TV is the half-L1 distance
between the tables; the TV between environments is the case of a constant
labeler; :func:`joint_tv_many` builds a block of such tables per pass.
Every other pair is integrated on a +/-8 std window by one adaptive
worklist engine of 15-point Gauss-Kronrod panels (QUADPACK's G7/K15 pair)
cut at split hints and at the kinks of the integrand, a group of pairs per
pass, to the one absolute tolerance :data:`ABS_TOL`, read at call time.
The smoothed risks and gradients of :mod:`credal.dro` use the same engine
and the same gather of world densities (:func:`_densities`).  Each value
has the same bits as alone, because elementwise kernels give the same bits
on whichever points they run, so :func:`joint_tv_many` takes its pairs in
fixed-size blocks, which bound its memory; callers pass a whole sweep.

The module also provides discrete TV between probability vectors and the
pointwise conditional TV with its supremum, certified over the line.

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
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Sequence, Union

import numpy as np
from scipy.special import expit, log_ndtr, ndtr, ndtri

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
    out, and ``integral``, the failed integral's index in its call.
    """

    def __init__(self, message: str, residual: float, integral: int):
        super().__init__(f"{message} (residual estimate {residual:.3e})")
        self.residual, self.integral = residual, integral


def _require_finite(value: float, name: str) -> float:
    v = float(value)
    if not math.isfinite(v):
        raise ValidationError(f"{name} must be finite, got {value!r}")
    return v


def _clip01(value: float, label: str) -> float:
    if 0.0 <= value <= 1.0:
        return float(value)
    if math.isnan(value):
        raise MeasureError(f"{label} is NaN")
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

    @property
    def row(self) -> tuple[float, float]:
        return (self.mean, self.std)

    @staticmethod
    def kernel(x: np.ndarray, mean, std) -> np.ndarray:
        """Normal densities at x; ``mean`` and ``std`` are scalars or one value per point."""
        z = (x - mean) / std
        return np.exp(-0.5 * z * z) / (std * math.sqrt(2.0 * math.pi))

    def pdf(self, x: np.ndarray) -> np.ndarray:
        return self.kernel(np.asarray(x, dtype=float), self.mean, self.std)

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
    """Defaults of the labeler families: binary, stochastic, no hard breakpoints.

    A family is one ``kernel(x, *row)`` giving (points x classes) label
    probabilities, each parameter a scalar or one value per point; an
    instance's ``row`` is its fields and ``prob_matrix`` the kernel on it.
    """

    class_count = 2
    is_deterministic = False

    def breakpoints(self) -> tuple[float, ...]:
        return ()

    @cached_property
    def row(self) -> tuple:
        # the class's field table: ``dataclasses.fields`` rebuilds a filtered tuple on every call
        return tuple(getattr(self, name) for name in type(self).__dataclass_fields__)

    def prob_matrix(self, x: np.ndarray) -> np.ndarray:
        return self.kernel(np.asarray(x, dtype=float), *self.row)


_ONE_HOT = np.eye(2)
_ONE_HOT.setflags(write=False)


class _Link(_LabelerBase):
    """Stochastic binary labeler P(1|x) = link(slope*x + bias), with a logistic or a probit link.

    Both links are one family, whose row ends with ``probit`` (0 or 1): a
    batch of both applies each link to its own points.
    """

    @staticmethod
    def kernel(x: np.ndarray, slope, bias, probit) -> np.ndarray:
        z = slope * x + bias
        scalar = not isinstance(probit, np.ndarray)
        # np.where, not the ufuncs' where=: given a boolean where= (with or without out=), expit, ndtr and
        # log_ndtr corrupt the heap and crash the interpreter under scipy 1.17.1 and numpy 2.4.6
        p1 = (ndtr(z) if probit else expit(z)) if scalar else np.where(probit != 0, ndtr(z), expit(z))
        probs = np.empty((*p1.shape, 2))
        np.subtract(1.0, p1, out=probs[..., 0])
        probs[..., 1] = p1
        return probs


class CrispLabeler(_LabelerBase):
    """Deterministic binary labeler: ``prob_matrix`` is the one-hot of ``labels``.

    Subclasses supply ``label_kernel(x, *row)`` (class 0 or 1 per point),
    their ``row`` and the ``breakpoints`` where the label can change.
    """

    is_deterministic = True

    @classmethod
    def kernel(cls, x: np.ndarray, *row) -> np.ndarray:
        return _ONE_HOT.take(cls.label_kernel(x, *row), axis=0)

    def labels(self, x: np.ndarray) -> np.ndarray:
        return self.label_kernel(np.asarray(x, dtype=float), *self.row)


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

    @staticmethod
    def label_kernel(x: np.ndarray, theta) -> np.ndarray:
        return (x > theta).astype(np.int64)


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

    @staticmethod
    def label_kernel(x: np.ndarray, a, b) -> np.ndarray:
        return ((x > a) & (x <= b)).astype(np.int64)


@dataclass(frozen=True)
class Sigmoid(_Link):
    """Stochastic binary labeler with logistic link: P(1|x) = sigma(slope*x + bias)."""

    slope: float
    bias: float
    probit: float = field(default=0.0, init=False, repr=False)

    def __post_init__(self) -> None:
        _require_finite(self.slope, "slope")
        _require_finite(self.bias, "bias")


@dataclass(frozen=True)
class Probit(_Link):
    """Stochastic binary labeler with probit link: P(1|x) = Phi(kappa*x + bias)."""

    kappa: float
    bias: float
    probit: float = field(default=1.0, init=False, repr=False)

    def __post_init__(self) -> None:
        _require_finite(self.kappa, "kappa")
        _require_finite(self.bias, "bias")


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

    @cached_property
    def row(self) -> tuple[float, float, float]:
        # a threshold base is the interval (theta, inf]: the same label at every x
        return (*self.base.row, math.inf)[:2] + (self.epsilon,)

    @staticmethod
    def kernel(x: np.ndarray, a, b, epsilon) -> np.ndarray:
        base = Interval.kernel(x, a, b)
        epsilon = np.asarray(epsilon)[..., None]
        return base * (1.0 - epsilon) + (1.0 - base) * epsilon


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
        # prob_matrix's arrays, built once; not fields, so ==, hash and repr read the tuples
        object.__setattr__(self, "_grid", np.asarray(grid))
        object.__setattr__(self, "_mids", 0.5 * self._grid[:-1] + 0.5 * self._grid[1:])
        object.__setattr__(self, "_probs", np.asarray(probs))

    # a table has no parameter row: its kernel is its own method, so each
    # table is a family of its own
    row = ()

    @property
    def class_count(self) -> int:
        return len(self.probs[0])

    @property
    def kernel(self) -> Callable[[np.ndarray], np.ndarray]:
        return self.prob_matrix

    def breakpoints(self) -> tuple[float, ...]:
        return self.grid

    def prob_matrix(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        # nearest grid point: the first midpoint at or above x (halved before adding: finite)
        idx = np.searchsorted(self._mids, x)
        hit = np.abs(self._grid[idx] - x) <= 1e-12
        if not np.all(hit):
            raise SupportError(f"tabular labeler evaluated off-grid at x={x[~hit][0]!r}")
        return self._probs.take(idx, axis=0)


Labeler = Union[Threshold, Interval, Sigmoid, Probit, SymmetricNoise, Tabular]
_CONSTANT = Threshold(math.inf)  # class 0 everywhere: the joint TV under it is the environment TV


# ---------------------------------------------------------------------------
# Quadrature engine
# ---------------------------------------------------------------------------

# every quadrature value's absolute error target; read at call time
ABS_TOL = 1e-8

# integrand evaluations one integral may take before QuadratureError
_EVAL_BUDGET = 256_000

_EXACT_BLOCK = 2048  # exact pairs per pass: the paper hard sweep's 18,190 peak at 2.9 MiB traced, 16 MiB unblocked
_QUAD_BLOCK = 32  # quadrature pairs per worklist: the soft desk sweep's 216 peak at 2.6 MiB traced, 15 MiB unblocked


# QUADPACK's qk15 pair (Piessens et al., 1983) on [-1, 1]: the 15 Kronrod
# nodes in ascending order and their weights, and the weights of the 7-point
# Gauss rule on the odd-indexed nodes, which are its nodes
_XGK = (
    0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
    0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
    0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
)
_WGK = (
    0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
    0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
    0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
    0.204432940075298892414161999234649, 0.209482141084727828012999174891714,
)
_WG = (
    0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
    0.381830050505118944950369775488975, 0.417959183673469387755102040816327,
)
_KRONROD_X = np.array([*(-x for x in _XGK), 0.0, *_XGK[::-1]])
_KRONROD_W = np.array([*_WGK, *_WGK[-2::-1]])
_GAUSS_W = np.array([*_WG, *_WG[-2::-1]])


def _worklist(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray], windows: Sequence[tuple[float, float, tuple[float, ...]]]
) -> np.ndarray:
    """Adaptive Gauss-Kronrod over many integrals in one worklist; one value per window.

    Window ``k = (a, b, breakpoints)`` is integral ``k`` over [a, b], split
    at its breakpoints inside (a, b).  Every segment carries its owner
    ``k``, and ``f(x, own)`` evaluates integral ``own[i]``'s integrand at
    ``x[i]``.  A pass evaluates every live segment at its 15 Kronrod nodes
    in one call of ``f``; the segment's value is the 15-point Kronrod sum
    and its error estimate the distance to the embedded 7-point Gauss sum.
    The nodes are interior, so a jump at a cut lies outside every segment.
    A segment whose error is at most a quarter of :data:`ABS_TOL` times its
    share of its owner's width is accepted, and any other is halved for the
    next pass.  Acceptance depends only on the owner's own width, a
    segment's sums are elementwise products reduced over its own 15 values
    (no BLAS), and an owner's accepted values are summed in worklist order,
    where its segments keep the order they have alone, so each integral
    comes out bit for bit as in a batch of one.  Raises
    :class:`QuadratureError` with the index and residual of the first
    integral whose own evaluation count passes ``_EVAL_BUDGET``.
    """
    segments = []
    for k, (a, b, bps) in enumerate(windows):
        if not (b > a):
            raise ValidationError(f"empty integration interval [{a}, {b}]")
        cuts = sorted({a, b, *(p for p in bps if a < p < b)})
        segments += [(lo, hi, b - a, k) for lo, hi in zip(cuts, cuts[1:])]
    # the worklist: one column per segment, one row per field (lo, hi, the
    # owner's width, the owner; owner indices are exact in float64)
    state = np.array(segments, dtype=float).reshape(-1, 4).T
    n_int = len(windows)
    total, evals = np.zeros(n_int), np.zeros(n_int, dtype=np.intp)
    while state.shape[1]:
        lo, hi, width, own = state
        own = own.astype(np.intp)
        half = 0.5 * (hi - lo)
        x = (0.5 * (lo + hi))[:, None] + half[:, None] * _KRONROD_X
        fx = f(x.ravel(), own.repeat(15)).reshape(-1, 15)
        evals += 15 * np.bincount(own, minlength=n_int)
        kronrod = half * (fx * _KRONROD_W).sum(axis=1)
        err = np.abs(kronrod - half * (fx[:, 1::2] * _GAUSS_W).sum(axis=1))
        # |K15 - G7| is about the error of G7, far above that of K15, and the
        # factor 4 is a margin on top; the integrals here are cheap enough to
        # over-refine
        accept = err <= 0.25 * ABS_TOL * np.maximum((hi - lo) / width, 1e-300)
        total += np.bincount(own[accept], weights=kronrod[accept], minlength=n_int)
        keep = ~accept
        if evals.max() > _EVAL_BUDGET:
            over = (evals > _EVAL_BUDGET) & (np.bincount(own[keep], minlength=n_int) > 0)
            if over.any():
                k = int(np.argmax(over))
                raise QuadratureError("quadrature eval budget exhausted", float(np.sum(err[keep & (own == k)])), k)
        # the kept segments' left halves, then their right halves
        lo, hi, width, own = state[:, keep]
        mid = 0.5 * (lo + hi)
        state = np.array([[lo, mid], [mid, hi], [width, width], [own, own]]).reshape(4, -1)
    return total


def _split_hints(lab: Labeler) -> tuple[float, ...]:
    """Quadrature cuts: a smooth link's argument at 0, +/-2, +/-8, +/-30, else the breakpoints."""
    slope = lab.slope if isinstance(lab, Sigmoid) else lab.kappa if isinstance(lab, Probit) else 0.0
    if not slope:
        return lab.breakpoints()
    return tuple((k - lab.bias) / slope for k in (0, -2, 2, -8, 8, -30, 30))


def _window(envs: Sequence[Gaussian], labs: Sequence[Labeler]) -> tuple[float, float, tuple[float, ...]]:
    """An integral's domain, the union of ``mean +/- 8 std``, and its hints.

    The hints are each labeler's :func:`_split_hints`, then each
    environment's ``mean + {-8, -2, 0, 2, 8} * std``.
    """
    lo = min(e.mean - 8.0 * e.std for e in envs)
    hi = max(e.mean + 8.0 * e.std for e in envs)
    hints = [h for lab in labs for h in _split_hints(lab)]
    hints += [e.mean + k * e.std for e in envs for k in (-8.0, -2.0, 0.0, 2.0, 8.0)]
    return lo, hi, tuple(hints)


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
    """Pointwise TV between the two conditional label distributions at x: :func:`sup_conditional_tv` over ``(x,)``."""
    return sup_conditional_tv(l1, l2, (x,))


def _partition_tvs(pairs: Sequence[tuple], gaussian: bool) -> np.ndarray:
    """Joint TVs of exact pairs of one environment kind and class count, in one pass over their tables.

    Labels and the sign of ``phi1 - phi2`` are constant inside a cell, so
    each labeler family's kernel runs once, on one point of every cell of
    its members' rows, parameters gathered by distinct labeler.

    Gaussian cuts are arrays over distinct objects, with no Python work per
    pair: a table holds each distinct labeler's breakpoints and each
    distinct environment pair's -inf and density crossings, padded with
    +inf.  A pair's row gathers its three table rows and is sorted; a
    repeated cut becomes +inf and the row is sorted again, so its cuts are
    a set.  The cell points are ``c0 - 1``, the midpoints and ``c_last + 1``
    (0 with no cut), and each side has its own CDF row.  Grid rows are the
    union atoms.  Rows are padded with empty cells at their last point.  A
    Gaussian row has at most 7 cells (2 + 2 breakpoints and 2 crossings); a
    row of 8 or more, where numpy's pairwise sum depends on the length, is
    summed at its own length, so each value is bit for bit the pair's alone.
    """
    n = len(pairs)
    e1s, l1s, e2s, l2s = zip(*pairs)
    if gaussian:
        # the distinct labelers, then the distinct environment pairs, by identity
        objs, at = _distinct([*l1s, *l2s, *zip(e1s, e2s)], [*map(id, l1s + l2s), *zip(map(id, e1s), map(id, e2s))])
        labs = [o for o in objs if not isinstance(o, tuple)]
        envs, at = objs[len(labs) :], at.reshape(3, n).T
        # a table row per labeler (its breakpoints) and per environment pair
        # (-inf, then its density crossings), padded with +inf; an
        # environment pair's row ends with both sides' (mean, std)
        rows = [lab.breakpoints() for lab in labs] + [(-math.inf, *_gaussian_crossings(*e)) for e in envs]
        size = max(map(len, rows)) + 1
        moments = [(0.0,) * 4] * len(labs) + [(*e1.row, *e2.row) for e1, e2 in envs]
        table = np.array([(*row, *(math.inf,) * (size - len(row)), *m) for row, m in zip(rows, moments)])
        cuts = table[:, :size].take(at, axis=0).reshape(n, -1)
        cuts.sort(axis=1)
        # a repeated cut is one cut, as in a set; only finite cuts split the
        # line, and a non-finite one (an overflowed breakpoint) repeats the
        # -inf or joins the +inf pads
        cuts[:, 1:][cuts[:, 1:] == cuts[:, :-1]] = math.inf
        cuts.sort(axis=1)
        # -inf, the cuts, then +inf: a row has as many finite cuts as the
        # index of its first +inf after the -inf
        k = cuts[:, 1:].argmax(axis=1)
        edges, counts = cuts[:, : max(k.tolist()) + 2], k + 1
        # cell points: c0 - 1, the midpoints, then c_last + 1 (0 with no
        # cut) in the last cell and the pad cells, where the others are +inf
        last = edges[np.arange(n), k] + 1.0
        last[k == 0] = 0.0
        xs = edges[:, 1:] - 1.0
        xs[:, 1:] = 0.5 * (edges[:, 1:-1] + edges[:, 2:])
        xs = np.fmin(xs, last[:, None])
        # each side's CDF at the edges
        sides = table[:, size:].take(at[:, 2], axis=0).T[:, :, None]
        z = (edges - sides[0::2]) / sides[1::2]
        cdf = ndtr(z)
        w, lab_at = cdf[..., 1:] - cdf[..., :-1], at.T[:2, :, None]
    else:
        labs, lab_at = _distinct(l1s + l2s)
        lab_at = lab_at.reshape(2, n, 1)
        points = [sorted(set(e1.points) | set(e2.points)) for e1, e2 in zip(e1s, e2s)]
        counts = [len(x) for x in points]
        pad = [0.0] * max(counts)
        w = []
        for e, pts in zip(e1s + e2s, points * 2):
            # a grid with as many atoms as the union has all of them
            mass = e.weights if len(e.points) == len(pts) else map(dict(zip(e.points, e.weights)).get, pts, pad)
            w.append([*mass, *pad[len(pts) :]])
        w = np.asarray(w).reshape(2, n, -1)
        xs = np.asarray([x + x[-1:] * (len(pad) - len(x)) for x in points])
    width = xs.shape[1]
    # (side, pair, cell, class)
    joint = _label_probs(labs)(xs[None].repeat(2, axis=0), lab_at) * w[..., None]
    diffs = np.add.reduce(np.abs(joint[0] - joint[1]), axis=2)
    tvs = np.add.reduce(diffs[:, :7], axis=1)
    if width > 7:
        counts = np.asarray(counts)
        for count in set(counts.tolist()) - set(range(8)):
            rows = np.flatnonzero(counts == count)
            tvs[rows] = np.add.reduce(diffs[rows, :count], axis=1)
    return 0.5 * tvs


def expected_conditional_tv(env: Environment, l1: Labeler, l2: Labeler) -> float:
    """E_{X~env}[ TV(l1(.|X), l2(.|X)) ]: the joint TV with the environment held fixed.

    This is :func:`joint_tv_many` of the one pair ``(env, l1, env, l2)``, so
    a batch of such pairs gives the same values.
    """
    return joint_tv_many([(env, l1, env, l2)])[0]


def sup_conditional_tv(l1: Labeler, l2: Labeler, points=None) -> float:
    """Supremum over x of the pointwise TV between ``l1(.|x)`` and ``l2(.|x)``.

    With ``points`` (the atoms of grid environments) it is the maximum over
    them, exact for any class count.  Without, it is certified over the
    float line, a Gaussian's support: at least the supremum and at most
    ``_SUP_TOL`` = 1e-6 above it, with no window and no fallback.  Cells
    run from one ulp above a :func:`_split_hints` cut to the next cut (every
    family is left-continuous).  Every binary family is monotone on a cell,
    so there ``|p1 - p2| <= max(hi1 - lo2, hi2 - lo1)`` over the ``P(1|x)``
    end values, which at the outer cells are the links' limits at +/-inf;
    two links of one kind also take the mean-value bound, ``max L'`` over
    the cell's z-range times ``max |z1 - z2|``, which sends equal links to
    0; every pair takes the second-order bound, as ``(p1 - p2)' = 0`` at an
    interior maximiser: the larger end gap plus ``(hi - lo)^2 / 8`` times
    ``sum s^2 max |L''|`` over its links (``1/(6 sqrt 3)`` logistic, ``phi(1)``
    probit, 0 for a family constant on a cell).  Cells whose bound exceeds
    their pair's best end value by more than ``_SUP_TOL`` are halved; the
    value is the largest end value or bound left.
    """
    _check_class_counts(l1, l2)
    if points is not None and np.size(points) == 0:
        raise ValidationError("sup_conditional_tv: points is empty; pass at least one point, or None for the whole line")
    return _clip01(float(_sup_tvs([(l1, l2)], points)[0]), "sup_conditional_tv")


_SUP_TOL = 1e-6  # 1e-7 takes about 2.5x as long on the soft sweep's labeler pairs
_BENDS = (1.0 / (6.0 * math.sqrt(3.0)), math.exp(-0.5) / math.sqrt(2.0 * math.pi))  # max |L''|: logistic, probit


def _sup_tvs(pairs: Sequence[tuple[Labeler, Labeler]], points=None) -> np.ndarray:
    """:func:`sup_conditional_tv` of each pair: cells take the least of the monotone, mean-value and second-order
    bounds and are halved in one array loop whose state is per pair (batches of one agree)."""
    if points is not None:
        return np.array([0.5 * np.abs(l1.prob_matrix(points) - l2.prob_matrix(points)).sum(axis=1).max() for l1, l2 in pairs])
    if not pairs:
        return np.zeros(0)
    big = np.finfo(float).max
    cuts = [sorted({-big, big, *(h for lab in pair for h in _split_hints(lab) if -big < h < big)}) for pair in pairs]
    hi = np.array([x for c in cuts for x in c[1:]])
    lo = np.nextafter([x for c in cuts for x in c[:-1]], hi)
    own = np.repeat(np.arange(len(pairs)), [len(c) - 1 for c in cuts])
    label_probs = _label_probs([lab for pair in pairs for lab in pair])

    def positive(xs: np.ndarray, own: np.ndarray) -> np.ndarray:
        # P(1|x) of both labelers of pair own[i] at xs[i], one row per labeler
        slot = 2 * own + np.array([[0], [1]])
        return label_probs(np.broadcast_to(xs, slot.shape), slot)[..., 1]

    # slope, bias, probit flag of l1 then of l2 where both are links of one kind, else NaN (no mean-value bound)
    links = np.array([(*l1.row, *l2.row) if isinstance(l1, _Link) and type(l1) is type(l2) else (math.nan,) * 6 for l1, l2 in pairs]).T
    # a pair's max |(p1 - p2)''|: s * s * max |L''| summed over its links (s ** 2 would raise OverflowError)
    curv = np.array([sum(lab.row[0] * lab.row[0] * _BENDS[int(lab.probit)] for lab in pair if isinstance(lab, _Link))
                     for pair in pairs], dtype=float)
    best, worst = np.zeros(len(pairs)), np.zeros(len(pairs))
    with np.errstate(over="ignore", invalid="ignore"):
        state = np.concatenate([[lo, hi, own], positive(np.concatenate([lo, hi]), np.concatenate([own, own])).reshape(4, -1)])
        while True:
            lo, hi, own, p1lo, p1hi, p2lo, p2hi = state
            own = own.astype(np.intp)
            np.maximum.at(best, own, ends := np.maximum(np.abs(p1lo - p2lo), np.abs(p1hi - p2hi)))
            bound = np.maximum(np.maximum(p1lo, p1hi) - np.minimum(p2lo, p2hi), np.maximum(p2lo, p2hi) - np.minimum(p1lo, p1hi))
            bound = np.fmin(bound, ends + 0.125 * (hi - lo) ** 2 * curv[own])
            s1, c1, probit, s2, c2, _ = links.take(own, axis=1)
            z1, z2 = s1 * state[:2] + c1, s2 * state[:2] + c2
            # |z| nearest 0 on the cell, capped where exp would turn slow and subnormal
            t = np.clip(np.maximum(np.minimum(z1, z2).min(axis=0), -np.maximum(z1, z2).max(axis=0)), 0.0, 30.0)
            e = np.exp(np.where(probit == 1.0, -0.5 * t * t, -t))
            lip = e / np.where(probit == 1.0, math.sqrt(2.0 * math.pi), (1.0 + e) ** 2)
            bound = np.fmin(bound, lip * np.where(z1 == z2, 0.0, np.abs(z1 - z2)).max(axis=0))
            mid = 0.5 * lo + 0.5 * hi
            split = (bound > best[own] + _SUP_TOL) & (lo < mid) & (mid < hi)
            np.maximum.at(worst, own[~split], bound[~split])
            if not split.any():
                return np.maximum(best, worst)
            (lo, hi, own, p1lo, p1hi, p2lo, p2hi), mid = state[:, split], mid[split]
            q1, q2 = positive(mid, own.astype(np.intp))
            state = np.array([[lo, mid], [mid, hi], [own, own], [p1lo, q1], [q1, p1hi], [p2lo, q2], [q2, p2hi]]).reshape(7, -1)


def _gaussian_crossings(e1: Gaussian, e2: Gaussian) -> tuple[float, ...]:
    # points where the two densities cross, i.e. where their sign changes
    m1, s1, m2, s2 = e1.mean, e1.std, e2.mean, e2.std
    if math.isclose(s1, s2, rel_tol=1e-12, abs_tol=0.0):
        return () if m1 == m2 else (0.5 * (m1 + m2),)
    v1, v2 = s1**2, s2**2
    a = 0.5 / v2 - 0.5 / v1
    b = m1 / v1 - m2 / v2
    c = 0.5 * m2**2 / v2 - 0.5 * m1**2 / v1 + math.log(s2 / s1)
    disc = b * b - 4.0 * a * c
    if disc <= 0:
        return ()
    # the larger root first, so near-equal stds (a -> 0) cancel no digits
    q = -0.5 * (b + math.copysign(math.sqrt(disc), b))
    return tuple(sorted((q / a, c / q)))


def _link_crossings(l1: _Link, l2: _Link) -> tuple[float, ...]:
    """Where two links' P(1|x) cross: the kinks of their expected conditional TV under any environment.

    Links of one kind cross at ``z1 = z2``; a logistic and a probit link, ``z = s_p x + b_p``, where ``g(z) = r z + c``
    (``g = logit o Phi``, odd; ``r = s_l / s_p``; ``c = b_l - r b_p``).  On ``z >= 0`` ``g`` is convex and >= z^2/2:
    Newton steps from 0 and from the root of ``z^2/2 = r z +/- c`` reach each half's roots (two at most) or turn back.
    """
    if l1.probit == l2.probit:
        return ((l2.bias - l1.bias) / (l1.row[0] - l2.row[0]),) if l1.row[0] != l2.row[0] else ()
    (sl, bl, _), (sp, bp, _) = (l1.row, l2.row) if l2.probit else (l2.row, l1.row)
    if not sp:
        return ((log_ndtr(bp) - log_ndtr(-bp) - bl) / sl,) if sl else ()
    r, roots = sl / sp, []
    with np.errstate(all="ignore"):  # steep links overflow to non-finite roots, which the worklist drops
        for sign, c in ((1.0, bl - r * bp), (-1.0, r * bp - bl)):
            for z, d in ((0.0 if c <= 0 else -1.0, 1.0), (r + math.sqrt(max(r * r + 2.0 * c, 0.0)), -1.0)):
                while z >= 0:
                    l, m = log_ndtr(z), log_ndtr(-z)
                    v = l - m - r * z - c
                    step = v / (np.exp(-0.5 * z * z - l - m) * 0.3989422804014327 - r)  # g'(z) = phi / (Phi Phi(-z))
                    if not (v > 0 and abs(step) > 4e-16 * z):
                        roots.append(sign * z)
                        break
                    z = z - step if d * step < 0 else -1.0
    return tuple((z - bp) / sp for z in roots)


def tv_env(e1: Environment, e2: Environment) -> float:
    """Exact TV between environments of one kind: their joint TV under a constant labeler."""
    return joint_tv_many([(e1, _CONSTANT, e2, _CONSTANT)])[0]


def joint_tv_exact(e1: Environment, l1: Labeler, e2: Environment, l2: Labeler) -> float:
    """TV distance between the product distributions (e1, l1) and (e2, l2).

    Computes (1/2) * integral of sum_y |p1(x) p1(y|x) - p2(x) p2(y|x)| dx
    as :func:`joint_tv_many` of the one pair.  Reduces to :func:`tv_env`
    when l1 == l2 and to :func:`expected_conditional_tv` when e1 == e2.
    """
    return joint_tv_many([(e1, l1, e2, l2)])[0]


def joint_tv_many(pairs: Sequence[tuple[Environment, Labeler, Environment, Labeler]]) -> list[float]:
    """Joint TV of every pair ``(e1, l1, e2, l2)`` of product distributions.

    Two grid environments, or two Gaussians with deterministic labelers,
    give an exact sum over a shared finite partition (union atoms, or CDF
    cells between label boundaries and density crossings), one pass per
    kind, class count and block of pairs.  Other Gaussian pairs share one
    Gauss-Kronrod worklist per block, cut at their labelers' and
    environments' hints, density crossings and kinks: two links under one
    environment object cross in closed form (:func:`_link_crossings`), and
    :func:`_kinks` scans only joint shifts and a link beside another family.
    Fixed-size blocks bound the memory; each value is bit for bit the pair's alone.
    Each integral targets :data:`ABS_TOL`; one that cannot meet it raises
    :class:`QuadratureError` naming the pair and its index in ``pairs``.
    """
    values = np.zeros(len(pairs))
    exact, windows, quad, scanned, crossings = {}, [], [], [], {}
    for k, (e1, l1, e2, l2) in enumerate(pairs):
        classes, gaussian = _check_class_counts(l1, l2), isinstance(e1, Gaussian)
        if gaussian != isinstance(e2, Gaussian):
            raise SupportError("joint TV requires both environments Gaussian or both DiscreteGrid")
        if not gaussian or (l1.is_deterministic and l2.is_deterministic):
            exact.setdefault((gaussian, classes), []).append(k)
            continue
        lo, hi, hints = _window((e1, e2), (l1, l2))
        links = e1 is e2 and isinstance(l1, _Link) and isinstance(l2, _Link)
        if links and (l1, l2) not in crossings:  # once per distinct labeler pair: the kinks ignore the environment
            crossings[l1, l2] = _link_crossings(l1, l2)
        windows.append((lo, hi, hints + _gaussian_crossings(e1, e2) + (crossings[l1, l2] if links else ())))
        quad.append(k)
        scanned.append(not links)
    for (gaussian, _), ks in exact.items():
        for block in (ks[s : s + _EXACT_BLOCK] for s in range(0, len(ks), _EXACT_BLOCK)):
            values[block] = _partition_tvs([pairs[k] for k in block], gaussian)
    for s in range(0, len(quad), _QUAD_BLOCK):
        block, wins = quad[s : s + _QUAD_BLOCK], windows[s : s + _QUAD_BLOCK]
        # slot s * m + i is world (e1, l1) (s = 0) or (e2, l2) (s = 1) of pair i
        m, densities = len(block), _densities([pairs[k][a : a + 2] for a in (0, 2) for k in block])

        def joints(x: np.ndarray, own: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            # the joint densities (phi1 p1(y|x), phi2 p2(y|x)) of pair own at x, one column per class
            probs, phi = densities(np.concatenate([x, x]), np.concatenate([own, own + m]))
            joint = probs * phi[:, None]
            return joint[: x.size], joint[x.size :]

        if left := [i for i in range(len(block)) if scanned[s + i]]:
            found = _kinks(lambda x, own: joints(x, np.take(left, own)), [wins[i] for i in left])
            for i, kinks in zip(left, found):
                wins[i] = (*wins[i][:2], wins[i][2] + kinks)

        def integrand(x: np.ndarray, own: np.ndarray) -> np.ndarray:
            return 0.5 * np.abs(np.subtract(*joints(x, own))).sum(axis=1)

        try:
            values[block] = _worklist(integrand, wins)
        except QuadratureError as exc:
            k = block[exc.integral]
            raise QuadratureError(f"pair {k} {pairs[k]!r}: quadrature eval budget exhausted", exc.residual, k) from None
    return [_clip01(v, "joint_tv") for v in values.tolist()]


def _kinks(joints: Callable, windows: Sequence[tuple[float, float, tuple[float, ...]]]) -> list[tuple[float, ...]]:
    """Per window, the kinks of ``|j1 - j2|``: where a class's two joint densities cross.

    Window ``k`` is scanned at 33 even points and one ulp either side of
    each hint, so a jump at a hint brackets no sign change.  Two crossings
    between neighbouring scan points leave no sign change there, so where
    ``log j1 - log j2`` comes nearer 0 at a scan point than at both its
    neighbours, the vertex of the parabola through the three is probed as
    well.  While a bracket's width times its larger ``|j1 - j2|`` exceeds
    ``ABS_TOL/1000``, all such brackets are refined at once by regula falsi
    with the Illinois step on ``log j1 - log j2``, which stays well scaled
    over hundreds of orders of magnitude.  Only joint shifts and a link
    beside another family reach it (:func:`joint_tv_many`).
    """

    def log_gap(j1: np.ndarray, j2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # densities below 1e-300 count as 1e-300: two of them are equal
        return np.log(np.maximum(j1, 1e-300)) - np.log(np.maximum(j2, 1e-300)), np.abs(j1 - j2)

    scans = []
    for lo, hi, hints in windows:
        h = np.asarray([p for p in hints if lo < p < hi])
        pts = np.concatenate([np.linspace(lo, hi, 33), np.nextafter(h, lo), np.nextafter(h, hi)])
        scans.append(np.sort(pts))
    own = np.repeat(np.arange(len(windows)), [x.size for x in scans])
    xs = np.concatenate(scans)
    # one sequence per (class, window): the tables flattened column by column
    j1, j2 = (j.T.ravel() for j in joints(xs, own))
    n, d = xs.size, j1 - j2
    seq = np.tile(own, j1.size // n) + len(windows) * np.repeat(np.arange(j1.size // n), n)
    x, (g, gap) = np.tile(xs, j1.size // n), log_gap(j1, j2)
    nz = np.flatnonzero(d)
    i, j = nz[:-1], nz[1:]
    flip = (seq[i] == seq[j]) & ((d[i] > 0) != (d[j] > 0))
    i, j = i[flip], j[flip]
    # near touches: a sign change at the vertex gives two brackets
    t = np.arange(1, g.size - 1)
    mass = np.maximum(gap[t - 1], gap[t + 1]) * (x[t + 1] - x[t - 1]) > 1e-3 * ABS_TOL
    one_sign = (g[t - 1] * g[t] > 0) & (g[t] * g[t + 1] > 0) & (seq[t - 1] == seq[t + 1])
    t = t[mass & one_sign & (np.abs(g[t]) < np.minimum(np.abs(g[t - 1]), np.abs(g[t + 1])))]
    if t.size:
        (x0, x1, x2), (g0, g1, g2) = x[[t - 1, t, t + 1]], g[[t - 1, t, t + 1]]
        p, q = (x1 - x0) * (g1 - g2), (x1 - x2) * (g1 - g0)
        with np.errstate(divide="ignore", invalid="ignore"):
            v = np.clip(np.where(p != q, x1 - 0.5 * ((x1 - x0) * p - (x1 - x2) * q) / (p - q), x1), x0, x2)
        gv, dv = log_gap(*(jv[np.arange(t.size), t // n] for jv in joints(v, own[t % n])))
        hit = gv * g1 < 0
        t, at = t[hit], g.size + np.arange(np.count_nonzero(hit))
        x, g, gap = (np.concatenate([z, zv[hit]]) for z, zv in ((x, v), (g, gv), (gap, dv)))
        seq = np.concatenate([seq, seq[t]])
        i, j = np.concatenate([i, t - 1, at]), np.concatenate([j, at, t + 1])
    mass = np.maximum(gap[i], gap[j]) * (x[j] - x[i])
    i, j = i[mass > 1e-3 * ABS_TOL], j[mass > 1e-3 * ABS_TOL]
    col, win = np.divmod(seq[i], len(windows))
    a, b, kept = x[i], x[j], np.zeros(i.size)
    fa, da, fb, db = g[i], gap[i], g[j], gap[j]
    for _ in range(100):
        live = np.maximum(da, db) * (b - a) > 1e-3 * ABS_TOL
        if not live.any():
            break
        # the ends of a live bracket have values of opposite signs
        c = np.where(live, np.clip(b - fb * (b - a) / np.where(live, fb - fa, 1.0), a, b), a)
        fc, dc = log_gap(*(jc[np.arange(i.size), col] for jc in joints(c, win)))
        # c replaces the end whose value has its sign; an end kept twice in
        # a row has its value halved (Illinois); a zero closes the bracket
        to_b = live & ((fc > 0) == (fb > 0))
        to_a = live & ~to_b
        fa = np.where(to_b & (kept == -1), 0.5 * fa, fa)
        fb = np.where(to_a & (kept == 1), 0.5 * fb, fb)
        kept = np.where(to_b, -1, np.where(to_a, 1, kept))
        hit = live & (fc == 0)
        a, fa, da = np.where(to_a | hit, c, a), np.where(to_a, fc, fa), np.where(to_a, dc, da)
        b, fb, db = np.where(to_b | hit, c, b), np.where(to_b, fc, fb), np.where(to_b, dc, db)
    roots = 0.5 * (a + b)
    return [tuple(roots[win == k]) for k in range(len(windows))]


def _densities(worlds: Sequence[tuple[Gaussian, Labeler]]) -> Callable[..., tuple[np.ndarray, np.ndarray]]:
    """Label probabilities ``p(y|x)`` (one column per class) and density ``phi(x)`` of world ``slot`` at x.

    A world is ``(env, labeler)``.  Each point's ``(mean, std)`` and
    labeler parameters are gathered by its slot: one ``Gaussian.kernel``
    call and one kernel call per labeler family serve a whole pass.
    """
    moments = np.array([env.row for env, _ in worlds], dtype=float).T.copy()
    label_probs = _label_probs([lab for _, lab in worlds])
    return lambda x, slot: (label_probs(x, slot), Gaussian.kernel(x, *moments.take(slot, axis=1)))


def _label_probs(labs: Sequence[Labeler]) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """Label probabilities ``p(y|x)`` of labeler ``slot`` at x, one column per class.

    ``slot`` holds the labeler of each point (the shape of ``xs``) or of
    each row of points (a last axis of 1).  Parameters are gathered by
    owner, one kernel call per family; rows of several families are
    grouped by family and put back in order.
    """
    families = _families(labs)
    if len(families) == 1:
        kernel, _, params = families[0]
        return lambda xs, slot: kernel(xs, *_gather(params, slot))
    # a slot's family, in small codes that numpy's stable sort orders by
    # radix, and its place among the family's members
    codes, place = [0] * len(labs), [0] * len(labs)
    for f, (_, slots, _) in enumerate(families):
        for p, s in enumerate(slots):
            codes[s], place[s] = f, p
    codes, place = np.array(codes, np.min_scalar_type(len(families))), np.array(place, np.intp)

    def label_probs(xs: np.ndarray, slot: np.ndarray) -> np.ndarray:
        rows = slot.reshape(-1)
        f = codes.take(rows)
        order = f.argsort(kind="stable")
        ends = np.bincount(f, minlength=len(families)).cumsum().tolist()
        xo, at = xs.reshape(rows.size, -1).take(order, axis=0), place.take(rows.take(order))[:, None]
        parts = [k(xo[a:b], *_gather(params, at[a:b])) for (k, _, params), a, b in zip(families, [0, *ends], ends) if b > a]
        inv = np.empty_like(order)
        inv[order] = np.arange(order.size)
        # ``take`` gathers: fancy indexing of (points, classes) rows is several times slower
        return np.concatenate(parts).take(inv, axis=0).reshape(*xs.shape, -1)

    return label_probs


def _families(labs: Sequence[Labeler]) -> list[tuple[Callable, list[int], list]]:
    """The families of ``labs`` (labelers that share a ``kernel``): kernel, member slots, parameters.

    A parameter that all members share is a scalar, which broadcasts over
    any points; any other is a column of the members' values.
    """
    groups: dict = {}
    for s, lab in enumerate(labs):
        groups.setdefault(lab.kernel, []).append(s)
    families = []
    for kernel, slots in groups.items():
        columns = zip(*[labs[s].row for s in slots])
        families.append((kernel, slots, [c[0] if c.count(c[0]) == len(c) else np.array(c, dtype=float) for c in columns]))
    return families


def _gather(params: list, at: np.ndarray) -> list:
    """A family's parameters at the members in places ``at``; a shared one stays a scalar."""
    return [c.take(at) if isinstance(c, np.ndarray) else c for c in params]


def _distinct(objs: Sequence, keys: Sequence = None) -> tuple[list, np.ndarray]:
    """The distinct objects of ``objs`` by ``keys`` (their ids by default), first seen first, and each one's index."""
    keys = list(map(id, objs)) if keys is None else keys
    first = dict(zip(keys, objs))
    at = dict(zip(first, range(len(first))))
    return list(first.values()), np.fromiter(map(at.__getitem__, keys), np.intp, len(keys))
