"""The structured credal set: vertices, distance bounds, and diameters.

A :class:`CredalSpec` pairs every environment with every labeler; the
vertices of the credal set are the resulting product distributions indexed
by ``(i, j)``.  For an array of vertex pairs, :func:`_pair_values` gives
float columns of exact TV distances in the pure regimes (shared environment
or shared labeler) and two-sided bounds in the joint-shift regime, computing
each distinct integral once.  Pairwise bounds, the component diameters
that sandwich the TV diameter of the set, and the exact diameter read it;
the exact diameter then integrates only the joint-shift pairs whose upper
bound reaches the largest lower bound, the only ones that can attain it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from credal.measures import (
    DEFAULT_QUADRATURE,
    DiscreteGrid,
    Environment,
    Labeler,
    QuadratureConfig,
    ValidationError,
    _CONSTANT,
    _sup_tvs,
    joint_tv_many,
)

VertexIndex = tuple[int, int]


@dataclass(frozen=True)
class CredalSpec:
    """Environment list x labeler list; vertex (i, j) couples env i with labeler j."""

    environments: tuple[Environment, ...]
    labelers: tuple[Labeler, ...]

    def __post_init__(self) -> None:
        envs = tuple(self.environments)
        labs = tuple(self.labelers)
        if not envs or not labs:
            raise ValidationError("need at least one environment and one labeler")
        counts = {l.class_count for l in labs}
        if len(counts) != 1:
            raise ValidationError(f"labelers must share one class count, got {sorted(counts)}")
        object.__setattr__(self, "environments", envs)
        object.__setattr__(self, "labelers", labs)

    @property
    def n_x(self) -> int:
        return len(self.environments)

    @property
    def n_y(self) -> int:
        return len(self.labelers)

    @property
    def class_count(self) -> int:
        return self.labelers[0].class_count

    def vertices(self) -> list[VertexIndex]:
        return list(itertools.product(range(self.n_x), range(self.n_y)))

    def check_vertex(self, v: VertexIndex) -> VertexIndex:
        i, j = int(v[0]), int(v[1])
        if not (0 <= i < self.n_x and 0 <= j < self.n_y):
            raise ValidationError(f"vertex index {v!r} outside [{self.n_x}]x[{self.n_y}]")
        return (i, j)


@dataclass(frozen=True)
class PairwiseBounds:
    """Distance bounds for one vertex pair.

    ``cov_dist`` is the environment TV; ``exp_dis_i`` / ``exp_dis_iprime``
    are the expected conditional disagreements under each endpoint's
    environment.  ``exact`` is filled in the pure regimes and, on request,
    from the joint quadrature.
    """

    pair: tuple[VertexIndex, VertexIndex]
    cov_dist: float
    exp_dis_i: float
    exp_dis_iprime: float
    lower: float
    upper: float
    exact: Optional[float] = None
    # slack for exact-inside-bounds checks; 2x the default quadrature target
    tol: float = 2e-8

    def __post_init__(self) -> None:
        if self.lower > self.upper + 1e-12:
            raise ValidationError(f"lower {self.lower!r} exceeds upper {self.upper!r}")
        if self.exact is not None and not (
            self.lower - self.tol <= self.exact <= self.upper + self.tol
        ):
            raise ValidationError(
                f"exact {self.exact!r} escapes [{self.lower!r}, {self.upper!r}] +/- {self.tol!r}"
            )


@dataclass(frozen=True)
class DiameterReport:
    """Component diameters plus lower/upper (and optionally exact) diameter."""

    eta_x: float
    eta_star: float
    eta_bar: float
    eta_eff: float
    lower: float
    upper: float
    exact: Optional[float] = None
    argmax_pair: Optional[tuple[VertexIndex, VertexIndex]] = None

    def __post_init__(self) -> None:
        expected_eff = min(self.eta_star, (1.0 - self.eta_x) * self.eta_bar)
        if abs(self.eta_eff - expected_eff) > 1e-12:
            raise ValidationError("eta_eff must equal min(eta_star, (1 - eta_x) * eta_bar)")
        if max(self.eta_x, self.eta_star) > self.upper + 1e-12:
            raise ValidationError("upper bound must dominate max(eta_x, eta_star)")


def joint_shift_bounds(cov, a_i, a_ip):
    """Joint-shift sandwich ``max_k |A_k - C| <= d <= C + min_k A_k``.

    ``cov`` is the environment TV ``C`` and ``a_i`` / ``a_ip`` the expected
    conditional disagreements ``A_k`` under each endpoint's environment, all
    in [0, 1], as floats or arrays.  Returns ``(lower, upper, upper_raw)``:
    ``upper`` is clamped to 1, ``upper_raw`` is not.
    """
    upper_raw = cov + np.minimum(a_i, a_ip)
    return np.maximum(abs(a_i - cov), abs(a_ip - cov)), np.minimum(1.0, upper_raw), upper_raw


# pair classes in name order; ``_pair_classes`` gives each pair's index here
PAIR_CLASSES = ("fixed_covariate", "fixed_labeler", "joint_shift")


def _pair_classes(pairs: np.ndarray) -> np.ndarray:
    """Class code of every ``(i, j, ip, jp)`` row: shared environment 0, shared labeler 1, else 2."""
    i, j, ip, jp = pairs.T
    return np.where(i == ip, 0, np.where(j == jp, 1, 2))


def _vertex_pairs(spec: CredalSpec) -> np.ndarray:
    """Every vertex pair as a row ``(i, j, ip, jp)`` with ``(i, j) < (ip, jp)``, in lexicographic order."""
    a, b = np.triu_indices(spec.n_x * spec.n_y, 1)
    return np.stack([*np.divmod(a, spec.n_y), *np.divmod(b, spec.n_y)], axis=1)


def _pair_values(
    spec: CredalSpec, pairs: np.ndarray, cfg: QuadratureConfig, with_exact: bool
) -> tuple[np.ndarray, ...]:
    """Columns ``(cov, a_i, a_ip, lower, upper, upper_raw, exact)`` over vertex pairs.

    ``pairs`` holds one int row ``(i, j, ip, jp)`` per vertex pair.  ``cov``
    is the environment TV (the joint TV under ``Threshold(inf)``, as
    :func:`~credal.measures.tv_env`); ``a_i`` / ``a_ip`` are the expected
    conditional TVs ``(env_k, labs[min], env_k, labs[max])``, or 0 where the
    regime makes them so.  Every pair's bounds are :func:`joint_shift_bounds`,
    which in a pure regime (one of ``C`` and the ``A_k`` is 0, the other two
    equal) close on the pair's one value, its ``exact``.  A joint-shift
    pair's ``exact`` is the joint TV ``(env_i, lab_j, env_ip, lab_jp)`` if
    ``with_exact``, else NaN.  Each distinct value is computed once, all in
    one :func:`joint_tv_many` call, which bounds its memory by blocks.
    """
    envs, labs = spec.environments, (*spec.labelers, _CONSTANT)
    # value (env, lab, env', lab') by index, lab -1 the constant labeler -> slot; slot -1 holds 0.0, -2 NaN
    slots, at = {}, []
    for i, j, ip, jp in pairs.tolist():
        lo, hi = (j, jp) if j < jp else (jp, j)
        cov = slots.setdefault((i, -1, ip, -1) if i < ip else (ip, -1, i, -1), len(slots)) if i != ip else -1
        a_i = slots.setdefault((i, lo, i, hi), len(slots)) if j != jp else -1
        a_ip = slots.setdefault((ip, lo, ip, hi), len(slots)) if j != jp else -1
        if i == ip or j == jp:
            exact = a_i if i == ip else cov
        else:
            exact = slots.setdefault((i, j, ip, jp), len(slots)) if with_exact else -2
        at.append((cov, a_i, a_ip, exact))
    members = [(envs[e1], labs[l1], envs[e2], labs[l2]) for e1, l1, e2, l2 in slots]
    values = np.array([*joint_tv_many(members, cfg), math.nan, 0.0])
    cov, a_i, a_ip, exact = values[np.array(at, dtype=np.intp).reshape(-1, 4).T]
    return cov, a_i, a_ip, *joint_shift_bounds(cov, a_i, a_ip), exact


def pairwise_bounds(
    spec: CredalSpec,
    a: VertexIndex,
    b: VertexIndex,
    cfg: QuadratureConfig = DEFAULT_QUADRATURE,
    with_exact: bool = False,
) -> PairwiseBounds:
    """Distance bounds (and exact values where available) for vertices a, b.

    Shared-environment pairs are exactly the expected conditional
    disagreement; shared-labeler pairs are exactly the environment TV.  In
    the joint-shift regime the two-sided bounds are
    :func:`joint_shift_bounds`; ``exact`` is the joint TV, computed only
    when requested.  All values come from :func:`_pair_values`.
    """
    pair = (spec.check_vertex(a), spec.check_vertex(b))
    values = _pair_values(spec, np.array([[*pair[0], *pair[1]]]), cfg, with_exact)
    cov, a_i, a_ip, lower, upper, _, exact = np.concatenate(values).tolist()
    return PairwiseBounds(
        pair=pair,
        cov_dist=cov,
        exp_dis_i=a_i,
        exp_dis_iprime=a_ip,
        lower=lower,
        upper=upper,
        exact=None if math.isnan(exact) else exact,
        tol=2.0 * cfg.abs_tol,
    )


def _components(spec: CredalSpec, values: tuple[np.ndarray, ...]) -> tuple[float, float, float]:
    """(eta_x, eta_star, eta_bar) from the :func:`_pair_values` columns of a pair list.

    The list holds every pure-regime pair, so each ``cov`` and ``a_i`` is
    also a pure-regime pair's value, and their maxima are eta_x and eta_star.
    eta_bar is clamped to at least eta_star, to absorb its quadrature tolerance.
    """
    eta_x = float(values[0].max(initial=0.0))
    eta_star = float(values[1].max(initial=0.0))
    envs = spec.environments
    atoms = np.unique(np.concatenate([e.points for e in envs])) if all(isinstance(e, DiscreteGrid) for e in envs) else None
    sups = _sup_tvs(list(itertools.combinations(spec.labelers, 2)), atoms)
    return eta_x, eta_star, min(1.0, float(sups.max(initial=eta_star)))


def _pure_pairs(spec: CredalSpec) -> np.ndarray:
    pairs = _vertex_pairs(spec)
    return pairs[_pair_classes(pairs) < 2]


def component_diameters(
    spec: CredalSpec, cfg: QuadratureConfig = DEFAULT_QUADRATURE
) -> tuple[float, float, float]:
    """(eta_x, eta_star, eta_bar) for the spec.

    eta_x: max environment TV (shared-labeler pairs); eta_star: max over
    (env, labeler pair) of the expected conditional TV (shared-environment
    pairs); eta_bar: max over labeler pairs of :func:`~credal.measures.sup_conditional_tv`
    and eta_star: exact on the atoms when every environment is a grid, else
    certified over the line to 1e-6.
    """
    return _components(spec, _pair_values(spec, _pure_pairs(spec), cfg, False))


def diameter_bounds(
    spec: CredalSpec,
    cfg: QuadratureConfig = DEFAULT_QUADRATURE,
    with_exact: bool = False,
) -> DiameterReport:
    """Diameter bounds (and optionally the exact diameter) of the credal set.

    ``lower = max(eta_x, eta_star)`` and ``upper = eta_x + eta_eff`` with
    ``eta_eff = min(eta_star, (1 - eta_x) * eta_bar)``, both clamped to 1.
    eta_bar is :func:`component_diameters`' certified supremum, at least
    eta_star, so ``eta_x + (1 - eta_x) * eta_bar >= max(eta_x, eta_star)``
    and ``upper >= lower`` with no fallback.

    When ``with_exact`` is set, the exact diameter is the largest
    :func:`pairwise_bounds` ``exact`` over all vertex pairs (sufficient
    because TV is maximized at extreme points).  Only joint-shift pairs with
    ``upper + 8 abs_tol >= max(lower)`` are integrated: bounds and exact
    values are each within ``2 abs_tol``, so a skipped pair cannot beat the
    pair attaining ``max(lower)``, and ``exact`` and ``argmax_pair`` are the
    full loop's; ``lower <= exact``.  The pairs that can win are integrated
    in one :func:`~credal.measures.joint_tv_many` call.  Ties break
    lexicographically on the pair of vertex indices.
    """
    pairs = _vertex_pairs(spec) if with_exact else _pure_pairs(spec)
    values = _pair_values(spec, pairs, cfg, False)
    eta_x, eta_star, eta_bar = _components(spec, values)
    eta_eff = min(eta_star, (1.0 - eta_x) * eta_bar)
    lower = min(1.0, max(eta_x, eta_star))
    upper = min(1.0, eta_x + eta_eff)
    exact = argmax_pair = None
    if with_exact:
        envs, labs = spec.environments, spec.labelers
        win = values[4] + 8.0 * cfg.abs_tol >= values[3].max(initial=0.0)
        ks = np.flatnonzero(np.isnan(values[-1]) & win)  # joint-shift pairs that can win
        values[-1][ks] = joint_tv_many([(envs[i], labs[j], envs[ip], labs[jp]) for i, j, ip, jp in pairs[ks].tolist()], cfg)
        k = int(np.argmax(np.append(0.0, np.nan_to_num(values[-1]))))  # first largest above a leading 0, NaN as 0
        exact = float(values[-1][k - 1]) if k else 0.0
        i, j, ip, jp = pairs[k - 1].tolist() if k else (0, 0, 0, 0)
        argmax_pair = ((i, j), (ip, jp))
    return DiameterReport(
        eta_x=eta_x,
        eta_star=eta_star,
        eta_bar=eta_bar,
        eta_eff=eta_eff,
        lower=lower,
        upper=upper,
        exact=exact,
        argmax_pair=argmax_pair,
    )


def robust_penalty(report: DiameterReport, eps_star: float) -> float:
    """Certified robustness penalty: statistical error plus the diameter upper bound.

    Uses ``report.upper`` rather than the exact diameter, so the result is an
    upper certificate for the true penalty, not the penalty itself.
    """
    if not (math.isfinite(eps_star) and eps_star >= 0.0):
        raise ValidationError(f"eps_star must be finite and >= 0, got {eps_star!r}")
    if not math.isfinite(report.upper):
        raise ValidationError("diameter report must be finite")
    return eps_star + report.upper
