"""The structured credal set: vertices, distance bounds, and diameters.

A :class:`CredalSpec` pairs every environment with every labeler; the
vertices of the credal set are the resulting product distributions indexed
by ``(i, j)``.  This module computes, for any vertex pair, exact TV
distances in the pure regimes (shared environment or shared labeler),
two-sided bounds in the joint-shift regime, and the component diameters
that sandwich the TV diameter of the whole set.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional

from credal.measures import (
    DEFAULT_QUADRATURE,
    DiscreteGrid,
    Environment,
    Gaussian,
    Labeler,
    QuadratureConfig,
    ValidationError,
    expected_conditional_tv,
    joint_tv_exact,
    joint_tv_many,
    sup_conditional_tv,
    tv_env,
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


def default_sup_domain(spec: CredalSpec, halfwidth_sigmas: float = 8.0) -> tuple[float, float]:
    """Union of [mean +/- 8 sigma] over Gaussian environments (grid hull otherwise).

    Mass outside is below 1e-15 per environment, so the grid supremum cannot
    move materially; heavy-tailed extensions would need a wider window.
    """
    los, his = [], []
    for env in spec.environments:
        if isinstance(env, Gaussian):
            los.append(env.mean - halfwidth_sigmas * env.std)
            his.append(env.mean + halfwidth_sigmas * env.std)
        elif isinstance(env, DiscreteGrid):
            los.append(env.points[0])
            his.append(env.points[-1])
    lo, hi = min(los), max(his)
    if not lo < hi:  # single-atom grids: widen to a usable window
        lo, hi = lo - 1.0, hi + 1.0
    return lo, hi


def joint_shift_bounds(cov: float, a_i: float, a_ip: float) -> tuple[float, float, float]:
    """Joint-shift sandwich ``max_k |A_k - C| <= d <= C + min_k A_k``.

    ``cov`` is the environment TV ``C`` and ``a_i`` / ``a_ip`` the expected
    conditional disagreements ``A_k`` under each endpoint's environment, all
    in [0, 1].  Returns ``(lower, upper, upper_raw)``: ``upper`` is clamped
    to 1, ``upper_raw`` is not.
    """
    upper_raw = cov + min(a_i, a_ip)
    return max(abs(a_i - cov), abs(a_ip - cov)), min(1.0, upper_raw), upper_raw


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
    :func:`joint_shift_bounds`; ``exact`` is computed by joint quadrature
    only when requested.
    """
    i, j = spec.check_vertex(a)
    ip, jp = spec.check_vertex(b)
    env_i, env_ip = spec.environments[i], spec.environments[ip]
    lab_j, lab_jp = spec.labelers[j], spec.labelers[jp]

    cov = 0.0 if i == ip else tv_env(env_i, env_ip)
    if j == jp:
        a_i = a_ip = 0.0
    else:
        a_i = expected_conditional_tv(env_i, lab_j, lab_jp, cfg)
        a_ip = a_i if i == ip else expected_conditional_tv(env_ip, lab_j, lab_jp, cfg)

    if i == ip:
        exact = a_i
        lower = upper = exact
    elif j == jp:
        exact = cov
        lower = upper = exact
    else:
        lower, upper, _ = joint_shift_bounds(cov, a_i, a_ip)
        exact = (
            joint_tv_exact(env_i, lab_j, env_ip, lab_jp, cfg) if with_exact else None
        )
    return PairwiseBounds(
        pair=((i, j), (ip, jp)),
        cov_dist=cov,
        exp_dis_i=a_i,
        exp_dis_iprime=a_ip,
        lower=lower,
        upper=upper,
        exact=exact,
        tol=2.0 * cfg.abs_tol,
    )


def component_diameters(
    spec: CredalSpec,
    cfg: QuadratureConfig = DEFAULT_QUADRATURE,
    sup_domain: Optional[tuple[float, float]] = None,
    sup_grid_n: int = 512,
) -> tuple[float, float, float]:
    """(eta_x, eta_star, eta_bar) for the spec.

    eta_x: max environment TV; eta_star: max over (env, labeler pair) of the
    expected conditional TV; eta_bar: max over labeler pairs of the grid
    supremum of the pointwise conditional TV.
    """
    if sup_domain is None:
        sup_domain = default_sup_domain(spec, cfg.domain_halfwidth_sigmas)
    envs = spec.environments
    lab_pairs = list(itertools.combinations(spec.labelers, 2))
    eta_x = max((tv_env(e1, e2) for e1, e2 in itertools.combinations(envs, 2)), default=0.0)
    ects = joint_tv_many([(env, l1, env, l2) for l1, l2 in lab_pairs for env in envs], cfg)
    sups = [sup_conditional_tv(l1, l2, sup_domain, sup_grid_n) for l1, l2 in lab_pairs]
    return eta_x, max(ects, default=0.0), max(sups, default=0.0)


def diameter_bounds(
    spec: CredalSpec,
    cfg: QuadratureConfig = DEFAULT_QUADRATURE,
    sup_domain: Optional[tuple[float, float]] = None,
    with_exact: bool = False,
    sup_grid_n: int = 512,
) -> DiameterReport:
    """Diameter bounds (and optionally the exact diameter) of the credal set.

    ``lower = max(eta_x, eta_star)`` and ``upper = eta_x + eta_eff`` with
    ``eta_eff = min(eta_star, (1 - eta_x) * eta_bar)``.  Because eta_bar is
    a grid estimate that can only be too small, a gated eta_eff that would
    push the upper bound below the (always valid) lower bound falls back to
    the eta_star branch, which is a valid upper bound unconditionally.

    When ``with_exact`` is set, the exact diameter is the maximum joint TV
    over all vertex pairs (sufficient because TV is maximized at extreme
    points); ties break lexicographically on the pair of vertex indices.
    """
    eta_x, eta_star, eta_bar = component_diameters(spec, cfg, sup_domain, sup_grid_n)
    eta_eff = min(eta_star, (1.0 - eta_x) * eta_bar)
    lower = min(1.0, max(eta_x, eta_star))
    upper = min(1.0, eta_x + eta_eff)
    if upper < lower:
        eta_eff = eta_star
        upper = min(1.0, eta_x + eta_eff)
    exact = None
    argmax_pair = None
    if with_exact:
        exact = 0.0
        verts = spec.vertices()
        argmax_pair = (verts[0], verts[0])
        envs, labs = spec.environments, spec.labelers
        # one joint_tv_many call per vertex row of the pair triangle
        for a, va in enumerate(verts):
            row = verts[a + 1 :]
            values = joint_tv_many(
                [(envs[va[0]], labs[va[1]], envs[vb[0]], labs[vb[1]]) for vb in row], cfg
            )
            for vb, d in zip(row, values):
                if d > exact:
                    exact = d
                    argmax_pair = (va, vb)
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
