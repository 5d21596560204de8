"""Finite min-max robust training over the credal set's extreme points.

Worst-case risk over the credal set is attained at a vertex, so robust
training reduces to a discrete game against the worst (environment,
labeler) world.  A hypothesis is a crisp labeler, so its 0-1 risk in a
world is the expected conditional TV between the world's labeler and the
hypothesis.  This module evaluates those per-world risks, descends
either the worst world's smoothed risk (greedy) or the Log-Sum-Exp
surrogate (softmax-weighted world gradients), and ships a grid
brute-force oracle for threshold classifiers.  Each step's gradient is
analytic: one integral per (world, parameter), all of them in one batched
quadrature call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Literal, Optional, Sequence, Union

import numpy as np
from scipy.special import expit

from credal.measures import (
    DEFAULT_QUADRATURE,
    CrispLabeler,
    Gaussian,
    Labeler,
    QuadratureConfig,
    ValidationError,
    _EVAL_BUDGET,
    _label_probs,
    _window,
    _worklist,
    joint_tv_many,
)
from credal.sets import CredalSpec

VertexIndex = tuple[int, int]


class DivergenceError(Exception):
    """Training objective rose for too many consecutive steps; carries the trace."""

    def __init__(self, message: str, trace: list):
        super().__init__(message)
        self.trace = trace


@dataclass(frozen=True)
class ThresholdClassifier(CrispLabeler):
    """Binary classifier: class 1 iff orientation * (x - theta) > 0."""

    theta: float
    orientation: int = 1

    def __post_init__(self) -> None:
        if not math.isfinite(self.theta):
            raise ValidationError(f"theta must be finite, got {self.theta!r}")
        if self.orientation not in (1, -1):
            raise ValidationError(f"orientation must be +1 or -1, got {self.orientation!r}")

    def breakpoints(self) -> tuple[float, ...]:
        return (self.theta,)

    @staticmethod
    def label_kernel(x: np.ndarray, theta, orientation) -> np.ndarray:
        return (orientation * (x - theta) > 0).astype(np.int64)

    def score(self, x: np.ndarray) -> np.ndarray:
        return self.orientation * (np.asarray(x, dtype=float) - self.theta)

    @staticmethod
    def score_grad_kernel(x: np.ndarray, par: np.ndarray, theta, orientation) -> np.ndarray:
        """d score / d params[par] at x, with ``par`` (always 0: theta) per point."""
        return np.full(x.shape, -float(orientation))

    @property
    def params(self) -> np.ndarray:
        return np.asarray([self.theta])

    def with_params(self, params: np.ndarray) -> "ThresholdClassifier":
        return replace(self, theta=float(params[0]))


@dataclass(frozen=True)
class LinearLogistic(CrispLabeler):
    """Binary classifier: class 1 iff weight * x + bias > 0."""

    weight: float
    bias: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.weight) and math.isfinite(self.bias)):
            raise ValidationError("weight and bias must be finite")

    def breakpoints(self) -> tuple[float, ...]:
        if self.weight == 0.0:
            return ()
        return (-self.bias / self.weight,)

    @staticmethod
    def label_kernel(x: np.ndarray, weight, bias) -> np.ndarray:
        return (weight * x + bias > 0).astype(np.int64)

    def score(self, x: np.ndarray) -> np.ndarray:
        return self.weight * np.asarray(x, dtype=float) + self.bias

    @staticmethod
    def score_grad_kernel(x: np.ndarray, par: np.ndarray, weight, bias) -> np.ndarray:
        """d score / d params[par] at x, with ``par`` (0: weight, 1: bias) per point."""
        return np.where(par == 0, x, 1.0)

    @property
    def params(self) -> np.ndarray:
        return np.asarray([self.weight, self.bias])

    def with_params(self, params: np.ndarray) -> "LinearLogistic":
        return replace(self, weight=float(params[0]), bias=float(params[1]))


Hypothesis = Union[ThresholdClassifier, LinearLogistic]


@dataclass(frozen=True)
class WorldRisk:
    """Per-world risks with the worst world and optional LSE state."""

    risks: np.ndarray  # (N_X, N_Y)
    worst_world: VertexIndex
    worst_value: float
    lse_value: Optional[float] = None
    weights: Optional[np.ndarray] = None


TrainMode = Literal["greedy", "lse"]


@dataclass(frozen=True)
class TrainConfig:
    """Descent settings; tau is required exactly when mode is 'lse'."""

    mode: TrainMode = "greedy"
    tau: Optional[float] = None
    step_size: float = 0.1
    steps: int = 200
    seed: int = 0

    def __post_init__(self) -> None:
        if self.mode not in ("greedy", "lse"):
            raise ValidationError(f"unknown mode {self.mode!r}")
        if self.mode == "lse":
            if self.tau is None or not self.tau > 0:
                raise ValidationError("lse mode requires tau > 0")
        elif self.tau is not None:
            raise ValidationError("tau is only meaningful in lse mode")
        if self.step_size <= 0:
            raise ValidationError("step_size must be > 0")
        if self.steps < 1:
            raise ValidationError("steps must be >= 1")


def _check_binary(spec: CredalSpec) -> None:
    if spec.class_count != 2:
        raise ValidationError("robust training supports binary specs only")


# decision smoothing scale: sigma(score / T).  Small enough that the
# surrogate minimizer tracks the 0-1 minimizer to well under the training
# tolerance, large enough to keep usable gradients off the boundary.
SMOOTHING_TEMPERATURE = 0.1


def _world_integrals(
    h: Hypothesis, worlds: Sequence[tuple], n_par: int, g: Callable, cfg: QuadratureConfig
) -> np.ndarray:
    """``E_env[g(x, p(.|x), par)]`` of every world ``(env, labeler)`` and ``par < n_par``, as (worlds, n_par).

    Grid worlds are finite sums over their atoms.  All Gaussian integrals
    share one worklist call, cut at the labeler's split hints, at the
    hypothesis's decision point, where sigma(score/T) steps over a width of
    order T, and at the environment's hints.  Owner ``k`` is parameter
    ``k % n_par`` of Gaussian world ``k // n_par``; the integrand gathers
    each point's labeler and environment parameters by its world, so each
    integral has the bits it has alone.
    """
    values = np.empty((len(worlds), n_par))
    gauss = [k for k, (env, _) in enumerate(worlds) if isinstance(env, Gaussian)]
    for k, (env, lab) in enumerate(worlds):
        if not isinstance(env, Gaussian):
            x = np.asarray(env.points)
            values[k] = [np.dot(env.weights, g(x, lab.prob_matrix(x), par)) for par in range(n_par)]
    if gauss:
        envs, labs = zip(*[worlds[k] for k in gauss])
        moments, label_probs = np.array([e.row for e in envs]).T.copy(), _label_probs(labs)

        def integrand(x: np.ndarray, own: np.ndarray) -> np.ndarray:
            world, par = np.divmod(own, n_par)
            return g(x, label_probs(x, world), par) * Gaussian.kernel(x, *moments.take(world, axis=1))

        windows = [_window((env,), (lab, h), cfg) for env, lab in zip(envs, labs) for _ in range(n_par)]
        values[gauss] = _worklist(integrand, windows, cfg.abs_tol, _EVAL_BUDGET).reshape(-1, n_par)
    return values


def _smoothed_risk(h: Hypothesis, env, labeler: Labeler, cfg: QuadratureConfig) -> float:
    """Logistic smoothing of the 0-1 risk: the hard decision becomes sigma(score/T)."""

    def g(x: np.ndarray, probs: np.ndarray, par) -> np.ndarray:
        s = expit(h.score(x) / SMOOTHING_TEMPERATURE)
        return probs[:, 1] * (1.0 - s) + probs[:, 0] * s

    return float(_world_integrals(h, [(env, labeler)], 1, g, cfg)[0, 0])


def _smoothed_gradient(
    h: Hypothesis, worlds: Sequence[tuple], weights: Sequence[float], cfg: QuadratureConfig
) -> np.ndarray:
    """Gradient in h's parameters of the worlds' smoothed risks, summed with ``weights`` in the worlds' order.

    With ``s = sigma(score/T)``, the derivative of ``E[p1 (1 - s) + p0 s]``
    is ``E[(p0 - p1) s (1 - s) / T * dscore/dparams]``: one integral per
    (world, parameter), all of them from one :func:`_world_integrals` call.
    """

    def g(x: np.ndarray, probs: np.ndarray, par) -> np.ndarray:
        s = expit(h.score(x) / SMOOTHING_TEMPERATURE)
        return (probs[:, 0] - probs[:, 1]) * (s * (1.0 - s) / SMOOTHING_TEMPERATURE) * h.score_grad_kernel(x, par, *h.row)

    grad = np.zeros(h.params.size)
    for w, v in zip(weights, _world_integrals(h, worlds, h.params.size, g, cfg)):
        grad += w * v
    return grad


def world_risks(
    h: Hypothesis, spec: CredalSpec, cfg: QuadratureConfig = DEFAULT_QUADRATURE
) -> WorldRisk:
    """Exact 0-1 risks of h in every world, with lexicographic worst-world tie-break."""
    values = _risks([h], spec, cfg)
    flat = values.index(max(values))  # first maximum in row-major order = lexicographic
    risks = np.asarray(values).reshape(spec.n_x, spec.n_y)
    risks.setflags(write=False)
    return WorldRisk(risks=risks, worst_world=divmod(flat, spec.n_y), worst_value=values[flat])


def _risks(hs: Sequence[Hypothesis], spec: CredalSpec, cfg: QuadratureConfig) -> list[float]:
    """Exact 0-1 risks of every hypothesis in every world, hypothesis-major, as one batch."""
    _check_binary(spec)
    return joint_tv_many([(env, lab, env, h) for h in hs for env in spec.environments for lab in spec.labelers], cfg)


def lse_objective(risks: WorldRisk, tau: float) -> tuple[float, np.ndarray]:
    """Log-Sum-Exp surrogate of the worst-world risk, with its softmax weights.

    ``value = tau * log sum exp(L_ij / tau)`` evaluated with max
    subtraction; the weights are the softmax of ``L / tau`` and give the
    mixture in which per-world gradients combine to the surrogate gradient.
    Satisfies ``worst <= value <= worst + tau * ln(W)``.
    """
    if not tau > 0:
        raise ValidationError(f"tau must be > 0, got {tau!r}")
    values = np.asarray(risks.risks, dtype=float)
    if not np.all(np.isfinite(values)):
        raise ValidationError("risks must be finite")
    m = values.max()
    z = np.exp((values - m) / tau)
    total = z.sum()
    value = float(m + tau * math.log(total))
    weights = z / total
    return value, weights


def _default_init(spec: CredalSpec, seed: int) -> Hypothesis:
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    means = [e.mean if isinstance(e, Gaussian) else float(np.dot(e.points, e.weights)) for e in spec.environments]
    stds = [e.std if isinstance(e, Gaussian) else 1.0 for e in spec.environments]
    lo = min(means) - 2.0 * max(stds)
    hi = max(means) + 2.0 * max(stds)
    return ThresholdClassifier(theta=float(rng.uniform(lo, hi)), orientation=1)


def train(
    spec: CredalSpec,
    cfg: TrainConfig,
    quad: QuadratureConfig = DEFAULT_QUADRATURE,
    init: Optional[Hypothesis] = None,
) -> tuple[Hypothesis, list[WorldRisk]]:
    """Robust training against the worst world.

    Greedy mode steps along the analytic gradient of the worst world's
    smoothed (logistic) risk; lse mode steps along the softmax-weighted sum
    of the gradients of every world whose weight is at least 1e-12.  Each
    step's gradient is one batched quadrature call
    (:func:`_smoothed_gradient`).  Reported risks in the trace are always
    exact 0-1 risks.  The step size halves whenever the descent objective
    increases; fifty consecutive increases of the worst-world risk raise
    :class:`DivergenceError` carrying the trace.  Returns the best
    hypothesis seen (by worst-world 0-1 risk) and the trace.
    """
    _check_binary(spec)
    h = init if init is not None else _default_init(spec, cfg.seed)
    step = cfg.step_size
    trace: list[WorldRisk] = []
    best_h = h
    best_worst = math.inf
    prev_objective = math.inf
    prev_worst = math.inf
    worst_rises = 0
    for _ in range(cfg.steps):
        wr = world_risks(h, spec, quad)
        if cfg.mode == "lse":
            value, weights = lse_objective(wr, cfg.tau)
            wr = replace(wr, lse_value=value, weights=weights)
            objective = value
        else:
            objective = wr.worst_value
        trace.append(wr)
        if wr.worst_value < best_worst:
            best_worst = wr.worst_value
            best_h = h
        if wr.worst_value > prev_worst + 1e-12:
            worst_rises += 1
            if worst_rises >= 50:
                raise DivergenceError("worst-world risk rose for 50 consecutive steps", trace)
        else:
            worst_rises = 0
        prev_worst = wr.worst_value
        if objective > prev_objective + 1e-12:
            step *= 0.5
        prev_objective = objective
        if step < 1e-12:
            break

        if cfg.mode == "greedy":
            worlds, weights = [wr.worst_world], [1.0]
        else:
            worlds = [ij for ij, w in np.ndenumerate(wr.weights) if w >= 1e-12]
            weights = [wr.weights[ij] for ij in worlds]
        envs_labs = [(spec.environments[i], spec.labelers[j]) for i, j in worlds]
        h = h.with_params(h.params - step * _smoothed_gradient(h, envs_labs, weights, quad))
    final = world_risks(h, spec, quad)
    if final.worst_value < best_worst:
        best_h = h
    return best_h, trace


def brute_force_minimax(
    spec: CredalSpec,
    theta_grid: Sequence[float],
    quad: QuadratureConfig = DEFAULT_QUADRATURE,
) -> tuple[float, float]:
    """Exhaustive min over a theta grid of the max exact world risk.

    Oracle for the threshold-classifier family (orientation +1); ties keep
    the first grid point.
    """
    grid = [float(t) for t in theta_grid]
    if not grid:
        raise ValidationError("theta_grid must be non-empty")
    worst = np.asarray(_risks([ThresholdClassifier(t, 1) for t in grid], spec, quad)).reshape(len(grid), -1).max(axis=1)
    best = int(np.argmin(worst))  # the first minimum
    return grid[best], float(worst[best])
