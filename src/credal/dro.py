"""Finite min-max robust training over the credal set's extreme points.

Worst-case risk over the credal set is attained at a vertex, so robust
training reduces to a discrete game against the worst (environment,
labeler) world.  A hypothesis is a crisp labeler, so its 0-1 risk in a
world is the expected conditional TV between the world's labeler and the
hypothesis.  This module evaluates those per-world risks, descends
either the worst world's smoothed risk (greedy) or the Log-Sum-Exp
surrogate (softmax-weighted world gradients), and ships a grid
brute-force oracle for threshold classifiers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Literal, Optional, Sequence, Union

import numpy as np
from scipy.special import expit

from credal.measures import (
    DEFAULT_QUADRATURE,
    CrispLabeler,
    Gaussian,
    Labeler,
    QuadratureConfig,
    ValidationError,
    _expectation,
    _split_hints,
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


def _smoothed_risk(h: Hypothesis, env, labeler: Labeler, cfg: QuadratureConfig) -> float:
    """Logistic smoothing of the 0-1 risk: the hard decision becomes sigma(score/T).

    The integral splits at the labeler's split hints and at the
    hypothesis's decision point, where sigma(score/T) steps over a width of
    order T.
    """

    def g(x: np.ndarray) -> np.ndarray:
        probs = labeler.prob_matrix(x)
        s = expit(h.score(x) / SMOOTHING_TEMPERATURE)
        return probs[:, 1] * (1.0 - s) + probs[:, 0] * s

    return _expectation(env, g, cfg, (*_split_hints(labeler), *_split_hints(h)))


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


def _fd_gradient(fn, params: np.ndarray) -> np.ndarray:
    grad = np.zeros_like(params)
    for idx in range(params.size):
        h = 1e-5 * max(1.0, abs(params[idx]))
        hi = params.copy()
        lo = params.copy()
        hi[idx] += h
        lo[idx] -= h
        grad[idx] = (fn(hi) - fn(lo)) / (2.0 * h)
    return grad


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

    Greedy mode takes numerical-gradient steps on the worst world's smoothed
    (logistic) risk; lse mode steps along the softmax-weighted sum of world
    gradients.  Reported risks in the trace are always exact 0-1 risks.  The
    step size halves whenever the descent objective increases; fifty
    consecutive increases of the worst-world risk raise
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
            i, j = wr.worst_world
            env, lab = spec.environments[i], spec.labelers[j]
            grad = _fd_gradient(
                lambda p: _smoothed_risk(h.with_params(p), env, lab, quad), h.params
            )
        else:
            grad = np.zeros_like(h.params)
            for i, env in enumerate(spec.environments):
                for j, lab in enumerate(spec.labelers):
                    if wr.weights[i, j] < 1e-12:
                        continue
                    grad += wr.weights[i, j] * _fd_gradient(
                        lambda p: _smoothed_risk(h.with_params(p), env, lab, quad), h.params
                    )
        h = h.with_params(h.params - step * grad)
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
