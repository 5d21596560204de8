"""Every documented rejection of an invalid input raises its own error with its own message.

One case per check that no other test reaches: the constructors' and
functions' validation across the library, each named by its message.
"""

import math

import numpy as np
import pytest

from credal.dro import LinearLogistic, ThresholdClassifier, TrainConfig, WorldRisk, lse_objective, train
from credal.estimation import DisagreementMatrix, read_annotations
from credal.harness.summary import SummaryError, wilson_interval
from credal.measures import (
    DiscreteGrid,
    Gaussian,
    Probit,
    Sigmoid,
    Tabular,
    Threshold,
    ValidationError,
    expected_conditional_tv,
)
from credal.sets import CredalSpec, DiameterReport, PairwiseBounds, robust_penalty
from credal.synthgen import GenSeed, interval_mechanisms, minimax_instance, sample_annotated

_PAIR = ((0, 0), (0, 1))
_TWO_ROWS = ((1.0, 0.0), (0.0, 1.0))
_THREE_CLASSES = Tabular((0.0,), ((0.2, 0.3, 0.5),))


def _report(upper: float) -> DiameterReport:
    return DiameterReport(eta_x=0.0, eta_star=0.0, eta_bar=0.0, eta_eff=0.0, lower=0.0, upper=upper)


def _matrix(values: np.ndarray) -> DisagreementMatrix:
    return DisagreementMatrix(n=5, k=2, values=values, eta_hat=float(values.max()), argmax=(0, 1), kind="hard")


# (call, message regex): each call must raise ValidationError matching the message
_REJECTED = {
    "grid_point_inf": (lambda: DiscreteGrid((0.0, math.inf), (0.5, 0.5)), "grid points must be finite"),
    "grid_point_nan": (lambda: DiscreteGrid((math.nan, 1.0), (0.5, 0.5)), "grid points must be finite"),
    "threshold_nan": (lambda: Threshold(math.nan), "theta must not be NaN"),
    "tabular_lengths": (lambda: Tabular((0.0, 1.0), ((1.0, 0.0),)), "grid and probs must be equal-length"),
    "tabular_empty": (lambda: Tabular((), ()), "grid and probs must be equal-length and non-empty"),
    "tabular_point_inf": (lambda: Tabular((0.0, math.inf), _TWO_ROWS), "tabular grid points must be finite"),
    "tabular_order": (lambda: Tabular((1.0, 0.0), _TWO_ROWS), "tabular grid must be strictly increasing"),
    "tabular_repeat": (lambda: Tabular((0.0, 0.0), _TWO_ROWS), "tabular grid must be strictly increasing"),
    "tabular_widths": (lambda: Tabular((0.0, 1.0), ((1.0, 0.0), (0.2, 0.3, 0.5))), "share one class count >= 2"),
    "tabular_one_class": (lambda: Tabular((0.0, 1.0), ((1.0,), (1.0,))), "share one class count >= 2"),
    # a window of +/-8e-10 around 1e10 rounds to one point: the engine has nothing to integrate
    "empty_interval": (
        lambda: expected_conditional_tv(Gaussian(1e10, 1e-10), Sigmoid(1.0, 0.0), Probit(1.0, 0.0)),
        r"empty integration interval \[10000000000.0, 10000000000.0\]",
    ),
    "bounds_order": (lambda: PairwiseBounds(_PAIR, 0.1, 0.2, 0.3, lower=0.5, upper=0.4), "lower 0.5 exceeds upper 0.4"),
    "exact_below": (lambda: PairwiseBounds(_PAIR, 0.1, 0.2, 0.3, 0.2, 0.4, exact=0.1), "exact 0.1 escapes"),
    "exact_above": (lambda: PairwiseBounds(_PAIR, 0.1, 0.2, 0.3, 0.2, 0.4, exact=0.5, tol=0.05), "exact 0.5 escapes"),
    "penalty_inf": (lambda: robust_penalty(_report(math.inf), 0.0), "diameter report must be finite"),
    "penalty_nan": (lambda: robust_penalty(_report(math.nan), 0.0), "diameter report must be finite"),
    "classifier_theta": (lambda: ThresholdClassifier(math.inf), "theta must be finite"),
    "classifier_orientation": (lambda: ThresholdClassifier(0.0, 0), "orientation must be \\+1 or -1"),
    "logistic_weight": (lambda: LinearLogistic(math.nan, 0.0), "weight and bias must be finite"),
    "logistic_bias": (lambda: LinearLogistic(1.0, -math.inf), "weight and bias must be finite"),
    "step_size_zero": (lambda: TrainConfig(step_size=0.0), "step_size must be > 0"),
    "step_size_negative": (lambda: TrainConfig(step_size=-0.1), "step_size must be > 0"),
    "steps_zero": (lambda: TrainConfig(steps=0), "steps must be >= 1"),
    "lse_risks": (
        lambda: lse_objective(WorldRisk(np.array([[0.1, math.nan]]), (0, 0), 0.1), 0.5),
        "risks must be finite",
    ),
    # robust training needs binary labelers before its first step
    "train_classes": (
        lambda: train(CredalSpec((DiscreteGrid((0.0,), (1.0,)),), (_THREE_CLASSES,)), TrainConfig()),
        "robust training supports binary specs only",
    ),
    "matrix_shape": (
        lambda: _matrix(np.zeros((3, 3))),
        "values must be a k x k matrix",
    ),
    "matrix_above_one": (
        lambda: _matrix(np.array([[0.0, 1.5], [1.5, 0.0]])),
        r"disagreement values must lie in \[0, 1\]",
    ),
    "matrix_negative": (
        lambda: _matrix(np.array([[0.0, -0.1], [-0.1, 0.0]])),
        r"disagreement values must lie in \[0, 1\]",
    ),
    "sample_kind": (
        lambda: sample_annotated(Gaussian(0.0, 1.0), (Threshold(0.0),), 10, "fuzzy", GenSeed(0)),
        "kind must be 'hard' or 'soft', got 'fuzzy'",
    ),
    "sample_no_labelers": (
        lambda: sample_annotated(Gaussian(0.0, 1.0), (), 10, "hard", GenSeed(0)),
        "need at least one labeler",
    ),
    # cells of mass 5e-18 about the median round to one quantile
    "interval_cells": (lambda: interval_mechanisms(2, Gaussian(0.0, 1.0), 1e-17), "degenerate quantile cell"),
    "minimax_grid": (
        lambda: minimax_instance(0.5, DiscreteGrid((0.0, 1.0), (0.5, 0.5))),
        "minimax instance needs an environment with a quantile function",
    ),
}


@pytest.mark.parametrize("case", sorted(_REJECTED))
def test_invalid_input_is_rejected(case):
    call, message = _REJECTED[case]
    with pytest.raises(ValidationError, match=message):
        call()


@pytest.mark.parametrize(
    "header, message",
    [
        ("kind=hard classes=2 annotators=2", "annotation file must start with a '# kind=... ' header"),
        ("# kind=hard classes=two annotators=2", "malformed annotation header: '# kind=hard classes=two annotators=2'"),
        ("# kind=hard annotators=2", "malformed annotation header: '# kind=hard annotators=2'"),
        ("# kind=hard classes=2 annotators=0", "malformed annotation header: '# kind=hard classes=2 annotators=0'"),
        ("# kind=hard classes=0 annotators=2", "malformed annotation header: '# kind=hard classes=0 annotators=2'"),
        ("# kind=fuzzy classes=2 annotators=2", "unknown annotation kind 'fuzzy'"),
    ],
)
def test_malformed_annotation_header_is_rejected(tmp_path, header, message):
    path = tmp_path / "ann.csv"
    path.write_text(f"{header}\n0.5,0,1\n")
    with pytest.raises(ValidationError) as err:
        read_annotations(path)
    assert str(err.value) == message


@pytest.mark.parametrize("successes, trials", [(0, 0), (1, 0), (3, 2), (-1, 5)])
def test_wilson_interval_rejects_bad_counts(successes, trials):
    with pytest.raises(SummaryError, match=f"invalid counts: {successes}/{trials}"):
        wilson_interval(successes, trials)
