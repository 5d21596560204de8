"""Empirical diameter estimation and finite-sample certificates.

In the fixed-covariate regime the credal diameter equals the maximum
pairwise expected disagreement between labelers, which makes it directly
estimable from multi-annotator samples.  This module builds the pairwise
disagreement matrix from hard or soft annotations, evaluates the
closed-form diameter for symmetric-noise annotators, computes Hoeffding
concentration radii with the union bound over annotator pairs, and
assembles the pieces into a :class:`Certificate`.

Annotation file format (shared with the experiment harness)
------------------------------------------------------------
One header line ``# kind=<hard|soft> classes=<C> annotators=<k>`` followed
by one comma-separated row per sample: ``x,a_1,...,a_k`` with integer class
indices for hard labels, or ``x,p_1_1,...,p_1_C,p_2_1,...`` with per-
annotator simplex vectors for soft labels.  Floats are written with
``repr`` so a write/read round trip is bit-exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Literal, Optional, Sequence, get_args

import numpy as np

from credal.measures import ValidationError

SOFT_SIMPLEX_TOL = 1e-9

Regime = Literal[
    "exact_hard_deterministic",
    "exact_soft",
    "conservative_stochastic_hard",
    "closed_form_noisy",
]

_HARD_REGIMES = {"exact_hard_deterministic", "conservative_stochastic_hard", "closed_form_noisy"}


@dataclass(frozen=True)
class AnnotatedSample:
    """One covariate with the observations of every annotator.

    Exactly one of ``hard`` (class indices) or ``soft`` (simplex vectors)
    is set; a sample never mixes observation kinds.
    """

    x: float
    hard: Optional[tuple[int, ...]] = None
    soft: Optional[tuple[tuple[float, ...], ...]] = None

    def __post_init__(self) -> None:
        if (self.hard is None) == (self.soft is None):
            raise ValidationError("exactly one of hard/soft must be provided")
        if not math.isfinite(self.x):
            raise ValidationError(f"x must be finite, got {self.x!r}")
        if self.hard is not None:
            labels = tuple(int(v) for v in self.hard)
            if not labels:
                raise ValidationError("need at least one annotator")
            if any(v < 0 for v in labels):
                raise ValidationError("hard labels must be non-negative class indices")
            object.__setattr__(self, "hard", labels)
        else:
            rows = tuple(tuple(float(p) for p in row) for row in self.soft)
            if not rows:
                raise ValidationError("need at least one annotator")
            width = len(rows[0])
            for row in rows:
                if len(row) != width:
                    raise ValidationError("soft vectors must share one class count")
                if any(p < -SOFT_SIMPLEX_TOL for p in row) or abs(sum(row) - 1.0) > SOFT_SIMPLEX_TOL:
                    raise ValidationError(f"soft vector off the simplex beyond {SOFT_SIMPLEX_TOL}: {row!r}")
            object.__setattr__(self, "soft", rows)

    @property
    def kind(self) -> str:
        return "hard" if self.hard is not None else "soft"

    @property
    def annotators(self) -> int:
        return len(self.hard) if self.hard is not None else len(self.soft)


@dataclass(frozen=True)
class DisagreementMatrix:
    """Pairwise empirical disagreement between annotators.

    ``values[j, k]`` is the mean per-sample disagreement (0/1 for hard
    labels, half-L1 for soft labels); ``eta_hat`` is the maximum entry and
    ``argmax`` the lexicographically first maximizing pair.
    """

    n: int
    k: int
    values: np.ndarray
    eta_hat: float
    argmax: tuple[int, int]
    kind: str

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        if values.shape != (self.k, self.k):
            raise ValidationError("values must be a k x k matrix")
        if not np.allclose(values, values.T, atol=1e-12) or np.any(np.diag(values) != 0.0):
            raise ValidationError("values must be symmetric with a zero diagonal")
        if np.any(values < 0.0) or np.any(values > 1.0):
            raise ValidationError("disagreement values must lie in [0, 1]")
        values = values.copy()
        values.setflags(write=False)
        object.__setattr__(self, "values", values)


def _build_matrix(values: np.ndarray, n: int, kind: str) -> DisagreementMatrix:
    k = values.shape[0]
    eta_hat = 0.0
    argmax = (0, min(1, k - 1))
    for j in range(k):
        for jp in range(j + 1, k):
            if values[j, jp] > eta_hat:
                eta_hat = float(values[j, jp])
                argmax = (j, jp)
    return DisagreementMatrix(n=n, k=k, values=values, eta_hat=eta_hat, argmax=argmax, kind=kind)


def _stack_hard(samples: Sequence[AnnotatedSample]) -> np.ndarray:
    if not samples:
        raise ValidationError("empty sample list")
    if any(s.kind != "hard" for s in samples):
        raise ValidationError("all samples must carry hard labels")
    k = samples[0].annotators
    if any(s.annotators != k for s in samples):
        raise ValidationError("all samples must have the same annotator count")
    return np.asarray([s.hard for s in samples], dtype=np.int64)


def disagreement_hard_from_labels(labels: np.ndarray) -> DisagreementMatrix:
    """Disagreement matrix from an (n, k) integer label array.

    Agreement counts come from per-class indicator Grams, so the cost is
    O(C k^2 n) in BLAS rather than a Python pair loop; the experiment
    harness feeds replication sweeps through this entry point.
    """
    labels = np.asarray(labels)
    if labels.ndim != 2 or labels.shape[0] < 1 or labels.shape[1] < 1:
        raise ValidationError(f"labels must be a non-empty (n, k) array, got {labels.shape}")
    n, k = labels.shape
    agree = np.zeros((k, k))
    for c in np.unique(labels):
        ind = (labels == c).astype(float)
        agree += ind.T @ ind
    values = 1.0 - agree / n
    np.fill_diagonal(values, 0.0)
    values = np.clip(0.5 * (values + values.T), 0.0, 1.0)
    np.fill_diagonal(values, 0.0)
    return _build_matrix(values, n, "hard")


def disagreement_soft_from_probs(probs: np.ndarray) -> DisagreementMatrix:
    """Disagreement matrix from an (n, k, C) array of belief vectors."""
    probs = np.asarray(probs, dtype=float)
    if probs.ndim != 3 or probs.shape[0] < 1 or probs.shape[1] < 1:
        raise ValidationError(f"probs must be a non-empty (n, k, C) array, got {probs.shape}")
    n, k, _ = probs.shape
    values = np.zeros((k, k))
    for j in range(k):
        diff = 0.5 * np.abs(probs[:, j + 1 :, :] - probs[:, j : j + 1, :]).sum(axis=2).mean(axis=0)
        values[j, j + 1 :] = diff
        values[j + 1 :, j] = diff
    return _build_matrix(values, n, "soft")


def empirical_disagreement_hard(samples: Sequence[AnnotatedSample]) -> DisagreementMatrix:
    """Pairwise disagreement rates from hard labels.

    For deterministic annotators this is an unbiased estimate of the
    pairwise expected conditional TV; for stochastic annotators it estimates
    the independent-coupling disagreement, an upper bound on the TV (the
    conservative direction).
    """
    return disagreement_hard_from_labels(_stack_hard(samples))


def empirical_disagreement_soft(samples: Sequence[AnnotatedSample]) -> DisagreementMatrix:
    """Mean half-L1 distance between annotator belief vectors, per pair."""
    if not samples:
        raise ValidationError("empty sample list")
    if any(s.kind != "soft" for s in samples):
        raise ValidationError("all samples must carry soft labels")
    k = samples[0].annotators
    c = len(samples[0].soft[0])
    if any(s.annotators != k or len(s.soft[0]) != c for s in samples):
        raise ValidationError("all samples must share annotator and class counts")
    return disagreement_soft_from_probs(np.asarray([s.soft for s in samples], dtype=float))


def noisy_closed_form(epsilons: Sequence[float]) -> tuple[float, float]:
    """Diameter and budget bound for binary symmetric noisy annotators.

    Returns ``(eta_star, bound)`` with
    ``eta_star = max_{j,j'} (eps_j + eps_j' - 2 eps_j eps_j')`` and
    ``bound = 2 eps_max - 2 eps_max^2``.  Error rates outside [0, 0.5] are
    rejected because the pairwise formula stops being monotone there.
    """
    eps = [float(e) for e in epsilons]
    if len(eps) < 2:
        raise ValidationError("need at least two annotators")
    if any(not (0.0 <= e <= 0.5) for e in eps):
        raise ValidationError(f"error rates must lie in [0, 0.5], got {eps!r}")
    eta_star = max(
        e1 + e2 - 2.0 * e1 * e2 for i, e1 in enumerate(eps) for e2 in eps[i + 1 :]
    )
    eps_max = max(eps)
    return eta_star, 2.0 * eps_max - 2.0 * eps_max * eps_max


def hoeffding_epsilon(n: int, k: int, delta: float) -> float:
    """Union-bound Hoeffding radius sqrt(ln(k(k-1)/delta) / (2n)).

    Valid simultaneously for all annotator pairs; returned unclamped (it may
    exceed 1 for tiny n, which the caller may treat as vacuous).
    """
    if not (isinstance(n, (int, np.integer)) and n >= 1):
        raise ValidationError(f"n must be an integer >= 1, got {n!r}")
    if not (isinstance(k, (int, np.integer)) and k >= 2):
        raise ValidationError(f"k must be an integer >= 2, got {k!r}")
    if not (0.0 < delta < 1.0):
        raise ValidationError(f"delta must lie in (0, 1), got {delta!r}")
    return math.sqrt(math.log(k * (k - 1) / delta) / (2.0 * n))


def required_samples(epsilon: float, k: int, delta: float) -> int:
    """Smallest n with ``hoeffding_epsilon(n, k, delta) <= epsilon``."""
    if not (isinstance(epsilon, (int, float)) and epsilon > 0.0):
        raise ValidationError(f"epsilon must be > 0, got {epsilon!r}")
    if epsilon >= 1.0:
        # let the range checks run even though the answer is trivially 1
        hoeffding_epsilon(1, k, delta)
        return 1
    raw = math.log(k * (k - 1) / delta) / (2.0 * epsilon * epsilon)
    n = max(1, math.ceil(raw - 1e-12))
    while hoeffding_epsilon(n, k, delta) > epsilon:
        n += 1
    while n > 1 and hoeffding_epsilon(n - 1, k, delta) <= epsilon:
        n -= 1
    return n


@dataclass(frozen=True)
class Certificate:
    """Empirical diameter plus concentration radius, as a robustness penalty.

    ``penalty_upper = eta_hat + epsilon``.  Under the
    ``conservative_stochastic_hard`` regime ``eta_hat`` upper-bounds the true
    diameter rather than estimating it, so the certificate stays safe.
    """

    eta_hat: float
    epsilon: float
    delta: float
    n: int
    k: int
    regime: Regime
    penalty_upper: float
    eps_star_input: Optional[float] = None

    def __post_init__(self) -> None:
        if abs(self.penalty_upper - (self.eta_hat + self.epsilon)) > 1e-12:
            raise ValidationError("penalty_upper must equal eta_hat + epsilon")
        if not (0.0 < self.delta < 1.0):
            raise ValidationError(f"delta must lie in (0, 1), got {self.delta!r}")

    def to_dict(self) -> dict:
        return {
            "eta_hat": self.eta_hat,
            "epsilon": self.epsilon,
            "delta": self.delta,
            "n": self.n,
            "k": self.k,
            "regime": self.regime,
            "penalty_upper": self.penalty_upper,
            "eps_star_input": self.eps_star_input,
        }


def certificate(
    matrix: DisagreementMatrix,
    delta: float = 0.05,
    regime: Regime = "exact_hard_deterministic",
    eps_star: Optional[float] = None,
) -> Certificate:
    """Assemble a finite-sample certificate from a disagreement matrix."""
    if regime not in get_args(Regime):
        raise ValidationError(f"unknown regime {regime!r}")
    wants = "hard" if regime in _HARD_REGIMES else "soft"
    if matrix.kind != wants:
        raise ValidationError(
            f"regime {regime!r} requires a {wants}-label matrix, got {matrix.kind!r}"
        )
    if eps_star is not None and eps_star < 0:
        raise ValidationError("eps_star must be >= 0")
    eps = hoeffding_epsilon(matrix.n, matrix.k, delta)
    return Certificate(
        eta_hat=matrix.eta_hat,
        epsilon=eps,
        delta=delta,
        n=matrix.n,
        k=matrix.k,
        regime=regime,
        penalty_upper=matrix.eta_hat + eps,
        eps_star_input=eps_star,
    )


# ---------------------------------------------------------------------------
# Annotation file IO
# ---------------------------------------------------------------------------


def write_annotations(path, samples: Sequence[AnnotatedSample]) -> None:
    """Write samples in the delimited annotation format (bit-exact floats)."""
    if not samples:
        raise ValidationError("refusing to write an empty annotation file")
    kind = samples[0].kind
    k = samples[0].annotators
    if kind == "hard":
        classes = max(max(s.hard) for s in samples) + 1
    else:
        classes = len(samples[0].soft[0])
    lines = [f"# kind={kind} classes={classes} annotators={k}"]
    for s in samples:
        if s.kind != kind or s.annotators != k:
            raise ValidationError("all samples must share kind and annotator count")
        if kind == "hard":
            lines.append(",".join([repr(s.x), *(str(v) for v in s.hard)]))
        else:
            flat = [repr(p) for row in s.soft for p in row]
            lines.append(",".join([repr(s.x), *flat]))
    Path(path).write_text("\n".join(lines) + "\n")


def read_annotations(path) -> list[AnnotatedSample]:
    """Parse an annotation file; the header declares kind, classes, annotators."""
    text = Path(path).read_text()
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("#"):
        raise ValidationError("annotation file must start with a '# kind=... ' header")
    fields = dict(
        part.split("=", 1) for part in lines[0].lstrip("#").split() if "=" in part
    )
    try:
        kind = fields["kind"]
        classes = int(fields["classes"])
        k = int(fields["annotators"])
    except (KeyError, ValueError) as exc:
        raise ValidationError(f"malformed annotation header: {lines[0]!r}") from exc
    if kind not in ("hard", "soft"):
        raise ValidationError(f"unknown annotation kind {kind!r}")
    samples = []
    for ln in lines[1:]:
        cells = ln.split(",")
        if kind == "hard":
            if len(cells) != 1 + k:
                raise ValidationError(f"expected {1 + k} cells, got {len(cells)}: {ln!r}")
            labels = tuple(int(c) for c in cells[1:])
            if any(not 0 <= v < classes for v in labels):
                raise ValidationError(f"label outside [0, {classes}): {ln!r}")
            samples.append(AnnotatedSample(x=float(cells[0]), hard=labels))
        else:
            if len(cells) != 1 + k * classes:
                raise ValidationError(f"expected {1 + k * classes} cells, got {len(cells)}: {ln!r}")
            vals = [float(c) for c in cells[1:]]
            rows = tuple(
                tuple(vals[a * classes : (a + 1) * classes]) for a in range(k)
            )
            samples.append(AnnotatedSample(x=float(cells[0]), soft=rows))
    if not samples:
        raise ValidationError("annotation file contains no samples")
    return samples
