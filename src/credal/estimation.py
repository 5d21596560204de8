"""Empirical diameter estimation and finite-sample certificates.

In the fixed-covariate regime the credal diameter equals the maximum
pairwise expected disagreement between labelers, which makes it directly
estimable from multi-annotator samples.  This module builds the pairwise
disagreement matrix from hard or soft annotations, evaluates the
closed-form diameter for symmetric-noise annotators, computes Hoeffding
concentration radii with the union bound over annotator pairs, and
assembles the pieces into a :class:`Certificate`.

Annotations travel as an :class:`AnnotatedBatch`: read-only columns ``x``
of shape (n,) and either ``hard`` (n, k) int64 class indices or ``soft``
(n, k, C) belief vectors, validated once with vectorised checks.  The one
estimator, :func:`empirical_disagreement`, takes a batch and reads its
kind; the annotation file takes and gives batches.  The rules are written
once, over columns, so batches and annotation files accept the same rows
and raise the same errors; bare label arrays become a batch with
``AnnotatedBatch(x, hard=labels)``.  Indexing or iterating a batch yields
plain :class:`AnnotatedSample` row tuples.

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
import warnings
from collections.abc import Sequence
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Literal, NamedTuple, Optional, get_args

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


def _first(mask: np.ndarray) -> int:
    return int(np.flatnonzero(mask)[0])


def _check_columns(x, where: Callable[[int], str], hard=None, soft=None) -> tuple[np.ndarray, np.ndarray]:
    """The annotation rules, over whole columns; returns ``(x, observations)`` as arrays.

    ``x`` is finite, ``hard`` an (n, k) array of non-negative integer class
    indices and ``soft`` an (n, k, C) array of vectors on the simplex within
    ``SOFT_SIMPLEX_TOL``.  The first bad row raises, named ``where(i)``.
    """
    if (hard is None) == (soft is None):
        raise ValidationError("exactly one of hard/soft must be provided")
    kind = "hard" if hard is not None else "soft"
    ndim = 2 if kind == "hard" else 3
    try:
        obs = np.asarray(hard) if kind == "hard" else np.asarray(soft, dtype=float)
    except ValueError as exc:  # ragged rows: numpy cannot build the array
        raise ValidationError(f"{kind} observations must be a {ndim}-d array, one entry per annotator in every row: {exc}") from None
    if obs.ndim != ndim or obs.shape[0] < 1:
        raise ValidationError(f"{kind} observations must be a non-empty {ndim}-d array, got shape {obs.shape}")
    if obs.shape[1] < 1:
        raise ValidationError("need at least one annotator")
    if kind == "hard":
        if obs.dtype.kind not in "iu":
            raise ValidationError(f"hard labels must be integer class indices, got dtype {obs.dtype}")
        obs = obs.astype(np.int64, copy=False)
        off = obs < 0
    else:
        total = np.zeros(obs.shape[:2])
        for c in range(obs.shape[2]):
            total += obs[:, :, c]  # left to right: the tolerance-edge verdicts annotation files always had
        # written so that a NaN entry or sum is off the simplex too
        off = (obs < -SOFT_SIMPLEX_TOL).any(axis=2) | ~(np.abs(total - 1.0) <= SOFT_SIMPLEX_TOL)
    x = np.asarray(x, dtype=float)
    if x.shape != obs.shape[:1]:
        raise ValidationError(f"x must have shape ({obs.shape[0]},), got {x.shape}")
    bad_x = ~np.isfinite(x)
    bad = bad_x | off.any(axis=1)
    if bad.any():
        i = _first(bad)
        if bad_x[i]:
            raise ValidationError(f"{where(i)}: x must be finite, got {x[i].item()!r}")
        soft_rule = f"soft vector off the simplex beyond {SOFT_SIMPLEX_TOL}"
        rule = "hard labels must be non-negative class indices" if kind == "hard" else soft_rule
        raise ValidationError(f"{where(i)}: {rule}, got {obs[i, _first(off[i])].tolist()!r}")
    return x, obs


class AnnotatedSample(NamedTuple):
    """One row of a batch: a covariate with the observations of every annotator.

    ``hard`` is a tuple of class indices or ``soft`` a tuple of simplex
    vectors, and the other is None.  A row is a plain tuple: the batch it
    came from holds the validated columns.
    """

    x: float
    hard: Optional[tuple[int, ...]] = None
    soft: Optional[tuple[tuple[float, ...], ...]] = None


@dataclass(frozen=True, eq=False)
class AnnotatedBatch(Sequence):
    """Columns of n annotated samples, validated once and read-only.

    ``x`` has shape (n,); exactly one of ``hard`` ((n, k) int64 class
    indices) or ``soft`` ((n, k, C) simplex vectors) is set; it holds at
    least one row.  As a sequence it yields :class:`AnnotatedSample` rows,
    and a slice is a batch of the sliced rows.
    """

    x: np.ndarray
    hard: Optional[np.ndarray] = None
    soft: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        x, obs = _check_columns(self.x, lambda i: f"sample {i}", self.hard, self.soft)
        for name, arr in (("x", x), (self.kind, obs)):
            arr = np.array(arr, order="C")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def kind(self) -> str:
        return "hard" if self.hard is not None else "soft"

    @property
    def annotators(self) -> int:
        return self._obs.shape[1]

    @property
    def _obs(self) -> np.ndarray:
        return self.hard if self.hard is not None else self.soft

    def __len__(self) -> int:
        return self.x.shape[0]

    def __getitem__(self, i):
        if isinstance(i, slice):
            # a batch holds at least one row, so an empty slice is an empty list
            return AnnotatedBatch(self.x[i], **{self.kind: self._obs[i]}) if range(len(self))[i] else []
        return self._row(float(self.x[i]), self._obs[i].tolist())

    def __iter__(self):
        # a block at a time, so the nested lists of every row are never in memory at once
        for a in range(0, len(self), 4096):
            yield from map(self._row, self.x[a : a + 4096].tolist(), self._obs[a : a + 4096].tolist())

    def _row(self, x: float, obs: list) -> AnnotatedSample:
        if self.hard is not None:
            return AnnotatedSample(x, hard=tuple(obs))
        return AnnotatedSample(x, soft=tuple(map(tuple, obs)))

    def __eq__(self, other) -> bool:
        if not isinstance(other, AnnotatedBatch):
            return NotImplemented
        return self.kind == other.kind and np.array_equal(self.x, other.x) and np.array_equal(self._obs, other._obs)


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
        if not np.array_equal(values, values.T) or np.any(np.diag(values) != 0.0):
            raise ValidationError("values must be symmetric with a zero diagonal")
        if np.any(values < 0.0) or np.any(values > 1.0):
            raise ValidationError("disagreement values must lie in [0, 1]")
        values = values.copy()
        values.setflags(write=False)
        object.__setattr__(self, "values", values)


def _build_matrix(values: np.ndarray, n: int, kind: str) -> DisagreementMatrix:
    k = values.shape[0]
    # the first maximum in row-major order over the pairs j < jp: (0, 1)
    # when every entry is 0, and the diagonal (0, 0) with one annotator
    argmax = divmod(int(np.argmax(np.where(np.tri(k, dtype=bool), -1.0, values))), k)
    return DisagreementMatrix(n=n, k=k, values=values, eta_hat=float(values[argmax]), argmax=argmax, kind=kind)


def _hard_gram(labels: np.ndarray) -> DisagreementMatrix:
    n, k = labels.shape
    agree, ind = np.zeros((k, k)), np.empty((n, k))
    rest, top = labels.ravel(), labels.max()
    if not ((rest > rest.min()) & (rest < top)).any():
        # at most two classes: agree = n/2 + 2 (L'L)_ij with L the top class's indicator less 1/2, in exact quarters
        np.subtract(np.equal(labels, top, out=ind), 0.5, out=ind)
        agree = ind.T @ ind
        agree *= 2.0
        agree += 0.5 * n
    else:
        # the classes in ascending order, each the least label above the last one
        while rest.size:
            c = rest.min()
            np.equal(labels, c, out=ind)
            agree += ind.T @ ind
            rest = rest[rest > c]
    values = np.subtract(1.0, np.divide(agree, n, out=agree), out=agree)
    np.fill_diagonal(values, 0.0)
    return _build_matrix(values, n, "hard")


def _soft_gram(probs: np.ndarray) -> DisagreementMatrix:
    n, k, _ = probs.shape
    values = np.zeros((k, k))
    for j in range(k):
        diff = 0.5 * np.abs(probs[:, j + 1 :, :] - probs[:, j : j + 1, :]).sum(axis=2).mean(axis=0)
        values[j, j + 1 :] = diff
        values[j + 1 :, j] = diff
    return _build_matrix(values, n, "soft")


def empirical_disagreement(batch: AnnotatedBatch) -> DisagreementMatrix:
    """Pairwise disagreement between the annotators of a batch, of the batch's kind.

    Hard labels give disagreement rates: for deterministic annotators an
    unbiased estimate of the pairwise expected conditional TV, for
    stochastic ones of the independent-coupling disagreement, an upper
    bound on the TV (the conservative direction).  Agreement counts come
    from one indicator Gram in BLAS for at most two classes, else one per
    class, O(C k^2 n); the classes are found without sorting the n*k
    labels, and no memory grows with the label values.  Soft labels give
    the mean half-L1 distance between the annotators' belief vectors.
    """
    return _hard_gram(batch.hard) if batch.kind == "hard" else _soft_gram(batch.soft)


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
        return asdict(self)


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
    if eps_star is not None and not eps_star >= 0:
        raise ValidationError(f"eps_star must be >= 0, got {eps_star!r}")
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


def write_annotations(path, batch: AnnotatedBatch) -> None:
    """Write a batch in the delimited annotation format (bit-exact floats).

    Each column is formatted whole: floats with ``repr``, class indices
    through a string table of the classes present.
    """
    if batch.kind == "hard":
        present, index = np.unique(batch.hard, return_inverse=True)
        classes = int(present[-1]) + 1
        names = np.array([str(c) for c in present.tolist()], dtype=object)
        columns = names[index.reshape(batch.hard.shape).T].tolist()
    else:
        classes = batch.soft.shape[2]
        columns = [list(map(repr, col)) for col in batch.soft.reshape(len(batch), -1).T.tolist()]
    header = f"# kind={batch.kind} classes={classes} annotators={batch.annotators}"
    rows = map(",".join, zip(map(repr, batch.x.tolist()), *columns))
    Path(path).write_text("\n".join([header, *rows]) + "\n")


def _bad_line(body: list[str], dtype: np.dtype, where: Callable[[int], str], exc: Exception) -> str:
    # only after the whole body failed to parse: re-read it one line at a time
    width = 1 + math.prod(dtype[1].shape)
    for row, line in enumerate(body):
        cells = line.count(",") + 1
        if cells != width:
            return f"{where(row)}: expected {width} cells, got {cells}: {line!r}"
        try:
            np.loadtxt([line], delimiter=",", dtype=dtype, comments=None)
        except (ValueError, DeprecationWarning):
            return f"{where(row)}: malformed {dtype.names[1]} annotation row {line!r}"
    return f"malformed annotation body: {exc}"


def read_annotations(path) -> AnnotatedBatch:
    """Parse an annotation file; the header declares kind, classes, annotators.

    The body is parsed in one pass into the columns of a batch.  Blank
    lines are skipped; a malformed file raises ``ValidationError`` naming
    the first bad line (1-based, as an editor counts them).
    """
    lines = Path(path).read_text().splitlines()
    numbered = [i for i, line in enumerate(lines) if line.strip()]
    if not numbered or not lines[numbered[0]].startswith("#"):
        raise ValidationError("annotation file must start with a '# kind=... ' header")
    header = lines[numbered[0]]
    fields = dict(part.split("=", 1) for part in header.lstrip("#").split() if "=" in part)
    try:
        kind = fields["kind"]
        classes = int(fields["classes"])
        k = int(fields["annotators"])
    except (KeyError, ValueError) as exc:
        raise ValidationError(f"malformed annotation header: {header!r}") from exc
    if kind not in ("hard", "soft"):
        raise ValidationError(f"unknown annotation kind {kind!r}")
    if classes < 1 or k < 1:
        raise ValidationError(f"malformed annotation header: {header!r}")
    body = [lines[i] for i in numbered[1:]]
    if not body:
        raise ValidationError(f"annotation file contains no samples after its header on line {numbered[0] + 1}")

    def where(row: int) -> str:
        return f"line {numbered[row + 1] + 1}"

    shape = (k,) if kind == "hard" else (k, classes)
    dtype = np.dtype([("x", float), (kind, np.int64 if kind == "hard" else float, shape)])
    with warnings.catch_warnings():
        # numpy 1.23-1.26 only warn when they truncate an integer cell such as "1.5"
        warnings.simplefilter("error", DeprecationWarning)
        try:
            table = np.loadtxt(body, delimiter=",", dtype=dtype, comments=None, ndmin=1)
        except (ValueError, DeprecationWarning) as exc:
            raise ValidationError(_bad_line(body, dtype, where, exc)) from None
    if kind == "hard":
        outside = ((table[kind] < 0) | (table[kind] >= classes)).any(axis=1)
        if outside.any():
            row = _first(outside)
            raise ValidationError(f"{where(row)}: label outside [0, {classes}): {body[row]!r}")
    x, obs = _check_columns(table["x"], where, **{kind: table[kind]})
    return AnnotatedBatch(x, **{kind: obs})
