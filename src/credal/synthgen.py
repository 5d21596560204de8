"""Seeded generators for annotated samples, mechanism families, and minimax instances.

Annotated samples come from one sampler, :func:`sample_annotated`, as an
:class:`~credal.estimation.AnnotatedBatch` of hard labels or soft beliefs,
which :func:`~credal.estimation.empirical_disagreement` reads directly.
Hard labels take one kernel call per labeler family and one uniform draw
for the stochastic labelers, in the order of a draw one labeler at a time.

All generators are pure functions of (configuration, seed).  Seeds are
derived through counter-based Philox substreams, so replication r of an
experiment draws an independent stream regardless of execution order and
identical (master, substream) pairs reproduce bit-identical samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from credal.estimation import AnnotatedBatch
from credal.measures import (
    Environment,
    Gaussian,
    Interval,
    Labeler,
    SymmetricNoise,
    Threshold,
    ValidationError,
)
from credal.measures import _families, _gather
from credal.sets import CredalSpec


@dataclass(frozen=True)
class GenSeed:
    """Master seed plus a substream path for order-free parallel replication."""

    master: int
    substream: tuple[int, ...] = ()

    def derive(self, *indices: int) -> "GenSeed":
        return GenSeed(self.master, self.substream + tuple(int(i) for i in indices))

    def generator(self) -> np.random.Generator:
        seq = np.random.SeedSequence(entropy=self.master, spawn_key=self.substream)
        return np.random.Generator(np.random.Philox(seq))


def _draw_hard_labels(labelers: Sequence[Labeler], xs: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """(k, n) class indices, one kernel call per family; stochastic labeler r takes row r of one uniform draw."""
    stochastic = np.array([not lab.is_deterministic for lab in labelers])
    u, rank = rng.random((int(stochastic.sum()), xs.shape[0])), stochastic.cumsum() - 1
    out, x = np.empty((len(labelers), xs.shape[0]), np.int64), xs[None, :]
    for kernel, slots, params in _families(labelers):
        row = _gather(params, np.arange(len(slots))[:, None])
        if not stochastic[slots[0]]:
            out[slots] = labelers[slots[0]].label_kernel(x, *row)
            continue
        probs, draws = kernel(x, *row), u.take(rank[slots], axis=0)
        # the last class takes every u above the other classes' mass, also on rows summing to just
        # under 1 (within the simplex tolerance); summed a class at a time: the bits of ``np.cumsum``
        cdf = probs[..., 0]
        out[slots] = draws > cdf
        for c in range(1, probs.shape[-1] - 1):
            cdf = cdf + probs[..., c]
            out[slots] += draws > cdf
    return out


def sample_annotated(
    env: Environment,
    labelers: Sequence[Labeler],
    n: int,
    kind: str,
    seed: GenSeed,
) -> AnnotatedBatch:
    """Draw n i.i.d. covariates and one observation per labeler for each.

    Hard labels are drawn independently per annotator given the covariate
    (deterministic labelers contribute their function value); soft
    observations record each labeler's belief vector exactly.  Soft mode
    rejects symmetric-noise annotators, whose belief about the latent truth
    is not what the noisy channel emits.

    The covariates are drawn first, then one uniform per row for each
    stochastic labeler in order, as one array; one kernel call per labeler
    family gives the labels, the columns of one validated, read-only
    :class:`~credal.estimation.AnnotatedBatch`; no per-sample objects are
    built (iterating the batch yields ``AnnotatedSample`` rows).
    """
    if kind not in ("hard", "soft"):
        raise ValidationError(f"kind must be 'hard' or 'soft', got {kind!r}")
    if n < 1:
        raise ValidationError(f"n must be >= 1, got {n!r}")
    if not labelers:
        raise ValidationError("need at least one labeler")
    if kind == "soft" and any(isinstance(l, SymmetricNoise) for l in labelers):
        raise ValidationError("soft sampling is undefined for symmetric-noise labelers")
    rng = seed.generator()
    xs = env.sample(rng, n)
    if kind == "hard":
        return AnnotatedBatch(xs, hard=_draw_hard_labels(labelers, xs, rng).T)
    return AnnotatedBatch(xs, soft=np.stack([l.prob_matrix(xs) for l in labelers], axis=1))


def interval_mechanisms(
    n_y: int,
    env: Environment,
    pinned_mass: float,
) -> tuple[list[Interval], float]:
    """Disjoint quantile-cell labelers whose max pairwise disagreement is pinned.

    Labeler j fires (class 1) exactly on its own quantile cell, so two
    labelers disagree precisely on the union of their cells and the expected
    disagreement of a pair is the sum of the two cell masses.  The first two
    cells carry ``pinned_mass / 2`` each; the remaining ``n_y - 2`` cells
    carry ``min(pinned_mass / 2, (1 - pinned_mass) / (n_y - 1))``, which
    keeps the covered mass strictly below 1 and makes the anchor pair attain
    the maximum, so the implied diameter equals ``pinned_mass`` for every
    n_y.  Returns ``(labelers, implied_eta_star)``.
    """
    if n_y < 2:
        raise ValidationError(f"need n_y >= 2 labelers, got {n_y!r}")
    if not (0.0 < pinned_mass < 1.0):
        raise ValidationError(f"pinned_mass must lie in (0, 1), got {pinned_mass!r}")
    half = pinned_mass / 2.0
    filler = min(half, (1.0 - pinned_mass) / (n_y - 1)) if n_y > 2 else 0.0
    if n_y > 2 and filler < 1e-9:
        raise ValidationError(
            f"pinned_mass {pinned_mass!r} infeasible for {n_y} blocks: filler cells degenerate"
        )
    if not isinstance(env, Gaussian):
        raise ValidationError("interval mechanisms need an environment with a quantile function")
    # adjacent cells, centred on the median
    masses = [half, half] + [filler] * (n_y - 2)
    start = (1.0 - sum(masses)) / 2.0
    xs = env.ppf(np.concatenate([[start], start + np.cumsum(masses)]))
    if not np.all(xs[:-1] < xs[1:]):
        raise ValidationError("degenerate quantile cell; mass too small to resolve")
    return [Interval(float(a), float(b)) for a, b in zip(xs[:-1], xs[1:])], pinned_mass


def minimax_instance(eta: float, env: Environment) -> CredalSpec:
    """Two-labeler fixed-covariate spec whose exact diameter equals eta.

    One labeler never fires (infinite threshold, constant class 0); the
    other fires exactly on the upper-tail region of covariate mass eta.
    Any hypothesis therefore pays total risk at least eta across the two
    worlds, which is the hard instance behind the eta/2 minimax floor.
    """
    if not (0.0 < eta < 1.0):
        raise ValidationError(f"eta must lie in (0, 1), got {eta!r}")
    if not isinstance(env, Gaussian):
        raise ValidationError("minimax instance needs an environment with a quantile function")
    cut = float(env.ppf(1.0 - eta))
    return CredalSpec(environments=(env,), labelers=(Threshold(math.inf), Threshold(cut)))
