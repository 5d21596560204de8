import math

import numpy as np
import pytest

from credal.estimation import AnnotatedBatch, AnnotatedSample, empirical_disagreement
from credal.measures import (
    DiscreteGrid,
    Gaussian,
    Interval,
    Probit,
    Sigmoid,
    SymmetricNoise,
    Tabular,
    Threshold,
    ValidationError,
    expected_conditional_tv,
)
from credal.sets import diameter_bounds
from credal.synthgen import (
    GenSeed,
    _draw_hard_labels,
    interval_mechanisms,
    minimax_instance,
    sample_annotated,
)
from credal.dro import ThresholdClassifier, world_risks


class TestGenSeed:
    def test_bit_identical_replay(self):
        a = GenSeed(123).derive(4, 7)
        b = GenSeed(123).derive(4, 7)
        assert np.array_equal(a.generator().random(100), b.generator().random(100))

    def test_substreams_differ(self):
        a = GenSeed(123).derive(0)
        b = GenSeed(123).derive(1)
        assert not np.array_equal(a.generator().random(100), b.generator().random(100))

    def test_derivation_order_free(self):
        # drawing stream 5 first or last does not change its content
        direct = GenSeed(9).derive(5).generator().normal(size=10)
        for other in (0, 3, 8):
            GenSeed(9).derive(other).generator().normal(size=10)
        again = GenSeed(9).derive(5).generator().normal(size=10)
        assert np.array_equal(direct, again)


class TestSampleAnnotated:
    def test_requires_positive_n(self):
        with pytest.raises(ValidationError):
            sample_annotated(Gaussian(0, 1), [Threshold(0)], 0, "hard", GenSeed(1))

    def test_identical_labelers_never_disagree(self):
        samples = sample_annotated(
            Gaussian(0, 1), [Threshold(0.5), Threshold(0.5)], 500, "hard", GenSeed(2)
        )
        m = empirical_disagreement(samples)
        assert m.eta_hat == 0.0

    def test_deterministic_disagreement_matches_quadrature(self):
        env = Gaussian(0, 1)
        labs = [Threshold(-1), Threshold(1)]
        m = empirical_disagreement(sample_annotated(env, labs, 100_000, "hard", GenSeed(3)))
        want = expected_conditional_tv(env, labs[0], labs[1])
        assert abs(m.eta_hat - want) < 0.005

    def test_soft_records_exact_beliefs(self):
        env = Gaussian(0, 1)
        labs = [Sigmoid(1.0, -0.3), Sigmoid(2.0, 0.7)]
        samples = sample_annotated(env, labs, 50, "soft", GenSeed(4))
        for s in samples:
            for lab, row in zip(labs, s.soft):
                want = lab.prob_matrix(np.asarray([s.x]))[0]
                assert row == pytest.approx(tuple(want), abs=0.0)

    def test_soft_rejects_symmetric_noise(self):
        noisy = SymmetricNoise(Threshold(0), 0.1)
        with pytest.raises(ValidationError):
            sample_annotated(Gaussian(0, 1), [noisy], 10, "soft", GenSeed(5))

    def test_conditional_independence_product_form(self):
        # joint flip frequencies of two noisy annotators factorize given truth
        env = Gaussian(0, 1)
        base = Threshold(0.0)
        e1, e2 = 0.2, 0.35
        labs = [base, SymmetricNoise(base, e1), SymmetricNoise(base, e2)]
        labels = sample_annotated(env, labs, 100_000, "hard", GenSeed(6)).hard
        truth = labels[:, 0]
        flip1 = labels[:, 1] != truth
        flip2 = labels[:, 2] != truth
        p11 = float(np.mean(flip1 & flip2))
        want = e1 * e2
        se = math.sqrt(want * (1 - want) / labels.shape[0])
        assert abs(p11 - want) <= 3 * se
        for flips, eps in ((flip1, e1), (flip2, e2)):
            se = math.sqrt(eps * (1 - eps) / labels.shape[0])
            assert abs(float(np.mean(flips)) - eps) <= 3 * se


def _per_labeler_draw(labs, xs, rng):
    """The draw one labeler at a time: covariates first, then one uniform per row per stochastic labeler."""
    columns = []
    for lab in labs:
        if lab.is_deterministic:
            columns.append(lab.labels(xs))
            continue
        cdf = np.cumsum(lab.prob_matrix(xs)[:, :-1], axis=1)
        u = rng.random(xs.shape[0])
        columns.append((u[:, None] > cdf).sum(axis=1).astype(np.int64))
    return np.column_stack(columns)


class TestColumnarSampling:
    def test_hard_batch_equals_records_of_the_arrays(self):
        # the covariates first, then one uniform per row for each stochastic labeler, in order
        env = Gaussian(0.3, 1.7)
        labs = [Threshold(-0.5), Sigmoid(2.0, 0.1), SymmetricNoise(Threshold(0.4), 0.2)]
        seed = GenSeed(11).derive(2)
        batch = sample_annotated(env, labs, 3_000, "hard", seed)
        rng = seed.generator()
        xs = env.sample(rng, 3_000)
        labels = _per_labeler_draw(labs, xs, rng)
        assert isinstance(batch, AnnotatedBatch)
        want = [AnnotatedSample(x=float(x), hard=tuple(int(v) for v in row)) for x, row in zip(xs, labels)]
        assert list(batch) == want
        assert np.asarray([s.x for s in batch]).tobytes() == xs.tobytes()
        assert batch.hard.dtype == np.int64 and np.array_equal(batch.hard, labels)

    GRID = (0.0, 1.0, 2.0)

    @pytest.mark.parametrize(
        "env, labs",
        [
            # interleaved families: constant thresholds, an interval, logistic and
            # probit links sharing one family, and noise on both bases
            (
                Gaussian(0.3, 1.7),
                [
                    Threshold(math.inf), Sigmoid(2.0, 0.1), Interval(-1.0, 0.5), Probit(1.5, -0.2),
                    SymmetricNoise(Threshold(0.4), 0.2), Threshold(-math.inf), Sigmoid(-1.0, 0.3),
                    SymmetricNoise(Interval(-0.3, 1.0), 0.1), Probit(1.5, -0.2), Threshold(0.2),
                ],
            ),
            # a 3-class table beside binary labelers
            (
                DiscreteGrid(GRID, (0.2, 0.5, 0.3)),
                [
                    Tabular(GRID, ((0.1, 0.6, 0.3), (0.3, 0.3, 0.4), (0.0, 0.2, 0.8))), Threshold(0.5),
                    Tabular(GRID, ((0.5, 0.5),) * 3), Sigmoid(1.0, -0.5),
                ],
            ),
            (Gaussian(0, 1), [Threshold(0.1), Interval(-0.5, 0.5), Threshold(0.1), Threshold(-math.inf)]),
            (Gaussian(0, 1), [Sigmoid(1.0, 0.0), Sigmoid(1.0, 0.0), Probit(2.0, 1.0), SymmetricNoise(Threshold(0.0), 0.3)]),
            (Gaussian(0, 1), [SymmetricNoise(Interval(-1.0, 1.0), 0.25)]),
        ],
        ids=["mixed", "three_class_table", "deterministic_only", "stochastic_only", "single"],
    )
    def test_family_draw_equals_the_per_labeler_draw(self, env, labs):
        # one kernel call per family draws the per-labeler labels bit for bit
        seed = GenSeed(27).derive(len(labs))
        batch = sample_annotated(env, labs, 2_000, "hard", seed)
        rng = seed.generator()
        xs = env.sample(rng, 2_000)
        want = _per_labeler_draw(labs, xs, rng)
        assert batch.x.tobytes() == xs.tobytes() and batch.hard.tobytes() == want.tobytes()
        assert want.max() == max(lab.class_count for lab in labs) - 1

    def test_soft_batch_equals_the_arrays(self):
        env = Gaussian(0, 1)
        labs = [Sigmoid(1.0, -0.3), Sigmoid(2.0, 0.7)]
        batch = sample_annotated(env, labs, 500, "soft", GenSeed(12))
        xs = env.sample(GenSeed(12).generator(), 500)
        probs = np.stack([lab.prob_matrix(xs) for lab in labs], axis=1)
        assert batch.x.tobytes() == xs.tobytes() and batch.soft.tobytes() == probs.tobytes()
        assert batch.soft.shape == (500, 2, 2) and batch.soft.flags.c_contiguous
        assert batch[3] == AnnotatedSample(x=float(xs[3]), soft=tuple(map(tuple, probs[3].tolist())))


class _TopRng:
    """A generator whose uniform draws sit just below 1; its other draws are real."""

    def __init__(self):
        self._rng = np.random.default_rng(0)

    def random(self, size):
        return np.full(size, 1.0 - 1e-13)

    def __getattr__(self, name):
        return getattr(self._rng, name)


class _TopSeed:
    def generator(self):
        return _TopRng()


class TestHardLabelRange:
    # a row within the simplex tolerance but summing to just under 1
    SHORT = Tabular((0.0,), ((0.4999999999996, 0.5),))

    def test_draw_stays_below_class_count(self):
        labels = _draw_hard_labels([self.SHORT], np.zeros(4), _TopRng())
        assert labels.tolist() == [[1, 1, 1, 1]]

    def test_samplers_stay_in_class_range(self):
        env = DiscreteGrid((0.0,), (1.0,))
        labels = sample_annotated(env, [self.SHORT, self.SHORT], 50, "hard", _TopSeed()).hard
        assert labels.min() >= 0 and labels.max() < 2

    def test_full_rows_draw_as_before(self):
        # the last class's comparison only ever counted draws above a full row
        env = Gaussian(0, 1)
        labs = [Sigmoid(1.5, 0.2), SymmetricNoise(Threshold(0.0), 0.3)]
        labels = sample_annotated(env, labs, 20_000, "hard", GenSeed(14)).hard
        rng = GenSeed(14).generator()
        xs = env.sample(rng, 20_000)
        for j, lab in enumerate(labs):
            u = rng.random(20_000)
            cdf = np.cumsum(lab.prob_matrix(xs), axis=1)
            assert np.array_equal(labels[:, j], (u[:, None] > cdf).sum(axis=1))


class TestIntervalMechanisms:
    def test_pinned_constant_in_n_y(self):
        env = Gaussian(2, 1)
        _, eta5 = interval_mechanisms(5, env, 0.2)
        _, eta1000 = interval_mechanisms(1000, env, 0.2)
        assert eta5 == eta1000 == 0.2

    def test_quadrature_confirms_implied_eta(self):
        env = Gaussian(2, 1)
        for n_y in (2, 5, 12):
            labs, eta = interval_mechanisms(n_y, env, 0.2)
            worst = max(
                expected_conditional_tv(env, a, b)
                for i, a in enumerate(labs)
                for b in labs[i + 1 :]
            )
            assert worst == pytest.approx(eta, abs=1e-9)

    def test_all_blocks_equal_case_is_symmetric(self):
        # when the filler mass hits the anchor mass, every pairwise
        # disagreement coincides
        env = Gaussian(0, 1)
        labs, eta = interval_mechanisms(5, env, 0.2)
        vals = [
            expected_conditional_tv(env, a, b)
            for i, a in enumerate(labs)
            for b in labs[i + 1 :]
        ]
        assert max(vals) - min(vals) < 1e-9
        assert vals[0] == pytest.approx(eta, abs=1e-9)

    def test_block_masses_disjoint(self):
        env = Gaussian(0, 1)
        labs, _ = interval_mechanisms(7, env, 0.1)
        for i, a in enumerate(labs):
            for b in labs[i + 1 :]:
                assert a.b <= b.a + 1e-12 or b.b <= a.a + 1e-12

    def test_infeasible_inputs(self):
        env = Gaussian(0, 1)
        with pytest.raises(ValidationError):
            interval_mechanisms(1, env, 0.2)
        with pytest.raises(ValidationError):
            interval_mechanisms(4, env, 1.2)
        with pytest.raises(ValidationError):
            interval_mechanisms(10**9, env, 0.9999)

    def test_discrete_env_rejected(self):
        grid = DiscreteGrid((0.0, 1.0), (0.5, 0.5))
        with pytest.raises(ValidationError):
            interval_mechanisms(3, grid, 0.2)


class TestMinimaxInstance:
    def test_diameter_equals_eta(self):
        for eta in (0.1, 0.5, 0.9):
            spec = minimax_instance(eta, Gaussian(0, 1))
            rep = diameter_bounds(spec, with_exact=True)
            assert rep.exact == pytest.approx(eta, abs=1e-9)

    def test_upper_half_for_median_split(self):
        spec = minimax_instance(0.5, Gaussian(0, 1))
        firing = spec.labelers[1]
        assert firing.theta == pytest.approx(0.0, abs=1e-12)

    def test_risk_sum_identity_on_threshold_grid(self):
        env = Gaussian(0, 1)
        eta = 0.3
        spec = minimax_instance(eta, env)
        grid = np.linspace(-4, 4, 1000)
        floor = math.inf
        for theta in grid:
            wr = world_risks(ThresholdClassifier(float(theta), 1), spec)
            total = float(wr.risks.sum())
            assert total >= eta - 1e-9
            floor = min(floor, wr.worst_value)
        assert floor >= eta / 2 - 1e-3

    def test_small_eta_limit(self):
        spec = minimax_instance(1e-3, Gaussian(0, 1))
        rep = diameter_bounds(spec, with_exact=True)
        assert rep.exact == pytest.approx(1e-3, abs=1e-9)

    def test_eta_out_of_range(self):
        with pytest.raises(ValidationError):
            minimax_instance(0.0, Gaussian(0, 1))
        with pytest.raises(ValidationError):
            minimax_instance(1.0, Gaussian(0, 1))


class TestReproducibility:
    def test_sample_annotated_bit_identical(self):
        env = Gaussian(0, 1)
        labs = [Threshold(-1), Sigmoid(1, 0)]
        a = sample_annotated(env, labs, 200, "hard", GenSeed(42).derive(3))
        b = sample_annotated(env, labs, 200, "hard", GenSeed(42).derive(3))
        assert a == b
