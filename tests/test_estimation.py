import math
import warnings

import numpy as np
import pytest

from credal.estimation import (
    SOFT_SIMPLEX_TOL,
    AnnotatedBatch,
    AnnotatedSample,
    Certificate,
    DisagreementMatrix,
    certificate,
    empirical_disagreement,
    hoeffding_epsilon,
    noisy_closed_form,
    read_annotations,
    required_samples,
    write_annotations,
)
from credal.measures import ValidationError

from oracles import bsc_disagreement_mc, hard_gram_by_class


def hard(x, labels):
    """A batch of hard rows: ``x`` a list of covariates, ``labels`` one list of class indices per row."""
    return AnnotatedBatch(np.asarray(x, dtype=float), hard=np.asarray(labels))


def soft(x, probs):
    """A batch of soft rows: one list of annotator belief vectors per covariate."""
    return AnnotatedBatch(np.asarray(x, dtype=float), soft=np.asarray(probs, dtype=float))


def labelled(labels):
    """A batch of bare hard labels, one row per sample, at covariates 0, 1, ..."""
    labels = np.asarray(labels)
    return AnnotatedBatch(np.arange(len(labels), dtype=float), hard=labels)


class TestAnnotatedBatch:
    def test_sequence_of_records(self):
        batch = hard([0.5, -1.0], [[0, 1], [2, 2]])
        assert len(batch) == 2 and batch.kind == "hard" and batch.annotators == 2
        assert batch[1] == AnnotatedSample(-1.0, hard=(2, 2)) and batch[-2] == AnnotatedSample(0.5, hard=(0, 1))
        assert list(batch) == [AnnotatedSample(0.5, hard=(0, 1)), AnnotatedSample(-1.0, hard=(2, 2))]
        assert batch[1].x == -1.0 and batch[1].hard == (2, 2) and batch[1].soft is None
        assert isinstance(batch[1:], AnnotatedBatch) and batch[1:] == hard([-1.0], [[2, 2]]) and batch[2:] == []
        assert batch != hard([0.5], [[0, 1]]) and batch != list(batch)
        assert batch.hard.dtype == np.int64
        with pytest.raises(IndexError):
            batch[2]
        rows = soft([0.1], [[(0.25, 0.75), (1.0, 0.0)]])
        assert list(rows) == [AnnotatedSample(0.1, soft=((0.25, 0.75), (1.0, 0.0)))]
        assert rows != hard([0.1], [[0, 0]])

    def test_arrays_are_read_only(self):
        labels = np.asarray([[0, 1], [1, 1]])
        batch = AnnotatedBatch(np.asarray([0.0, 1.0]), hard=labels)
        for arr in (batch.x, batch.hard):
            with pytest.raises(ValueError):
                arr[0] = 3
        labels[0, 0] = 7  # the batch holds its own copy
        assert batch.hard[0, 0] == 0
        probs = AnnotatedBatch(np.asarray([0.0]), soft=np.asarray([[[0.5, 0.5]]])).soft
        with pytest.raises(ValueError):
            probs[0, 0, 0] = 1.0

    def test_record_rules_apply_and_name_the_sample(self):
        x = np.asarray([0.0, 1.0, 2.0])
        with pytest.raises(ValidationError, match="exactly one"):
            AnnotatedBatch(x)
        with pytest.raises(ValidationError, match="exactly one"):
            AnnotatedBatch(x, hard=np.zeros((3, 1), int), soft=np.ones((3, 1, 1)))
        with pytest.raises(ValidationError, match="sample 1: x must be finite"):
            AnnotatedBatch(np.asarray([0.0, np.nan, 2.0]), hard=np.zeros((3, 2), int))
        with pytest.raises(ValidationError, match="at least one annotator"):
            AnnotatedBatch(x, hard=np.zeros((3, 0), int))
        with pytest.raises(ValidationError, match="sample 2: hard labels must be non-negative"):
            AnnotatedBatch(x, hard=np.asarray([[0], [1], [-1]]))
        with pytest.raises(ValidationError, match="integer class indices"):
            AnnotatedBatch(x, hard=np.zeros((3, 2)))
        probs = np.full((3, 2, 2), 0.5)
        probs[2, 1] = (0.7, 0.4)
        with pytest.raises(ValidationError, match="sample 2: soft vector off the simplex"):
            AnnotatedBatch(x, soft=probs)
        probs[2, 1] = (np.nan, 0.5)
        with pytest.raises(ValidationError, match="off the simplex"):
            AnnotatedBatch(x, soft=probs)
        with pytest.raises(ValidationError, match="shape"):
            AnnotatedBatch(x[:2], hard=np.zeros((3, 2), int))

    def test_ragged_hard_rows_are_rejected(self):
        # lists whose rows hold unequal annotator counts cannot form an array
        with pytest.raises(ValidationError, match="hard observations must be a 2-d array, one entry per annotator in every row"):
            AnnotatedBatch([0.0, 1.0], hard=[[0, 1], [0, 1, 1]])

    def test_ragged_soft_rows_are_rejected(self):
        # unequal annotator counts, then unequal class counts
        for soft in ([[[0.5, 0.5]], [[0.5, 0.5], [1.0, 0.0]]], [[[0.5, 0.5], [1.0]], [[0.5, 0.5], [1.0, 0.0]]]):
            with pytest.raises(ValidationError, match="soft observations must be a 3-d array, one entry per annotator in every row"):
                AnnotatedBatch([0.0, 1.0], soft=soft)

    @staticmethod
    def _accepts(build) -> bool:
        try:
            build()
        except ValidationError:
            return False
        return True

    def test_soft_tolerance_edge_follows_a_left_to_right_sum(self):
        # nine-class vectors one tolerance off the simplex: numpy's pairwise
        # sum and a left-to-right sum put about one in six on different sides
        rng = np.random.default_rng(5)
        p = rng.random((2000, 9))
        p /= p.sum(axis=1, keepdims=True)
        p[:, 0] += rng.choice([-1.0, 1.0], size=2000) * SOFT_SIMPLEX_TOL * (1.0 + 1e-7 * rng.normal(size=2000))
        p[:3, 1] = (math.nan, math.inf, -2 * SOFT_SIMPLEX_TOL)
        verdicts = []
        for row in p.tolist():
            total = 0.0
            for v in row:
                total += v
            want = all(v >= -SOFT_SIMPLEX_TOL for v in row) and abs(total - 1.0) <= SOFT_SIMPLEX_TOL
            assert self._accepts(lambda: soft([0.0], [[row]])) == want
            verdicts.append(want)
        assert 100 < sum(verdicts) < 1900
        pairwise = np.abs(p.sum(axis=1) - 1.0) <= SOFT_SIMPLEX_TOL
        assert (pairwise != verdicts).sum() > 100


class TestEmpiricalDisagreement:
    def test_worked_examples_of_both_kinds(self):
        # the batch's kind picks the estimator: 0/1 disagreement or half-L1 between beliefs
        m = empirical_disagreement(hard([0, 1, 2, 3], [[0, 0], [0, 1], [1, 1], [0, 1]]))
        assert (m.kind, m.n, m.k) == ("hard", 4, 2)
        assert m.values.tolist() == [[0.0, 0.5], [0.5, 0.0]]
        m = empirical_disagreement(soft([0, 1], [[(0.9, 0.1), (0.6, 0.4)], [(0.5, 0.5), (0.5, 0.5)]]))
        assert (m.kind, m.n, m.k) == ("soft", 2, 2)
        assert m.values == pytest.approx(np.array([[0.0, 0.15], [0.15, 0.0]]), abs=1e-15)
        assert m.values[0, 0] == m.values[1, 1] == 0.0


class TestHardDisagreement:
    def test_all_agree(self):
        m = empirical_disagreement(hard([0, 1], [[1, 1, 1], [0, 0, 0]]))
        assert m.eta_hat == 0.0
        assert np.all(m.values == 0.0)

    def test_worked_example(self):
        m = empirical_disagreement(hard([0, 1, 2, 3], [[0, 0], [0, 1], [1, 1], [0, 1]]))
        assert m.values[0, 1] == pytest.approx(0.5)
        assert m.eta_hat == pytest.approx(0.5)
        assert m.argmax == (0, 1)

    def test_mixed_kinds_rejected(self):
        with pytest.raises(ValidationError, match="exactly one"):
            AnnotatedBatch(np.zeros(1), hard=np.zeros((1, 2), int), soft=np.ones((1, 2, 1)))

    def test_empty_rejected(self):
        for build in (
            lambda: hard([], np.zeros((0, 2), int)),
            lambda: soft([], np.zeros((0, 2, 2))),
        ):
            with pytest.raises(ValidationError, match="non-empty"):
                build()

    def test_matrix_symmetry_and_range(self):
        rng = np.random.default_rng(0)
        labels = rng.integers(0, 3, size=(50, 4))
        m = empirical_disagreement(labelled(labels))
        assert np.allclose(m.values, m.values.T)
        assert np.all(np.diag(m.values) == 0)
        assert np.all((m.values >= 0) & (m.values <= 1))

    def test_gram_matches_per_class_indicator_grams(self):
        # agreement counts are exact integers in float64, so the counting
        # Gram has the bits of one indicator Gram per distinct label value,
        # also for labels far apart (no memory follows the largest label)
        # and for at most two classes, which take one product
        rng = np.random.default_rng(11)
        for labels in (
            rng.integers(0, 3, size=(5000, 5)),
            rng.integers(0, 3, size=(2000, 40)),
            np.where(rng.random((3000, 6)) < 0.4, 0, 10**12),
            rng.integers(0, 2, size=(3000, 7)),
            2 * rng.integers(0, 2, size=(1000, 5)),
            np.full((40, 3), 3),
        ):
            assert empirical_disagreement(labelled(labels)).values.tobytes() == hard_gram_by_class(labels).tobytes()

    def test_labels_must_be_class_indices(self):
        for labels in (
            np.asarray([[0.5, 1.5], [0.5, 0.5]]),
            np.asarray([[True, False], [True, True]]),
            np.asarray([[-1, 1], [-1, -1]]),
        ):
            with pytest.raises(ValidationError):
                labelled(labels)
        m = empirical_disagreement(labelled(np.asarray([[0, 1], [1, 1]], dtype=np.uint8)))
        assert m.values[0, 1] == 0.5

    def test_batches_are_validated_once(self, monkeypatch):
        # a batch checks its columns when built; the estimators reuse them
        import credal.estimation as est

        checks = []
        check = est._check_columns
        monkeypatch.setattr(est, "_check_columns", lambda *a, **k: checks.append(1) or check(*a, **k))
        rng = np.random.default_rng(4)
        x = rng.normal(size=300)
        hard_batch = AnnotatedBatch(x, hard=rng.integers(0, 3, size=(300, 4)))
        soft_batch = AnnotatedBatch(x, soft=rng.dirichlet(np.ones(3), size=(300, 4)))
        assert len(checks) == 2
        a, b = empirical_disagreement(hard_batch), empirical_disagreement(soft_batch)
        assert len(checks) == 2
        assert (a.kind, b.kind) == ("hard", "soft")
        assert np.array_equal(a.values, est._hard_gram(hard_batch.hard).values)
        assert np.array_equal(b.values, est._soft_gram(soft_batch.soft).values)

    def test_argmax_lexicographic_tie(self):
        # pairs (0,1) and (0,2) tie; lexicographic keeps (0,1)
        m = empirical_disagreement(hard([0, 1], [[0, 1, 1], [0, 0, 0]]))
        assert m.argmax == (0, 1)
        # (0,3) ties (1,2): the first in row-major order, where a
        # column-major scan would meet (1,2) first
        m = empirical_disagreement(labelled([[0, 0, 1, 1], [0, 1, 0, 1]]))
        assert (m.argmax, m.eta_hat) == ((0, 3), 1.0)
        # no disagreement keeps the default pair, one annotator its diagonal
        m = empirical_disagreement(labelled([[1, 1, 1]]))
        assert (m.argmax, m.eta_hat) == ((0, 1), 0.0)
        m = empirical_disagreement(labelled([[0], [1]]))
        assert (m.argmax, m.eta_hat) == ((0, 0), 0.0)

    def test_first_maximum_matches_the_upper_triangle_scan(self):
        import credal.estimation as est

        def scan(values):
            k = values.shape[0]
            rows, cols = np.triu_indices(k, min(1, k - 1))
            upper = values[rows, cols]
            best = int(np.argmax(upper))
            return float(upper[best]), (int(rows[best]), int(cols[best]))

        rng = np.random.default_rng(31)
        cases = [np.zeros((1, 1)), np.zeros((2, 2)), np.asarray([[0.0, 0.5], [0.5, 0.0]]), np.zeros((6, 6))]
        for k in range(3, 9):
            for _ in range(20):
                upper = np.triu(rng.integers(0, 3, size=(k, k)) / 4.0, 1)  # three values: many ties
                cases.append(upper + upper.T)
        for values in cases:
            m = est._build_matrix(values, 10, "hard")
            assert (m.eta_hat, m.argmax) == scan(values)
            assert all(type(i) is int for i in m.argmax)

    def test_max_vs_estimate_of_max_inequality(self):
        rng = np.random.default_rng(5)
        true_vals = {(0, 1): 0.3, (0, 2): 0.5, (1, 2): 0.4}
        for _ in range(50):
            n = 200
            labels = np.zeros((n, 3), dtype=int)
            # correlated three-annotator scheme with known pairwise rates
            base = rng.integers(0, 2, n)
            labels[:, 0] = base
            labels[:, 1] = np.where(rng.random(n) < 0.3, 1 - base, base)
            labels[:, 2] = np.where(rng.random(n) < 0.5, 1 - base, base)
            m = empirical_disagreement(labelled(labels))
            true_eta = max(true_vals.values())
            per_pair_err = max(
                abs(m.values[j, k] - true_vals[(j, k)]) for j, k in true_vals
            )
            assert abs(m.eta_hat - true_eta) <= per_pair_err + 1e-12


class TestSoftDisagreement:
    def test_identical_vectors(self):
        m = empirical_disagreement(soft([0], [[(0.5, 0.5), (0.5, 0.5)]]))
        assert m.eta_hat == 0.0

    def test_single_sample_half_l1(self):
        m = empirical_disagreement(soft([0], [[(0.9, 0.1), (0.6, 0.4)]]))
        assert m.values[0, 1] == pytest.approx(0.3)
        m = empirical_disagreement(soft([0, 1], [[(0.9, 0.1), (0.6, 0.4)], [(0.5, 0.5), (0.5, 0.5)]]))
        assert m.values[0, 1] == pytest.approx(0.15)

    def test_beliefs_off_the_simplex_rejected(self):
        nan = np.full((2, 2, 2), 0.5)
        nan[1, 0, 0] = np.nan
        for probs, row in ((np.zeros((2, 2, 3)), 0), (np.full((2, 2, 2), 7.0), 0), (nan, 1)):
            with pytest.raises(ValidationError, match=f"sample {row}: soft vector off the simplex"):
                AnnotatedBatch(np.zeros(2), soft=probs)

    def test_unbiased_against_population(self):
        # soft estimator averages the exact pointwise TV, so its expectation
        # is the population value; check to within 3 standard errors
        rng = np.random.default_rng(2)
        from credal.measures import Gaussian, Probit, expected_conditional_tv
        from credal.synthgen import GenSeed, sample_annotated

        env = Gaussian(0, 1)
        labs = (Probit(1.0, -0.8), Probit(1.0, 0.8))
        pop = expected_conditional_tv(env, labs[0], labs[1])
        hats = []
        for r in range(60):
            batch = sample_annotated(env, labs, 400, "soft", GenSeed(17).derive(r))
            hats.append(empirical_disagreement(batch).eta_hat)
        se = np.std(hats) / math.sqrt(len(hats))
        assert abs(np.mean(hats) - pop) <= 3 * se + 1e-3


class TestNoisyClosedForm:
    def test_perfect_annotators(self):
        assert noisy_closed_form([0.0, 0.0]) == (0.0, 0.0)

    def test_worked_example(self):
        eta, bound = noisy_closed_form([0.1, 0.2])
        assert eta == pytest.approx(0.26)
        assert bound == pytest.approx(0.32)

    def test_ceiling(self):
        eta, bound = noisy_closed_form([0.5, 0.5])
        assert eta == pytest.approx(0.5)
        assert bound == pytest.approx(0.5)

    def test_out_of_range(self):
        with pytest.raises(ValidationError):
            noisy_closed_form([0.1, 0.6])
        with pytest.raises(ValidationError):
            noisy_closed_form([0.3])

    def test_monte_carlo_agreement(self):
        rng = np.random.default_rng(99)
        trials = 200_000
        for _ in range(12):
            e1, e2 = rng.uniform(0, 0.5, size=2)
            eta, bound = noisy_closed_form([float(e1), float(e2)])
            mc = bsc_disagreement_mc(e1, e2, trials, rng)
            se = math.sqrt(eta * (1 - eta) / trials)
            assert abs(mc - eta) <= 3 * se + 1e-9
            assert eta <= bound + 1e-12


class TestHoeffding:
    def test_paper_anchor(self):
        assert hoeffding_epsilon(375, 10, 0.05) == pytest.approx(0.09997, abs=1e-5)

    def test_small_delta_anchor_values(self):
        assert hoeffding_epsilon(100, 2, 0.005) == pytest.approx(0.1731, abs=1e-4)
        assert hoeffding_epsilon(10, 2, 0.005) == pytest.approx(0.547, abs=1e-3)

    def test_quarter_sample_doubles_radius(self):
        assert hoeffding_epsilon(100, 5, 0.1) == pytest.approx(
            2 * hoeffding_epsilon(400, 5, 0.1)
        )

    def test_range_checks(self):
        with pytest.raises(ValidationError):
            hoeffding_epsilon(0, 2, 0.05)
        with pytest.raises(ValidationError):
            hoeffding_epsilon(10, 1, 0.05)
        with pytest.raises(ValidationError):
            hoeffding_epsilon(10, 2, 1.5)

    def test_required_samples_anchor(self):
        assert required_samples(0.1, 10, 0.05) == 375

    def test_required_samples_minimality(self):
        n = required_samples(0.1, 10, 0.05)
        assert hoeffding_epsilon(n, 10, 0.05) <= 0.1
        assert hoeffding_epsilon(n - 1, 10, 0.05) > 0.1

    def test_required_samples_small_case(self):
        assert required_samples(0.5, 2, 0.5) == 3

    def test_required_samples_quartering(self):
        n1 = required_samples(0.05, 4, 0.05)
        n2 = required_samples(0.1, 4, 0.05)
        assert n1 in (4 * n2 - 3, 4 * n2 - 2, 4 * n2 - 1, 4 * n2)

    def test_required_samples_trivial_and_invalid(self):
        assert required_samples(1.5, 4, 0.05) == 1
        with pytest.raises(ValidationError):
            required_samples(0.0, 4, 0.05)


class TestCertificate:
    def _matrix(self, eta, n=1000, k=2, kind="hard"):
        values = np.zeros((k, k))
        values[0, 1] = values[1, 0] = eta
        return DisagreementMatrix(
            n=n, k=k, values=values, eta_hat=eta, argmax=(0, 1), kind=kind
        )

    def test_zero_matrix(self):
        cert = certificate(self._matrix(0.0), delta=0.05)
        assert cert.penalty_upper == cert.epsilon

    def test_worked_example(self):
        cert = certificate(self._matrix(0.5), delta=0.005)
        assert cert.epsilon == pytest.approx(0.0547, abs=1e-4)
        assert cert.penalty_upper == pytest.approx(0.5547, abs=1e-4)

    def test_table_anchor_small_n(self):
        cert = certificate(self._matrix(0.2, n=10), delta=0.005)
        assert cert.epsilon == pytest.approx(0.547, abs=1e-3)

    def test_regime_mismatch(self):
        with pytest.raises(ValidationError):
            certificate(self._matrix(0.1, kind="soft"), regime="exact_hard_deterministic")
        with pytest.raises(ValidationError):
            certificate(self._matrix(0.1, kind="hard"), regime="exact_soft")

    def test_matrix_invariants(self):
        # both Grams are exactly symmetric, so an asymmetry of 1e-13 is rejected too
        for low in (0.3, 0.2 + 1e-13):
            with pytest.raises(ValidationError, match="symmetric"):
                DisagreementMatrix(
                    n=5, k=2, values=np.asarray([[0.0, 0.2], [low, 0.0]]),
                    eta_hat=low, argmax=(0, 1), kind="hard",
                )

    def test_certificate_invariants(self):
        with pytest.raises(ValidationError):
            Certificate(
                eta_hat=0.5, epsilon=0.1, delta=0.05, n=100, k=2,
                regime="exact_hard_deterministic", penalty_upper=0.7,
            )
        for eps_star in (-0.1, math.nan):
            with pytest.raises(ValidationError, match="eps_star must be >= 0"):
                certificate(self._matrix(0.1), eps_star=eps_star)
        assert certificate(self._matrix(0.1), eps_star=0.0).eps_star_input == 0.0

    def test_conservative_for_stochastic_hard(self):
        # independent-coupling disagreement upper-bounds the conditional TV:
        # the mean estimate sits above the true diameter minus sampling noise
        from credal.measures import Gaussian, SymmetricNoise, Threshold, expected_conditional_tv
        from credal.synthgen import GenSeed, sample_annotated

        env = Gaussian(0, 1)
        labs = (
            SymmetricNoise(Threshold(-0.5), 0.15),
            SymmetricNoise(Threshold(0.8), 0.3),
        )
        true_diameter = expected_conditional_tv(env, labs[0], labs[1])
        hats = []
        for r in range(80):
            batch = sample_annotated(env, labs, 500, "hard", GenSeed(23).derive(r))
            hats.append(empirical_disagreement(batch).eta_hat)
        mean_hat = float(np.mean(hats))
        se = float(np.std(hats)) / math.sqrt(len(hats))
        assert mean_hat >= true_diameter - 2 * se


class TestAnnotationIO:
    def test_hard_round_trip_bit_exact(self, tmp_path):
        samples = hard([-0.5321974918742317, 1e-17, 123456.789012345678], [[0, 1, 0], [1, 1, 2], [2, 0, 1]])
        path = tmp_path / "ann_hard.csv"
        write_annotations(path, samples)
        back = read_annotations(path)
        assert back == samples and list(back) == list(samples)
        # second write is byte-identical
        path2 = tmp_path / "ann_hard_2.csv"
        write_annotations(path2, back)
        assert path.read_text() == path2.read_text()

    def test_soft_round_trip_bit_exact(self, tmp_path):
        samples = soft([0.1, -2.25], [[(0.7000000000000001, 0.2999999999999999), (0.5, 0.5)], [(1.0, 0.0), (1 / 3, 2 / 3)]])
        path = tmp_path / "ann_soft.csv"
        write_annotations(path, samples)
        back = read_annotations(path)
        assert back == samples

    def test_header_declares_shape(self, tmp_path):
        path = tmp_path / "ann.csv"
        write_annotations(path, hard([0.0], [[0, 1]]))
        first = path.read_text().splitlines()[0]
        assert first.startswith("#")
        assert "kind=hard" in first and "classes=2" in first and "annotators=2" in first

    def test_malformed_inputs(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0.0,1,0\n")
        with pytest.raises(ValidationError):
            read_annotations(path)
        path.write_text("# kind=hard classes=2 annotators=3\n0.0,1,0\n")
        with pytest.raises(ValidationError):
            read_annotations(path)
        path.write_text("# kind=weird classes=2 annotators=2\n0.0,1,0\n")
        with pytest.raises(ValidationError):
            read_annotations(path)

    def test_missing_annotations_rejected(self, tmp_path):
        # absent annotator on one row is a hard error, not an imputation
        path = tmp_path / "short_row.csv"
        path.write_text("# kind=hard classes=2 annotators=2\n0.0,1\n")
        with pytest.raises(ValidationError):
            read_annotations(path)


def _hard_file(x, labels, classes):
    # an independent line-by-line formatter of the hard annotation format
    lines = [f"# kind=hard classes={classes} annotators={len(labels[0])}"]
    lines += [",".join([repr(float(v)), *(str(int(a)) for a in row)]) for v, row in zip(x, labels)]
    return "\n".join(lines) + "\n"


class TestColumnarAnnotationIO:
    # doubles whose repr round trip is easy to get wrong
    EDGE = [5e-324, -0.0, 0.0, 1.7976931348623157e308, -2.2250738585072014e-308, 1e-17, 0.1, -1 / 3]

    def test_large_hard_batch_bytes_and_round_trip(self, tmp_path):
        rng = np.random.default_rng(8)
        n = 100_000
        x = rng.normal(size=n) * 10.0 ** rng.integers(-12, 12, size=n)
        x[: len(self.EDGE)] = self.EDGE
        labels = rng.integers(0, 3, size=(n, 5))
        batch = AnnotatedBatch(x, hard=labels)
        path = tmp_path / "big.csv"
        write_annotations(path, batch)
        assert path.read_text() == _hard_file(x, labels, 3)
        back = read_annotations(path)
        assert isinstance(back, AnnotatedBatch)
        assert back.x.tobytes() == x.tobytes()
        assert np.array_equal(back.hard, labels) and back == batch
        # rows come a block at a time: every one, in order, across the block edges
        assert list(back) == [AnnotatedSample(v, hard=tuple(row)) for v, row in zip(x.tolist(), labels.tolist())]

    def test_soft_batch_round_trip(self, tmp_path):
        rng = np.random.default_rng(9)
        x = np.asarray(self.EDGE + rng.normal(size=200).tolist())
        p = rng.random((x.size, 3))
        probs = np.stack([p / p.sum(axis=1, keepdims=True), np.full((x.size, 3), 1 / 3)], axis=1)
        batch = AnnotatedBatch(x, soft=probs)
        path = tmp_path / "soft.csv"
        write_annotations(path, batch)
        want = [f"# kind=soft classes=3 annotators=2"]
        want += [",".join(map(repr, [v, *row.ravel().tolist()])) for v, row in zip(x.tolist(), probs)]
        assert path.read_text() == "\n".join(want) + "\n"
        back = read_annotations(path)
        assert back.x.tobytes() == x.tobytes() and back.soft.tobytes() == probs.tobytes()

    def test_sparse_large_labels(self, tmp_path):
        # the label strings come from the classes present, not from range(classes)
        samples = hard([0.5, 1.5], [[0, 10**12], [10**12, 3]])
        path = tmp_path / "sparse.csv"
        write_annotations(path, samples)
        assert path.read_text() == _hard_file([0.5, 1.5], [[0, 10**12], [10**12, 3]], 10**12 + 1)
        assert read_annotations(path) == samples

    @pytest.mark.parametrize(
        "body, line",
        [
            ("0.5,0,1\n0.25,1.5,1\n", 3),  # a non-integer label
            ("0.5,0,1\n\n0.25,1,2\n", 4),  # a label >= classes, after a blank line
            ("0.5,0,1\n0.25,-1,0\n", 3),  # a negative label
            ("0.5,0,1\nnan,1,0\n0.1,0,0\n", 3),  # a nan covariate
            ("0.5,0,1\n0.25,1\n0.1,0,0\n", 3),  # a short row in the middle
            ("0.5,0,1\n0.25,1,0,1\n", 3),  # a long row
            ("0.5,0,1\nzero,1,0\n", 3),  # an unparsable covariate
        ],
    )
    def test_malformed_body_names_the_line(self, tmp_path, body, line):
        path = tmp_path / "bad.csv"
        path.write_text("# kind=hard classes=2 annotators=2\n" + body)
        with pytest.raises(ValidationError, match=rf"line {line}\b"):
            read_annotations(path)

    def test_integer_cells_that_numpy_only_warns_about(self, tmp_path, monkeypatch):
        # numpy 1.23-1.26 parse "1.5" into an int64 cell as 1 with a DeprecationWarning
        loadtxt = np.loadtxt

        def truncating_loadtxt(lines, **kw):
            if any("1.5" in line for line in lines):
                warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.", DeprecationWarning)
            return loadtxt([line.replace("1.5", "1") for line in lines], **kw)

        monkeypatch.setattr(np, "loadtxt", truncating_loadtxt)
        path = tmp_path / "float_label.csv"
        path.write_text("# kind=hard classes=2 annotators=2\n0.5,0,1\n0.25,1.5,1\n")
        with pytest.raises(ValidationError, match=r"line 3\b"):
            read_annotations(path)

    def test_soft_file_off_simplex_names_the_line(self, tmp_path):
        path = tmp_path / "bad_soft.csv"
        path.write_text("# kind=soft classes=2 annotators=1\n0.0,0.5,0.5\n1.0,0.7,0.4\n")
        with pytest.raises(ValidationError, match=r"line 3\b.*simplex"):
            read_annotations(path)

    def test_header_only_file_names_the_header_line(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("\n# kind=hard classes=2 annotators=2\n\n")
        with pytest.raises(ValidationError, match=r"line 2\b"):
            read_annotations(path)
