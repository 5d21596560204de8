import dataclasses
import math
import pickle
import subprocess
import sys
import warnings
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit

from credal import measures
from credal.dro import LinearLogistic, ThresholdClassifier
from credal.harness import SCHEMA_VERSION, ConfigError, validate_config
from credal.measures import (
    ABS_TOL,
    DiscreteGrid,
    Gaussian,
    Interval,
    MeasureError,
    Probit,
    QuadratureError,
    Sigmoid,
    SupportError,
    SymmetricNoise,
    Tabular,
    Threshold,
    ValidationError,
    conditional_tv,
    expected_conditional_tv,
    joint_tv_exact,
    joint_tv_many,
    sup_conditional_tv,
    tv_discrete,
    tv_env,
    _densities,
    _worklist,
)

from oracles import (
    discrete_joint_pmf,
    gaussian_tv_via_crossings,
    prob_matrix_by_hand,
    quadrature_joint_tv,
    sup_link_tv_scan,
    threshold_pair_disagreement,
    tv_subset_brute_force,
)

TOL = ABS_TOL


@st.composite
def simplex(draw, size=None):
    n = size or draw(st.integers(min_value=2, max_value=8))
    raw = draw(
        st.lists(st.floats(min_value=1e-3, max_value=1e3), min_size=n, max_size=n)
    )
    arr = np.asarray(raw)
    return arr / arr.sum()


class TestTvDiscrete:
    def test_identity(self):
        assert tv_discrete((1.0, 0.0), (1.0, 0.0)) == 0.0

    def test_worked_example(self):
        assert tv_discrete((0.7, 0.3), (0.4, 0.6)) == pytest.approx(0.3, abs=1e-12)
        # equals the sup over all 4 event subsets
        assert tv_subset_brute_force((0.7, 0.3), (0.4, 0.6)) == pytest.approx(0.3)

    def test_disjoint_support(self):
        assert tv_discrete((1.0, 0.0), (0.0, 1.0)) == 1.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            tv_discrete((1.0, 0.0), (1.0, 0.0, 0.0))

    def test_off_simplex(self):
        with pytest.raises(ValidationError):
            tv_discrete((0.9, 0.3), (0.5, 0.5))
        with pytest.raises(ValidationError):
            tv_discrete((math.nan, 1.0), (0.0, 1.0))

    @given(simplex(), simplex())
    @settings(max_examples=60, deadline=None)
    def test_matches_subset_brute_force(self, p, q):
        n = min(p.size, q.size)
        p = p[:n] / p[:n].sum()
        q = q[:n] / q[:n].sum()
        assert tv_discrete(p, q) == pytest.approx(tv_subset_brute_force(p, q), abs=1e-12)

    def test_matches_subset_brute_force_at_c12(self):
        rng = np.random.default_rng(12)
        for _ in range(3):
            p = rng.dirichlet(np.ones(12))
            q = rng.dirichlet(np.ones(12))
            assert tv_discrete(p, q) == pytest.approx(tv_subset_brute_force(p, q), abs=1e-12)

    @given(simplex(size=4), simplex(size=4), simplex(size=4))
    @settings(max_examples=60, deadline=None)
    def test_metric_properties(self, p, q, r):
        assert tv_discrete(p, q) == pytest.approx(tv_discrete(q, p), abs=1e-12)
        assert tv_discrete(p, r) <= tv_discrete(p, q) + tv_discrete(q, r) + 1e-9


class TestEnvironmentTypes:
    def test_gaussian_validation(self):
        with pytest.raises(ValidationError):
            Gaussian(0.0, 0.0)
        with pytest.raises(ValidationError):
            Gaussian(math.inf, 1.0)

    def test_gaussian_cdf_non_finite_inputs(self):
        got = Gaussian(0.4, 1.3).cdf([-math.inf, math.nan, math.inf])
        assert got[0] == 0.0 and math.isnan(got[1]) and got[2] == 1.0

    def test_grid_validation(self):
        with pytest.raises(ValidationError):
            DiscreteGrid((0.0, 0.0), (0.5, 0.5))
        with pytest.raises(ValidationError):
            DiscreteGrid((0.0, 1.0), (0.6, 0.5))
        with pytest.raises(ValidationError):
            DiscreteGrid((0.0, 1.0), (-0.1, 1.1))
        with pytest.raises(ValidationError):
            DiscreteGrid((0.0, 1.0), (math.nan, 1.0))

    def test_labeler_validation(self):
        with pytest.raises(ValidationError):
            Interval(1.0, 1.0)
        with pytest.raises(ValidationError):
            SymmetricNoise(Threshold(0.0), 0.6)
        with pytest.raises(ValidationError):
            SymmetricNoise(Sigmoid(1.0, 0.0), 0.1)
        with pytest.raises(ValidationError):
            Tabular((0.0, 1.0), ((0.5, 0.6), (0.5, 0.5)))
        with pytest.raises(ValidationError):
            Tabular((0.0, math.inf), ((0.5, 0.5), (0.5, 0.5)))
        with pytest.raises(ValidationError):
            Tabular((0.0, 1.0), ((math.nan, 1.0), (0.5, 0.5)))

    def test_quadrature_config_validation(self):
        # there is one integration engine at one tolerance, measures.ABS_TOL:
        # no method to pick, no node count, tolerance or window to set
        for key, value in (("node_count", 8), ("method", "romberg"), ("method", "grid"), ("method", "gauss_hermite"),
                           ("abs_tol", 1e-8), ("domain_halfwidth_sigmas", 8.0)):
            doc = {"schema_version": SCHEMA_VERSION, "experiment": "gating_curve", "quadrature": {key: value}}
            with pytest.raises(ConfigError, match=r"unknown keys in config: \['quadrature'\]"):
                validate_config(doc)


CRISP_LABELERS = [
    Threshold(0.3),
    Threshold(math.inf),
    Threshold(-math.inf),
    Interval(-0.5, 1.2),
    SymmetricNoise(Interval(-0.5, 1.2), 0.0),
    ThresholdClassifier(0.3, 1),
    ThresholdClassifier(0.3, -1),
    LinearLogistic(2.0, -1.0),
    LinearLogistic(0.0, 0.5),
    LinearLogistic(0.0, -0.5),
]


class TestLabelerProtocol:
    @pytest.mark.parametrize("labeler", CRISP_LABELERS, ids=repr)
    def test_prob_matrix_is_one_hot_of_labels(self, labeler):
        x = np.asarray([-3.0, -0.5, 0.3, 0.5, 1.2, 4.0])
        crisp = labeler.base if isinstance(labeler, SymmetricNoise) else labeler
        want = np.zeros((x.size, 2))
        want[np.arange(x.size), crisp.labels(x)] = 1.0
        assert np.array_equal(labeler.prob_matrix(x), want)
        assert labeler.class_count == 2

    def test_tabular_matches_grid_points_within_1e12(self):
        tab = Tabular((-1.0, 0.0, 2.5), ((0.9, 0.1), (0.3, 0.7), (0.6, 0.4)))
        x = np.asarray([2.5, -1.0 + 5e-13, -5e-13, 0.0, 2.5 - 5e-13])
        assert np.array_equal(tab.prob_matrix(x)[:, 1], [0.4, 0.1, 0.7, 0.7, 0.4])
        for off in (-1.0 - 1e-9, 1.25, 2.5 + 1e-9, math.inf, math.nan):
            with pytest.raises(SupportError):
                tab.prob_matrix(np.asarray([0.0, off]))

    def test_tabular_arrays_are_not_fields(self):
        # prob_matrix's arrays are built at construction; equality, hash,
        # repr and pickling still see only the two tuples
        tab = Tabular((-1.0, 0.0, 2.5), ((0.9, 0.1), (0.3, 0.7), (0.6, 0.4)))
        same = Tabular([-1, 0, 2.5], [[0.9, 0.1], [0.3, 0.7], [0.6, 0.4]])
        assert [f.name for f in dataclasses.fields(tab)] == ["grid", "probs"]
        assert tab == same and hash(tab) == hash(same)
        assert tab != Tabular((-1.0, 0.0, 2.5), ((0.9, 0.1), (0.3, 0.7), (0.5, 0.5)))
        assert repr(tab) == "Tabular(grid=(-1.0, 0.0, 2.5), probs=((0.9, 0.1), (0.3, 0.7), (0.6, 0.4)))"
        back = pickle.loads(pickle.dumps(tab))
        assert back == tab and hash(back) == hash(tab) and repr(back) == repr(tab)
        x = np.asarray([2.5, -1.0, 0.0, 0.0])
        assert np.array_equal(back.prob_matrix(x), tab.prob_matrix(x))
        # every result is a fresh array, a scalar point's row included
        row = tab.prob_matrix(np.asarray(0.0))
        row[:] = 7.0
        assert np.array_equal(tab.prob_matrix(np.asarray(0.0)), [0.3, 0.7])
        for t in (tab, back):
            with pytest.raises(SupportError):
                t.prob_matrix(np.asarray([0.0, 1.25]))


class TestTvEnv:
    def test_identical_gaussians(self):
        assert tv_env(Gaussian(0, 1), Gaussian(0, 1)) == 0.0

    def test_unit_shift_closed_form(self):
        # 2*Phi(0.5) - 1
        assert tv_env(Gaussian(0, 1), Gaussian(1, 1)) == pytest.approx(0.3829249, abs=1e-6)

    def test_grid_pair_matches_discrete(self):
        e1 = DiscreteGrid((0.0, 1.0), (0.7, 0.3))
        e2 = DiscreteGrid((0.0, 1.0), (0.4, 0.6))
        assert tv_env(e1, e2) == pytest.approx(0.3, abs=1e-12)

    def test_mixed_supports_rejected(self):
        with pytest.raises(SupportError):
            tv_env(Gaussian(0, 1), DiscreteGrid((0.0,), (1.0,)))

    def test_closed_form_matches_quadrature(self):
        e1, e2 = Gaussian(0.3, 1.2), Gaussian(1.1, 1.2)
        closed = tv_env(e1, e2)
        assert closed == pytest.approx(2.0 * NormalDist().cdf(0.8 / 2.4) - 1.0, abs=1e-15)
        # a std 1e-9 apart has two density crossings instead of one midpoint
        e2b = Gaussian(1.1, 1.2 * (1 + 1e-9))
        assert tv_env(e1, e2b) == pytest.approx(closed, abs=1e-6)

    @pytest.mark.parametrize(
        "m1,s1,m2,s2",
        [(0.0, 1.0, 1.5, 0.7), (-2.0, 0.5, 1.0, 2.0), (0.0, 1.0, 0.0, 3.0)],
    )
    def test_unequal_std_matches_crossing_oracle(self, m1, s1, m2, s2):
        got = tv_env(Gaussian(m1, s1), Gaussian(m2, s2))
        assert got == pytest.approx(gaussian_tv_via_crossings(m1, s1, m2, s2), abs=1e-7)

    def test_seeded_unequal_std_match_crossing_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(600):
            m1, m2 = rng.uniform(-3, 3, size=2)
            s1, s2 = 10.0 ** rng.uniform(-2.5, 1, size=2)
            got = tv_env(Gaussian(m1, s1), Gaussian(m2, s2))
            assert got == pytest.approx(gaussian_tv_via_crossings(m1, s1, m2, s2), abs=TOL)

    def test_narrow_far_apart_gaussians_are_disjoint(self):
        # the narrow density is invisible to samples spread over the wide window
        e1, e2 = Gaussian(-1.53, 0.0575), Gaussian(2.33, 0.00789)
        assert tv_env(e1, e2) == 1.0
        assert joint_tv_exact(e1, Sigmoid(1.0, 0.0), e2, Sigmoid(2.0, -1.0)) == pytest.approx(1.0, abs=TOL)


class TestConditionalTv:
    def test_thresholds_disagreement_band(self):
        assert conditional_tv(Threshold(-1), Threshold(1), 0.0) == 1.0
        assert conditional_tv(Threshold(-1), Threshold(1), 2.0) == 0.0

    def test_sigmoid_pair(self):
        got = conditional_tv(Sigmoid(1, -1), Sigmoid(1, 1), 0.0)
        sig = lambda z: 1.0 / (1.0 + math.exp(-z))
        assert got == pytest.approx(sig(1) - sig(-1), abs=1e-12)
        assert got == pytest.approx(0.4621, abs=1e-4)

    def test_class_count_mismatch(self):
        tab3 = Tabular((0.0,), ((0.2, 0.3, 0.5),))
        with pytest.raises(ValidationError):
            conditional_tv(Threshold(0.0), tab3, 0.0)

    def test_tabular_off_grid(self):
        tab = Tabular((0.0, 1.0), ((1.0, 0.0), (0.0, 1.0)))
        with pytest.raises(SupportError):
            conditional_tv(tab, tab, 0.5)

    def test_symmetric_noise_vectors(self):
        noisy = SymmetricNoise(Threshold(0.0), 0.2)
        assert conditional_tv(noisy, Threshold(0.0), 1.0) == pytest.approx(0.2)

    def test_nan_value_is_an_error(self):
        # a NaN TV is reported, not clamped to 0
        with pytest.raises(MeasureError):
            conditional_tv(Sigmoid(1.0, 0.0), Sigmoid(2.0, 0.0), math.nan)


class TestExpectedConditionalTv:
    def test_population_diameters_from_paper_configs(self):
        t = (Threshold(-1), Threshold(1))
        assert expected_conditional_tv(Gaussian(0, 1), *t) == pytest.approx(0.6827, abs=1e-4)
        assert expected_conditional_tv(Gaussian(0, 2), *t) == pytest.approx(0.3829, abs=1e-4)
        assert expected_conditional_tv(Gaussian(2, 1), *t) == pytest.approx(0.1573, abs=1e-4)

    def test_identical_labelers(self):
        assert expected_conditional_tv(Gaussian(0, 1), Threshold(0), Threshold(0)) == 0.0

    def test_threshold_exact_matches_phi_oracle(self):
        env = Gaussian(0.7, 1.4)
        got = expected_conditional_tv(env, Threshold(-0.5), Threshold(2.0))
        assert got == pytest.approx(threshold_pair_disagreement(0.7, 1.4, -0.5, 2.0), abs=1e-14)

    def test_steep_shifted_sigmoids_resolve_their_gap(self):
        # two steep transitions 0.01 apart: the disagreement is the mass between them
        got = expected_conditional_tv(Gaussian(0, 1), Sigmoid(1e4, 0.0), Sigmoid(1e4, -100.0))
        assert got == pytest.approx(NormalDist().cdf(0.01) - 0.5, abs=TOL)

    def test_discrete_env_weighted_sum(self):
        env = DiscreteGrid((-1.0, 0.5), (0.25, 0.75))
        got = expected_conditional_tv(env, Threshold(0), Threshold(1))
        # by hand: x=-1 -> labels (0,0) agree; x=0.5 -> labels (1,0) differ
        assert got == pytest.approx(0.75, abs=1e-12)

    def test_threshold_monotone_in_gap(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            env = Gaussian(float(rng.uniform(-2, 2)), float(rng.uniform(0.3, 2.5)))
            mid = float(rng.uniform(-2, 2))
            gaps = np.sort(rng.uniform(0.0, 3.0, size=4))
            vals = [
                expected_conditional_tv(env, Threshold(mid - g), Threshold(mid + g))
                for g in gaps
            ]
            assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_jump_at_split_point_is_resolved(self):
        # the Threshold's jump sits at a cut; the right segment's end value
        # must be its one-sided limit, or all five first samples agree and
        # the integral accepts a value near 0
        env = Gaussian(-0.45253765953320735, 1.907039479456706)
        l1, l2 = Threshold(-1.899068975581462), Sigmoid(10.0, -1.0467212200648612)
        got = expected_conditional_tv(env, l1, l2)
        assert got == pytest.approx(quadrature_joint_tv(env, l1, env, l2), abs=1e-8)

    def test_mixed_crisp_stochastic_pairs_default_config(self):
        # seed 3 holds one case (the 27th) whose five first samples agree;
        # splitting at a cut without one-sided limits returned 3.8e-13 there
        # against a true 0.168
        rng = np.random.default_rng(3)
        crisp = [
            lambda: Threshold(float(rng.uniform(-2, 2))),
            lambda: Interval(*sorted(rng.uniform(-2.5, 2.5, size=2).tolist())),
            lambda: SymmetricNoise(Threshold(float(rng.uniform(-2, 2))), float(rng.uniform(0, 0.4))),
        ]
        smooth = [
            lambda: Sigmoid(float(rng.choice([-1, 1]) * rng.uniform(0.5, 10)), float(rng.uniform(-2, 2))),
            lambda: Probit(float(rng.choice([-1, 1]) * rng.uniform(0.5, 5)), float(rng.uniform(-1.5, 1.5))),
        ]
        for _ in range(60):
            env = Gaussian(float(rng.uniform(-2, 2)), float(rng.uniform(0.4, 2.0)))
            l1, l2 = crisp[rng.integers(3)](), smooth[rng.integers(2)]()
            if rng.random() < 0.5:
                l1, l2 = l2, l1
            got = expected_conditional_tv(env, l1, l2)
            assert got == pytest.approx(quadrature_joint_tv(env, l1, env, l2), abs=1e-8)

    def test_noise_pair_kink_handled(self):
        # symmetric-noise pairs have jump discontinuities; quadrature must split
        env = Gaussian(0, 1)
        a = SymmetricNoise(Threshold(-0.5), 0.1)
        b = SymmetricNoise(Threshold(0.5), 0.3)
        got = expected_conditional_tv(env, a, b)
        assert got == pytest.approx(quadrature_joint_tv(env, a, env, b), abs=TOL)


def steep_link_pairs(count=300, seed=11):
    """Seeded Sigmoid/Probit pairs with |slope| 10^U(-1, 2.5) of either sign and bias U(-3, 3)*|slope|."""
    rng = np.random.default_rng(seed)

    def link():
        slope = float(10.0 ** rng.uniform(-1.0, 2.5) * rng.choice((-1.0, 1.0)))
        return (Sigmoid, Probit)[int(rng.integers(2))](slope, float(rng.uniform(-3.0, 3.0) * abs(slope)))

    return [(link(), link()) for _ in range(count)]


class TestSupConditionalTv:
    def test_threshold_pair_saturates(self):
        assert sup_conditional_tv(Threshold(-1), Threshold(1)) == 1.0

    def test_identical_labelers(self):
        assert sup_conditional_tv(Sigmoid(1, 0), Sigmoid(1, 0)) == 0.0
        assert sup_conditional_tv(Probit(-3, 2), Probit(-3, 2)) == 0.0

    def test_sigmoid_pair_maximizer_at_zero(self):
        want = float(expit(1.0) - expit(-1.0))
        assert want <= sup_conditional_tv(Sigmoid(1, -1), Sigmoid(1, 1)) <= want + measures._SUP_TOL

    def test_opposite_slopes_reach_their_limit(self):
        # the TV tends to 1 at +/-inf, beyond any window around the bulk
        assert sup_conditional_tv(Sigmoid(1, 0), Sigmoid(-1, 0)) == 1.0
        assert sup_conditional_tv(Probit(0.2, 3), Sigmoid(-5, 1)) == 1.0

    def test_near_identical_links(self):
        got = sup_conditional_tv(Sigmoid(1, 0), Sigmoid(1, 1e-6))
        assert 2.5e-7 - 1e-12 <= got <= 2.5e-7 + measures._SUP_TOL

    def test_steep_pair_dominates_a_dense_scan(self):
        l1, l2 = Sigmoid(1000, -300.1), Sigmoid(1000, -301.1)
        xs = np.linspace(0.25, 0.35, 4_000_001)
        scan = float(np.abs(expit(1000 * xs - 300.1) - expit(1000 * xs - 301.1)).max())
        got = sup_conditional_tv(l1, l2)
        assert got >= max(scan, 0.2449)
        assert got <= scan + measures._SUP_TOL + 1000 * 0.5 * 2.5e-8

    @pytest.mark.parametrize(
        "l1, l2, want",
        [
            (SymmetricNoise(Threshold(0), 0.1), SymmetricNoise(Threshold(0.5), 0.3), 0.9 - 0.3),
            (SymmetricNoise(Threshold(0), 0.2), Sigmoid(1, 0), 0.5 - 0.2),
            (Threshold(0), Probit(2, 0), 0.5),
            (Interval(-1, 1), Sigmoid(2, 0), 1.0),
            (Interval(-1, 1), Threshold(0), 1.0),
        ],
    )
    def test_crisp_noise_and_interval_pairs_are_exact(self, l1, l2, want):
        assert sup_conditional_tv(l1, l2) == pytest.approx(want, rel=0.0, abs=1e-15)

    def test_ulp_steep_link_against_its_threshold(self):
        # one float step moves the link by 3e-5: the value at the cut itself
        # (label 0 against P = 0.5) is the supremum
        assert sup_conditional_tv(Sigmoid(1e12, -1e12), Threshold(1.0)) == 0.5

    def test_seeded_steep_pairs_are_certified_against_the_scan(self):
        pairs = steep_link_pairs()
        got = measures._sup_tvs(pairs)
        for (l1, l2), value in zip(pairs, got.tolist()):
            scan, slack = sup_link_tv_scan(l1, l2)
            assert scan <= value <= scan + measures._SUP_TOL + slack, (l1, l2)

    def test_batch_equals_batches_of_one(self):
        pairs = steep_link_pairs(60, seed=5) + [
            (Sigmoid(1000, -300.1), Sigmoid(1000, -301.1)),
            (Sigmoid(1, 0), Sigmoid(1, 0)),
            (Threshold(0), Interval(-1, 1)),
            (SymmetricNoise(Interval(-1, 2), 0.3), Probit(-2, 1)),
        ]
        batch = measures._sup_tvs(pairs)
        assert batch.tolist() == [measures._sup_tvs([pair])[0] for pair in pairs]

    def test_points_give_the_maximum_over_them(self):
        pts = (-1.0, 0.0, 0.5, 2.0)
        l1, l2 = Tabular(pts, ((1, 0), (0.5, 0.5), (0.2, 0.8), (0, 1))), SymmetricNoise(Threshold(0.25), 0.1)
        want = max(0.5 * np.abs(prob_matrix_by_hand(l2, [x]) - l1.prob_matrix([x])).sum() for x in pts)
        assert sup_conditional_tv(l1, l2, pts) == want
        assert sup_conditional_tv(l1, l2, (0.0,)) == conditional_tv(l1, l2, 0.0) == 0.4

    def test_empty_points_rejected(self):
        for points in ((), np.zeros(0)):
            with pytest.raises(ValidationError, match="points is empty"):
                sup_conditional_tv(Threshold(0.0), Threshold(1.0), points)

    def test_class_counts_must_agree(self):
        three = Tabular((0.0,), ((0.2, 0.3, 0.5),))
        with pytest.raises(ValidationError):
            sup_conditional_tv(three, Threshold(0), (0.0,))

    def test_no_overflow_warning_escapes(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert sup_conditional_tv(Sigmoid(1e300, 0), Probit(-1e300, 1)) == 1.0
            # slope^2 overflows where the slope does not: the second-order bound is inf, not an error
            assert sup_conditional_tv(Sigmoid(1e155, 0), Probit(-1e155, 1)) == 1.0
            want = float(expit(0.5) - expit(-0.5))
            assert want <= sup_conditional_tv(Sigmoid(1e155, 0), Sigmoid(1e155, 1)) <= want + measures._SUP_TOL

    def test_crossing_spec_certificate_cost(self, monkeypatch):
        # the 10 labeler pairs of the benchmark's soft_set crossing spec
        # (bench/inputs._crossing_spec, rebuilt here from its stream): the
        # first-order cell bounds alone took 41,734 label evaluations; the
        # second-order bound must keep to a quarter of that
        r = np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy=0, spawn_key=(1,))))
        for _ in range(6):
            r.uniform(-2.0, 2.0), r.uniform(0.5, 2.0)  # the environments' means and stds
        labs = []
        for j in range(5):
            slope = float(r.uniform(0.5, 3.0)) * (1.0 if j % 2 == 0 else -1.0)
            labs.append((Sigmoid if j % 2 == 0 else Probit)(slope, -slope * float(r.uniform(-1.5, 1.5))))
        pairs = [(l1, l2) for k, l1 in enumerate(labs) for l2 in labs[k + 1 :]]
        evals, real = [], measures._label_probs

        def counting(labelers):
            probs = real(labelers)
            return lambda xs, slot: evals.append(np.broadcast(xs, slot).size) or probs(xs, slot)

        monkeypatch.setattr(measures, "_label_probs", counting)
        got = measures._sup_tvs(pairs)
        assert sum(evals) <= 10_434
        for (l1, l2), value in zip(pairs, got.tolist()):
            scan, slack = sup_link_tv_scan(l1, l2)
            assert scan <= value <= scan + measures._SUP_TOL + slack, (l1, l2)


class TestJointTvExact:
    def test_reduces_to_expected_conditional(self):
        got = joint_tv_exact(Gaussian(0, 1), Threshold(-1), Gaussian(0, 1), Threshold(1))
        want = expected_conditional_tv(Gaussian(0, 1), Threshold(-1), Threshold(1))
        assert got == pytest.approx(want, abs=2e-8)

    def test_reduces_to_tv_env(self):
        got = joint_tv_exact(Gaussian(0, 1), Threshold(0), Gaussian(1, 1), Threshold(0))
        assert got == pytest.approx(tv_env(Gaussian(0, 1), Gaussian(1, 1)), abs=2e-8)

    def test_identical_pairs_vanish(self):
        assert joint_tv_exact(Gaussian(0, 1), Sigmoid(1, 0), Gaussian(0, 1), Sigmoid(1, 0)) == pytest.approx(0.0, abs=1e-10)

    def test_deterministic_path_matches_dense_oracle(self):
        e1, e2 = Gaussian(-0.5, 1.0), Gaussian(1.3, 0.8)
        l1, l2 = Threshold(-1.0), Interval(-0.2, 1.7)
        got = joint_tv_exact(e1, l1, e2, l2)
        assert got == pytest.approx(quadrature_joint_tv(e1, l1, e2, l2), abs=1e-6)

    def test_smooth_path_matches_dense_oracle(self):
        e1, e2 = Gaussian(0.0, 1.0), Gaussian(0.8, 1.5)
        l1, l2 = Sigmoid(2.0, -1.0), Probit(1.0, 0.5)
        got = joint_tv_exact(e1, l1, e2, l2)
        assert got == pytest.approx(quadrature_joint_tv(e1, l1, e2, l2), abs=1e-6)

    def test_prop_identities_on_random_triples(self):
        rng = np.random.default_rng(7)
        families = [
            lambda: Threshold(float(rng.uniform(-2, 2))),
            lambda: Sigmoid(float(rng.uniform(0.5, 3)), float(rng.uniform(-2, 2))),
            lambda: Interval(*sorted(rng.uniform(-2.5, 2.5, size=2))),
            lambda: Probit(float(rng.uniform(0.5, 2)), float(rng.uniform(-1.5, 1.5))),
        ]
        for _ in range(200):
            env = Gaussian(float(rng.uniform(-2, 2)), float(rng.uniform(0.4, 2.0)))
            l1 = families[rng.integers(len(families))]()
            l2 = families[rng.integers(len(families))]()
            lhs = joint_tv_exact(env, l1, env, l2)
            rhs = expected_conditional_tv(env, l1, l2)
            assert lhs == pytest.approx(rhs, abs=2 * TOL)

        for _ in range(200):
            e1 = Gaussian(float(rng.uniform(-2, 2)), float(rng.uniform(0.4, 2.0)))
            e2 = Gaussian(float(rng.uniform(-2, 2)), float(rng.uniform(0.4, 2.0)))
            lab = families[rng.integers(len(families))]()
            lhs = joint_tv_exact(e1, lab, e2, lab)
            rhs = tv_env(e1, e2)
            assert lhs == pytest.approx(rhs, abs=2 * TOL)

    def test_symmetry_and_triangle_on_random_triples(self):
        rng = np.random.default_rng(13)
        for _ in range(40):
            envs = [Gaussian(float(rng.uniform(-1.5, 1.5)), float(rng.uniform(0.5, 1.5))) for _ in range(3)]
            labs = [Threshold(float(rng.uniform(-2, 2))) for _ in range(3)]
            d = {}
            for a in range(3):
                for b in range(3):
                    d[(a, b)] = joint_tv_exact(envs[a], labs[a], envs[b], labs[b])
            for a in range(3):
                for b in range(3):
                    assert d[(a, b)] == pytest.approx(d[(b, a)], abs=2 * TOL)
            assert d[(0, 2)] <= d[(0, 1)] + d[(1, 2)] + 2 * TOL

    def test_grid_partition_matches_joint_pmf_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            pts = tuple(np.sort(rng.uniform(-3, 3, 12)).tolist())
            env = DiscreteGrid(pts, tuple(rng.dirichlet(np.ones(12)).tolist()))
            classes = int(rng.integers(2, 5))
            l1, l2 = (
                Tabular(pts, tuple(tuple(r) for r in rng.dirichlet(np.ones(classes), size=12)))
                for _ in range(2)
            )
            ect = expected_conditional_tv(env, l1, l2)
            assert ect == joint_tv_exact(env, l1, env, l2)
            want = 0.5 * float(np.abs(discrete_joint_pmf(env, l1) - discrete_joint_pmf(env, l2)).sum())
            assert ect == pytest.approx(want, abs=1e-14)

    def test_grid_spec_joint(self):
        e1 = DiscreteGrid((0.0, 1.0), (0.7, 0.3))
        e2 = DiscreteGrid((0.0, 1.0), (0.4, 0.6))
        tab = Tabular((0.0, 1.0), ((1.0, 0.0), (0.0, 1.0)))
        assert joint_tv_exact(e1, tab, e2, tab) == pytest.approx(0.3, abs=1e-12)


class TestJointTvMany:
    def test_batched_values_equal_batch_of_one(self):
        rng = np.random.default_rng(29)
        families = [
            lambda: Threshold(float(rng.uniform(-2, 2))),
            lambda: Interval(*sorted(rng.uniform(-2.5, 2.5, size=2))),
            lambda: Sigmoid(float(rng.uniform(-4, 4)), float(rng.uniform(-2, 2))),
            lambda: Probit(float(rng.uniform(-3, 3)), float(rng.uniform(-1.5, 1.5))),
            lambda: SymmetricNoise(Threshold(float(rng.uniform(-2, 2))), float(rng.uniform(0, 0.5))),
        ]
        envs = [Gaussian(float(rng.uniform(-1.5, 1.5)), float(rng.uniform(0.4, 2.0))) for _ in range(4)]
        labs = [families[k % len(families)]() for k in range(8)]
        # an equal but distinct labeler object, and an identical environment copy
        labs.append(Sigmoid(labs[2].slope, labs[2].bias))
        envs.append(Gaussian(envs[0].mean, envs[0].std))
        pairs = []
        for _ in range(150):
            i, ip = rng.integers(len(envs), size=2)
            j, jp = rng.integers(len(labs), size=2)
            pairs.append((envs[i], labs[j], envs[ip], labs[jp]))
        pairs.append((envs[0], labs[2], envs[4], labs[8]))
        # probit links under one environment object (a closed-form kink) and under its equal copy (scanned)
        pairs += [(envs[0], labs[3], envs[0], Probit(-labs[3].kappa, 0.4)), (envs[0], labs[3], envs[4], Probit(2.0, 0.4))]
        # a logistic and a probit link under one environment object, under a
        # second one (one solve for both) and under a joint shift, in one block
        pairs += [(envs[1], labs[2], envs[1], labs[3]), (envs[2], labs[2], envs[2], labs[3]), (envs[1], labs[2], envs[2], labs[3])]
        pts = (-1.0, 0.0, 1.5)
        grid = DiscreteGrid(pts, (0.2, 0.5, 0.3))
        pairs.append((grid, Tabular(pts, ((0.9, 0.1), (0.4, 0.6), (0.5, 0.5))), grid, Threshold(0.5)))
        single = [joint_tv_exact(*pair) for pair in pairs]
        assert joint_tv_many(pairs) == single
        assert joint_tv_many(pairs[::-1]) == single[::-1]
        assert joint_tv_many([]) == []

    def test_exact_partition_batch_equals_batch_of_one(self):
        # one seeded batch of every exact kind: Gaussian pairs with crisp
        # labelers (thresholds at +/-inf, intervals, classifiers of both
        # orientations; equal and unequal stds with 0, 1 and 2 density
        # crossings, and one environment object on both sides) and grid pairs
        # whose union has 2 to 32 atoms, some under 3-class tabulars, so that
        # rows of under and over 8 cells share the batch
        rng = np.random.default_rng(17)
        crisp = [
            Threshold(math.inf),
            Threshold(-math.inf),
            Interval(-0.7, 0.4),
            ThresholdClassifier(0.3, 1),
            ThresholdClassifier(-0.2, -1),
            *(Threshold(float(t)) for t in rng.uniform(-2, 2, 3)),
        ]
        envs = [Gaussian(0.0, 1.0), Gaussian(0.8, 1.0), Gaussian(0.0, 1.0), Gaussian(0.5, 1.7), Gaussian(-1.0, 0.4)]
        pairs, oracle = [], []
        for _ in range(120):
            e1 = envs[rng.integers(len(envs))]
            e2 = e1 if rng.random() < 0.3 else envs[rng.integers(len(envs))]
            l1, l2 = crisp[rng.integers(len(crisp))], crisp[rng.integers(len(crisp))]
            pairs.append((e1, l1, e2, l2))
            oracle.append(None)
        for e1 in envs:
            for e2 in envs:
                pairs.append((e1, crisp[0], e2, crisp[0]))
                oracle.append(gaussian_tv_via_crossings(e1.mean, e1.std, e2.mean, e2.std))
            t1, t2 = crisp[5:7]
            pairs.append((e1, t1, e1, t2))
            oracle.append(threshold_pair_disagreement(e1.mean, e1.std, t1.theta, t2.theta))
        atoms = np.round(np.sort(rng.uniform(-3, 3, 40)), 6)
        for _ in range(60):
            union = np.sort(rng.choice(atoms, int(rng.integers(2, 33)), replace=False))
            own = [np.sort(rng.choice(union, int(rng.integers(1, union.size + 1)), replace=False)) for _ in range(2)]
            # the union of the two supports is the whole of `union`
            own[1] = np.union1d(own[1], np.setdiff1d(union, own[0]))
            g1, g2 = (DiscreteGrid(tuple(p), tuple(rng.dirichlet(np.ones(p.size)))) for p in own)
            if rng.random() < 0.5:
                l1, l2 = (Tabular(tuple(union), tuple(map(tuple, rng.dirichlet(np.ones(3), union.size)))) for _ in range(2))
            else:
                l1, l2 = crisp[rng.integers(len(crisp))], crisp[rng.integers(len(crisp))]
            pairs.append((g1, l1, g2, l2))
            tables = [
                {x: row for x, row in zip(g.points, discrete_joint_pmf(g, lab))} for g, lab in ((g1, l1), (g2, l2))
            ]
            zero = np.zeros(l1.class_count)
            oracle.append(0.5 * sum(float(np.abs(tables[0].get(x, zero) - tables[1].get(x, zero)).sum()) for x in union))
        single = [joint_tv_exact(*pair) for pair in pairs]
        assert joint_tv_many(pairs) == single
        assert joint_tv_many(pairs[::-1]) == single[::-1]
        checked = [(value, want) for value, want in zip(single, oracle) if want is not None]
        assert len(checked) == 90
        for value, want in checked:
            assert value == pytest.approx(want, abs=1e-12)

    def test_budget_exhaustion_names_its_integral(self, monkeypatch):
        # at an unreachable tolerance every nonzero integral refines until
        # its budget runs out: `fast` runs out two passes before `hard` (two
        # density crossings), which is still refining; the identical pair is
        # exactly 0 in one pass
        monkeypatch.setattr(measures, "ABS_TOL", 1e-300)
        same = (Gaussian(0, 1), Sigmoid(1.0, 0.0), Gaussian(0, 1), Sigmoid(1.0, 0.0))
        fast = (Gaussian(0, 1), Sigmoid(1.0, 0.0), Gaussian(0, 1), Sigmoid(1.5, 0.0))
        hard = (Gaussian(0, 1), Sigmoid(2.0, -1.0), Gaussian(0.5, 1.5), Probit(1.0, 0.5))
        with pytest.raises(QuadratureError) as alone:
            joint_tv_exact(*fast)
        with pytest.raises(QuadratureError) as batched:
            joint_tv_many([same, hard, fast, same])
        assert batched.value.residual == alone.value.residual > 0
        assert joint_tv_many([same, same]) == [0.0, 0.0]
        # the error names the pair: its index in the call, and the pair itself
        assert (alone.value.integral, batched.value.integral) == (0, 2)
        assert str(batched.value).startswith(f"pair 2 {fast!r}: quadrature eval budget exhausted (residual estimate ")

    def test_exact_edge_cases_keep_their_pinned_bits(self):
        # each value's float.hex: coinciding, missing and overflowed cuts
        # must give these bits in a batch and alone
        pinned = [
            "0x1.307788dc1a51ap-1", "0x1.881d788cab1dcp-2", "0x1.14322f971e9acp-2", "0x1.0000000000000p+0",
            "0x1.7e079c28ccd14p-1", "0x1.b847fde16404ep-2", "0x1.50c82a388a7dap-1", "0x1.18d5cf2e401b1p-2",
            "0x1.5d0134f76de27p-1", "0x1.e4cbdc1b280bfp-2", "0x1.0000000000000p+0", "0x1.d0220056b3a4ep-3",
            "0x1.881d788cab1dcp-2", "0x1.fe513523aff64p-2", "0x1.fe513523aff64p-2",
        ]
        pairs = _edge_case_pairs()
        assert LinearLogistic(1e-310, 1e10).breakpoints() == (-math.inf,)
        assert LinearLogistic(-1e-310, 1e10).breakpoints() == (math.inf,)
        assert [joint_tv_exact(*pair).hex() for pair in pairs] == pinned
        assert [v.hex() for v in joint_tv_many(pairs)] == pinned

    def test_hard_spec_batch_equals_its_environment_pair_calls(self):
        # every vertex pair of a 20 x 10 threshold spec: one batch of several
        # exact blocks, one call per environment pair and one call per pair
        # give the same values
        rng = np.random.default_rng(53)
        envs = [Gaussian(float(m), float(s)) for m, s in zip(rng.uniform(-1, 1, 20), rng.uniform(0.5, 2, 20))]
        labs = [Threshold(float(t)) for t in rng.uniform(-1.5, 1.5, 10)]
        vertices = [(i, j) for i in range(len(envs)) for j in range(len(labs))]
        pairs = [(a, b) for k, a in enumerate(vertices) for b in vertices[k + 1 :]]
        batch = joint_tv_many([(envs[i], labs[j], envs[ip], labs[jp]) for (i, j), (ip, jp) in pairs])
        grouped = {}
        for k, ((i, j), (ip, jp)) in enumerate(pairs):
            grouped.setdefault((i, ip), []).append((k, (envs[i], labs[j], envs[ip], labs[jp])))
        per_env_pair = [0.0] * len(pairs)
        for members in grouped.values():
            for (k, _), v in zip(members, joint_tv_many([pair for _, pair in members])):
                per_env_pair[k] = v
        assert len(batch) == 19_900
        assert batch == per_env_pair
        assert batch == [joint_tv_exact(envs[i], labs[j], envs[ip], labs[jp]) for (i, j), (ip, jp) in pairs]

    def test_blocks_equal_batch_of_one(self):
        # more than one exact block of one (kind, class count) group, more
        # than two quadrature blocks, and exact Gaussian, 2-class grid and
        # 3-class grid pairs interleaved with the quadrature pairs
        rng = np.random.default_rng(61)
        envs = [Gaussian(float(m), float(s)) for m, s in zip(rng.uniform(-1, 1, 6), rng.uniform(0.5, 2, 6))]
        crisp = [Threshold(float(t)) for t in rng.uniform(-1.5, 1.5, 7)] + [Interval(-0.5, 0.8)]
        smooth = [Sigmoid(float(a), float(b)) for a, b in rng.uniform(-3, 3, (3, 2))]
        smooth += [Probit(1.5, -0.2), SymmetricNoise(Threshold(0.3), 0.2)]
        pts = (-1.0, 0.0, 1.5)
        grids = [DiscreteGrid(pts, tuple(rng.dirichlet(np.ones(3)))) for _ in range(3)]
        tabs = [Tabular(pts, tuple(map(tuple, rng.dirichlet(np.ones(3), 3)))) for _ in range(2)]
        gaussian = [(e1, l1, e2, l2) for e1 in envs for e2 in envs for l1 in crisp for l2 in crisp]
        quad = [
            (envs[k % 6], smooth[k % 5], envs[(k // 6) % 6], crisp[k % 8] if k % 4 else smooth[(k + 2) % 5])
            for k in range(70)
        ]
        two = [(g1, Threshold(0.5), g2, Threshold(-0.5)) for g1 in grids for g2 in grids]
        three = [(g1, t1, g2, t2) for g1 in grids for g2 in grids for t1 in tabs for t2 in tabs]
        assert len(gaussian) > measures._EXACT_BLOCK and len(quad) > 2 * measures._QUAD_BLOCK
        pairs = gaussian + quad + two + three
        order = rng.permutation(len(pairs))
        pairs = [pairs[k] for k in order]
        single = [joint_tv_many([pair])[0] for pair in pairs]
        assert joint_tv_many(pairs) == single
        assert joint_tv_many(pairs[::-1]) == single[::-1]


def _edge_case_pairs() -> list:
    """Exact Gaussian pairs whose cuts coincide, vanish or overflow."""
    g, shift, wide = Gaussian(0.0, 1.0), Gaussian(1.0, 1.0), Gaussian(0.4, 1.7)
    return [
        # a threshold exactly on the equal-std density crossing at 0.5
        (g, Threshold(0.5), shift, Threshold(-0.3)),
        (g, Threshold(0.5), shift, Threshold(0.5)),
        # two labelers sharing a breakpoint
        (g, Threshold(0.3), wide, ThresholdClassifier(0.3, 1)),
        (g, Threshold(0.3), wide, ThresholdClassifier(0.3, -1)),
        (wide, Interval(-0.4, 0.7), g, Threshold(0.7)),
        (wide, Interval(-0.4, 0.7), wide, Threshold(-0.4)),
        # no breakpoint, and a breakpoint that overflows to -inf / +inf
        (g, LinearLogistic(0.0, 1.0), wide, Threshold(0.2)),
        (g, LinearLogistic(0.0, -1.0), g, ThresholdClassifier(-0.6, -1)),
        (wide, LinearLogistic(1e-310, 1e10), g, Interval(-1.0, 0.5)),
        (wide, LinearLogistic(-1e-310, 1e10), shift, Threshold(0.1)),
        # constant thresholds
        (g, Threshold(math.inf), wide, Threshold(-math.inf)),
        (shift, Threshold(-math.inf), shift, Threshold(0.25)),
        (g, Threshold(math.inf), shift, Threshold(math.inf)),
        # one environment object on both sides, and an equal copy of it
        (wide, Interval(-0.2, 1.1), wide, ThresholdClassifier(0.5, -1)),
        (wide, Interval(-0.2, 1.1), Gaussian(0.4, 1.7), ThresholdClassifier(0.5, -1)),
    ]


def _every_family(rng) -> list:
    """Labelers of all seven binary families, with their edge cases."""
    return [
        Threshold(math.inf),
        Threshold(-math.inf),
        *(Threshold(float(t)) for t in rng.uniform(-2, 2, 2)),
        Interval(*sorted(rng.uniform(-2, 2, 2))),
        Interval(-0.5, 0.25),
        *(Sigmoid(float(a), float(b)) for a, b in rng.uniform(-5, 5, (3, 2))),
        Sigmoid(0.0, 0.7),
        *(Probit(float(a), float(b)) for a, b in rng.uniform(-5, 5, (3, 2))),
        Probit(0.0, -0.3),
        SymmetricNoise(Threshold(float(rng.uniform(-1, 1))), 0.1),
        SymmetricNoise(Interval(-0.7, 0.9), 0.35),
        SymmetricNoise(Threshold(0.2), 0.0),
        ThresholdClassifier(float(rng.uniform(-1, 1)), 1),
        ThresholdClassifier(float(rng.uniform(-1, 1)), -1),
        LinearLogistic(float(rng.uniform(-3, 3)), float(rng.uniform(-1, 1))),
        LinearLogistic(0.0, 0.4),
        LinearLogistic(0.0, -0.4),
    ]


class TestFamilyKernels:
    def test_prob_matrix_matches_hand_formula(self):
        rng = np.random.default_rng(41)
        x = np.concatenate([rng.normal(0, 3, 400), [-0.5, 0.0, 0.25, 0.9, 0.2]])
        for lab in _every_family(rng):
            # a zero slope times an infinite x has no value: a smooth link has
            # none, and a zero-weight LinearLogistic labels it class 0
            at = np.concatenate([x, [-math.inf, math.inf]]) if lab.is_deterministic else x
            with np.errstate(invalid="ignore"):
                assert (lab.prob_matrix(at) == prob_matrix_by_hand(lab, at)).all(), lab

    def test_joint_densities_equal_per_owner_products(self):
        # points of many owners over every family and stds from 0.003 to
        # 10: gathering each point's parameters by owner gives the bits of
        # each owner's own pdf and prob_matrix
        rng = np.random.default_rng(43)
        labs = _every_family(rng)
        envs = [Gaussian(float(m), float(s)) for m, s in zip(rng.uniform(-2, 2, 8), 10.0 ** rng.uniform(-2.5, 1, 8))]
        envs += [Gaussian(0.3, 0.003), Gaussian(-1.0, 10.0)]
        pairs = [
            (envs[i], labs[j], envs[ip], labs[jp])
            for i, j, ip, jp in zip(*(rng.integers(len(v), size=60) for v in (envs, labs, envs, labs)))
        ]
        own = rng.integers(len(pairs), size=3000)
        x = np.asarray([pairs[k][0].mean for k in own]) + rng.normal(0, 2, own.size)
        worlds = [p[a : a + 2] for a in (0, 2) for p in pairs]  # slot s * len(pairs) + k is side s of pair k
        probs, phi = _densities(worlds)(np.concatenate([x, x]), np.concatenate([own, own + len(pairs)]))
        j1, j2 = np.split(probs * phi[:, None], 2)
        for k, (e1, l1, e2, l2) in enumerate(pairs):
            at = own == k
            assert (j1[at] == e1.pdf(x[at])[:, None] * l1.prob_matrix(x[at])).all()
            assert (j2[at] == e2.pdf(x[at])[:, None] * l2.prob_matrix(x[at])).all()
        # one family and one labeler: the same values
        one = [(e1, labs[8]) for e1, _, _, _ in pairs]
        probs, phi = _densities(one)(x, own)
        pdfs = np.concatenate([[one[k][0].pdf(x[i : i + 1])[0]] for i, k in enumerate(own)])
        assert (phi == pdfs).all() and (probs == labs[8].prob_matrix(x)).all()
        assert (probs * phi[:, None] == pdfs[:, None] * labs[8].prob_matrix(x)).all()

    def test_mixed_hypothesis_batches_equal_batch_of_one(self):
        rng = np.random.default_rng(47)
        labs = _every_family(rng)
        envs = [Gaussian(-0.4, 0.7), Gaussian(0.5, 1.8), Gaussian(0.1, 0.05)]
        smooth = [lab for lab in labs if isinstance(lab, (Sigmoid, Probit))]
        pairs = []
        for _ in range(40):
            e1, e2 = (envs[i] for i in rng.integers(len(envs), size=2))
            s = smooth[rng.integers(len(smooth))]
            other = labs[rng.integers(len(labs))]
            pairs.append((e1, s, e2, other) if rng.random() < 0.5 else (e1, other, e1, s))
        single = [joint_tv_exact(*pair) for pair in pairs]
        assert joint_tv_many(pairs) == single
        assert joint_tv_many(pairs[::-1]) == single[::-1]

    def test_tabular_under_gaussian_in_mixed_batch_raises(self):
        g = Gaussian(0.0, 1.0)
        tab = Tabular((-1.0, 0.0, 1.0), ((0.9, 0.1), (0.5, 0.5), (0.2, 0.8)))
        pairs = [(g, Sigmoid(2.0, 0.1), g, Probit(-1.0, 0.2)), (g, tab, g, Sigmoid(1.0, 0.0)), (g, ThresholdClassifier(0.2, -1), g, Sigmoid(3.0, 0.0))]
        with pytest.raises(SupportError):
            joint_tv_many(pairs)
        with pytest.raises(SupportError):
            joint_tv_many(pairs[1:2])


class TestSteepCrossingLabelers:
    def test_seeded_pairs_match_resolving_oracle(self):
        # steep or crossing Sigmoid/Probit pairs, centred within 2 std of the
        # first environment: under it (an expected conditional TV) and against
        # a second environment (a joint TV)
        rng = np.random.default_rng(0)

        def labeler(env):
            slope = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(0, 4)
            centre = rng.uniform(env.mean - 2 * env.std, env.mean + 2 * env.std)
            return (Sigmoid if rng.random() < 0.5 else Probit)(slope, -slope * centre)

        for _ in range(200):
            e1 = Gaussian(rng.uniform(-2, 2), rng.uniform(0.3, 2))
            e2 = Gaussian(rng.uniform(-2, 2), rng.uniform(0.3, 2))
            l1, l2 = labeler(e1), labeler(e1)
            for env in (e1, e2):
                assert joint_tv_exact(e1, l1, env, l2) == pytest.approx(quadrature_joint_tv(e1, l1, env, l2), abs=TOL)

    def test_joint_densities_crossing_in_a_steep_transition(self):
        # phi1 p1(y|x) and phi2 p2(y|x) cross inside the probit's transition;
        # without a cut at that kink the integral settles 7e-8 off
        e1, l1 = Gaussian(1.3675703294710035, 0.550965207529706), Sigmoid(1.5243809568676774, -1.4134895960302603)
        e2, l2 = Gaussian(1.5648805906928946, 0.5036676132485229), Probit(306.5524708915743, -294.17949838981804)
        assert joint_tv_exact(e1, l1, e2, l2) == pytest.approx(quadrature_joint_tv(e1, l1, e2, l2), abs=TOL)

    def test_adversarial_pairs_meet_abs_tol(self):
        # 300 seeded pairs under the default config, every second one under
        # one environment object: Sigmoid/Probit links with |slope| in
        # 10^[-1, 2.5] and bias within 3 |slope| of 0, one in five a noisy
        # threshold or interval, and stds in 10^[-1.5, 1]; each value alone
        # has the bits it has in the batch
        rng = np.random.default_rng(23)

        def labeler():
            if rng.random() < 0.2:
                t = float(rng.uniform(-1, 1))
                base = Threshold(t) if rng.random() < 0.5 else Interval(t, t + float(10 ** rng.uniform(-1.5, 0.5)))
                return SymmetricNoise(base, float(rng.uniform(0, 0.5)))
            slope = float(rng.choice([-1.0, 1.0]) * 10 ** rng.uniform(-1, 2.5))
            return (Sigmoid if rng.random() < 0.5 else Probit)(slope, float(rng.uniform(-3, 3) * abs(slope)))

        def env():
            return Gaussian(float(rng.uniform(-1, 1)), float(10 ** rng.uniform(-1.5, 1)))

        pairs = []
        for k in range(300):
            e1 = env()
            pairs.append((e1, labeler(), e1 if k % 2 == 0 else env(), labeler()))
        got = joint_tv_many(pairs)
        for pair, value in zip(pairs, got):
            assert value == pytest.approx(quadrature_joint_tv(*pair), abs=TOL), pair
        assert got == [joint_tv_exact(*pair) for pair in pairs]

    def test_recorded_misses_meet_abs_tol(self):
        # a five-point rule whose first samples agreed put the first 4.65e-8
        # and the third 1.51e-8 low; two are under one environment object
        shared, other = Gaussian(0.5786, 0.2341), Gaussian(0.239, 0.152)
        pairs = [
            (shared, Probit(-28.04, 65.87), shared, Sigmoid(6.112, 4.821)),
            (Gaussian(0.1701, 0.0553), Probit(-13.58, -34.85), Gaussian(0.3836, 8.031), Probit(1.152, -2.336)),
            (other, Probit(0.237, -0.215), other, Probit(-0.361, -0.482)),
            # class 1's joint densities cross twice, 0.0175 apart, between
            # two kink-scan points: 4.2e-6 low unless the near touch is probed
            (
                Gaussian(0.733941685044444, 0.3496287695228823),
                Sigmoid(-61.520243622867184, 132.4526107356584),
                Gaussian(0.33879664546961985, 0.16948510951588347),
                Sigmoid(-0.6445124979265471, -1.1874910154735565),
            ),
            # a kink 0.0086 right of the interval's end: an oracle that scanned
            # from the cut itself missed it and was 2.3e-7 off (1.04e-7 at 256 panels)
            (
                Gaussian(-0.7441174361448306, 0.9156056807815092),
                SymmetricNoise(Threshold(0.7694275784976019), 0.23603786341925137),
                Gaussian(0.045131599108028775, 3.908641574064383),
                SymmetricNoise(Interval(0.8149842105859706, 1.1045679527738508), 0.4326447126952242),
            ),
        ]
        for pair in pairs:
            assert joint_tv_exact(*pair) == pytest.approx(quadrature_joint_tv(*pair), abs=TOL), pair

    def test_shared_environment_same_kind_links_take_the_closed_form(self, monkeypatch):
        # two links of one kind under one environment object cross only at
        # z1 = z2, with no scan: steep seeded pairs, near-equal and equal
        # slopes, and crossings outside the window; under an equal but
        # distinct copy of the environment (a joint shift) the scan finds them
        env = Gaussian(0.3, 1.2)
        pairs = [(l1, l2) for l1, l2 in steep_link_pairs(60, seed=19) if type(l1) is type(l2)]
        pairs += [
            (Sigmoid(1.0, 0.2), Sigmoid(1.0 + 1e-12, 0.2)),
            (Probit(1.0, 0.2), Probit(1.0 + 1e-12, -0.4)),
            (Sigmoid(-2.0, 0.5), Sigmoid(-2.0, -0.5)),
            (Probit(2.0, 0.5), Probit(2.0, 0.5)),
            (Sigmoid(3.0, 0.0), Sigmoid(2.0, 40.0)),
            (Probit(-1.5, 0.3), Probit(0.7, -30.0)),
        ]
        scanned, real = [], measures._kinks
        monkeypatch.setattr(measures, "_kinks", lambda joints, wins: scanned.extend(wins) or real(joints, wins))
        windows, work = [], measures._worklist
        monkeypatch.setattr(measures, "_worklist", lambda f, wins: windows.extend(wins) or work(f, wins))
        got = joint_tv_many([(env, l1, env, l2) for l1, l2 in pairs])
        assert scanned == [] and len(pairs) > 30
        # where P(1|x) of the two links changes order in the window, they agree at a cut
        for (l1, l2), (lo, hi, cuts) in zip(pairs, windows):
            xs = np.linspace(lo, hi, 10_001)
            d = l1.prob_matrix(xs)[:, 1] - l2.prob_matrix(xs)[:, 1]
            if d.min() < 0 < d.max():
                assert min(conditional_tv(l1, l2, x) for x in cuts if lo < x < hi) <= 1e-12, (l1, l2)
        for (l1, l2), value in zip(pairs, got):
            assert value == pytest.approx(quadrature_joint_tv(env, l1, env, l2, panels=256), abs=TOL), (l1, l2)
        copy = Gaussian(env.mean, env.std)
        shifted = joint_tv_many([(env, l1, copy, l2) for l1, l2 in pairs])
        assert len(scanned) == len(pairs)
        for (l1, l2), value, want in zip(pairs, shifted, got):
            assert value == pytest.approx(want, abs=TOL), (l1, l2)

    def test_shared_environment_mixed_links_take_the_closed_form(self, monkeypatch):
        # a logistic and a probit link under one environment object cross
        # where g(z) = r z + c, g = logit o Phi, with no scan: steep seeded
        # pairs, one crossing (r <= 4 phi(0)) and three, a near tangent on
        # either side of 0, slopes of opposite sign, zero slopes and
        # crossings outside the window; each labeler pair is solved once per
        # call, and under an equal copy of the environment the scan finds them
        from scipy.optimize import brentq
        from scipy.special import log_ndtr

        def g(z):
            return float(log_ndtr(z) - log_ndtr(-z))

        # the probit's z = x; where g'(z) = 3 the middle extremum of F = g - 3 z - c sits 5e-10 from 0
        tangent = brentq(lambda z: math.exp(-0.5 * z * z - log_ndtr(z) - log_ndtr(-z)) / math.sqrt(2 * math.pi) - 3.0, 0.0, 3.0)
        env = Gaussian(0.3, 1.2)
        pairs = [(l1, l2) for l1, l2 in steep_link_pairs(60, seed=19) if type(l1) is not type(l2)]
        pairs += [
            (Sigmoid(1.2, 0.3), Probit(1.0, 0.0)),
            (Probit(1.0, 0.0), Sigmoid(3.0, 0.3)),
            (Sigmoid(3.0, g(tangent) - 3.0 * tangent + 5e-10), Probit(1.0, 0.0)),
            (Sigmoid(3.0, g(tangent) - 3.0 * tangent - 5e-10), Probit(1.0, 0.0)),
            (Sigmoid(-2.0, 0.5), Probit(1.5, -0.2)),
            (Probit(-0.8, 0.1), Sigmoid(4.0, -1.0)),
            (Sigmoid(0.0, 0.4), Probit(1.3, 0.2)),
            (Probit(0.0, -0.3), Sigmoid(2.0, 0.1)),
            (Sigmoid(0.0, 0.3), Probit(0.0, 0.1)),
            (Sigmoid(1.5, -30.0), Probit(1.0, -18.0)),
        ]
        assert len(measures._link_crossings(*pairs[-9])) == 3
        scanned, real = [], measures._kinks
        monkeypatch.setattr(measures, "_kinks", lambda joints, wins: scanned.extend(wins) or real(joints, wins))
        windows, work = [], measures._worklist
        monkeypatch.setattr(measures, "_worklist", lambda f, wins: windows.extend(wins) or work(f, wins))
        solved, solve = [], measures._link_crossings
        monkeypatch.setattr(measures, "_link_crossings", lambda l1, l2: solved.append((l1, l2)) or solve(l1, l2))
        got = joint_tv_many([(env, l1, env, l2) for l1, l2 in pairs])
        assert scanned == [] and len(pairs) > 30 and len(solved) == len(set(solved)) == len(pairs)
        # where P(1|x) of the two links changes order in the window, they agree at a cut inside the change
        near = np.linspace(tangent - 1e-4, tangent + 1e-4, 2_001)
        for (l1, l2), (lo, hi, cuts) in zip(pairs, windows):
            xs = np.sort(np.concatenate([np.linspace(lo, hi, 10_001), near]))
            d = l1.prob_matrix(xs)[:, 1] - l2.prob_matrix(xs)[:, 1]
            for k in np.flatnonzero(d[:-1] * d[1:] < 0):
                assert min(conditional_tv(l1, l2, x) for x in cuts if xs[k] <= x <= xs[k + 1]) <= 1e-12, (l1, l2)
        for (l1, l2), value in zip(pairs, got):
            assert value == pytest.approx(quadrature_joint_tv(env, l1, env, l2, panels=256), abs=TOL), (l1, l2)
        # the same labeler pairs under a second environment object: solved once more, not twice
        solved.clear()
        assert joint_tv_many([(e, l1, e, l2) for e in (env, Gaussian(-0.5, 0.7)) for l1, l2 in pairs])[: len(pairs)] == got
        assert len(solved) == len(pairs)
        copy = Gaussian(env.mean, env.std)
        shifted = joint_tv_many([(env, l1, copy, l2) for l1, l2 in pairs])
        assert len(scanned) == len(pairs)
        for (l1, l2), value, want in zip(pairs, shifted, got):
            assert value == pytest.approx(want, abs=TOL), (l1, l2)

    def test_smooth_pair_imports_no_root_finder(self):
        # scipy.optimize would add about 20 MiB of resident memory to every run
        code = (
            "import sys, credal\n"
            "credal.expected_conditional_tv(credal.Gaussian(0, 1), credal.Sigmoid(3, 0.5), credal.Probit(-2, 0.2))\n"
            "assert 'scipy.optimize' not in sys.modules, 'scipy.optimize was imported'\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr


class TestWorklist:
    """The worklist engine on one integral: ``f`` over ``[a, b]`` cut at ``cuts``."""

    @staticmethod
    def _integral(f, a, b, tol, cuts=(), budget=200_000):
        # the engine reads its tolerance and budget at call time
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(measures, "ABS_TOL", tol)
            patch.setattr(measures, "_EVAL_BUDGET", budget)
            return _worklist(lambda x, own: f(x), [(a, b, cuts)])[0]

    def test_budget_exhaustion_carries_residual(self):
        # highly oscillatory integrand with a tiny budget
        f = lambda x: np.sin(1000.0 * x) ** 2
        with pytest.raises(QuadratureError) as err:
            self._integral(f, 0.0, 10.0, 1e-12, (), budget=50)
        assert err.value.residual > 0

    def test_jump_at_cut_takes_one_pass(self):
        # the Kronrod nodes are interior, so each side of the cut is constant
        calls = []

        def step(x):
            calls.append(x.size)
            return (x > 0.3).astype(float)

        assert self._integral(step, -1.0, 2.0, 1e-10, (0.3,)) == 1.7
        assert calls == [2 * 15]

    def test_polynomial_exact(self):
        # integral of x^3 - x + 2 over [-1, 2] is 33/4
        got = self._integral(lambda x: x**3 - x + 2.0, -1.0, 2.0, 1e-10)
        assert got == pytest.approx(8.25, abs=1e-9)

    def test_rules_are_exact_to_their_degrees(self):
        # on [-1, 1], K15 integrates x^k exactly for k <= 22 and G7 for
        # k <= 13, and neither at the next even degree: a check of the
        # hard-coded nodes and weights
        x, w_k, w_g = measures._KRONROD_X, measures._KRONROD_W, measures._GAUSS_W

        def moment_error(w, nodes, k):
            return abs(float(np.sum(w * nodes**k)) - (0.0 if k % 2 else 2.0 / (k + 1)))

        assert max(moment_error(w_k, x, k) for k in range(23)) < 1e-15
        assert max(moment_error(w_g, x[1::2], k) for k in range(14)) < 1e-15
        assert moment_error(w_k, x, 24) > 1e-9 and moment_error(w_g, x[1::2], 14) > 1e-5
        # G7's nodes are the odd-indexed Kronrod nodes, ascending
        nodes, weights = np.polynomial.legendre.leggauss(7)
        assert np.allclose(x[1::2], nodes, rtol=0, atol=1e-15) and np.allclose(w_g, weights, rtol=0, atol=1e-15)
        assert np.all(np.diff(x) > 0) and np.array_equal(x, -x[::-1])
