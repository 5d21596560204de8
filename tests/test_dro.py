import math

import numpy as np
import pytest

from credal.dro import (
    DivergenceError,
    LinearLogistic,
    SMOOTHING_TEMPERATURE,
    ThresholdClassifier,
    TrainConfig,
    WorldRisk,
    brute_force_minimax,
    lse_objective,
    train,
    world_risks,
    _smoothed_gradient,
    _smoothed_risk,
)
from credal.measures import (
    DEFAULT_QUADRATURE,
    DiscreteGrid,
    Gaussian,
    Interval,
    Probit,
    QuadratureConfig,
    Sigmoid,
    SymmetricNoise,
    Tabular,
    Threshold,
    ValidationError,
    expected_conditional_tv,
)
from credal.sets import CredalSpec

from oracles import (
    discrete_joint_pmf,
    quadrature_joint_tv,
    smoothed_risk,
    smoothed_risk_gradient,
    threshold_pair_disagreement,
)

TWO_WORLD = CredalSpec((Gaussian(0, 1),), (Threshold(-1), Threshold(1)))


class TestWorldRisks:
    def test_self_consistent_hypothesis_has_zero_risk(self):
        spec = CredalSpec((Gaussian(0.3, 1.2),), (Threshold(0.7),))
        wr = world_risks(ThresholdClassifier(0.7, 1), spec)
        assert wr.risks[0, 0] == pytest.approx(0.0, abs=1e-12)

    def test_threshold_disagreement_risks(self):
        wr = world_risks(ThresholdClassifier(-1.0, 1), TWO_WORLD)
        assert wr.risks[0, 0] == pytest.approx(0.0, abs=1e-12)
        assert wr.risks[0, 1] == pytest.approx(0.6827, abs=1e-4)
        assert wr.worst_world == (0, 1)

    def test_midpoint_is_minimax(self):
        wr = world_risks(ThresholdClassifier(0.0, 1), TWO_WORLD)
        assert wr.risks[0, 0] == pytest.approx(0.3413, abs=1e-4)
        assert wr.risks[0, 1] == pytest.approx(0.3413, abs=1e-4)

    def test_lexicographic_tie_break(self):
        wr = world_risks(ThresholdClassifier(0.0, 1), TWO_WORLD)
        assert wr.worst_world == (0, 0)

    def test_stochastic_labeler_risk(self):
        spec = CredalSpec((Gaussian(0, 1),), (Sigmoid(1.0, 0.0),))
        wr = world_risks(ThresholdClassifier(0.0, 1), spec)
        # E[min(p, 1-p)]-style risk of the matched logistic labeler:
        # disagreement with sigma(x) when predicting 1{x > 0}
        from credal.measures import expected_conditional_tv

        want = expected_conditional_tv(Gaussian(0, 1), Sigmoid(1.0, 0.0), Threshold(0.0))
        # risk = E[1 - p(decide)] and TV to the matched threshold obeys
        # TV = E|p1 - 1{x>0}| = risk, so the two coincide here
        assert wr.risks[0, 0] == pytest.approx(want, abs=1e-8)

    def test_hypothesis_is_a_crisp_labeler(self):
        # the 0-1 risk of h in a world is the expected disagreement between
        # the world's labeler and h under the world's environment
        h = ThresholdClassifier(0.4, 1)
        env = Gaussian(0.2, 1.3)
        sig, thr = Sigmoid(1.5, -0.3), Threshold(-0.6)
        pts = (-1.0, 0.0, 0.5, 1.5)
        grid = DiscreteGrid(pts, (0.1, 0.4, 0.3, 0.2))
        tab = Tabular(pts, ((0.9, 0.1), (0.3, 0.7), (0.6, 0.4), (0.2, 0.8)))
        grid_pmf_gap = discrete_joint_pmf(grid, tab) - discrete_joint_pmf(grid, h)
        cases = [
            (env, sig, quadrature_joint_tv(env, sig, env, h)),
            (env, thr, threshold_pair_disagreement(0.2, 1.3, -0.6, 0.4)),
            (grid, tab, 0.5 * float(np.abs(grid_pmf_gap).sum())),
        ]
        for world_env, lab, oracle in cases:
            risk = world_risks(h, CredalSpec((world_env,), (lab,))).risks[0, 0]
            assert risk == expected_conditional_tv(world_env, lab, h)
            assert risk == pytest.approx(oracle, abs=DEFAULT_QUADRATURE.abs_tol)

    def test_jump_at_split_point_is_resolved(self):
        # the hypothesis's jump sits at a cut of the Sigmoid-labeler integral;
        # without one-sided end values all five first samples agreed and the
        # risk came out as 9.0e-10
        h = ThresholdClassifier(-1.899068975581462, 1)
        env, sig = Gaussian(-0.45253765953320735, 1.907039479456706), Sigmoid(10.0, -1.0467212200648612)
        risk = world_risks(h, CredalSpec((env,), (sig,))).risks[0, 0]
        assert risk == pytest.approx(quadrature_joint_tv(env, sig, env, h), abs=DEFAULT_QUADRATURE.abs_tol)

    def test_binary_only(self):
        tab3 = Tabular((0.0,), ((0.2, 0.3, 0.5),))
        spec = CredalSpec((DiscreteGrid((0.0,), (1.0,)),), (tab3,))
        with pytest.raises(ValidationError):
            world_risks(ThresholdClassifier(0.0, 1), spec)

    def test_linear_logistic_decision(self):
        spec = CredalSpec((Gaussian(0, 1),), (Threshold(0.5),))
        h = LinearLogistic(weight=2.0, bias=-1.0)  # boundary at 0.5
        wr = world_risks(h, spec)
        assert wr.risks[0, 0] == pytest.approx(0.0, abs=1e-12)
        # a boundary that overflows to +inf labels every finite x as class 0
        flat = LinearLogistic(weight=1e-310, bias=-1.0)
        assert flat.breakpoints() == (math.inf,)
        assert world_risks(flat, spec).risks[0, 0] == world_risks(LinearLogistic(0.0, -1.0), spec).risks[0, 0]


def _smoothed_risk_cases():
    """Seeded Gaussian worlds with Sigmoid/Probit labelers, each with a threshold or linear hypothesis."""
    rng = np.random.default_rng(5)
    cases = []
    for _ in range(20):
        env = Gaussian(float(rng.uniform(-2, 2)), float(rng.uniform(0.3, 2.5)))
        if rng.random() < 0.5:
            lab = Sigmoid(float(rng.uniform(-4, 4)), float(rng.uniform(-2, 2)))
        else:
            lab = Probit(float(rng.uniform(-3, 3)), float(rng.uniform(-1.5, 1.5)))
        if rng.random() < 0.5:
            h = ThresholdClassifier(float(rng.uniform(-2.5, 2.5)), int(rng.choice([-1, 1])))
        else:
            h = LinearLogistic(float(rng.uniform(-2, 2)), float(rng.uniform(-1, 1)))
        cases.append((env, lab, h))
    return cases


class TestSmoothedRisk:
    def test_stochastic_labelers_meet_abs_tol(self):
        # sigma(score / T) steps over a width of order T at the decision
        # point, so the integral must be split there to meet abs_tol
        for env, lab, h in _smoothed_risk_cases():
            got = _smoothed_risk(h, env, lab, DEFAULT_QUADRATURE)
            want = smoothed_risk(env, lab, h, SMOOTHING_TEMPERATURE)
            assert got == pytest.approx(want, abs=DEFAULT_QUADRATURE.abs_tol)

    def test_values_are_pinned(self):
        # the values of these cases under the Gauss-Kronrod worklist, each
        # within 6e-10 of the dense oracle
        pinned = [
            0.08981206899374455, 0.9278607429805312, 0.31777200214923906, 0.06168642564967467,
            0.13303242911912705, 0.5942622646266426, 0.9976061269999764, 0.8831411774157123,
            0.5760349470385442, 0.06751524313227075, 0.23346652853114447, 0.7104138155654698,
            0.5965281828225348, 0.5757165909799143, 0.32543482648507593, 0.8484419709479031,
            0.5453752919094611, 0.16978560616987481, 0.8275295287249165, 0.09621106321053335,
        ]
        got = [_smoothed_risk(h, env, lab, DEFAULT_QUADRATURE) for env, lab, h in _smoothed_risk_cases()]
        assert got == pinned


def _gradient_cases():
    """Seeded worlds over every hypothesis and labeler family: stds 0.3-2.5, and one grid."""
    rng = np.random.default_rng(12)
    labelers = [
        lambda: Threshold(float(rng.uniform(-2, 2))),
        lambda: Interval(float(rng.uniform(-2, 0)), float(rng.uniform(0.1, 2))),
        lambda: Sigmoid(float(rng.uniform(-4, 4)), float(rng.uniform(-2, 2))),
        lambda: Probit(float(rng.uniform(-3, 3)), float(rng.uniform(-1.5, 1.5))),
        lambda: SymmetricNoise(Threshold(float(rng.uniform(-1, 1))), float(rng.uniform(0, 0.5))),
    ]
    hypotheses = [
        lambda: ThresholdClassifier(float(rng.uniform(-2.5, 2.5)), 1),
        lambda: ThresholdClassifier(float(rng.uniform(-2.5, 2.5)), -1),
        lambda: LinearLogistic(float(rng.uniform(-2, 2)), float(rng.uniform(-1, 1))),
        lambda: LinearLogistic(0.0, float(rng.uniform(-1, 1))),
    ]
    stds = iter(np.linspace(0.3, 2.5, len(labelers) * len(hypotheses)))
    grid = DiscreteGrid(tuple(np.linspace(-2, 2, 9).tolist()), tuple(rng.dirichlet(np.ones(9)).tolist()))
    cases = []
    for make_h in hypotheses:
        for make_lab in labelers:
            env = Gaussian(float(rng.uniform(-1.5, 1.5)), float(next(stds)))
            cases.append((env, make_lab(), make_h()))
        cases.append((grid, labelers[len(cases) % len(labelers)](), make_h()))
    return cases


class TestSmoothedGradient:
    def test_matches_dense_oracle(self):
        for env, lab, h in _gradient_cases():
            got = _smoothed_gradient(h, [(env, lab)], [1.0], DEFAULT_QUADRATURE)
            want = smoothed_risk_gradient(env, lab, h, SMOOTHING_TEMPERATURE)
            assert got.shape == h.params.shape
            assert got == pytest.approx(want, abs=DEFAULT_QUADRATURE.abs_tol)

    def test_narrow_bump_against_a_segment_end_meets_abs_tol(self):
        # the tail of s(1 - s) times the labeler's gap makes a bump about
        # 0.14 wide against the end of the segment [-4.89, -0.899], at the
        # labeler's hint: a rule whose first samples all miss it is off by
        # 1.3e-8 in both components
        h = LinearLogistic(-0.40037822923448774, 0.841238927181694)
        lab = Sigmoid(0.4034545770788265, 0.3627484918626438)
        env = Gaussian(0.5512027710813481, 0.6803488407673977)
        got = _smoothed_gradient(h, [(env, lab)], [1.0], DEFAULT_QUADRATURE)
        want = smoothed_risk_gradient(env, lab, h, SMOOTHING_TEMPERATURE)
        assert got == pytest.approx(want, abs=DEFAULT_QUADRATURE.abs_tol)

    def test_matches_central_differences_of_the_risk(self):
        eps = 1e-5
        for env, lab, h in _gradient_cases():
            got = _smoothed_gradient(h, [(env, lab)], [1.0], DEFAULT_QUADRATURE)
            for k, step in enumerate(np.eye(h.params.size) * eps):
                up = _smoothed_risk(h.with_params(h.params + step), env, lab, DEFAULT_QUADRATURE)
                dn = _smoothed_risk(h.with_params(h.params - step), env, lab, DEFAULT_QUADRATURE)
                assert got[k] == pytest.approx((up - dn) / (2 * eps), rel=1e-4, abs=1e-10)

    def test_batch_equals_weighted_batches_of_one(self):
        rng = np.random.default_rng(13)
        envs = (Gaussian(-0.4, 0.7), Gaussian(0.6, 1.8), DiscreteGrid((-1.0, 0.0, 1.5), (0.3, 0.3, 0.4)))
        labs = (Sigmoid(2.0, -0.5), Probit(-1.5, 0.3), Threshold(0.4), SymmetricNoise(Interval(-1.0, 0.5), 0.2))
        worlds = [(env, lab) for env in envs for lab in labs]
        h = LinearLogistic(1.3, -0.2)
        alone = [_smoothed_gradient(h, [world], [1.0], DEFAULT_QUADRATURE) for world in worlds]
        weights = rng.dirichlet(np.ones(len(worlds)))
        want = np.zeros(2)
        for w, value in zip(weights, alone):
            want += w * value
        assert _smoothed_gradient(h, worlds, weights, DEFAULT_QUADRATURE).tolist() == want.tolist()
        # a unit weight reads one owner pair of the batch: the same bits as alone
        for k, unit in enumerate(np.eye(len(worlds))):
            assert _smoothed_gradient(h, worlds, unit, DEFAULT_QUADRATURE).tolist() == alone[k].tolist()


class TestLseObjective:
    def test_uniform_when_equal(self):
        risks = WorldRisk(
            risks=np.full((2, 2), 0.25), worst_world=(0, 0), worst_value=0.25
        )
        value, weights = lse_objective(risks, tau=0.1)
        assert value == pytest.approx(0.25 + 0.1 * math.log(4))
        assert np.allclose(weights, 0.25)

    def test_sharp_limit(self):
        risks = WorldRisk(
            risks=np.asarray([[0.0, 0.6827]]), worst_world=(0, 1), worst_value=0.6827
        )
        value, weights = lse_objective(risks, tau=0.01)
        assert value == pytest.approx(0.6827, abs=1e-6)
        assert weights[0, 1] == pytest.approx(1.0, abs=1e-6)

    def test_flat_limit(self):
        risks = WorldRisk(
            risks=np.asarray([[0.1, 0.9]]), worst_world=(0, 1), worst_value=0.9
        )
        _, weights = lse_objective(risks, tau=1e6)
        assert np.allclose(weights, 0.5, atol=1e-6)

    def test_sandwich(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            r = rng.random((2, 3))
            wr = WorldRisk(risks=r, worst_world=(0, 0), worst_value=float(r.max()))
            for tau in (1e-6, 0.01, 0.5, 10.0):
                value, _ = lse_objective(wr, tau)
                assert value >= wr.worst_value - 1e-12
                assert value <= wr.worst_value + tau * math.log(r.size) + 1e-12

    def test_tau_limit_matches_max(self):
        r = np.asarray([[0.3, 0.8, 0.5]])
        wr = WorldRisk(risks=r, worst_world=(0, 1), worst_value=0.8)
        value, _ = lse_objective(wr, 1e-6)
        assert value == pytest.approx(0.8, abs=1e-4)

    def test_invalid_tau(self):
        wr = WorldRisk(risks=np.zeros((1, 1)), worst_world=(0, 0), worst_value=0.0)
        with pytest.raises(ValidationError):
            lse_objective(wr, 0.0)

    def test_weights_match_finite_difference_gradient(self):
        # d LSE / d L_ij equals the softmax weight; check by central FD on
        # the scalar map and, through the chain rule, on hypothesis params
        rng = np.random.default_rng(4)
        spec = CredalSpec(
            (Gaussian(0, 1), Gaussian(0.8, 1.3)), (Sigmoid(1.5, -0.5), Sigmoid(1.0, 0.9))
        )
        quad = QuadratureConfig()
        for _ in range(20):
            h = ThresholdClassifier(float(rng.uniform(-1.5, 1.5)), 1)
            tau = float(rng.uniform(0.05, 0.5))

            def lse_of_params(params):
                hh = h.with_params(params)
                risks = np.asarray(
                    [
                        [_smoothed_risk(hh, env, lab, quad) for lab in spec.labelers]
                        for env in spec.environments
                    ]
                )
                m = risks.max()
                return float(m + tau * math.log(np.exp((risks - m) / tau).sum()))

            # analytic weighting: sum_ij w_ij * dL_ij/dtheta
            risks = np.asarray(
                [
                    [_smoothed_risk(h, env, lab, quad) for lab in spec.labelers]
                    for env in spec.environments
                ]
            )
            wr = WorldRisk(risks=risks, worst_world=(0, 0), worst_value=float(risks.max()))
            _, weights = lse_objective(wr, tau)
            eps = 1e-5
            grad_parts = np.zeros_like(weights)
            for i, env in enumerate(spec.environments):
                for j, lab in enumerate(spec.labelers):
                    up = _smoothed_risk(h.with_params(h.params + eps), env, lab, quad)
                    dn = _smoothed_risk(h.with_params(h.params - eps), env, lab, quad)
                    grad_parts[i, j] = (up - dn) / (2 * eps)
            analytic = float((weights * grad_parts).sum())
            fd = (lse_of_params(h.params + eps) - lse_of_params(h.params - eps)) / (2 * eps)
            assert analytic == pytest.approx(fd, rel=1e-4, abs=1e-10)


class TestTrain:
    def test_config_validation(self):
        with pytest.raises(ValidationError):
            TrainConfig(mode="lse")
        with pytest.raises(ValidationError):
            TrainConfig(mode="greedy", tau=0.1)
        with pytest.raises(ValidationError):
            TrainConfig(mode="annealed")

    def test_singleton_world_reduces_to_erm(self):
        spec = CredalSpec((Gaussian(0, 1),), (Threshold(0.4),))
        h, trace = train(spec, TrainConfig(mode="greedy", steps=150, seed=2))
        final = world_risks(h, spec)
        theta_star, oracle = brute_force_minimax(spec, np.linspace(-3, 3, 1201))
        # 5e-3 covers the oracle grid spacing plus the smoothing bias of the
        # logistic surrogate at its fixed temperature
        assert final.worst_value <= oracle + 5e-3
        assert len(trace) <= 150

    def test_greedy_reaches_minimax_on_symmetric_spec(self):
        h, trace = train(TWO_WORLD, TrainConfig(mode="greedy", steps=300, seed=1))
        final = world_risks(h, TWO_WORLD)
        assert final.worst_value == pytest.approx(0.3413, abs=0.01)

    def test_lse_reaches_minimax_on_symmetric_spec(self):
        h, trace = train(
            TWO_WORLD, TrainConfig(mode="lse", tau=0.02, steps=400, seed=1)
        )
        final = world_risks(h, TWO_WORLD)
        assert final.worst_value == pytest.approx(0.3413, abs=0.01)
        for wr in trace:
            assert wr.lse_value >= wr.worst_value - 1e-12
            assert wr.lse_value <= wr.worst_value + 0.02 * math.log(2) + 1e-12

    @pytest.mark.parametrize("mode, tau", [("greedy", None), ("lse", 0.02)])
    def test_reaches_minimax_on_grid_spec(self, mode, tau):
        rng = np.random.default_rng(0)
        pts = np.linspace(-3, 3, 61)
        mass = np.exp(-0.5 * (pts - rng.uniform(-0.5, 0.5)) ** 2) * rng.uniform(0.5, 1.5, pts.size)
        env = DiscreteGrid(tuple(pts.tolist()), tuple((mass / mass.sum()).tolist()))
        spec = CredalSpec((env,), (Threshold(float(rng.uniform(-1.5, -0.5))), Threshold(float(rng.uniform(0.5, 1.5)))))
        _, oracle = brute_force_minimax(spec, np.linspace(-3, 3, 6001))
        h, _ = train(spec, TrainConfig(mode=mode, tau=tau, steps=300, seed=1))
        # the criterion-09 gate
        assert abs(world_risks(h, spec).worst_value - oracle) <= 0.01

    def test_deterministic_given_seed(self):
        h1, t1 = train(TWO_WORLD, TrainConfig(mode="greedy", steps=40, seed=9))
        h2, t2 = train(TWO_WORLD, TrainConfig(mode="greedy", steps=40, seed=9))
        assert h1 == h2
        assert [w.worst_value for w in t1] == [w.worst_value for w in t2]

    def test_dro_beats_average_erm_on_worst_world(self):
        rng = np.random.default_rng(21)
        for _ in range(3):
            spec = CredalSpec(
                (
                    Gaussian(float(rng.uniform(-1, 0)), 1.0),
                    Gaussian(float(rng.uniform(0, 1)), 1.2),
                ),
                (
                    Threshold(float(rng.uniform(-2, -0.5))),
                    Threshold(float(rng.uniform(0.5, 2))),
                ),
            )
            h_dro, _ = train(spec, TrainConfig(mode="greedy", steps=250, seed=3))
            worst_dro = world_risks(h_dro, spec).worst_value

            # uniform-average ERM: minimize the mean risk on a theta grid
            grid = np.linspace(-3, 3, 601)
            mean_best, theta_best = math.inf, 0.0
            for theta in grid:
                wr = world_risks(ThresholdClassifier(float(theta), 1), spec)
                m = float(wr.risks.mean())
                if m < mean_best:
                    mean_best, theta_best = m, float(theta)
            worst_erm = world_risks(ThresholdClassifier(theta_best, 1), spec).worst_value
            assert worst_dro <= worst_erm + 5e-3

    def test_divergence_error_carries_trace(self):
        # a very soft LSE on an unbalanced labeler set descends the near-mean
        # surrogate while the worst-world risk climbs monotonically
        spec = CredalSpec(
            (Gaussian(0, 1),), (Threshold(1.0), Threshold(1.0), Threshold(-1.0))
        )
        cfg = TrainConfig(mode="lse", tau=10.0, steps=500, step_size=0.2, seed=0)
        with pytest.raises(DivergenceError) as err:
            train(spec, cfg, init=ThresholdClassifier(0.0, 1))
        assert len(err.value.trace) >= 50
        worsts = [w.worst_value for w in err.value.trace[-50:]]
        assert all(b > a for a, b in zip(worsts, worsts[1:]))


class TestBruteForceMinimax:
    def test_three_point_grid(self):
        theta, value = brute_force_minimax(TWO_WORLD, [-1.0, 0.0, 1.0])
        assert theta == 0.0
        assert value == pytest.approx(0.3413, abs=1e-4)

    def test_own_threshold_attains_zero(self):
        spec = CredalSpec((Gaussian(0, 1),), (Threshold(0.25),))
        theta, value = brute_force_minimax(spec, [-1.0, 0.25, 1.0])
        assert theta == 0.25
        assert value == pytest.approx(0.0, abs=1e-12)

    def test_refinement_never_increases(self):
        coarse = brute_force_minimax(TWO_WORLD, np.linspace(-2, 2, 11))[1]
        fine = brute_force_minimax(TWO_WORLD, np.linspace(-2, 2, 101))[1]
        assert fine <= coarse + 1e-12

    def test_empty_grid_rejected(self):
        with pytest.raises(ValidationError):
            brute_force_minimax(TWO_WORLD, [])

    @staticmethod
    def _per_theta_loop(spec, grid):
        best_theta, best_value = grid[0], math.inf
        for theta in grid:
            wr = world_risks(ThresholdClassifier(float(theta), 1), spec)
            if wr.worst_value < best_value:
                best_theta, best_value = float(theta), wr.worst_value
        return best_theta, best_value

    def test_matches_per_theta_world_risks_loop(self):
        rng = np.random.default_rng(8)
        for _ in range(6):
            envs = tuple(Gaussian(float(rng.uniform(-1, 1)), float(rng.uniform(0.5, 2))) for _ in range(2))
            labs = tuple(Threshold(float(t)) for t in rng.uniform(-1.5, 1.5, 3))
            spec = CredalSpec(envs, labs + (Interval(-0.5, 0.8), Threshold(math.inf)))
            grid = np.linspace(-2.5, 2.5, int(rng.integers(5, 60)))
            assert brute_force_minimax(spec, grid) == self._per_theta_loop(spec, grid)

    def test_exact_ties_keep_the_first_theta(self):
        # every theta in (0, 1) labels the two atoms alike, so their worst
        # risks tie exactly at 0.5, as does theta = -0.5; theta = 1.5 is worse
        env = DiscreteGrid((0.0, 1.0), (0.5, 0.5))
        spec = CredalSpec((env,), (Threshold(0.5), Threshold(-math.inf)))
        grid = [1.5, 0.6, 0.2, 0.4, -0.5]
        assert brute_force_minimax(spec, grid) == (0.6, 0.5) == self._per_theta_loop(spec, grid)


class TestVertexSufficiency:
    def test_mixture_risk_below_worst_vertex(self):
        rng = np.random.default_rng(31)
        pts = tuple(np.linspace(-2, 2, 9).tolist())
        for _ in range(10):
            envs = tuple(
                DiscreteGrid(pts, tuple(rng.dirichlet(np.ones(9)).tolist()))
                for _ in range(2)
            )
            labs = tuple(
                Tabular(pts, tuple(tuple(r) for r in rng.dirichlet(np.ones(2), size=9)))
                for _ in range(2)
            )
            spec = CredalSpec(envs, labs)
            h = ThresholdClassifier(float(rng.uniform(-1, 1)), 1)
            wr = world_risks(h, spec)
            pmfs = [
                discrete_joint_pmf(spec.environments[i], spec.labelers[j])
                for i, j in spec.vertices()
            ]
            xs = np.asarray(pts)
            decisions = h.labels(xs)
            for _ in range(10):
                w = rng.dirichlet(np.ones(len(pmfs)))
                q = sum(wi * p for wi, p in zip(w, pmfs))
                # risk under the mixture: mass of (x, y) where y != h(x)
                risk_q = float(
                    sum(
                        q[g, 1 - decisions[g]]
                        for g in range(len(pts))
                    )
                )
                assert risk_q <= wr.worst_value + 1e-12
