import itertools

import numpy as np
import pytest

from credal.measures import (
    ABS_TOL,
    DiscreteGrid,
    Gaussian,
    Probit,
    QuadratureError,
    Sigmoid,
    SymmetricNoise,
    Tabular,
    Threshold,
    ValidationError,
    expected_conditional_tv,
    joint_tv_exact,
    joint_tv_many,
)
from credal import measures, sets
from credal.sets import (
    CredalSpec,
    DiameterReport,
    component_diameters,
    diameter_bounds,
    pairwise_bounds,
    robust_penalty,
)

from oracles import discrete_joint_pmf, discrete_spec_diameter

TOL = ABS_TOL


def random_discrete_spec(rng, max_side=4, max_grid=16, max_classes=3):
    n_x = int(rng.integers(1, max_side + 1))
    n_y = int(rng.integers(1, max_side + 1))
    classes = int(rng.integers(2, max_classes + 1))
    grid_n = int(rng.integers(2, max_grid + 1))
    pts = tuple(np.sort(rng.uniform(-3, 3, grid_n)).tolist())
    envs = tuple(
        DiscreteGrid(pts, tuple(rng.dirichlet(np.ones(grid_n)).tolist())) for _ in range(n_x)
    )
    labs = tuple(
        Tabular(pts, tuple(tuple(row) for row in rng.dirichlet(np.ones(classes), size=grid_n)))
        for _ in range(n_y)
    )
    return CredalSpec(envs, labs)


def crossing_spec():
    # the benchmark's 6x5 soft-set spec (bench/inputs.py, seed 0, stream 1):
    # unequal-std Gaussians x mixed-slope labelers that all cross in the bulk
    r = np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy=0, spawn_key=(1,))))
    envs = tuple(Gaussian(float(r.uniform(-2.0, 2.0)), float(r.uniform(0.5, 2.0))) for _ in range(6))
    labs = []
    for j in range(5):
        slope = float(r.uniform(0.5, 3.0)) * (1.0 if j % 2 == 0 else -1.0)
        boundary = float(r.uniform(-1.5, 1.5))
        labs.append((Sigmoid if j % 2 == 0 else Probit)(slope, -slope * boundary))
    return CredalSpec(envs, tuple(labs))


def adversarial_gaussian_spec(rng, n_x, n_y):
    # stds 0.05 to 20; crossing, steep (|slope| up to 1000), crisp and noisy
    # labelers, with the last one equal to the first so that values tie
    envs = tuple(
        Gaussian(float(rng.uniform(-2, 2)), float(np.exp(rng.uniform(np.log(0.05), np.log(20)))))
        for _ in range(n_x)
    )
    labs = []
    for j in range(n_y):
        kind = j % 4
        if j and j == n_y - 1:
            labs.append(labs[0])
        elif kind < 2:
            slope = float(np.exp(rng.uniform(np.log(0.5), np.log(1000))) * rng.choice((-1.0, 1.0)))
            labs.append((Sigmoid, Probit)[kind](slope, -slope * float(rng.uniform(-1.5, 1.5))))
        elif kind == 2:
            labs.append(Threshold(float(rng.uniform(-1.5, 1.5))))
        else:
            labs.append(SymmetricNoise(Threshold(float(rng.uniform(-1.5, 1.5))), float(rng.uniform(0, 0.5))))
    return CredalSpec(envs, tuple(labs))


def full_loop_diameter(spec):
    """Largest pairwise exact value over every vertex pair; the first largest wins, 0 at (0,0),(0,0)."""
    best, arg = 0.0, ((0, 0), (0, 0))
    for va, vb in itertools.combinations(spec.vertices(), 2):
        d = pairwise_bounds(spec, va, vb, with_exact=True).exact
        if d > best:
            best, arg = d, (va, vb)
    return best, arg


class TestCredalSpec:
    def test_requires_nonempty(self):
        with pytest.raises(ValidationError):
            CredalSpec((), (Threshold(0),))

    def test_class_count_agreement(self):
        tab3 = Tabular((0.0,), ((0.2, 0.3, 0.5),))
        with pytest.raises(ValidationError):
            CredalSpec((Gaussian(0, 1),), (Threshold(0), tab3))

    def test_vertices(self):
        spec = CredalSpec((Gaussian(0, 1), Gaussian(1, 1)), (Threshold(0),))
        assert spec.vertices() == [(0, 0), (1, 0)]
        with pytest.raises(ValidationError):
            spec.check_vertex((0, 5))


class TestPairwiseBounds:
    def test_identical_vertices(self):
        spec = CredalSpec((Gaussian(0, 1),), (Threshold(0),))
        pb = pairwise_bounds(spec, (0, 0), (0, 0))
        assert pb.lower == pb.upper == pb.exact == 0.0

    def test_fixed_environment_is_exact(self):
        spec = CredalSpec((Gaussian(0, 1),), (Threshold(-1), Threshold(1)))
        pb = pairwise_bounds(spec, (0, 0), (0, 1))
        assert pb.exact == pytest.approx(0.6827, abs=1e-4)
        assert pb.lower == pb.upper == pb.exact

    def test_fixed_labeler_is_exact(self):
        spec = CredalSpec((Gaussian(0, 1), Gaussian(1, 1)), (Threshold(0),))
        pb = pairwise_bounds(spec, (0, 0), (1, 0))
        assert pb.exact == pytest.approx(0.3829, abs=1e-4)
        assert pb.lower == pb.upper == pb.exact

    def test_worked_joint_shift_example(self):
        spec = CredalSpec(
            (Gaussian(0, 1), Gaussian(1, 1)), (Threshold(-1), Threshold(1))
        )
        pb = pairwise_bounds(spec, (0, 0), (1, 1), with_exact=True)
        assert pb.cov_dist == pytest.approx(0.3829, abs=1e-4)
        assert pb.exp_dis_i == pytest.approx(0.6827, abs=1e-4)
        assert pb.exp_dis_iprime == pytest.approx(0.4772, abs=1e-4)
        assert pb.lower == pytest.approx(0.2998, abs=1e-4)
        assert pb.upper == pytest.approx(0.8601, abs=1e-4)
        assert pb.lower - 1e-9 <= pb.exact <= pb.upper + 1e-9

    def test_out_of_range_vertex(self):
        spec = CredalSpec((Gaussian(0, 1),), (Threshold(0),))
        with pytest.raises(ValidationError):
            pairwise_bounds(spec, (0, 0), (1, 0))

    def test_quadrature_failure_names_its_vertex_pair(self, monkeypatch):
        # at an unreachable tolerance the shared-environment value runs out of budget: the error names
        # the vertex pair and the value, with the value's own residual
        monkeypatch.setattr(measures, "ABS_TOL", 1e-300)
        env, labs = Gaussian(0.5, 1.5), (Threshold(0.0), Sigmoid(1.0, 0.0))
        spec = CredalSpec((Gaussian(0, 1), env), labs)
        with pytest.raises(QuadratureError) as alone:
            expected_conditional_tv(env, *labs)
        with pytest.raises(QuadratureError) as err:
            pairwise_bounds(spec, (1, 0), (1, 1))
        assert (err.value.integral, err.value.residual) == (0, alone.value.residual)
        assert str(err.value).startswith(f"vertex pair (1, 0, 1, 1) (row 0), value {(env, labs[0], env, labs[1])!r}: ")
        # in a list of vertex pairs: the first row that reads the value, not the value's slot
        # (rows 0 and 1 share the exact environment TV, slot 0; rows 2 and 3 read the value, slot 1)
        pairs = np.array([[0, 0, 1, 0], [0, 1, 1, 1], [1, 1, 1, 0], [1, 0, 1, 1]])
        with pytest.raises(QuadratureError) as err:
            sets._pair_values(spec, pairs, False)
        assert (err.value.integral, err.value.residual) == (2, alone.value.residual)
        assert str(err.value).startswith("vertex pair (1, 1, 1, 0) (row 2), value ")


class TestComponentDiameters:
    def test_singleton(self):
        spec = CredalSpec((Gaussian(0, 1),), (Threshold(0),))
        assert component_diameters(spec) == (0.0, 0.0, 0.0)

    def test_pure_labeling(self):
        spec = CredalSpec((Gaussian(0, 1),), (Threshold(-1), Threshold(1)))
        eta_x, eta_star, eta_bar = component_diameters(spec)
        assert eta_x == 0.0
        assert eta_star == pytest.approx(0.6827, abs=1e-4)
        assert eta_bar == 1.0

    def test_pure_covariate(self):
        spec = CredalSpec((Gaussian(0, 1), Gaussian(1, 1)), (Threshold(0),))
        eta_x, eta_star, eta_bar = component_diameters(spec)
        assert eta_x == pytest.approx(0.3829, abs=1e-4)
        assert eta_star == 0.0
        assert eta_bar == 0.0


class TestDiameterBounds:
    def test_pure_labeling_exact_diameter(self):
        spec = CredalSpec((Gaussian(0, 1),), (Threshold(-1), Threshold(1)))
        rep = diameter_bounds(spec, with_exact=True)
        assert rep.exact == pytest.approx(0.6827, abs=1e-4)
        assert rep.lower == pytest.approx(rep.exact, abs=2e-8)
        assert rep.argmax_pair == ((0, 0), (0, 1))

    def test_disjoint_support_saturates_upper(self):
        spec = CredalSpec(
            (Gaussian(-30, 1), Gaussian(30, 1)), (Threshold(-1), Threshold(1))
        )
        rep = diameter_bounds(spec)
        assert rep.eta_x == pytest.approx(1.0, abs=1e-12)
        assert rep.upper == pytest.approx(1.0, abs=1e-9)

    def test_steep_pair_upper_dominates_exact(self):
        # the labelers differ on a steep 0.001-wide band: eta_star must resolve
        # it, or the upper bound falls below the exact diameter
        spec = CredalSpec(
            (Gaussian(0, 1), Gaussian(0.2, 1)), (Sigmoid(1000, -300.1), Sigmoid(1000, -301.1))
        )
        rep = diameter_bounds(spec, with_exact=True)
        assert rep.eta_star > 0.0003
        assert rep.upper >= rep.exact - 2 * TOL

    def test_adversarial_specs_upper_dominates_exact(self):
        rng = np.random.default_rng(18)
        for n_x, n_y in ((2, 3), (3, 4), (2, 5), (3, 3)) * 4:
            rep = diameter_bounds(adversarial_gaussian_spec(rng, n_x, n_y), with_exact=True)
            assert rep.eta_bar >= rep.eta_star
            assert rep.upper >= rep.exact - 2 * TOL

    def test_grid_eta_bar_reads_every_atom_in_either_labeler_order(self):
        # the tabular labelers share the atoms {0, 2}; the first also has a
        # point at 1, where no environment puts mass
        envs = (DiscreteGrid((0.0, 2.0), (0.5, 0.5)),)
        on_three = Tabular((0.0, 1.0, 2.0), ((0.9, 0.1), (0.0, 1.0), (0.5, 0.5)))
        on_two = Tabular((0.0, 2.0), ((0.2, 0.8), (0.4, 0.6)))
        for labs in ((on_three, on_two), (on_two, on_three)):
            rep = diameter_bounds(CredalSpec(envs, labs))
            assert rep.eta_bar == pytest.approx(0.7, abs=1e-15)
            assert rep.eta_star == pytest.approx(0.5 * 0.7 + 0.5 * 0.1, abs=1e-15)

    def test_random_discrete_specs_sandwich_brute_force(self):
        rng = np.random.default_rng(42)
        for _ in range(60):
            spec = random_discrete_spec(rng, max_side=3, max_grid=8)
            rep = diameter_bounds(spec, with_exact=True)
            brute = discrete_spec_diameter(spec)
            assert rep.lower - 1e-9 <= brute <= rep.upper + 1e-9
            assert rep.exact == pytest.approx(brute, abs=1e-9)
            # the diameter is the value pairwise_bounds reports for its own pair
            assert rep.exact == pairwise_bounds(spec, *rep.argmax_pair, with_exact=True).exact
            assert rep.lower <= rep.exact

    def test_mixtures_never_exceed_vertex_max(self):
        # convex mixtures of vertices stay within the vertex-pair diameter
        rng = np.random.default_rng(3)
        for _ in range(25):
            spec = random_discrete_spec(rng, max_side=3, max_grid=6)
            verts = spec.vertices()
            pmfs = [discrete_joint_pmf(spec.environments[i], spec.labelers[j]) for i, j in verts]
            vertex_max = discrete_spec_diameter(spec)
            for _ in range(20):
                w1 = rng.dirichlet(np.ones(len(verts)))
                w2 = rng.dirichlet(np.ones(len(verts)))
                q1 = sum(w * p for w, p in zip(w1, pmfs))
                q2 = sum(w * p for w, p in zip(w2, pmfs))
                mix_tv = 0.5 * float(np.abs(q1 - q2).sum())
                assert mix_tv <= vertex_max + 1e-12

    def test_adding_labeler_never_shrinks(self):
        rng = np.random.default_rng(8)
        for _ in range(15):
            spec = random_discrete_spec(rng, max_side=3, max_grid=6)
            pts = spec.labelers[0].grid
            classes = spec.class_count
            extra = Tabular(
                pts,
                tuple(tuple(row) for row in rng.dirichlet(np.ones(classes), size=len(pts))),
            )
            bigger = CredalSpec(spec.environments, spec.labelers + (extra,))
            rep_small = diameter_bounds(spec, with_exact=True)
            rep_big = diameter_bounds(bigger, with_exact=True)
            assert rep_big.exact >= rep_small.exact - 1e-12
            assert rep_big.upper >= rep_small.upper - 1e-12

    def test_pure_regime_rows_have_zero_slack(self):
        spec = CredalSpec(
            (Gaussian(0, 1), Gaussian(0.5, 1.3)),
            (Sigmoid(1.0, -0.5), Sigmoid(2.0, 1.0)),
        )
        for va, vb in itertools.combinations(spec.vertices(), 2):
            i, j = va
            ip, jp = vb
            if i != ip and j != jp:
                continue
            pb = pairwise_bounds(spec, va, vb, with_exact=False)
            exact = joint_tv_exact(
                spec.environments[i], spec.labelers[j],
                spec.environments[ip], spec.labelers[jp],
            )
            assert abs(pb.lower - exact) <= 2 * TOL
            assert abs(pb.upper - exact) <= 2 * TOL

    def test_exact_diameter_matches_pairwise_loop(self):
        # labelers 1 and 3 are equal, so the maximum is attained twice and
        # the lexicographically first pair must win
        spec = CredalSpec(
            (Gaussian(-0.4, 0.8), Gaussian(0.6, 1.4), Gaussian(0.1, 1.0)),
            (Sigmoid(2.0, -0.5), Probit(-1.0, 0.3), Threshold(0.2), Probit(-1.0, 0.3)),
        )
        values = {
            (va, vb): joint_tv_exact(
                spec.environments[va[0]], spec.labelers[va[1]],
                spec.environments[vb[0]], spec.labelers[vb[1]],
            )
            for va, vb in itertools.combinations(spec.vertices(), 2)
        }
        best = max(values.values())
        tied = [pair for pair, d in values.items() if d == best]
        assert len(tied) == 2
        rep = diameter_bounds(spec, with_exact=True)
        assert rep.exact == best
        assert rep.argmax_pair == tied[0]

    def test_exact_diameter_integrates_each_value_once(self, monkeypatch):
        # covariate TVs, conditional TVs and the joint-shift pairs that can
        # win, each once; a pure-regime pair is never integrated as a joint TV
        # of its own, and a joint-shift pair is skipped only when its upper
        # bound is below the largest lower bound by more than 8 abs_tol
        small = CredalSpec(
            (Gaussian(-0.4, 0.8), Gaussian(0.6, 1.4), Gaussian(0.1, 1.0)),
            (Sigmoid(2.0, -0.5), Probit(-1.0, 0.3), Threshold(0.2)),
        )
        seen = []

        def recording(pairs):
            seen.extend(pairs)
            return joint_tv_many(pairs)

        monkeypatch.setattr(sets, "joint_tv_many", recording)
        for spec in (small, crossing_spec()):
            seen.clear()
            diameter_bounds(spec, with_exact=True)
            assert len(seen) == len(set(seen))
            envs, labs = spec.environments, spec.labelers
            assert not [v for v in seen if v[0] != v[2] and v[1] == v[3] and v[1] in labs]
            joint = {v for v in seen if v[0] != v[2] and v[1] != v[3] and v[1] in labs}
            bounds = [pairwise_bounds(spec, va, vb) for va, vb in itertools.combinations(spec.vertices(), 2)]
            best_lower = max(pb.lower for pb in bounds)
            skipped = 0
            for pb in bounds:
                (i, j), (ip, jp) = pb.pair
                if i != ip and j != jp and (envs[i], labs[j], envs[ip], labs[jp]) not in joint:
                    assert pb.upper + 8 * TOL < best_lower
                    skipped += 1
            assert len(joint) + skipped == spec.n_x * (spec.n_x - 1) // 2 * spec.n_y * (spec.n_y - 1)
        # the last spec is the 6x5 one, with 300 joint-shift pairs
        assert len(joint) <= 114 and skipped >= 186

    def test_each_consumer_makes_one_joint_tv_many_call(self, monkeypatch):
        # joint_tv_many splits its pairs into blocks itself, so a pair's
        # bounds, a sweep's columns and the exact diameter's prune each pass
        # all their pairs in one call, whatever the environment pairs
        calls = []

        def counting(pairs):
            calls.append(len(pairs))
            return joint_tv_many(pairs)

        monkeypatch.setattr(sets, "joint_tv_many", counting)
        spec = crossing_spec()
        for a, b in (((0, 0), (1, 1)), ((0, 0), (0, 1)), ((0, 0), (1, 0)), ((2, 3), (4, 4))):
            for with_exact in (False, True):
                calls.clear()
                pairwise_bounds(spec, a, b, with_exact=with_exact)
                assert len(calls) == 1
        calls.clear()
        sets._pair_values(spec, sets._vertex_pairs(spec), True)
        assert calls == [15 + 6 * 10 + 15 * 20]
        calls.clear()
        diameter_bounds(spec, with_exact=True)
        # the pure values, then every joint-shift pair that can win
        assert calls == [75, 114]

    def test_pruned_exact_diameter_equals_full_loop(self):
        # skipping the joint-shift pairs that cannot win leaves the value and
        # the first largest pair of the loop over every pair, bit for bit
        rng = np.random.default_rng(2026)
        specs = [adversarial_gaussian_spec(rng, n_x, n_y) for n_x, n_y in ((3, 4), (4, 3), (3, 5), (2, 4))]
        specs += [adversarial_gaussian_spec(rng, n_x, n_y) for n_x, n_y in ((1, 1), (1, 4), (4, 1))]
        specs += [random_discrete_spec(rng) for _ in range(12)]  # 1x1, 1xn and nx1 among them
        for spec in specs:
            rep = diameter_bounds(spec, with_exact=True)
            assert (rep.exact, rep.argmax_pair) == full_loop_diameter(spec)
        rep = diameter_bounds(crossing_spec(), with_exact=True)
        assert rep.exact == 0.6984938880844815
        assert rep.argmax_pair == ((2, 3), (4, 4))
        assert (rep.exact, rep.argmax_pair) == full_loop_diameter(crossing_spec())

    def test_eta_eff_gating_branch(self):
        # constant conditional disagreement: the eta_star branch must bind
        # (upper never exceeds eta_x + eta_star when eta_bar is flat in x)
        pts = tuple(np.linspace(-2, 2, 9).tolist())
        flat_a = Tabular(pts, tuple((0.8, 0.2) for _ in pts))
        flat_b = Tabular(pts, tuple((0.2, 0.8) for _ in pts))
        w1 = np.full(9, 1 / 9.0)
        w2 = np.asarray([0.3, 0.2, 0.1, 0.1, 0.1, 0.1, 0.05, 0.03, 0.02])
        spec = CredalSpec(
            (DiscreteGrid(pts, tuple(w1)), DiscreteGrid(pts, tuple(w2 / w2.sum()))),
            (flat_a, flat_b),
        )
        rep = diameter_bounds(spec, with_exact=True)
        assert rep.upper <= rep.eta_x + rep.eta_star + 1e-12
        assert rep.lower - 1e-9 <= rep.exact <= rep.upper + 1e-9


class TestRobustPenalty:
    def test_zero_for_singleton(self):
        spec = CredalSpec((Gaussian(0, 1),), (Threshold(0),))
        rep = diameter_bounds(spec)
        assert robust_penalty(rep, 0.0) == 0.0

    def test_additive(self):
        rep = DiameterReport(
            eta_x=0.0, eta_star=0.6827, eta_bar=1.0, eta_eff=0.6827,
            lower=0.6827, upper=0.6827,
        )
        assert robust_penalty(rep, 0.05) == pytest.approx(0.7327)

    def test_worked_example_arithmetic(self):
        rep = DiameterReport(
            eta_x=0.3829, eta_star=0.4772, eta_bar=1.0,
            eta_eff=min(0.4772, (1 - 0.3829) * 1.0),
            lower=0.4772, upper=0.8601,
        )
        assert robust_penalty(rep, 0.0) == pytest.approx(0.8601)

    def test_negative_eps_star_rejected(self):
        rep = DiameterReport(
            eta_x=0.0, eta_star=0.0, eta_bar=0.0, eta_eff=0.0, lower=0.0, upper=0.0
        )
        with pytest.raises(ValidationError):
            robust_penalty(rep, -0.1)


class TestDiameterReportInvariants:
    def test_eta_eff_consistency_enforced(self):
        with pytest.raises(ValidationError):
            DiameterReport(
                eta_x=0.2, eta_star=0.5, eta_bar=1.0, eta_eff=0.9, lower=0.5, upper=1.0
            )

    def test_upper_dominates_lower_components(self):
        with pytest.raises(ValidationError):
            DiameterReport(
                eta_x=0.6, eta_star=0.5, eta_bar=1.0, eta_eff=0.4,
                lower=0.6, upper=0.55,
            )
