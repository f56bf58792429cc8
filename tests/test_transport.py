import math
from fractions import Fraction

import numpy as np
import pytest

from distpriv.transport import (
    ClosenessCertificate,
    DiscreteDistribution,
    closeness_from_bounds,
    discretize_gaussian,
    discretize_samples,
    is_w_delta_close,
    max_mass_within,
    min_w_for_delta,
    winf_distance,
)

from oracles import oracle_max_mass, oracle_winf, random_twentieths_distribution, scipy_max_mass


def random_masses(rng, k, den):
    """k masses over den with no zeros: distinct cut points of [0, den]."""
    cuts = np.sort(rng.choice(np.arange(1, den), size=k - 1, replace=False))
    return [int(x) for x in np.diff(np.concatenate([[0], cuts, [den]]))]


def fig1_pair():
    points = [[1.0], [2.0], [3.0], [100.0]]
    mu = DiscreteDistribution(points, [6, 2, 0, 2], 10)
    nu = DiscreteDistribution(points, [4, 3, 2, 1], 10)
    return mu, nu


class TestDiscreteDistribution:
    def test_masses_must_sum_to_one(self):
        with pytest.raises(ValueError):
            DiscreteDistribution([[0.0], [1.0]], [3, 4], 10)

    def test_masses_nonnegative(self):
        with pytest.raises(ValueError):
            DiscreteDistribution([[0.0], [1.0]], [-1, 11], 10)

    def test_points_distinct(self):
        with pytest.raises(ValueError):
            DiscreteDistribution([[1.0], [1.0]], [5, 5], 10)

    def test_points_finite(self):
        with pytest.raises(ValueError):
            DiscreteDistribution([[np.inf]], [1], 1)

    def test_json_round_trip(self):
        mu, _ = fig1_pair()
        doc = mu.to_json()
        back = DiscreteDistribution.from_json(doc)
        assert np.array_equal(back.points, mu.points)
        assert back.mass_num == mu.mass_num
        assert back.mass_den == mu.mass_den

    def test_from_fractions(self):
        dist = DiscreteDistribution.from_fractions(
            [[0.0], [1.0]], [Fraction(1, 3), Fraction(2, 3)]
        )
        assert dist.mass_den == 3
        assert dist.mass_num == (1, 2)


class TestWinfDistance:
    def test_unbalanced_tail_dominates(self):
        mu, nu = fig1_pair()
        assert winf_distance(mu, nu) == 97.0

    def test_self_distance_zero(self):
        mu, _ = fig1_pair()
        assert winf_distance(mu, mu) == 0.0

    def test_dimension_mismatch(self):
        mu, _ = fig1_pair()
        flat = DiscreteDistribution([[0.0, 0.0]], [1], 1)
        with pytest.raises(ValueError):
            winf_distance(mu, flat)

    def test_symmetry_and_identity(self):
        rng = np.random.default_rng(31)
        for _ in range(15):
            mu = random_twentieths_distribution(rng, dim=2)
            nu = random_twentieths_distribution(rng, dim=2)
            assert winf_distance(mu, nu) == winf_distance(nu, mu)
        mu = random_twentieths_distribution(rng, dim=2)
        assert winf_distance(mu, mu) == 0.0

    def test_zero_iff_equal(self):
        points = [[0.0], [1.0]]
        mu = DiscreteDistribution(points, [10, 10], 20)
        nu = DiscreteDistribution(points, [11, 9], 20)
        assert winf_distance(mu, nu) > 0.0

    def test_triangle_inequality(self):
        rng = np.random.default_rng(37)
        for _ in range(12):
            a = random_twentieths_distribution(rng, dim=1)
            b = random_twentieths_distribution(rng, dim=1)
            c = random_twentieths_distribution(rng, dim=1)
            assert winf_distance(a, c) <= winf_distance(a, b) + winf_distance(b, c) + 1e-9


class TestMaxMassWithin:
    def test_unit_radius_retains_ninety_percent(self):
        mu, nu = fig1_pair()
        assert max_mass_within(mu, nu, 1.0) == Fraction(9, 10)

    def test_full_radius_retains_everything(self):
        mu, nu = fig1_pair()
        assert max_mass_within(mu, nu, 99.0) == 1

    def test_disjoint_supports_at_tiny_radius(self):
        mu = DiscreteDistribution([[0.0]], [1], 1)
        nu = DiscreteDistribution([[10.0]], [1], 1)
        assert max_mass_within(mu, nu, 1.0) == 0

    def test_rejects_negative_radius(self):
        mu, nu = fig1_pair()
        with pytest.raises(ValueError):
            max_mass_within(mu, nu, -1.0)

    def test_rejects_nan_radius(self):
        mu, nu = fig1_pair()
        with pytest.raises(ValueError):
            max_mass_within(mu, nu, float("nan"))

    def test_infinite_radius_retains_everything(self):
        mu, nu = fig1_pair()
        assert max_mass_within(mu, nu, float("inf")) == 1

    def test_nondecreasing_in_radius(self):
        rng = np.random.default_rng(41)
        mu = random_twentieths_distribution(rng, dim=2)
        nu = random_twentieths_distribution(rng, dim=2)
        values = [max_mass_within(mu, nu, w) for w in (0.0, 1.0, 2.0, 5.0, 30.0)]
        assert values == sorted(values)

    def test_matches_oracle(self):
        rng = np.random.default_rng(43)
        for _ in range(30):
            mu = random_twentieths_distribution(rng)
            nu = random_twentieths_distribution(rng, dim=mu.dim)
            for w in (0.0, 1.0, 3.0, 8.0):
                assert max_mass_within(mu, nu, w) == oracle_max_mass(mu, nu, w)
            assert winf_distance(mu, nu) == oracle_winf(mu, nu)


class TestWDeltaCloseness:
    def test_fig1_close_at_point_one(self):
        mu, nu = fig1_pair()
        ok, cert = is_w_delta_close(mu, nu, 1.0, 0.1)
        assert ok
        assert cert.retained_mass == Fraction(9, 10)
        assert cert.verify(mu, nu, 1.0, 0.1)

    def test_fig1_not_close_at_point_o_five(self):
        mu, nu = fig1_pair()
        ok, cert = is_w_delta_close(mu, nu, 1.0, 0.05)
        assert not ok
        assert cert is None

    def test_identity_coupling(self):
        mu, _ = fig1_pair()
        ok, cert = is_w_delta_close(mu, mu, 0.0, 0.0)
        assert ok
        assert cert.retained_mass == 1
        assert cert.max_retained_distance == 0.0

    def test_monotone_in_w_and_delta(self):
        mu, nu = fig1_pair()
        grid_w = [0.0, 1.0, 2.0, 97.0]
        grid_d = [0.0, 0.05, 0.1, 0.3]
        table = {
            (w, d): is_w_delta_close(mu, nu, w, d)[0] for w in grid_w for d in grid_d
        }
        for i, w in enumerate(grid_w[:-1]):
            for d in grid_d:
                assert table[(w, d)] <= table[(grid_w[i + 1], d)]
        for w in grid_w:
            for j, d in enumerate(grid_d[:-1]):
                assert table[(w, d)] <= table[(w, grid_d[j + 1])]

    def test_certificate_invariants_random(self):
        rng = np.random.default_rng(47)
        for _ in range(20):
            mu = random_twentieths_distribution(rng)
            nu = random_twentieths_distribution(rng, dim=mu.dim)
            w = float(rng.uniform(0, 10))
            delta = float(rng.uniform(0, 1))
            ok, cert = is_w_delta_close(mu, nu, w, delta)
            if ok:
                assert cert.verify(mu, nu, w, delta)

    def test_rejects_nan_radius(self):
        mu, nu = fig1_pair()
        with pytest.raises(ValueError):
            is_w_delta_close(mu, nu, float("nan"), 0)

    def test_infinite_radius_is_close(self):
        mu, nu = fig1_pair()
        ok, cert = is_w_delta_close(mu, nu, float("inf"), 0)
        assert ok and cert.retained_mass == 1
        assert cert.verify(mu, nu, float("inf"), 0)

    def test_tampered_certificate_fails_verification(self):
        mu, nu = fig1_pair()
        _, cert = is_w_delta_close(mu, nu, 1.0, 0.1)
        bad = ClosenessCertificate(
            coupling_edges=cert.coupling_edges,
            retained_mass=cert.retained_mass + Fraction(1, 10),
            max_retained_distance=cert.max_retained_distance,
        )
        assert not bad.verify(mu, nu, 1.0, 0.1)

    def test_verify_rejects_nan_and_negative_radius(self):
        mu, nu = fig1_pair()
        _, cert = is_w_delta_close(mu, nu, 1.0, 0.1)
        assert not cert.verify(mu, nu, 0.5, 0.1)
        for w in (float("nan"), -1.0):
            with pytest.raises(ValueError):
                cert.verify(mu, nu, w, 0.1)


class TestMinWForDelta:
    def test_fig1_values(self):
        mu, nu = fig1_pair()
        assert min_w_for_delta(mu, nu, 0.1) == 1.0
        assert min_w_for_delta(mu, nu, 0.0) == 97.0
        assert min_w_for_delta(mu, nu, 1.0) == 0.0

    def test_zero_delta_equals_winf(self):
        rng = np.random.default_rng(53)
        for _ in range(15):
            mu = random_twentieths_distribution(rng)
            nu = random_twentieths_distribution(rng, dim=mu.dim)
            assert min_w_for_delta(mu, nu, 0.0) == winf_distance(mu, nu)

    def test_result_is_certified(self):
        rng = np.random.default_rng(59)
        for _ in range(10):
            mu = random_twentieths_distribution(rng)
            nu = random_twentieths_distribution(rng, dim=mu.dim)
            delta = float(rng.choice([0.05, 0.1, 0.25]))
            w = min_w_for_delta(mu, nu, delta)
            ok, cert = is_w_delta_close(mu, nu, w, delta)
            assert ok and cert.verify(mu, nu, w, delta)


class TestThresholdMinimality:
    """The threshold moves the mass it must, and the next smaller realized
    distance does not: the search returns the least feasible threshold."""

    @staticmethod
    def assert_least(mu, nu, w, needed, max_mass):
        assert max_mass(mu, nu, w) >= needed
        dist = np.abs(mu.points[:, None, :] - nu.points[None, :, :]).sum(axis=2)
        smaller = dist[dist < w]
        if smaller.size:
            assert max_mass(mu, nu, float(smaller.max())) < needed

    def test_small_instances_against_fraction_oracle(self):
        rng = np.random.default_rng(59)
        for _ in range(12):
            mu = random_twentieths_distribution(rng)
            nu = random_twentieths_distribution(rng, dim=mu.dim)
            self.assert_least(mu, nu, winf_distance(mu, nu), 1, oracle_max_mass)
            for delta in (0, 0.05, 0.25):
                w = min_w_for_delta(mu, nu, delta)
                self.assert_least(mu, nu, w, 1 - Fraction(delta), oracle_max_mass)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_sixty_points_against_scipy(self, dim):
        # A cloud and a jittered copy, as two neighbouring query laws are;
        # 3,600 realized distances take the bisection through about a dozen
        # warm-started probes per solve.
        pytest.importorskip("scipy")
        rng = np.random.default_rng(73 + dim)
        den = 10**4
        for _ in range(2):
            pts = rng.normal(size=(60, dim)) * 10
            jittered = pts + rng.normal(size=(60, dim))
            mu = DiscreteDistribution(pts, random_masses(rng, 60, den), den)
            nu = DiscreteDistribution(jittered, random_masses(rng, 60, den), den)
            self.assert_least(mu, nu, winf_distance(mu, nu), 1, scipy_max_mass)
            for delta in (0, 0.05, 0.25):
                w = min_w_for_delta(mu, nu, delta)
                self.assert_least(mu, nu, w, 1 - Fraction(delta), scipy_max_mass)
                ok, cert = is_w_delta_close(mu, nu, w, delta)
                assert ok and cert.verify(mu, nu, w, delta)

    def test_thousand_equal_masses_in_five_dimensions(self):
        # Two empirical query laws of 1,000 distinct draws each: every mass
        # is 1/1000, so each probe is a unit-capacity matching on a million
        # candidate edges.
        pytest.importorskip("scipy")
        rng = np.random.default_rng(97)
        mu = discretize_samples(rng.normal(size=(1000, 5)) * 10, 1000)
        nu = discretize_samples(rng.normal(size=(1000, 5)) * 10 + 1.0, 1000)
        self.assert_least(mu, nu, winf_distance(mu, nu), 1, scipy_max_mass)
        delta = 1e-3
        w = min_w_for_delta(mu, nu, delta)
        self.assert_least(mu, nu, w, 1 - Fraction(delta), scipy_max_mass)
        ok, cert = is_w_delta_close(mu, nu, w, delta)
        assert ok and cert.verify(mu, nu, w, delta)


class TestWinfOnLine:
    """1-D inputs take the quantile walk; it must return the flow path's float."""

    @staticmethod
    def line_distribution(rng, den):
        # Points on a 0.1 grid, so distances carry float rounding; the small
        # range makes points shared by both sides common, and zeros in the
        # masses leave some points empty.
        k = int(rng.integers(1, 7))
        pts = rng.choice(np.arange(-12, 13), size=k, replace=False) * 0.1
        nums = rng.multinomial(den, rng.dirichlet(np.ones(k)))
        nums[rng.random(k) < 0.25] = 0
        nums[0] += den - nums.sum()
        return DiscreteDistribution(pts[:, None], [int(n) for n in nums], den)

    def test_matches_oracle_and_flow_path(self):
        rng = np.random.default_rng(79)
        for _ in range(40):
            den_mu, den_nu = rng.choice([7, 11, 13, 17, 19], size=2, replace=False)
            mu = self.line_distribution(rng, int(den_mu))
            nu = self.line_distribution(rng, int(den_nu))
            got = winf_distance(mu, nu)
            assert got == oracle_winf(mu, nu)
            assert got == min_w_for_delta(mu, nu, 0)

    def test_matches_flow_path_at_two_hundred_points(self):
        rng = np.random.default_rng(83)
        for _ in range(3):
            pts = rng.normal(size=200) * 10
            mu = DiscreteDistribution(pts, random_masses(rng, 200, 999_983), 999_983)
            nu = DiscreteDistribution(pts + rng.normal(size=200), random_masses(rng, 200, 999_979), 999_979)
            assert winf_distance(mu, nu) == min_w_for_delta(mu, nu, 0)


class TestClosenessFromBounds:
    def test_formula(self):
        assert closeness_from_bounds(5.0, 2.0) == 9.0
        assert closeness_from_bounds(0.0, 0.0) == 0.0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            closeness_from_bounds(-1.0, 0.0)
        with pytest.raises(ValueError):
            closeness_from_bounds(0.0, -2.0)

    def test_bound_dominates_discretized_gaussians(self):
        # 1-D Gaussians with an L1 mean gap of 4; c is the empirical
        # (1 - delta/2)-quantile of |X - mean|, so the concentration bound
        # must sit at or above the exact closeness radius of fine grids.
        delta = 0.1
        sigma = 1.5
        rng = np.random.default_rng(61)
        draws = rng.normal(0.0, sigma, size=200_000)
        c = float(np.quantile(np.abs(draws), 1.0 - delta / 2.0))
        bound = closeness_from_bounds(4.0, c)
        mu = discretize_gaussian([0.0], [[sigma**2]], points_per_axis=101, mass_resolution=10**4)
        nu = discretize_gaussian([4.0], [[sigma**2]], points_per_axis=101, mass_resolution=10**4)
        assert bound >= min_w_for_delta(mu, nu, delta)


class TestDiscretizeSamples:
    def test_merges_duplicates(self):
        dist = discretize_samples([[0.0], [0.0], [1.0], [2.0]], 4)
        assert dist.size == 3
        masses = dict(zip([tuple(p) for p in dist.points], dist.masses()))
        assert masses[(0.0,)] == Fraction(1, 2)
        assert masses[(1.0,)] == Fraction(1, 4)
        assert masses[(2.0,)] == Fraction(1, 4)

    def test_single_sample(self):
        dist = discretize_samples([[7.0, 8.0]], 1)
        assert dist.size == 1
        assert dist.masses() == [Fraction(1)]

    def test_incompatible_resolution(self):
        with pytest.raises(ValueError):
            discretize_samples([[0.0], [1.0], [2.0]], 4)

    def test_signed_zeros_merge(self):
        dist = discretize_samples(np.array([[0.0, 1.0], [-0.0, 1.0], [2.0, -0.0]]), 3)
        assert dist.size == 2
        assert dist.masses() == [Fraction(2, 3), Fraction(1, 3)]

    def test_large_sample_self_distance(self):
        rng = np.random.default_rng(67)
        samples = rng.integers(0, 50, size=(1000, 2)).astype(float)
        dist = discretize_samples(samples, 1000)
        assert sum(dist.mass_num) == dist.mass_den
        assert winf_distance(dist, dist) == 0.0


class TestExactness:
    def test_coprime_denominators_stay_exact(self):
        # lcm of the two prime denominators exceeds 10^11; capacities must
        # stay exact integers rather than overflow or round
        den_a, den_b = 999_983, 999_979
        mu = DiscreteDistribution([[0.0], [1.0]], [1, den_a - 1], den_a)
        nu = DiscreteDistribution([[0.0], [1.0]], [den_b - 1, 1], den_b)
        kept = max_mass_within(mu, nu, 0.0)
        assert kept == Fraction(1, den_a) + Fraction(1, den_b)
        assert winf_distance(mu, nu) == 1.0
        ok, cert = is_w_delta_close(mu, nu, 0.0, 1 - kept)
        assert ok and cert.retained_mass == kept
        # one quantum less slack and the same coupling no longer suffices
        tighter = 1 - kept - Fraction(1, den_a * den_b)
        assert not is_w_delta_close(mu, nu, 0.0, tighter)[0]

    @pytest.mark.parametrize("dim", [1, 2])
    def test_common_scale_past_int64_stays_exact(self, dim):
        # Three primes near 10^7 spread over the two sides put the common
        # mass scale near 10^21, past any machine integer.
        p1, p2, p3 = 9_999_991, 9_999_973, 9_999_971
        rng = np.random.default_rng(89 + dim)
        for _ in range(3):
            k = 6
            halves = zip(random_masses(rng, k, p1), random_masses(rng, k, p2))
            mu = DiscreteDistribution.from_fractions(
                rng.normal(size=(k, dim)), [(Fraction(a, p1) + Fraction(b, p2)) / 2 for a, b in halves]
            )
            nu = DiscreteDistribution(rng.normal(size=(k, dim)), random_masses(rng, k, p3), p3)
            assert math.lcm(mu.mass_den, nu.mass_den) > 2**63
            dist = np.abs(mu.points[:, None, :] - nu.points[None, :, :]).sum(axis=2)
            thresholds = np.unique(dist)
            retained = [oracle_max_mass(mu, nu, float(t)) for t in thresholds]
            for t, kept in zip(thresholds[::5], retained[::5]):
                assert max_mass_within(mu, nu, float(t)) == kept
            assert winf_distance(mu, nu) == oracle_winf(mu, nu)
            for delta in (0, 0.05, 0.25):
                least = next(t for t, kept in zip(thresholds, retained) if kept >= 1 - Fraction(delta))
                w = min_w_for_delta(mu, nu, delta)
                assert w == least
                ok, cert = is_w_delta_close(mu, nu, w, delta)
                assert ok and cert.verify(mu, nu, w, delta)

    def test_float_delta_interpreted_exactly(self):
        # 1 - 0.1 in binary floats lands just below 9/10, so the Fig-style
        # decision must treat the float's exact rational value
        mu, nu = fig1_pair()
        assert is_w_delta_close(mu, nu, 1.0, 0.1)[0]
        assert not is_w_delta_close(mu, nu, 1.0, Fraction(1, 20))[0]
        assert is_w_delta_close(mu, nu, 1.0, Fraction(1, 10))[0]


@pytest.mark.timing
class TestPerformanceBudget:
    def test_two_hundred_points_per_side_under_one_second(self):
        import time

        rng = np.random.default_rng(71)

        def make(k, den):
            pts = rng.normal(size=(k, 3)) * 10
            cuts = np.sort(rng.choice(np.arange(1, den), size=k - 1, replace=False))
            nums = np.diff(np.concatenate([[0], cuts, [den]]))
            return DiscreteDistribution(pts, [int(x) for x in nums], den)

        mu, nu = make(200, 10**6), make(200, 10**6)
        start = time.perf_counter()
        winf_distance(mu, nu)
        assert time.perf_counter() - start < 1.0
