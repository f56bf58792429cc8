import copy
import hashlib
import json
import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from distpriv import transport
from distpriv.mechanisms import calibrate_approx_wasserstein, gaussian_l1_radius
from distpriv.model import GaussianModel, PairFamily, PrivacyParams, SecretLabel
from distpriv.transport import (
    ClosenessCertificate,
    DiscreteDistribution,
    discretize_samples,
    is_w_delta_close,
    max_mass_within,
    min_w_for_delta,
    winf_distance,
)

from oracles import (
    oracle_blocking_flow,
    oracle_max_mass,
    oracle_verify,
    oracle_winf,
    random_twentieths_distribution,
    scipy_max_mass,
)


def random_masses(rng, k, den):
    """k masses over den with no zeros: distinct cut points of [0, den]."""
    cuts = np.sort(rng.choice(np.arange(1, den), size=k - 1, replace=False))
    return [int(x) for x in np.diff(np.concatenate([[0], cuts, [den]]))]


def fig1_pair():
    points = [[1.0], [2.0], [3.0], [100.0]]
    mu = DiscreteDistribution(points, [6, 2, 0, 2], 10)
    nu = DiscreteDistribution(points, [4, 3, 2, 1], 10)
    return mu, nu


def budget_pair():
    """Two independent 200-point 3-D clouds with masses over 10^6 (seed 71)."""
    rng = np.random.default_rng(71)

    def make(k, den):
        pts = rng.normal(size=(k, 3)) * 10
        cuts = np.sort(rng.choice(np.arange(1, den), size=k - 1, replace=False))
        nums = np.diff(np.concatenate([[0], cuts, [den]]))
        return DiscreteDistribution(pts, [int(x) for x in nums], den)

    return make(200, 10**6), make(200, 10**6)


def big_scale_pair(seed, k, dim):
    """A k-point cloud over a denominator past 2**63 and a jittered copy
    over 1000, so the flow network holds Python integers."""
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(k, dim)) * 10
    den = 2**64 + 13
    weights = rng.integers(1, 1000, size=k).tolist()
    nums = [w * (den // sum(weights)) for w in weights]
    nums[0] += den - sum(nums)
    mu = DiscreteDistribution(pts, nums, den)
    nu = DiscreteDistribution(pts + rng.normal(size=(k, dim)), random_masses(rng, k, 1000), 1000)
    return mu, nu


def multi_layer_phases(dinic, allowed):
    """Run max flow on the _Dinic `dinic` within `allowed` a phase at a
    time, yielding it before each phase with more than one column layer."""
    while True:
        layers = dinic._levels(allowed)
        if layers is None:
            return
        if len(layers[1]) > 1:
            yield dinic
            dinic._blocking_flow(allowed, *layers, None)
        else:
            dinic._fill(allowed, layers[0][0], layers[1][0], None)


def network_state(net):
    """The supply, demand, flow and total of a _Dinic: each array's dtype,
    shape and bytes, or its values when it holds Python integers."""
    arrays = (net.supply, net.demand, net.flow)
    if net.flow.dtype == object:
        return [(a.dtype, a.shape, a.tolist()) for a in arrays] + [net.total]
    return [(a.dtype, a.shape, a.tobytes()) for a in arrays] + [net.total]


def jittered_pair(seed, k, dim, den=10**6):
    """A k-point cloud and a jittered copy, with independent masses."""
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(k, dim)) * 10
    mu = DiscreteDistribution(pts, random_masses(rng, k, den), den)
    nu = DiscreteDistribution(pts + rng.normal(size=(k, dim)), random_masses(rng, k, den), den)
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

    @pytest.mark.parametrize("points", [
        [[1.0, 2.0], [3.0, 0.0], [1.0, 5.0], [2.0, 2.0], [1.0, 2.0]],
        [[0.0, 1.0], [2.0, 3.0], [-0.0, 1.0]],
        [[], []],
    ], ids=["non-adjacent", "signed-zero", "no-coordinates"])
    def test_equal_points_rejected_wherever_they_sit(self, points):
        with pytest.raises(ValueError, match="pairwise distinct"):
            DiscreteDistribution(points, [1] * len(points), len(points))

    def test_points_differing_in_one_coordinate_accepted(self):
        points = [[1.0, 2.0, 3.0], [1.0, 2.0, 4.0], [0.0, 2.0, 3.0], [-0.0, 1.0, 3.0]]
        assert DiscreteDistribution(points, [1, 1, 1, 1], 4).size == 4

    def test_points_finite(self):
        with pytest.raises(ValueError):
            DiscreteDistribution([[np.inf]], [1], 1)

    def test_from_json(self):
        mu, _ = fig1_pair()
        doc = {"points": [[1.0], [2.0], [3.0], [100.0]], "mass_num": [6, 2, 0, 2], "mass_den": 10}
        back = DiscreteDistribution.from_json(json.loads(json.dumps(doc)))
        assert np.array_equal(back.points, mu.points)
        assert back.mass_num == mu.mass_num
        assert back.mass_den == mu.mass_den

    @pytest.mark.parametrize("nums,den", [([1.9, 1.9, 0.2], 2), ([1, 1, 1], 3.0), ([1.0, 2, 0], 3)])
    def test_masses_must_be_integers(self, nums, den):
        with pytest.raises(ValueError, match="integers"):
            DiscreteDistribution([[0.0], [1.0], [2.0]], nums, den)

    def test_numpy_integer_masses_accepted(self):
        dist = DiscreteDistribution([[0.0], [1.0]], np.array([1, 2]), np.int64(3))
        assert dist.mass_num == (1, 2) and dist.mass_den == 3
        assert all(type(n) is int for n in (*dist.mass_num, dist.mass_den))


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
        for solve in (
            winf_distance,
            lambda mu, nu: max_mass_within(mu, nu, 1.0),
            lambda mu, nu: is_w_delta_close(mu, nu, 1.0, 0.1),
            lambda mu, nu: min_w_for_delta(mu, nu, 0.1),
        ):
            with pytest.raises(ValueError, match="dimension mismatch"):
                solve(mu, flat)

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
                # The array-wise check agrees with the per-edge one, on
                # either side of the decision.
                for w_, d_ in ((w, delta), (w / 2, delta), (w, delta / 2), (0.0, 0.0)):
                    assert cert.verify(mu, nu, w_, d_) == oracle_verify(cert, mu, nu, w_, d_)

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

    @pytest.mark.parametrize("case", [
        "negative mass", "longer than w", "longer than max_retained_distance",
        "over-used source", "over-used sink",
    ])
    def test_each_verify_branch_rejects_its_tamper(self, case):
        # Each tamper breaks one condition and keeps the others: the total
        # mass, every other edge, and the distances within w = 1.
        mu, nu = fig1_pair()
        _, cert = is_w_delta_close(mu, nu, 1.0, 0.1)
        assert cert.coupling_edges == (
            (0, 0, Fraction(3, 10)), (0, 1, Fraction(3, 10)),
            (1, 2, Fraction(1, 5)), (3, 3, Fraction(1, 10)),
        )
        edges, w = list(cert.coupling_edges), 1.0
        if case == "negative mass":
            bad = replace(cert, coupling_edges=(*edges, (1, 1, Fraction(1, 10)),
                                                       (1, 1, Fraction(-1, 10))))
        elif case == "longer than w":
            bad, w = cert, 0.5
        elif case == "longer than max_retained_distance":
            bad = replace(cert, max_retained_distance=0.5)
        elif case == "over-used source":
            edges[2] = (2, 2, Fraction(1, 5))  # mu has no mass at point 2
            bad = replace(cert, coupling_edges=tuple(edges))
        else:
            edges[1] = (0, 0, Fraction(3, 10))  # 6/10 into nu's 4/10 at point 0
            bad = replace(cert, coupling_edges=tuple(edges))
        assert cert.verify(mu, nu, 1.0, 0.1)
        assert not bad.verify(mu, nu, w, 0.1)
        assert not oracle_verify(bad, mu, nu, w, 0.1)

    @pytest.mark.parametrize("edge", [(-1, -1), (2, 1), (1, 2), (-1, 1), (1.0, 1)])
    def test_verify_rejects_indices_outside_the_supports(self, edge):
        # (-1, -1) would alias the last points and verify; (2, 1) and
        # (1, 2) would index past them.
        two = DiscreteDistribution([[0.0], [1.0]], [1, 1], 2)
        half = Fraction(1, 2)
        good = ClosenessCertificate(((0, 0, half), (1, 1, half)), Fraction(1), 0.0)
        assert good.verify(two, two, 0.0, 0)
        bad = ClosenessCertificate(((0, 0, half), (*edge, half)), Fraction(1), 0.0)
        assert not bad.verify(two, two, 0.0, 0)

    def test_empty_certificate(self):
        mu, nu = fig1_pair()
        empty = ClosenessCertificate((), Fraction(0), 0.0)
        assert empty.verify(mu, nu, 0.0, 1)
        assert not empty.verify(mu, nu, 0.0, Fraction(99, 100))

    @pytest.mark.parametrize("delta", [2, -0.1, 1.5, float("nan")])
    def test_delta_outside_unit_interval_rejected_everywhere(self, delta):
        mu, nu = fig1_pair()
        _, cert = is_w_delta_close(mu, nu, 1.0, 0.1)
        with pytest.raises(ValueError):
            cert.verify(mu, nu, 1.0, delta)
        with pytest.raises(ValueError):
            is_w_delta_close(mu, nu, 1.0, delta)
        with pytest.raises(ValueError):
            min_w_for_delta(mu, nu, delta)

    @pytest.mark.parametrize("pair, digest", [
        (budget_pair, "8e421b4e941e3ab47e572154e9f72b8c439a4e6702bae0c12f521e3416724b1a"),
        (lambda: jittered_pair(83, 200, 5),
         "5f75083d62affd370811e98c5e642d7eadb6dd4b3c7d7651f402053ffeb18f51"),
    ], ids=["budget-3d", "jittered-5d"])
    def test_coupling_edges_are_pinned(self, pair, digest):
        # The flow is a function of the search order, not only of the
        # instance; these digests pin every edge of the delta-radius
        # certificate, so a solver change that reorders paths shows here.
        mu, nu = pair()
        w = min_w_for_delta(mu, nu, 0.05)
        ok, cert = is_w_delta_close(mu, nu, w, 0.05)
        assert ok
        text = repr([(i, j, m.numerator, m.denominator) for i, j, m in cert.coupling_edges])
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_greedy_fill_matches_the_dfs(self):
        # A phase whose first column layer reaches the sink is filled
        # greedily; the generic DFS must leave the same flow on it, with or
        # without a limit that stops the phase early.
        for seed in range(6):
            mu, nu = jittered_pair(200 + seed, 40, 2, den=1000)
            for quantile in (0.05, 0.3, 1.0):
                for limit in (None, 1, 137):
                    net = transport._Dinic(mu, nu)
                    allowed = net.dist <= np.quantile(net.dist, quantile)
                    ends = []
                    for solve in ("_fill", "_blocking_flow"):
                        dinic = copy.deepcopy(net)
                        rows, cols = dinic._levels(allowed)
                        assert len(cols) == 1
                        if solve == "_fill":
                            pushed = dinic._fill(allowed, rows[0], cols[0], limit)
                        else:
                            pushed = dinic._blocking_flow(allowed, rows, cols, limit)
                        ends.append((pushed, dinic.flow.tolist(), dinic.supply.tolist(),
                                     dinic.demand.tolist()))
                    assert ends[0] == ends[1]
                    assert ends[0][0] > 0

    def test_blocking_flow_matches_the_oracle(self):
        # The blocking flow prunes dead ends and builds its candidate lists
        # a layer at a time before its DFS starts; it must push the flow
        # the oracle's DFS pushes, which builds each list at its node's
        # first visit, on int64 and Python-integer networks alike. The
        # thresholds rise on one network, as the solver's warm start does.
        phases = {np.dtype(np.int64): 0, np.dtype(object): 0}
        pruned_roots = pruned_columns = 0
        for seed in range(6):
            for pair in (jittered_pair(300 + seed, 40, 2, den=1000), big_scale_pair(300 + seed, 40, 2)):
                net = transport._Dinic(*pair)
                for quantile in (0.05, 0.1, 0.3, 1.0):
                    allowed = net.dist <= np.quantile(net.dist, quantile)
                    for dinic in multi_layer_phases(net, allowed):
                        phases[dinic.flow.dtype] += 1
                        rows, cols = dinic._levels(allowed)
                        live_rows, live_cols = [r.copy() for r in rows], [c.copy() for c in cols]
                        transport._phase_candidates(allowed, dinic.flow, live_rows, live_cols)
                        pruned_roots += bool((rows[0] & ~live_rows[0]).any())
                        pruned_columns += any((c & ~live).any() for c, live in zip(cols[:-1], live_cols))
                        for limit in (None, 1, 137):
                            ends = []
                            for solve in (oracle_blocking_flow, transport._Dinic._blocking_flow):
                                trial = copy.deepcopy(dinic)
                                pushed = solve(trial, allowed, *trial._levels(allowed), limit)
                                ends.append((pushed, trial.flow.tolist(), trial.supply.tolist(),
                                             trial.demand.tolist()))
                            assert ends[0] == ends[1]
                            assert ends[0][0] > 0
        assert min(phases.values()) > 20
        assert pruned_roots > 0 and pruned_columns > 0

    @pytest.mark.parametrize("pair", [
        lambda: jittered_pair(401, 40, 2, den=1000),
        lambda: big_scale_pair(401, 40, 2),
    ], ids=["int64", "python-int"])
    def test_longest_edge_undoes_a_probe_that_succeeds(self, pair):
        # A probe short of the needed mass keeps its maximal flow as the
        # warm start; one that reaches it reports its longest edge and
        # leaves the network as it found it.
        mu, nu = pair()
        net = transport._Dinic(mu, nu)
        low, high = float(np.quantile(net.dist, 0.05)), float(net.dist.max())
        assert net.longest_edge(low, net.scale) is None
        kept = network_state(net)
        assert 0 < net.total < net.scale
        assert Fraction(net.total, net.scale) == max_mass_within(mu, nu, low)
        assert net.max_flow(low) == kept[-1]
        assert network_state(net) == kept

        probe = copy.deepcopy(net)
        assert probe.max_flow(high, net.scale) == net.scale
        assert network_state(probe) != kept
        longest = net.longest_edge(high, net.scale)
        assert longest is not None and low < longest <= high
        assert network_state(net) == kept

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

    @pytest.mark.parametrize("dim", [9, 12])
    def test_result_is_certified_in_high_dimensions(self, dim):
        # From eight coordinates on, numpy sums an L1 distance pairwise, not
        # left to right; the solver must sum each edge as verify does, or a
        # certificate at the least threshold can fail its own check.
        rng = np.random.default_rng(73 + dim)
        for _ in range(8):
            pts = rng.normal(size=(30, dim)) * 10
            mu = DiscreteDistribution(pts, random_masses(rng, 30, 10**6), 10**6)
            nu = DiscreteDistribution(pts + rng.normal(size=(30, dim)), random_masses(rng, 30, 10**6), 10**6)
            for delta in (0, 0.05, 0.25):
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
        # Two 1-D models with an L1 mean gap of 5 are (5 + 2r, delta)-close,
        # r being the radius that holds 1 - delta/2 of each model's mass.
        a, b = SecretLabel("p", 0.45), SecretLabel("p", 0.55)

        def pair(var):
            return PairFamily(
                catalog={a: GaussianModel([0.0], [[var]], 10), b: GaussianModel([5.0], [[var]], 10)},
                pairs=[(a, b), (b, a)],
            )

        params = PrivacyParams(1.0, 0.1)
        point_masses = calibrate_approx_wasserstein(pair(0.0), params).provenance
        assert point_masses["l1_radius"] == 0.0
        assert point_masses["w"] == 5.0
        spread = calibrate_approx_wasserstein(pair(4.0), params).provenance
        radius = gaussian_l1_radius(GaussianModel([0.0], [[4.0]], 10), params.delta)
        assert spread["l1_radius"] == radius > 0.0
        assert spread["w"] == 5.0 + 2.0 * radius

    def test_bound_dominates_discretized_gaussians(self):
        # Samples of two 1-D Gaussians with an L1 mean gap of 4. Each
        # empirical law puts mass at least 1 - delta/2 within c of its true
        # mean, so by the triangle inequality the two are
        # (4 + 2c, delta)-close, which bounds the exact radius.
        delta = 0.1
        sigma = 1.5
        count = 400
        rng = np.random.default_rng(61)
        samples = [rng.normal(mean, sigma, size=count) for mean in (0.0, 4.0)]
        within = math.ceil((1.0 - delta / 2.0) * count)  # samples needed inside c
        c = max(float(np.sort(np.abs(x - mean))[within - 1]) for x, mean in zip(samples, (0.0, 4.0)))
        bound = 4.0 + 2.0 * c
        mu, nu = (discretize_samples(x, count) for x in samples)
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

    def test_resolution_must_be_an_integer(self):
        x = np.arange(1000.0)
        with pytest.raises(ValueError, match="integer"):
            discretize_samples(x, 1000.9)
        assert discretize_samples(x, np.int64(1000)).mass_den == 1000

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
    @pytest.mark.parametrize("dim", [1, 2, 3, 5, 8, 9, 12, 17])
    def test_blocked_distances_equal_each_edge_alone(self, dim):
        # The network measures its rows in blocks; every distance must carry
        # the bits of the whole broadcast and of the edge summed on its own,
        # which is how the per-edge oracle measures it.
        rng = np.random.default_rng(31 + dim)
        k = 2 * transport._DIST_BLOCK_ROWS + 7
        mu = DiscreteDistribution(rng.normal(size=(k, dim)) * 10, random_masses(rng, k, 10**4), 10**4)
        nu = DiscreteDistribution(rng.normal(size=(9, dim)) * 10, random_masses(rng, 9, 10**4), 10**4)
        dist = transport._Dinic(mu, nu).dist
        whole = np.abs(mu.points[:, None, :] - nu.points[None, :, :]).sum(axis=2)
        alone = [[float(np.abs(p - q).sum()) for q in nu.points] for p in mu.points]
        assert dist.tobytes() == whole.tobytes()
        assert dist.tolist() == alone

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
            # Each mass is (a / p1 + b / p2) / 2, over the common denominator.
            mu = DiscreteDistribution(
                rng.normal(size=(k, dim)), [a * p2 + b * p1 for a, b in halves], 2 * p1 * p2
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
    def test_blocking_flow_beats_the_oracle(self, monkeypatch):
        # The phases the solver runs for the budget instance's W-infinity
        # and delta radius, replayed from the same starting flows.
        import time

        mu, nu = budget_pair()
        phases = []
        solve = transport._Dinic._blocking_flow

        def record(net, allowed, row_layers, col_layers, limit):
            phases.append((copy.deepcopy(net), allowed, [r.copy() for r in row_layers],
                           [c.copy() for c in col_layers], limit))
            return solve(net, allowed, row_layers, col_layers, limit)

        monkeypatch.setattr(transport._Dinic, "_blocking_flow", record)
        winf_distance(mu, nu)
        min_w_for_delta(mu, nu, 0.05)
        monkeypatch.undo()
        assert len(phases) > 10

        def seconds(blocking_flow):
            runs = []
            for _ in range(5):
                fresh = [(copy.deepcopy(net), allowed, [r.copy() for r in rows], [c.copy() for c in cols], limit)
                         for net, allowed, rows, cols, limit in phases]
                start = time.perf_counter()
                for args in fresh:
                    blocking_flow(*args)
                runs.append(time.perf_counter() - start)
            return sorted(runs)[2]

        assert seconds(solve) <= 0.7 * seconds(oracle_blocking_flow)

    def test_two_hundred_points_per_side_under_one_second(self):
        import time

        mu, nu = budget_pair()
        start = time.perf_counter()
        winf_distance(mu, nu)
        assert time.perf_counter() - start < 1.0
