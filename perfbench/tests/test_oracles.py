"""The benchmark's own oracles, checked against brute force and golden values.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import importlib.util
import itertools
import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(0, str(ROOT / "src"))

import oracles  # noqa: E402

_spec = importlib.util.spec_from_file_location("brute", ROOT / "tests" / "oracles.py")
brute = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(brute)


def _scaled(dist):
    return list(dist.mass_num), dist.mass_den


@pytest.mark.parametrize("seed", range(40))
def test_threshold_oracle_matches_brute_force(seed):
    rng = np.random.default_rng(seed)
    mu = brute.random_twentieths_distribution(rng)
    nu = brute.random_twentieths_distribution(rng, dim=mu.dim)
    supply, den = _scaled(mu)
    demand, _ = _scaled(nu)
    dist = oracles.pairwise_l1(mu.points, nu.points)
    for t in np.unique(dist):
        got = Fraction(oracles.flow_within(supply, demand, dist, float(t)), den)
        assert got == brute.oracle_max_mass(mu, nu, float(t))
    winf = brute.oracle_winf(mu, nu)
    assert oracles.check_threshold(supply, demand, dist, winf, Fraction(1), "w") == []
    smaller = np.unique(dist[dist < winf])
    if smaller.size:
        assert oracles.check_threshold(supply, demand, dist, float(smaller[-1]), Fraction(1), "w")
    if mu.dim == 1:
        assert oracles.winf_1d(mu.points, mu.masses(), nu.points, nu.masses()) == winf


def test_stratified_moments_match_enumeration():
    rng = np.random.default_rng(5)
    rows = 9
    features = oracles.query_matrix(
        rng.integers(17, 91, rows), rng.integers(1, 17, rows), rng.random(rows) < 0.5,
        rng.random(rows) < 0.5, rng.integers(1, 100, rows),
    )
    positive = np.array([True, False, True, True, False, False, True, False, False])
    n, p = 5, 0.5  # round(2.5) = 2 positives, half to even
    pos, neg = np.nonzero(positive)[0], np.nonzero(~positive)[0]
    scale = np.array([1 / n, 1 / n, 1, 1, 1 / n])
    queries = np.array([
        features[list(a) + list(b)].sum(axis=0) * scale
        for a in itertools.combinations(pos, 2)
        for b in itertools.combinations(neg, 3)
    ])
    mean, cov = oracles.stratified_query_moments(features, positive, n, p)
    np.testing.assert_allclose(mean, queries.mean(axis=0), rtol=1e-12)
    centered = queries - queries.mean(axis=0)
    np.testing.assert_allclose(cov, centered.T @ centered / len(queries), rtol=1e-10, atol=1e-12)


def _worked_example_models():
    cov = [[22.0, -6.0], [-6.0, 13.0]]
    return {
        0.45: {"mean": [100.0, 101.0], "cov": cov},
        0.55: {"mean": [99.0, 102.0], "cov": cov},
    }


def test_expected_eig_plan_matches_worked_example():
    plan = oracles.expected_plans(_worked_example_models(), (0.45, 0.55), 1.0, 0.001, 100, 100)["eig"]
    v1 = np.array([1.0, 2.0]) / math.sqrt(5.0)
    v2 = np.array([2.0, -1.0]) / math.sqrt(5.0)
    assert abs(v1 @ plan["cov"] @ v1 - 18.52) <= 0.01
    assert abs(v2 @ plan["cov"] @ v2 - 3.52) <= 0.01


def test_expected_scalar_plans_on_worked_example():
    plans = oracles.expected_plans(_worked_example_models(), (0.45, 0.55), 0.5, 0.001, 100, 100)
    c = math.sqrt(2 * math.log(1250))
    assert plans["expm-l"]["scale"] == pytest.approx(2.0 / 0.5)
    assert plans["expm-g"]["sigma"] == pytest.approx(c * math.sqrt(2) / 0.5)
    np.testing.assert_allclose(plans["dir-g"]["direction"], np.array([1.0, -1.0]) / math.sqrt(2))
    # dau: (alpha c / eps)^2 - 1 / (v' Sigma^-1 v); here v' Sigma^-1 v = 23/500
    need = 2 * c**2 / 0.25
    assert plans["dau"]["scale"] ** 2 == pytest.approx(need - 500 / 23 + 1e-6 * need, rel=1e-6)
    sens1 = (73 + 15 + 98) / 100 + 2
    assert plans["gdp-l"]["scale"] == pytest.approx(100 * sens1 / 0.5)


@pytest.mark.parametrize("count", [1, 5, 50, 250])
def test_gaussian_interval_covers_exact_chi_square(count):
    lo, hi = oracles.gaussian_square_sum_interval(np.ones(count))
    assert lo <= stats.chi2.ppf(oracles.ALPHA, count)
    assert hi >= stats.chi2.ppf(1 - oracles.ALPHA, count)
    assert lo > 0.0 or count < 5


@pytest.mark.parametrize("count", [1, 10, 250])
def test_laplace_interval_covers_simulated_tails(count):
    rng = np.random.default_rng(count)
    sums = (rng.laplace(0.0, 2.0, size=(20_000, count)) ** 2).sum(axis=1)
    lo, hi = oracles.laplace_square_sum_interval(count, 2.0)
    assert lo <= np.quantile(sums, 1e-3) and np.quantile(sums, 1 - 1e-3) <= hi
    assert lo < 2 * 4.0 * count < hi


def test_certificate_recheck_catches_tampering():
    pts = np.array([[0.0], [1.0]])
    half = Fraction(1, 2)
    masses = [half, half]
    edges = ((0, 0, half), (1, 1, half))
    ok = oracles.check_certificate(edges, Fraction(1), 0.0, pts, masses, pts, masses,
                                   0.0, Fraction(0), "c")
    assert ok == []
    over = ((0, 0, half), (0, 1, half))
    assert oracles.check_certificate(over, Fraction(1), 1.0, pts, masses, pts, masses,
                                     1.0, Fraction(0), "c")
    long = ((0, 1, half), (1, 0, half))
    assert oracles.check_certificate(long, Fraction(1), 1.0, pts, masses, pts, masses,
                                     0.5, Fraction(0), "c")
