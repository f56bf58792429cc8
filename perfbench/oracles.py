"""Checks of the program's outputs, computed apart from the program.

Nothing here calls into distpriv. Each check is either a closed-form
value from the paper's formulas, an exact moment, an independent solver
(scipy's integer max flow, Fraction arithmetic), or a tail bound on a
statistic whose distribution the method fixes. Tail bounds are set so a
correct program trips any one of them with probability at most ALPHA.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

import numpy as np
from scipy import integrate, optimize, special
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_flow

# A run makes a few hundred statistical checks; at this level each, a
# correct program fails a run less than once in a million.
ALPHA = 5e-9
Z_LIMIT = 6.0  # two-sided normal tail 2e-9

AGE_BOUNDS = (17, 90)
EDUCATION_BOUNDS = (1, 16)
HOURS_BOUNDS = (1, 99)
RIDGE_REL = 1e-9  # the documented ridge added to a covariance before inversion


# --- stratified sampling moments --------------------------------------------


def query_matrix(age, education_num, never_married, female, hours_per_week) -> np.ndarray:
    """Rows x 5 contributions to the query sums, in query order."""
    return np.column_stack([
        np.asarray(age, dtype=float),
        np.asarray(education_num, dtype=float),
        np.asarray(never_married, dtype=float),
        np.asarray(female, dtype=float),
        np.asarray(hours_per_week, dtype=float),
    ])


def stratified_query_moments(features: np.ndarray, positive: np.ndarray, n: int, p: float):
    """Exact mean and covariance of the 5-statistic query of a subset that
    holds round(n p) rows drawn without replacement from the positive
    stratum and the rest from the negative one.

    A stratum of N rows with population covariance C (divisor N) gives
    its k-row sum the covariance k (N - k) / (N - 1) C (the finite
    population correction). The averages divide the sums by n.
    """
    n_pos = int(round(n * p))
    mean = np.zeros(features.shape[1])
    cov = np.zeros((features.shape[1], features.shape[1]))
    for stratum, k in ((positive, n_pos), (~positive, n - n_pos)):
        rows = features[stratum]
        size = rows.shape[0]
        centered = rows - rows.mean(axis=0)
        pop_cov = centered.T @ centered / size
        mean += k * rows.mean(axis=0)
        if size > 1:
            cov += k * (size - k) / (size - 1) * pop_cov
    scale = np.array([1.0 / n, 1.0 / n, 1.0, 1.0, 1.0 / n])
    return mean * scale, cov * np.outer(scale, scale)


def check_model_moments(doc: dict, mean: np.ndarray, cov: np.ndarray, samples: int) -> List[str]:
    """z-test every mean and covariance entry of one catalog model.

    Means use the exact sampling variance over `samples` draws; covariance
    entries use the normal-theory variance (C_aa C_bb + C_ab^2)/(samples-1)
    of a sample covariance, which holds closely for sums of 100 rows.
    """
    problems = []
    label = f"{doc['property_id']}={doc['value']}"
    if int(doc["sample_count"]) != samples:
        problems.append(f"catalog {label}: sample_count {doc['sample_count']} != {samples}")
    got_mean = np.asarray(doc["mean"], dtype=float)
    got_cov = np.asarray(doc["cov"], dtype=float)
    z_mean = (got_mean - mean) / np.sqrt(np.diag(cov) / samples)
    if np.max(np.abs(z_mean)) > Z_LIMIT:
        problems.append(f"catalog {label}: mean z-scores {np.round(z_mean, 2).tolist()}")
    var = np.diag(cov)
    se = np.sqrt((np.outer(var, var) + cov**2) / (samples - 1))
    z_cov = (got_cov - cov) / se
    if np.max(np.abs(z_cov)) > Z_LIMIT:
        problems.append(f"catalog {label}: covariance z-scores up to {np.max(np.abs(z_cov)):.2f}")
    return problems


# --- the paper's calibration formulas ----------------------------------------


def gaussian_c(delta: float) -> float:
    return math.sqrt(2.0 * math.log(1.25 / delta))


def per_record_sensitivity(n: int, norm: int) -> float:
    """Largest change of the query when one of n records is replaced."""
    parts = [
        (AGE_BOUNDS[1] - AGE_BOUNDS[0]) / n,
        (EDUCATION_BOUNDS[1] - EDUCATION_BOUNDS[0]) / n,
        1.0,
        1.0,
        (HOURS_BOUNDS[1] - HOURS_BOUNDS[0]) / n,
    ]
    return sum(parts) if norm == 1 else math.sqrt(sum(x * x for x in parts))


def _sign_fixed(v: np.ndarray) -> np.ndarray:
    nonzero = v[v != 0.0]
    return -v if nonzero.size and nonzero[0] < 0 else v


def expected_plans(models: Dict[float, dict], pair: Tuple[float, float], epsilon: float,
                   delta: float, n: int, group_size: int) -> Dict[str, dict]:
    """Noise plan parameters of every mechanism except awass, from the
    catalog documents of the two protected values by the paper's formulas.

    Keys hold the plan kind and its parameters as NoisePlan.to_json names
    them: scale (Laplace b or directional scale), sigma, cov, direction.
    """
    lo, hi = pair
    mean = {v: np.asarray(models[v]["mean"], dtype=float) for v in pair}
    cov = {v: np.asarray(models[v]["cov"], dtype=float) for v in pair}
    ordered = [(lo, hi), (hi, lo)]
    gaps = {pr: mean[pr[0]] - mean[pr[1]] for pr in ordered}
    d1 = max(float(np.sum(np.abs(g))) for g in gaps.values())
    d2 = max(float(np.sqrt(np.sum(g * g))) for g in gaps.values())
    c = gaussian_c(delta)
    gap = gaps[(lo, hi)]
    v = _sign_fixed(gap / np.linalg.norm(gap))

    # eig: noise variance per eigendirection of the reference (smallest) value
    target = (c * d2 / epsilon) ** 2
    _, basis = np.linalg.eigh(cov[min(pair)])
    sigma_sq = np.array([
        max(max(0.0, target - float(basis[:, k] @ cov[val] @ basis[:, k])) for val in pair)
        for k in range(basis.shape[1])
    ])
    eig_cov = (basis * sigma_sq) @ basis.T

    # dau: closed-form directional variance credited with the data's own
    dau_sq = 0.0
    for a, b in ordered:
        alpha = float(gaps[(a, b)] @ v)
        need = (alpha * c / epsilon) ** 2
        eta = 1e-6 * need + 1e-12
        m = cov[a].shape[0]
        repaired = cov[a] + RIDGE_REL * float(np.trace(cov[a])) / m * np.eye(m)
        quad = float(v @ np.linalg.solve(repaired, v))
        dau_sq = max(dau_sq, max(eta, need - 1.0 / quad + eta))

    k = group_size
    return {
        "none": {"kind": "none"},
        "wass": {"kind": "laplace_iid", "scale": d1 / epsilon},
        "expm-l": {"kind": "laplace_iid", "scale": d1 / epsilon},
        "expm-g": {"kind": "gaussian_iid", "sigma": c * d2 / epsilon},
        "dir-l": {"kind": "scalar_along_direction", "dist": "laplace",
                  "scale": d2 / epsilon, "direction": v},
        "dir-g": {"kind": "scalar_along_direction", "dist": "gaussian",
                  "scale": c * d2 / epsilon, "direction": v},
        "eig": {"kind": "gaussian_cov", "cov": eig_cov, "sigma_sq": sigma_sq},
        "dau": {"kind": "scalar_along_direction", "dist": "gaussian",
                "scale": math.sqrt(dau_sq), "direction": v},
        "gdp-l": {"kind": "laplace_iid", "scale": k * per_record_sensitivity(n, 1) / epsilon},
        "gdp-g": {"kind": "gaussian_iid",
                  "sigma": c * k * per_record_sensitivity(n, 2) / epsilon},
    }


def _rel_close(got, want, rtol: float) -> bool:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    scale = max(float(np.max(np.abs(want))), 1e-300)
    return got.shape == want.shape and float(np.max(np.abs(got - want))) <= rtol * scale


def compare_plan(plan_doc: dict, want: dict, rtol: float = 1e-9) -> List[str]:
    """Differences between a plan's JSON form and the formula values."""
    problems = []
    if plan_doc["kind"] != want["kind"]:
        return [f"kind {plan_doc['kind']} != {want['kind']}"]
    for key in ("scale", "sigma", "cov", "direction"):
        if key in want and not _rel_close(plan_doc.get(key, np.nan), want[key], rtol):
            problems.append(f"{key} {plan_doc.get(key)} != {np.asarray(want[key]).tolist()}")
    if "dist" in want and plan_doc.get("dist") != want["dist"]:
        problems.append(f"dist {plan_doc.get('dist')} != {want['dist']}")
    return problems


# --- noise scale: tail bounds on a sum of squared noise draws ----------------


def noise_model(plan: dict) -> Tuple[str, np.ndarray]:
    """(distribution, per-coordinate scales) of one noise draw of a plan.

    Laplace scales are b; Gaussian scales are standard deviations along
    orthogonal directions, so ||noise||^2 = sum of (scale * Z)^2.
    """
    kind = plan["kind"]
    if kind == "laplace_iid":
        return "laplace", np.full(5, float(plan["scale"]))
    if kind == "gaussian_iid":
        return "gaussian", np.full(5, float(plan["sigma"]))
    if kind == "scalar_along_direction":
        return plan["dist"], np.array([float(plan["scale"])])
    if kind == "gaussian_cov":
        if "sigma_sq" in plan:
            variances = np.asarray(plan["sigma_sq"], dtype=float)
        else:
            variances = np.linalg.eigvalsh(np.asarray(plan["cov"], dtype=float))
        return "gaussian", np.sqrt(np.clip(variances, 0.0, None))
    raise ValueError(f"plan kind {kind!r} adds no noise")


def _solve_chernoff(log_bound, lo: float, hi: float, alpha: float, no_bound: float) -> float:
    """Threshold in [lo, hi] where a monotone log tail bound equals log alpha;
    `no_bound` when the bound never gets that small in the bracket."""
    target = math.log(alpha)
    f = lambda t: log_bound(t) - target  # noqa: E731
    if f(lo) * f(hi) > 0:
        return no_bound
    return optimize.brentq(f, lo, hi, xtol=1e-10 * max(abs(lo), abs(hi), 1.0))


def _min_over_lambda(fun, lam_hi: float) -> float:
    res = optimize.minimize_scalar(
        lambda u: fun(math.exp(u)), bounds=(math.log(lam_hi) - 40.0, math.log(lam_hi)),
        method="bounded", options={"xatol": 1e-9},
    )
    return float(res.fun)


def gaussian_square_sum_interval(variances: np.ndarray, alpha: float = ALPHA) -> Tuple[float, float]:
    """Interval holding sum_i w_i Z_i^2 (Z standard normal) with probability
    at least 1 - 2 alpha, from Chernoff bounds with the exact moment
    generating function -1/2 sum log(1 - 2 t w_i).
    """
    w = np.asarray(variances, dtype=float)
    w = w[w > 0.0]
    if w.size == 0:
        return 0.0, 0.0
    mean = float(w.sum())
    lam_max = 0.5 / float(w.max())

    def upper_log(t):
        return _min_over_lambda(
            lambda lam: -lam * t - 0.5 * float(np.sum(np.log1p(-2.0 * lam * w))),
            lam_max * (1.0 - 1e-12),
        )

    def lower_log(s):
        return _min_over_lambda(
            lambda lam: lam * s - 0.5 * float(np.sum(np.log1p(2.0 * lam * w))), 1e6 / mean
        )

    hi = _solve_chernoff(upper_log, mean, 50.0 * mean, alpha, math.inf)
    lo = _solve_chernoff(lower_log, 0.0, mean, alpha, 0.0)
    return lo, hi


def laplace_square_sum_interval(count: int, scale: float, alpha: float = ALPHA) -> Tuple[float, float]:
    """Interval holding the sum of `count` squared Laplace(scale) draws with
    probability at least 1 - 2 alpha."""
    lo, hi = _unit_laplace_interval(count, alpha)
    return lo * scale * scale, hi * scale * scale


@functools.lru_cache(maxsize=None)
def _unit_laplace_interval(count: int, alpha: float) -> Tuple[float, float]:
    """The same for scale 1, by Chernoff bounds on a sum of E^2, E exponential.

    Lower tail: E exp(-t E^2) = sqrt(pi/(4t)) erfcx(1/(2 sqrt t)). E^2 has no
    moment generating function above zero, so the upper tail caps each term
    at tau, with count P(E^2 > tau) = alpha/2, and bounds the capped sum.
    """
    mean = 2.0 * count

    def log_mgf_neg(t):
        return 0.5 * math.log(math.pi / (4.0 * t)) + math.log(special.erfcx(0.5 / math.sqrt(t)))

    def lower_log(s):
        return _min_over_lambda(lambda lam: lam * s + count * log_mgf_neg(lam), 1e4)

    root_tau = math.log(2.0 * count / alpha)
    tau = root_tau * root_tau

    def log_mgf_capped(lam):
        body, _ = integrate.quad(lambda x: math.exp(lam * x * x - x), 0.0, root_tau, limit=200)
        return math.log(body + math.exp(lam * tau - root_tau))

    def upper_log(t):
        return _min_over_lambda(lambda lam: -lam * t + count * log_mgf_capped(lam), 1.0)

    lo = _solve_chernoff(lower_log, 0.0, mean, alpha, 0.0)
    hi = _solve_chernoff(upper_log, mean, count * tau, alpha / 2.0, math.inf)
    return lo, hi


def check_square_sum(observed: float, plan: dict, draws: int, what: str,
                     alpha: float = ALPHA) -> List[str]:
    """Compare sum over `draws` of ||noise||^2 with what the plan implies."""
    dist, scales = noise_model(plan)
    if dist == "laplace":
        lo, hi = laplace_square_sum_interval(draws * scales.size, float(scales[0]), alpha)
    else:
        lo, hi = gaussian_square_sum_interval(np.tile(scales**2, draws), alpha)
    if lo <= observed <= hi:
        return []
    return [f"{what}: sum of squared noise {observed:.6g} outside [{lo:.6g}, {hi:.6g}] "
            f"over {draws} draws"]


# --- attack accuracy ----------------------------------------------------------


def accuracy_bound(epsilon: float, delta: float) -> float:
    """Largest balanced accuracy any test can reach against an
    (epsilon, delta)-indistinguishable release."""
    e = math.exp(epsilon)
    return (e + delta) / (1.0 + e)


def hoeffding_radius(predictions: int, alpha: float = ALPHA) -> float:
    """Deviation of a mean of independent 0/1 outcomes exceeded with
    probability at most alpha."""
    return math.sqrt(math.log(1.0 / alpha) / (2.0 * predictions))


# --- transport ------------------------------------------------------------------


def pairwise_l1(points_mu: np.ndarray, points_nu: np.ndarray) -> np.ndarray:
    """L1 distances as one IEEE expression, so thresholds compare exactly."""
    return np.abs(points_mu[:, None, :] - points_nu[None, :, :]).sum(axis=2)


def flow_within(supply: Sequence[int], demand: Sequence[int], dist: np.ndarray, t: float) -> int:
    """Integer max flow from supplies to demands over pairs at distance <= t,
    by scipy's maximum_flow on the bipartite network
    source -> supply i -> demand j -> sink."""
    k, l = len(supply), len(demand)
    sup = np.asarray(supply, dtype=np.int64)
    dem = np.asarray(demand, dtype=np.int64)
    ii, jj = np.nonzero(dist <= t)
    sink = k + l + 1
    rows = np.concatenate([np.zeros(k, dtype=np.int64), 1 + ii, 1 + k + np.arange(l)])
    cols = np.concatenate([1 + np.arange(k), 1 + k + jj, np.full(l, sink)])
    caps = np.concatenate([sup, np.minimum(sup[ii], dem[jj]), dem])
    if caps.max() >= 2**31:
        raise ValueError("capacities exceed scipy's int32 range")
    graph = csr_matrix((caps.astype(np.int32), (rows, cols)), shape=(sink + 1, sink + 1))
    return int(maximum_flow(graph, 0, sink).flow_value)


def check_threshold(supply, demand, dist: np.ndarray, found: float, needed: Fraction,
                    what: str) -> List[str]:
    """`found` must move at least `needed` of the mass, and the next smaller
    realized distance must not. Masses share one denominator."""
    total = sum(supply)
    if total != sum(demand):
        return [f"{what}: unequal scaled masses"]
    problems = []
    if Fraction(flow_within(supply, demand, dist, found), total) < needed:
        problems.append(f"{what}: threshold {found!r} is infeasible")
    smaller = np.unique(dist[dist < found])
    if smaller.size and Fraction(flow_within(supply, demand, dist, float(smaller[-1])), total) >= needed:
        problems.append(f"{what}: smaller distance {float(smaller[-1])!r} is already feasible")
    return problems


def winf_1d(points_mu, mass_mu: Sequence[Fraction], points_nu, mass_nu: Sequence[Fraction]) -> float:
    """W-infinity on the line: the largest gap between the quantile
    functions, found by walking the merged CDFs in Fractions."""
    a = sorted((float(x), m) for x, m in zip(np.ravel(points_mu), mass_mu) if m > 0)
    b = sorted((float(y), m) for y, m in zip(np.ravel(points_nu), mass_nu) if m > 0)
    i = j = 0
    ra, rb = a[0][1], b[0][1]
    gap = 0.0
    while i < len(a) and j < len(b):
        gap = max(gap, abs(a[i][0] - b[j][0]))
        step = min(ra, rb)
        ra -= step
        rb -= step
        if ra == 0:
            i += 1
            ra = a[i][1] if i < len(a) else None
        if rb == 0:
            j += 1
            rb = b[j][1] if j < len(b) else None
    return gap


def check_certificate(edges, retained: Fraction, max_dist: float, points_mu, mass_mu,
                      points_nu, mass_nu, w: float, delta: Fraction, what: str) -> List[str]:
    """Re-verify a coupling certificate: masses, marginals, lengths, retained mass."""
    used_mu = [Fraction(0)] * len(mass_mu)
    used_nu = [Fraction(0)] * len(mass_nu)
    longest = 0.0
    total = Fraction(0)
    problems = []
    for i, j, mass in edges:
        if mass <= 0:
            problems.append(f"{what}: edge ({i}, {j}) carries mass {mass}")
        length = float(np.abs(points_mu[i] - points_nu[j]).sum())
        if length > w:
            problems.append(f"{what}: edge ({i}, {j}) has length {length!r} > {w!r}")
        longest = max(longest, length)
        used_mu[i] += mass
        used_nu[j] += mass
        total += mass
    if any(u > m for u, m in zip(used_mu, mass_mu)) or any(u > m for u, m in zip(used_nu, mass_nu)):
        problems.append(f"{what}: coupling exceeds a marginal")
    if total != retained:
        problems.append(f"{what}: edges carry {total}, certificate says {retained}")
    if total < 1 - delta:
        problems.append(f"{what}: retained mass {total} < 1 - {delta}")
    if edges and longest != max_dist:
        problems.append(f"{what}: longest edge {longest!r} != stated {max_dist!r}")
    return problems
