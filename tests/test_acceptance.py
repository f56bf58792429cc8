"""Acceptance gate: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s`. Criteria 3, 4, and 5
evaluate statistics of the canonical Adult census files, which ship
separately; those tests skip with instructions when the files are absent
and run in full once `data/` is populated (see README).
"""

import math
import time

import numpy as np
import pytest

from distpriv.cli import ExperimentConfig, cmd_attack, cmd_model, cmd_utility
from distpriv.mechanisms import (
    NoisePlan,
    apply,
    apply_batch,
    audit,
    calibrate_expm,
    dau_plan,
    eig_plan,
    relaxed_budget_maxdiv,
    relaxed_budget_wasserstein,
)
from distpriv.model import GaussianModel, PrivacyParams
from distpriv.seeding import derive_rng
from distpriv.transport import (
    DiscreteDistribution,
    max_mass_within,
    min_w_for_delta,
    winf_distance,
)

from helpers import worked_example_family, translation_family
from oracles import oracle_max_mass, oracle_winf, random_twentieths_distribution

ACCEPTANCE_SEED = 20260808


def _report(num, name, ok, detail=""):
    line = f"[ACCEPTANCE {num}] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, f"acceptance criterion {num} ({name}) failed: {detail}"


def _mean_rows(csv_path):
    means = {}
    for line in csv_path.read_text().splitlines()[1:]:
        parts = line.split(",")
        if parts[5] == "mean":
            means[(parts[0], float(parts[1]))] = float(parts[6])
    return means


@pytest.fixture(scope="session")
def adult_utility(adult_path, tmp_path_factory):
    out = tmp_path_factory.mktemp("acceptance_utility")
    cfg = ExperimentConfig.from_dict({
        "dataset": str(adult_path),
        "dataset_format": "adult",
        "seed": ACCEPTANCE_SEED,
        "property": "income",
        "p_center": 0.5,
        "delta_p": [0.1],
        "epsilon": [0.2, 1.0, 5.0],
        "delta": [0.001],
        "mechanisms": ["expm-g", "eig", "dau", "gdp-g"],
        "n": 100,
        "modeling_samples": 1000,
        "repetitions": 50,
        "out_dir": str(out),
    })
    start = time.perf_counter()
    cmd_model(cfg)
    path = cmd_utility(cfg)
    elapsed = time.perf_counter() - start
    return _mean_rows(path), elapsed


@pytest.fixture(scope="session")
def adult_attack(adult_path, tmp_path_factory):
    out = tmp_path_factory.mktemp("acceptance_attack")
    cfg = ExperimentConfig.from_dict({
        "dataset": str(adult_path),
        "dataset_format": "adult",
        "seed": ACCEPTANCE_SEED,
        "property": "income",
        "p_center": 0.5,
        "delta_p": [0.1],
        "epsilon": [0.1, 5.0],
        "delta": [0.001],
        "mechanisms": ["none", "expm-g", "eig", "dau", "gdp-g"],
        "n": 100,
        "modeling_samples": 1000,
        "repetitions": 50,
        "out_dir": str(out),
    })
    start = time.perf_counter()
    cmd_model(cfg)
    path = cmd_attack(cfg)
    elapsed = time.perf_counter() - start
    return _mean_rows(path), elapsed


@pytest.mark.timing
def test_criterion_1_transport_golden():
    points = [[1.0], [2.0], [3.0], [100.0]]
    mu = DiscreteDistribution(points, [6, 2, 0, 2], 10)
    nu = DiscreteDistribution(points, [4, 3, 2, 1], 10)
    # warm both timed code paths, so lazy first-call imports stay untimed
    winf_distance(mu, nu)
    min_w_for_delta(mu, nu, 0.1)
    start = time.perf_counter()
    winf = winf_distance(mu, nu)
    min_w = min_w_for_delta(mu, nu, 0.1)
    elapsed = time.perf_counter() - start
    ok = winf == 97.0 and min_w == 1.0 and elapsed < 0.010
    _report(1, "bottleneck transport golden values", ok,
            f"winf={winf}, min_w(delta=0.1)={min_w}, runtime={elapsed * 1e3:.2f} ms")


def test_criterion_2_eigenvector_plan_golden():
    family = worked_example_family()
    params = PrivacyParams(1.0, 0.001)
    plan = eig_plan(family, params)
    target = plan.provenance["target_variance"]
    v1 = np.array([1.0, 2.0]) / np.sqrt(5.0)
    v2 = np.array([2.0, -1.0]) / np.sqrt(5.0)
    sigma1 = float(v1 @ plan.cov @ v1)
    sigma2 = float(v2 @ plan.cov @ v2)
    ok = (
        abs(sigma1 - 18.52) <= 0.01
        and abs(sigma2 - 3.52) <= 0.01
        and abs(target - 28.52) <= 0.01
    )
    _report(2, "eigenvector noise plan golden values", ok,
            f"sigma1^2={sigma1:.4f}, sigma2^2={sigma2:.4f}, target={target:.4f}")


@pytest.mark.adult
def test_criterion_3_utility_table_reproduction(adult_utility):
    means, elapsed = adult_utility
    expm_targets = {0.2: 177.28, 1.0: 34.98, 5.0: 7.11}
    gdp_targets = {0.2: 7394.67, 1.0: 1539.93, 5.0: 293.17}
    problems = []
    for eps, target in expm_targets.items():
        got = means[("expm-g", eps)]
        if not (0.65 * target <= got <= 1.35 * target):
            problems.append(f"expm-g@{eps}: {got:.2f} vs {target}")
    for eps, target in gdp_targets.items():
        got = means[("gdp-g", eps)]
        if not (0.75 * target <= got <= 1.25 * target):
            problems.append(f"gdp-g@{eps}: {got:.2f} vs {target}")
    for eps in expm_targets:
        ratio = means[("gdp-g", eps)] / means[("expm-g", eps)]
        if ratio < 10.0:
            problems.append(f"gdp/expm ratio@{eps}: {ratio:.1f}")
    if elapsed >= 300.0:
        problems.append(f"runtime {elapsed:.0f}s")
    summary = ", ".join(
        f"{m}@{e}={means[(m, e)]:.2f}" for m in ("expm-g", "gdp-g") for e in (0.2, 1.0, 5.0)
    )
    _report(3, "mean utility error reproduction", not problems,
            "; ".join(problems) if problems else f"{summary}, runtime={elapsed:.0f}s")


@pytest.mark.adult
def test_criterion_4_mechanism_ordering(adult_utility):
    means, _ = adult_utility
    problems = []
    for eps in (0.2, 1.0, 5.0):
        dau, eig, expm = means[("dau", eps)], means[("eig", eps)], means[("expm-g", eps)]
        if not (dau <= eig <= expm):
            problems.append(f"ordering@{eps}: dau={dau:.2f}, eig={eig:.2f}, expm={expm:.2f}")
    if means[("dau", 0.2)] > 0.70 * means[("expm-g", 0.2)]:
        problems.append(
            f"dau@0.2 not 30% below expm: {means[('dau', 0.2)]:.2f} vs {means[('expm-g', 0.2)]:.2f}"
        )
    detail = ", ".join(
        f"{m}@0.2={means[(m, 0.2)]:.2f}" for m in ("dau", "eig", "expm-g")
    )
    _report(4, "adversarial-uncertainty ordering", not problems,
            "; ".join(problems) if problems else detail)


@pytest.mark.adult
def test_criterion_5_attack_reproduction(adult_attack):
    means, elapsed = adult_attack
    problems = []
    undefended = means[("none", 0.1)]
    if undefended < 0.70:
        problems.append(f"undefended accuracy {undefended:.3f} < 0.70")
    for mech in ("expm-g", "eig", "dau", "gdp-g"):
        acc = means[(mech, 0.1)]
        if not (0.45 <= acc <= 0.58):
            problems.append(f"{mech}@0.1 accuracy {acc:.3f} outside [0.45, 0.58]")
    dau5 = means[("dau", 5.0)]
    if dau5 < 0.65:
        problems.append(f"dau@5 accuracy {dau5:.3f} < 0.65")
    if elapsed >= 900.0:
        problems.append(f"runtime {elapsed:.0f}s")
    detail = (
        f"none={undefended:.3f}, "
        + ", ".join(f"{m}@0.1={means[(m, 0.1)]:.3f}" for m in ("expm-g", "eig", "dau", "gdp-g"))
        + f", dau@5={dau5:.3f}, runtime={elapsed:.0f}s"
    )
    _report(5, "property-inference attack reproduction", not problems,
            "; ".join(problems) if problems else detail)


def test_criterion_6_transport_oracle_equivalence():
    rng = derive_rng(ACCEPTANCE_SEED, "transport-oracle")
    start = time.perf_counter()
    checked = 0
    for _ in range(200):
        mu = random_twentieths_distribution(rng)
        nu = random_twentieths_distribution(rng, dim=mu.dim)
        assert winf_distance(mu, nu) == oracle_winf(mu, nu)
        for w in (0.0, 1.0, 2.5, 6.0):
            assert max_mass_within(mu, nu, w) == oracle_max_mass(mu, nu, w)
        checked += 1
    elapsed = time.perf_counter() - start
    ok = checked == 200 and elapsed < 30.0
    _report(6, "exact transport equals brute-force oracle", ok,
            f"{checked} pairs, runtime={elapsed:.1f}s")


def test_criterion_7_privacy_audit_suite():
    rng = derive_rng(ACCEPTANCE_SEED, "audit-suite")
    start = time.perf_counter()
    worst = -math.inf
    worst_case = ""
    for idx in range(20):
        family = translation_family(rng, m=int(rng.integers(2, 4)))
        eps = float(rng.uniform(0.2, 0.9))
        delta = float(rng.uniform(1e-3, 1e-2))
        lab_i, lab_j = family.pairs[0]
        gap = family.catalog[lab_i].mean - family.catalog[lab_j].mean
        v = gap / np.linalg.norm(gap)
        plans = {
            "expm-l": (calibrate_expm(family, PrivacyParams(eps, delta), "laplace"),
                       PrivacyParams(eps, 0.0)),
            "expm-g": (calibrate_expm(family, PrivacyParams(eps, delta), "gaussian"),
                       PrivacyParams(eps, delta)),
            "eig": (eig_plan(family, PrivacyParams(eps, delta)),
                    PrivacyParams(eps, delta)),
            "dau": (dau_plan(family, v, PrivacyParams(eps, delta)),
                    PrivacyParams(eps, delta)),
        }
        for name, (plan, declared) in plans.items():
            report = audit(
                plan, family.catalog[lab_i], family.catalog[lab_j], declared,
                100_000, derive_rng(ACCEPTANCE_SEED, "audit", idx, name),
            )
            if report.estimated_violation > worst:
                worst = report.estimated_violation
                worst_case = f"{name} on family {idx}"

    # an unprotected release of well-separated models must be flagged
    pos_params = PrivacyParams(0.1, 0.001)
    gap_len = 10.0 * pos_params.epsilon / pos_params.gaussian_c()
    model_i = GaussianModel([gap_len, 0.0], np.eye(2), 100)
    model_j = GaussianModel([0.0, 0.0], np.eye(2), 100)
    positive = audit(
        NoisePlan(kind="none"), model_i, model_j, pos_params,
        100_000, derive_rng(ACCEPTANCE_SEED, "audit-positive"),
    ).estimated_violation
    elapsed = time.perf_counter() - start
    ok = worst <= 0.0 and positive > 0.0 and elapsed < 600.0
    _report(7, "calibrated plans audit clean, unprotected release flagged", ok,
            f"worst={worst:.4f} ({worst_case}), unprotected={positive:.4f}, "
            f"runtime={elapsed:.0f}s")


def test_criterion_8_relaxation_arithmetic():
    maxdiv = relaxed_budget_maxdiv(PrivacyParams(1.0, 0.001), 0.1, 0.01)
    wass = relaxed_budget_wasserstein(PrivacyParams(1.0, 0.001), 0.5, 2.0)
    expected_delta = (1.0 + math.exp(1.1)) * 0.01 + math.exp(0.1) * 0.001
    ok = (
        abs(maxdiv.epsilon_prime - 1.2) <= 1e-12
        and abs(maxdiv.delta_prime - expected_delta) <= 1e-12
        and abs(wass.epsilon_prime - 2.0) <= 1e-12
        and abs(wass.delta_prime - math.exp(0.5) * 0.001) <= 1e-12
        and abs(wass.extra_noise_scale - 4.0) <= 1e-12
    )
    _report(8, "relaxed budget arithmetic", ok,
            f"maxdiv=({maxdiv.epsilon_prime}, {maxdiv.delta_prime:.6g}), "
            f"wasserstein=({wass.epsilon_prime}, {wass.delta_prime:.6g}, "
            f"scale={wass.extra_noise_scale})")


def test_criterion_9_sampler_moments_and_directionality():
    problems = []
    scale = 3.0
    laplace = apply_batch(NoisePlan(kind="laplace_iid", scale=scale), np.zeros((1, 10**6)),
                          derive_rng(ACCEPTANCE_SEED, "lap"))
    lap_var = float(np.var(laplace))
    if abs(lap_var - 2.0 * scale**2) > 0.03 * 2.0 * scale**2:
        problems.append(f"laplace variance {lap_var:.3f} vs {2 * scale**2}")

    cov = np.array([[4.0, 1.0, 0.0], [1.0, 2.0, -0.5], [0.0, -0.5, 1.0]])
    cov_plan = NoisePlan(kind="gaussian_cov", cov=cov)
    gauss = apply_batch(cov_plan, np.zeros((10**6, 3)), derive_rng(ACCEPTANCE_SEED, "gauss"))
    sample_cov = np.cov(gauss.T)
    rel = float(np.linalg.norm(sample_cov - cov) / np.linalg.norm(cov))
    if rel > 0.03:
        problems.append(f"gaussian covariance off by {rel:.4f} relative")
    single = apply(cov_plan, np.zeros(3), derive_rng(ACCEPTANCE_SEED, "gauss-one"))
    if single.shape != (3,):
        problems.append("gaussian sampler shape")

    v = np.array([0.0, 1.0, 0.0])
    plan = NoisePlan(kind="scalar_along_direction", dist="gaussian", scale=2.0, direction=v)
    x = np.array([0.3, -1.7, 2.25])
    out = apply(plan, x, derive_rng(ACCEPTANCE_SEED, "dir"))
    if out[0].tobytes() != x[0].tobytes() or out[2].tobytes() != x[2].tobytes():
        problems.append("orthogonal components changed")
    if out[1] == x[1]:
        problems.append("noised component unchanged")

    _report(9, "sampler moments and directional structure", not problems,
            "; ".join(problems) if problems else
            f"laplace var={lap_var:.2f}, cov rel err={rel:.4f}")
