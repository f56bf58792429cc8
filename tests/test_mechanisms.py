import hashlib
import json
import math
import statistics
import time
from pathlib import Path

import numpy as np
import pytest

from distpriv.attack import LinearClassifier
from distpriv.cli import MECHANISMS, ExperimentConfig, build_plan
from distpriv.dataio import QUERY_COMPONENTS
from distpriv.errors import AssumptionViolation, ConfigError, NumericError
from distpriv.mechanisms import (
    ANGLE_TOL,
    BASIS_TOL,
    COV_TOL,
    MAX_L1_RADIUS_DIM,
    NoisePlan,
    apply,
    apply_batch,
    audit,
    calibrate_approx_wasserstein,
    calibrate_directional,
    calibrate_expm,
    calibrate_wasserstein,
    dau_plan,
    eig_plan,
    gaussian_l1_radius,
    gaussian_model_draws,
    group_dp_calibrate,
    no_noise_check,
    per_record_sensitivity,
    relaxed_budget_maxdiv,
    relaxed_budget_wasserstein,
    release_draws,
)
from distpriv.mechanisms import _AUDIT_QUANTILES, _half_space_violation, _sorted_quantiles
from distpriv.model import (
    AssumptionReport,
    GaussianModel,
    PairFamily,
    PrivacyParams,
    SecretLabel,
    check_assumptions,
    cov_discrepancy,
    delta_E,
    eigenbasis_residual,
    family_from_catalog,
    fit_common_direction,
    gap_angle,
    load_catalog,
    solve_spd,
)
from distpriv.seeding import derive_rng
from distpriv.transport import DiscreteDistribution

from helpers import WORKED_COV, translation_family, worked_example_family
from oracles import oracle_audit_violation, oracle_release_draws

PARAMS = PrivacyParams(1.0, 0.001)
V_GAP = np.array([1.0, -1.0]) / np.sqrt(2.0)


def expected_l2_norm_factor(m: int) -> float:
    """E |N(0, I_m)|_2 = sqrt(2) Gamma((m+1)/2) / Gamma(m/2)."""
    return math.sqrt(2.0) * math.gamma((m + 1) / 2.0) / math.gamma(m / 2.0)


class TestSamplers:
    def test_laplace_moments(self):
        rng = derive_rng(0, "laplace-moments")
        scale = 3.0
        draws = apply_batch(NoisePlan(kind="laplace_iid", scale=scale), np.zeros((1, 10**6)), rng)
        assert np.var(draws) == pytest.approx(2.0 * scale**2, rel=0.02)
        assert abs(np.median(draws)) < 3.0 * scale / np.sqrt(draws.size) * 2.0

    def test_laplace_determinism(self):
        plan = NoisePlan(kind="laplace_iid", scale=1.0)
        a = apply_batch(plan, np.zeros((4, 16)), derive_rng(7, "s"))
        b = apply_batch(plan, np.zeros((4, 16)), derive_rng(7, "s"))
        assert a.tobytes() == b.tobytes()

    def test_gaussian_cov_moments(self):
        cov = np.array([[4.0, 1.0], [1.0, 2.0]])
        rng = derive_rng(1, "gauss-moments")
        draws = apply_batch(NoisePlan(kind="gaussian_cov", cov=cov), np.zeros((50_000, 2)), rng)
        sample_cov = np.cov(draws.T)
        rel = np.linalg.norm(sample_cov - cov) / np.linalg.norm(cov)
        assert rel < 0.03

    def test_gaussian_cov_zero_matrix(self):
        plan = NoisePlan(kind="gaussian_cov", cov=np.zeros((3, 3)))
        draw = apply_batch(plan, np.zeros((1, 3)), derive_rng(2))
        assert np.array_equal(draw, np.zeros((1, 3)))

    def test_gaussian_cov_diagonal_independence(self):
        plan = NoisePlan(kind="gaussian_cov", cov=np.diag([1.0, 9.0]))
        draws = apply_batch(plan, np.zeros((100_000, 2)), derive_rng(3, "diag"))
        corr = np.corrcoef(draws.T)[0, 1]
        assert abs(corr) < 0.01

    def test_gaussian_cov_rejects_indefinite(self):
        indefinite = np.array([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(ValueError, match="not positive semi-definite"):
            NoisePlan(kind="gaussian_cov", cov=indefinite)
        # A plan cannot be altered after construction, so one check suffices.
        plan = NoisePlan(kind="gaussian_cov", cov=np.eye(2))
        with pytest.raises(AttributeError):
            plan.cov = indefinite
        for array in (plan.cov, plan.factor):
            with pytest.raises(ValueError):
                array[0, 0] = -1.0

    def test_gaussian_cov_rejects_asymmetric_at_construction(self):
        with pytest.raises(ValueError, match="not symmetric"):
            NoisePlan(kind="gaussian_cov", cov=np.array([[1.0, 0.5], [0.2, 1.0]]))

    def test_gaussian_cov_rejects_nonfinite(self):
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="finite"):
                NoisePlan(kind="gaussian_cov", cov=np.array([[bad]]))


class TestWassersteinCalibrations:
    def test_scale_is_distance_over_epsilon(self):
        plan = calibrate_wasserstein(worked_example_family(), PrivacyParams(1.0))
        assert plan.kind == "laplace_iid"
        assert plan.scale == plan.provenance["delta_w"] == 2.0  # the L1 gap of (1, -1)
        gap = np.array([1.0, 2.0, -4.0])
        fam = translation_family(np.random.default_rng(3), gap=gap)
        assert calibrate_wasserstein(fam, PrivacyParams(0.5)).scale == pytest.approx(14.0)

    def test_zero_distance(self):
        fam = translation_family(np.random.default_rng(4), gap=np.zeros(3))
        assert calibrate_wasserstein(fam, PrivacyParams(2.0)).scale == 0.0

    def test_linearity_in_epsilon(self):
        fam = worked_example_family()
        assert (
            calibrate_wasserstein(fam, PrivacyParams(2.0)).scale
            == calibrate_wasserstein(fam, PrivacyParams(1.0)).scale / 2.0
        )

    def test_approx_variant_uses_certified_radius(self):
        fam = worked_example_family()
        params = PrivacyParams(0.7, 0.1)
        plan = calibrate_approx_wasserstein(fam, params)
        radius = max(gaussian_l1_radius(model, params.delta) for model in fam.catalog.values())
        assert radius > 0.0
        w = delta_E(fam, 1) + 2.0 * radius
        assert plan.kind == "laplace_iid"
        assert plan.scale == w / params.epsilon
        assert list(plan.provenance.items()) == [
            ("mechanism", "approx_wasserstein"), ("w", w), ("epsilon", 0.7), ("delta", 0.1),
            ("l1_radius", radius), ("l1_radius_method", "gaussian_union_bound")]


GOLDEN_CATALOG = Path(__file__).resolve().parent / "golden" / "catalog.json"


class TestGaussianL1Radius:
    @pytest.mark.parametrize("sigma", [0.3, 1.0, 17.5])
    @pytest.mark.parametrize("delta", [0.5, 0.1, 1e-3, 1e-6, 1e-12])
    def test_one_dimension_is_the_exact_quantile(self, sigma, delta):
        stats = pytest.importorskip("scipy.stats")
        radius = gaussian_l1_radius(GaussianModel([3.0], [[sigma**2]], 10), delta)
        assert radius == pytest.approx(stats.norm.isf(delta / 4.0) * sigma, rel=1e-9)

    def test_holds_its_mass_on_the_golden_catalog(self):
        delta = 1e-2
        for label, model in sorted(load_catalog(GOLDEN_CATALOG).items()):
            radius = gaussian_l1_radius(model, delta)
            rng = derive_rng(23, "l1-radius", label.value)
            deviations = np.concatenate([
                np.abs(gaussian_model_draws(model, 250_000, rng) - model.mean).sum(axis=1)
                for _ in range(4)])
            assert radius >= np.quantile(deviations, 1.0 - delta / 2.0)
            assert np.mean(deviations > radius) <= delta / 2.0

    def test_nonincreasing_in_delta(self):
        deltas = np.geomspace(1e-12, 0.9, 40)
        correlated = GaussianModel(np.zeros(3), [[4.0, 1.5, -1.0], [1.5, 2.0, 0.3],
                                                 [-1.0, 0.3, 1.0]], 10)
        for model in [*load_catalog(GOLDEN_CATALOG).values(), correlated]:
            radii = [gaussian_l1_radius(model, float(delta)) for delta in deltas]
            assert all(a >= b for a, b in zip(radii, radii[1:]))

    def test_zero_covariance_gives_zero(self):
        assert gaussian_l1_radius(GaussianModel(np.ones(3), np.zeros((3, 3)), 10), 1e-3) == 0.0

    def test_refuses_a_dimension_too_wide_to_enumerate(self):
        wide = MAX_L1_RADIUS_DIM + 1
        with pytest.raises(ConfigError, match=f"has {wide}"):
            gaussian_l1_radius(GaussianModel(np.zeros(wide), np.eye(wide), 10), 1e-3)
        at_cap = GaussianModel(np.zeros(MAX_L1_RADIUS_DIM), np.eye(MAX_L1_RADIUS_DIM), 10)
        assert gaussian_l1_radius(at_cap, 1e-3) > 0.0

    @pytest.mark.parametrize("delta", [0.0, 1.0])
    def test_rejects_delta_outside_the_open_unit_interval(self, delta):
        with pytest.raises(ValueError):
            gaussian_l1_radius(GaussianModel([0.0], [[1.0]], 10), delta)


class TestExpectedValueMechanism:
    def test_worked_example_variance(self):
        plan = calibrate_expm(worked_example_family(), PARAMS, "gaussian")
        assert plan.sigma**2 == pytest.approx(28.52, abs=0.01)

    def test_identical_means_need_no_noise(self):
        lab_a, lab_b = SecretLabel("p", 0.4), SecretLabel("p", 0.6)
        model = GaussianModel([1.0, 1.0], np.eye(2), 10)
        fam = PairFamily({lab_a: model, lab_b: model}, [(lab_a, lab_b), (lab_b, lab_a)])
        assert calibrate_expm(fam, PARAMS, "laplace").scale == 0.0
        assert calibrate_expm(fam, PARAMS, "gaussian").sigma == 0.0

    def test_laplace_scale_linear_in_gaps(self):
        rng = np.random.default_rng(5)
        fam = translation_family(rng, gap=np.array([1.0, 2.0, -1.0]))
        fam2 = translation_family(rng, gap=np.array([2.0, 4.0, -2.0]))
        s1 = calibrate_expm(fam, PARAMS, "laplace").scale
        s2 = calibrate_expm(fam2, PARAMS, "laplace").scale
        assert s2 == pytest.approx(2.0 * s1)

    def test_gaussian_requires_positive_delta(self):
        with pytest.raises(ValueError):
            calibrate_expm(worked_example_family(), PrivacyParams(1.0, 0.0), "gaussian")

    def test_epsilon_above_one_warns_in_provenance(self):
        plan = calibrate_expm(worked_example_family(), PrivacyParams(5.0, 0.001), "gaussian")
        assert plan.provenance["warnings"]
        plan_small = calibrate_expm(worked_example_family(), PrivacyParams(0.5, 0.001), "gaussian")
        assert not plan_small.provenance["warnings"]

    def test_scale_monotonicity(self):
        fam = worked_example_family()
        sig_eps = [
            calibrate_expm(fam, PrivacyParams(e, 0.001), "gaussian").sigma
            for e in (0.2, 1.0, 5.0)
        ]
        assert sig_eps == sorted(sig_eps, reverse=True)
        sig_delta = [
            calibrate_expm(fam, PrivacyParams(1.0, d), "gaussian").sigma
            for d in (1e-4, 1e-3, 1e-2)
        ]
        assert sig_delta == sorted(sig_delta, reverse=True)


class TestScaleMonotonicity:
    # every calibration shrinks as the budget loosens and grows with the gap

    @staticmethod
    def _magnitude(plan):
        if plan.kind == "laplace_iid":
            return plan.scale
        if plan.kind == "gaussian_iid":
            return plan.sigma
        if plan.kind == "gaussian_cov":
            return float(np.trace(plan.cov))
        return plan.scale

    def _calibrations(self, fam):
        return {
            "wass": lambda p: calibrate_wasserstein(fam, p),
            "awass": lambda p: calibrate_approx_wasserstein(fam, p),
            "expm-l": lambda p: calibrate_expm(fam, p, "laplace"),
            "expm-g": lambda p: calibrate_expm(fam, p, "gaussian"),
            "dir-g": lambda p: calibrate_directional(fam, p, "gaussian"),
            "eig": lambda p: eig_plan(fam, p),
            "dau": lambda p: dau_plan(fam, p),
            "gdp-g": lambda p: group_dp_calibrate(2.0, 100, p, "gaussian"),
        }

    def test_nonincreasing_in_epsilon(self):
        fam = worked_example_family()
        for name, calibrate in self._calibrations(fam).items():
            mags = [
                self._magnitude(calibrate(PrivacyParams(eps, 0.001)))
                for eps in (0.2, 1.0, 5.0)
            ]
            assert mags == sorted(mags, reverse=True), name

    def test_nonincreasing_in_delta(self):
        fam = worked_example_family()
        for name, calibrate in self._calibrations(fam).items():
            if name in ("wass", "expm-l"):
                continue  # pure-epsilon guarantees ignore delta
            mags = [
                self._magnitude(calibrate(PrivacyParams(1.0, d)))
                for d in (1e-4, 1e-3, 1e-2)
            ]
            assert mags == sorted(mags, reverse=True), name

    def test_nondecreasing_in_gap(self):
        rng = np.random.default_rng(31)
        base_gap = np.array([1.0, 0.5, -0.25])
        small = translation_family(rng, gap=base_gap)
        # same covariance catalog, twice the gap
        labels = small.sorted_labels()
        cov = small.catalog[labels[0]].cov
        mu = small.catalog[labels[0]].mean
        big = PairFamily(
            {
                labels[0]: GaussianModel(mu, cov, 1000),
                labels[1]: GaussianModel(mu - 2.0 * base_gap, cov, 1000),
            },
            [(labels[0], labels[1]), (labels[1], labels[0])],
        )
        params = PrivacyParams(1.0, 0.001)
        for name in ("wass", "awass", "expm-l", "expm-g", "dir-g", "eig", "dau"):
            small_mag = self._magnitude(self._calibrations(small)[name](params))
            big_mag = self._magnitude(self._calibrations(big)[name](params))
            assert big_mag >= small_mag - 1e-12, name


class TestDirectionalMechanism:
    def test_worked_example_scale(self):
        plan = calibrate_directional(worked_example_family(), PARAMS, "laplace")
        assert plan.kind == "scalar_along_direction"
        assert plan.scale == pytest.approx(np.sqrt(2.0))
        assert abs(float(plan.direction @ V_GAP)) == pytest.approx(1.0)

    def test_gaussian_variant_scale(self):
        plan = calibrate_directional(worked_example_family(), PARAMS, "gaussian")
        assert plan.scale**2 == pytest.approx(28.52, abs=0.01)


def noncollinear_gap_family() -> PairFamily:
    """Three labels sharing a covariance, whose two protected gaps are orthogonal."""
    labels = [SecretLabel("p", v) for v in (0.3, 0.5, 0.7)]
    catalog = {lab: GaussianModel(mu, WORKED_COV, 10)
               for lab, mu in zip(labels, ([0.0, 0.0], [1.0, 0.0], [0.0, 1.0]))}
    pairs = [(labels[0], labels[1]), (labels[1], labels[0]),
             (labels[0], labels[2]), (labels[2], labels[0])]
    return PairFamily(catalog, pairs)


@pytest.mark.parametrize("calibrate", [
    lambda fam: calibrate_directional(fam, PARAMS, "laplace"),
    lambda fam: calibrate_directional(fam, PARAMS, "gaussian"),
    lambda fam: dau_plan(fam, PARAMS),
], ids=["dir-l", "dir-g", "dau"])
def test_directional_plans_refuse_noncollinear_gaps(calibrate):
    fam = noncollinear_gap_family()
    with pytest.raises(AssumptionViolation, match="angle") as err:
        calibrate(fam)
    assert err.value.pair in fam.pairs


class TestNoNoiseAndCovChecks:
    def test_worked_example_fails_condition(self):
        # direct 2x2 solve: gap^T Sigma^{-1} gap = 23/250 > (eps/c)^2
        gap = np.array([1.0, -1.0])
        mahal = float(gap @ np.linalg.solve(WORKED_COV, gap))
        assert mahal == pytest.approx(23.0 / 250.0)
        c = PARAMS.gaussian_c()
        assert mahal > (PARAMS.epsilon / c) ** 2
        assert not no_noise_check(worked_example_family(), PARAMS)

    def test_zero_gap_always_passes(self):
        lab_a, lab_b = SecretLabel("p", 0.4), SecretLabel("p", 0.6)
        model = GaussianModel([9.0, 9.0], WORKED_COV, 10)
        fam = PairFamily({lab_a: model, lab_b: model}, [(lab_a, lab_b), (lab_b, lab_a)])
        assert no_noise_check(fam, PARAMS)

    def test_nan_mahalanobis_gap_fails_closed(self, monkeypatch):
        import distpriv.mechanisms

        monkeypatch.setattr(distpriv.mechanisms, "solve_spd",
                            lambda cov, gap: np.full_like(gap, np.nan))
        assert no_noise_check(worked_example_family(), PARAMS) is False

    def test_passes_once_covariance_is_large_enough(self):
        lab_a, lab_b = SecretLabel("p", 0.4), SecretLabel("p", 0.6)
        found = False
        for t in (1.0, 10.0, 100.0, 1000.0):
            fam = PairFamily(
                {
                    lab_a: GaussianModel([1.0, 0.0], t * np.eye(2), 10),
                    lab_b: GaussianModel([0.0, 0.0], t * np.eye(2), 10),
                },
                [(lab_a, lab_b), (lab_b, lab_a)],
            )
            if no_noise_check(fam, PARAMS):
                found = True
        assert found

    def test_delta_zero_rejected(self):
        with pytest.raises(ValueError):
            no_noise_check(worked_example_family(), PrivacyParams(1.0, 0.0))

    @staticmethod
    def with_added_cov(fam, sigma_add):
        """The family with sigma_add added to every model's covariance."""
        return PairFamily({lab: GaussianModel(model.mean, model.cov + sigma_add, 10)
                           for lab, model in fam.catalog.items()}, fam.pairs)

    def test_added_cov_large_matrix_passes(self):
        assert no_noise_check(self.with_added_cov(worked_example_family(), 1e6 * np.eye(2)),
                              PARAMS)

    def test_added_cov_matches_quadratic_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            fam = translation_family(rng, m=3)
            a = rng.normal(size=(3, 3))
            sigma_add = a @ a.T
            eps = float(rng.uniform(0.1, 2.0))
            params = PrivacyParams(eps, 0.001)
            c = params.gaussian_c()
            ok_oracle = True
            for la, lb in fam.pairs:
                gap = fam.catalog[la].mean - fam.catalog[lb].mean
                total = fam.catalog[la].cov + sigma_add
                if gap @ np.linalg.solve(total, gap) > (eps / c) ** 2 + 1e-12:
                    ok_oracle = False
            assert no_noise_check(self.with_added_cov(fam, sigma_add), params) == ok_oracle


class TestEigPlan:
    def test_worked_example_variances(self):
        plan = eig_plan(worked_example_family(), PARAMS)
        v1 = np.array([1.0, 2.0]) / np.sqrt(5.0)
        v2 = np.array([2.0, -1.0]) / np.sqrt(5.0)
        assert float(v1 @ plan.cov @ v1) == pytest.approx(18.52, abs=0.01)
        assert float(v2 @ plan.cov @ v2) == pytest.approx(3.52, abs=0.01)
        assert plan.provenance["target_variance"] == pytest.approx(28.52, abs=0.01)

    def test_output_passes_min_eig_check_with_binding_direction(self):
        fam = worked_example_family()
        plan = eig_plan(fam, PARAMS)
        target = plan.provenance["target_variance"]
        total = WORKED_COV + plan.cov
        lam_min = float(np.linalg.eigvalsh(total).min())
        assert lam_min == pytest.approx(target, rel=1e-9)

    def test_saturated_eigenvalues_give_zero_plan(self):
        lab_a, lab_b = SecretLabel("p", 0.4), SecretLabel("p", 0.6)
        big = 1e4 * np.eye(2)
        fam = PairFamily(
            {
                lab_a: GaussianModel([1.0, 0.0], big, 10),
                lab_b: GaussianModel([0.0, 1.0], big, 10),
            },
            [(lab_a, lab_b), (lab_b, lab_a)],
        )
        plan = eig_plan(fam, PARAMS)
        assert np.allclose(plan.cov, 0.0)

    def test_zero_covariance_reduces_to_isotropic(self):
        lab_a, lab_b = SecretLabel("p", 0.4), SecretLabel("p", 0.6)
        fam = PairFamily(
            {
                lab_a: GaussianModel([1.0, 0.0], np.zeros((2, 2)), 10),
                lab_b: GaussianModel([0.0, 1.0], np.zeros((2, 2)), 10),
            },
            [(lab_a, lab_b), (lab_b, lab_a)],
        )
        plan = eig_plan(fam, PARAMS)
        iso = calibrate_expm(fam, PARAMS, "gaussian")
        assert np.allclose(plan.cov, iso.sigma**2 * np.eye(2), rtol=1e-12)

    def test_rejects_mismatched_eigenbases(self):
        lab_a, lab_b = SecretLabel("p", 0.4), SecretLabel("p", 0.6)
        rot = np.array([[np.cos(0.6), -np.sin(0.6)], [np.sin(0.6), np.cos(0.6)]])
        cov_b = rot @ np.diag([44.0, 3.0]) @ rot.T
        fam = PairFamily(
            {
                lab_a: GaussianModel([1.0, 0.0], np.diag([22.0, 3.0]), 10),
                lab_b: GaussianModel([0.0, 1.0], cov_b, 10),
            },
            [(lab_a, lab_b), (lab_b, lab_a)],
        )
        assert eigenbasis_residual(fam)[0] > BASIS_TOL
        with pytest.raises(AssumptionViolation, match="eigenbasis"):
            eig_plan(fam, PARAMS)


def dau_variance(alpha: float, v, cov) -> tuple:
    """dau_plan's variance and direction on the two-label family whose mean
    gap is alpha * v and whose models share the covariance cov."""
    lab_a, lab_b = SecretLabel("p", 0.4), SecretLabel("p", 0.6)
    fam = PairFamily(
        {lab_a: GaussianModel(alpha * np.asarray(v), cov, 10),
         lab_b: GaussianModel(np.zeros(len(v)), cov, 10)},
        [(lab_a, lab_b), (lab_b, lab_a)],
    )
    plan = dau_plan(fam, PARAMS)
    return plan.provenance["sigma_sq"], plan.direction


class TestDauSigma:
    """dau_plan's variance on one pair, against its closed form."""

    def test_vanishing_covariance_limit(self):
        v = np.array([1.0, 0.0])
        alpha = 2.0
        target = (alpha * PARAMS.gaussian_c() / PARAMS.epsilon) ** 2
        for t in (1e-3, 1e-6, 1e-9):
            sig, _ = dau_variance(alpha, v, t * np.eye(2))
            assert sig == pytest.approx(target, rel=1e-2)

    def test_large_variance_gives_bump_only(self):
        v = np.array([1.0, 0.0])
        alpha = 1.0
        target = (alpha * PARAMS.gaussian_c() / PARAMS.epsilon) ** 2
        eta = 1e-6 * target + 1e-12
        assert dau_variance(alpha, v, 1e6 * np.eye(2))[0] == pytest.approx(eta)

    def test_random_instances_positive_definite_and_tight(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            a = rng.normal(size=(3, 3))
            cov = a @ a.T + 0.1 * np.eye(3)
            v = rng.normal(size=3)
            v = v / np.linalg.norm(v)
            alpha = float(rng.uniform(0.1, 3.0))
            sig, fitted = dau_variance(alpha, v, cov)
            # The plan noises its fitted direction, with the gap's projection on it.
            v, alpha = fitted, abs(float((alpha * v) @ fitted))
            target = (alpha * PARAMS.gaussian_c() / PARAMS.epsilon) ** 2
            eta = 1e-6 * target + 1e-12
            perturbed = cov + (sig - target) * np.outer(v, v)
            assert float(np.linalg.eigvalsh(perturbed).min()) > 0.0
            # stepping the bump back twice must fail the algorithm's check
            reduced = sig - 2 * eta
            if reduced > 0.0:
                worse = cov + (reduced - target) * np.outer(v, v)
                assert float(np.linalg.eigvalsh(worse).min()) <= 0.0

    def test_singular_covariance_raises(self):
        with pytest.raises(NumericError):
            dau_variance(1.0, np.array([1.0, 0.0]), np.zeros((2, 2)))


class TestDauPlan:
    def test_vanishing_covariance_reduces_to_directional_gaussian(self):
        lab_a, lab_b = SecretLabel("p", 0.4), SecretLabel("p", 0.6)
        gap = np.array([3.0, 4.0])
        fam = PairFamily(
            {
                lab_a: GaussianModel(gap, 1e-9 * np.eye(2), 10),
                lab_b: GaussianModel([0.0, 0.0], 1e-9 * np.eye(2), 10),
            },
            [(lab_a, lab_b), (lab_b, lab_a)],
        )
        plan = dau_plan(fam, PARAMS)
        directional = calibrate_directional(fam, PARAMS, "gaussian")
        assert plan.scale == pytest.approx(directional.scale, rel=1e-3)
        assert np.array_equal(plan.direction, directional.direction)

    def test_worked_example_gets_uncertainty_credit(self):
        plan = dau_plan(worked_example_family(), PARAMS)
        target = (PARAMS.gaussian_c() * np.sqrt(2.0) / PARAMS.epsilon) ** 2
        assert plan.scale**2 < target
        assert plan.scale**2 == pytest.approx(target - 500.0 / 23.0, rel=1e-3)

    def test_zero_gap_family_needs_only_bump(self):
        lab_a, lab_b = SecretLabel("p", 0.4), SecretLabel("p", 0.6)
        model = GaussianModel([1.0, 1.0], np.eye(2), 10)
        fam = PairFamily({lab_a: model, lab_b: model}, [(lab_a, lab_b), (lab_b, lab_a)])
        plan = dau_plan(fam, PARAMS)
        assert plan.scale**2 == pytest.approx(1e-12)

    @pytest.mark.parametrize("check", [
        lambda fam: dau_plan(fam, PARAMS),
        lambda fam: no_noise_check(fam, PARAMS),
    ])
    def test_unshared_covariance_rejected_with_pair(self, check):
        fam = scaled_cov_family(3.0)
        assert cov_discrepancy(fam)[0] > COV_TOL
        with pytest.raises(AssumptionViolation) as err:
            check(fam)
        assert err.value.pair in fam.pairs


def scaled_cov_family(scale: float) -> PairFamily:
    """Means one apart along the first axis, covariances I and scale * I."""
    lab_a, lab_b = SecretLabel("p", 0.4), SecretLabel("p", 0.6)
    return PairFamily(
        {
            lab_a: GaussianModel([1.0, 0.0], np.eye(2), 10),
            lab_b: GaussianModel([0.0, 0.0], scale * np.eye(2), 10),
        },
        [(lab_a, lab_b), (lab_b, lab_a)],
    )


def tilted_basis_family(off: float) -> PairFamily:
    """Reference covariance diag(2, 1); the other has off-diagonal `off` in that basis."""
    lab_a, lab_b = SecretLabel("p", 0.4), SecretLabel("p", 0.6)
    return PairFamily(
        {
            lab_a: GaussianModel([1.0, 0.0], np.diag([2.0, 1.0]), 10),
            lab_b: GaussianModel([0.0, 0.0], [[2.0, off], [off, 2.0]], 10),
        },
        [(lab_a, lab_b), (lab_b, lab_a)],
    )


def tilted_gap_family(angle: float) -> PairFamily:
    """Protected gaps of length 1 and 2, `angle` apart and sharing a covariance.

    The fitted direction lies about angle / 5 from the long gap, so the
    short gap's pair is the worst, at about 4 * angle / 5.
    """
    labels = [SecretLabel("p", v) for v in (0.3, 0.5, 0.7)]
    means = ([0.0, 0.0], [1.0, 0.0], [2.0 * np.cos(angle), 2.0 * np.sin(angle)])
    catalog = {lab: GaussianModel(mu, WORKED_COV, 10) for lab, mu in zip(labels, means)}
    pairs = [(labels[0], labels[1]), (labels[1], labels[0]),
             (labels[0], labels[2]), (labels[2], labels[0])]
    return PairFamily(catalog, pairs)


def fitted_gap_angle(fam):
    return gap_angle(fam, fit_common_direction(fam))


ANGLE_AT, ANGLE_ABOVE = (tilted_gap_family(1.25 * ANGLE_TOL * (1.0 + rel)) for rel in (-1e-3, 1e-3))

TOLERANCE_CASES = {
    "cov-dau_plan": (cov_discrepancy, COV_TOL, lambda fam: dau_plan(fam, PARAMS),
                     scaled_cov_family(2.0), scaled_cov_family(2.0 + 1e-9)),
    "cov-no_noise_check": (cov_discrepancy, COV_TOL, lambda fam: no_noise_check(fam, PARAMS),
                           scaled_cov_family(2.0), scaled_cov_family(2.0 + 1e-9)),
    "angle-dir-l": (fitted_gap_angle, ANGLE_TOL,
                    lambda fam: calibrate_directional(fam, PARAMS, "laplace"),
                    ANGLE_AT, ANGLE_ABOVE),
    "angle-dir-g": (fitted_gap_angle, ANGLE_TOL,
                    lambda fam: calibrate_directional(fam, PARAMS, "gaussian"),
                    ANGLE_AT, ANGLE_ABOVE),
    "angle-dau_plan": (fitted_gap_angle, ANGLE_TOL, lambda fam: dau_plan(fam, PARAMS),
                       ANGLE_AT, ANGLE_ABOVE),
    "basis-eig_plan": (eigenbasis_residual, BASIS_TOL, lambda fam: eig_plan(fam, PARAMS),
                       tilted_basis_family(1.0), tilted_basis_family(1.0 + 1e-9)),
}


class TestAssumptionTolerances:
    """One tolerance per assumption, the same for direct calls and the CLI."""

    @pytest.mark.parametrize("case", TOLERANCE_CASES.values(), ids=TOLERANCE_CASES.keys())
    def test_tolerance_is_inclusive(self, case):
        # Each measurement returns (value, worst pair); a check accepts the
        # value at its tolerance and refuses one above it, naming that pair.
        measure, tol, check, at, above = case
        value, pair = measure(above)
        assert measure(at)[0] <= tol < value
        assert pair in above.pairs
        check(at)
        with pytest.raises(AssumptionViolation) as err:
            check(above)
        assert err.value.pair == pair

    def test_cov_and_basis_boundaries_are_exact(self):
        assert cov_discrepancy(scaled_cov_family(2.0))[0] == COV_TOL
        at, above = tilted_basis_family(1.0), tilted_basis_family(1.0 + 1e-9)
        assert eigenbasis_residual(at)[0] == BASIS_TOL
        reference, tilted = above.sorted_labels()
        assert eigenbasis_residual(above)[1] == (reference, tilted)
        with pytest.raises(AssumptionViolation, match="eigenbasis"):
            eig_plan(above, PARAMS)

    @staticmethod
    def assert_direct_calls_match_build_plan(fam):
        cfg = TestPlanBits.config()
        direct = {"eig": eig_plan(fam, PARAMS), "dau": dau_plan(fam, PARAMS),
                  "dir-l": calibrate_directional(fam, PARAMS, "laplace"),
                  "dir-g": calibrate_directional(fam, PARAMS, "gaussian")}
        for mech, plan in direct.items():
            assert plan.to_json() == build_plan(mech, fam, PARAMS, cfg).to_json()
        assert isinstance(no_noise_check(fam, PARAMS), bool)

    def test_direct_calls_match_build_plan_on_the_golden_catalog(self):
        golden = Path(__file__).resolve().parent / "golden"
        cfg = TestPlanBits.config()
        fam = family_from_catalog(load_catalog(golden / "catalog.json"),
                                  [cfg.pair(dp) for dp in cfg.delta_p], cfg.property_name)
        report = check_assumptions(fam)
        # the covariances differ, so both checks measure a discrepancy
        assert 0.0 < report.max_cov_discrepancy <= COV_TOL
        assert 0.0 < report.common_eigenbasis_residual <= BASIS_TOL
        self.assert_direct_calls_match_build_plan(fam)

    def test_direct_calls_accept_a_family_past_the_retired_default(self):
        # Direct calls once refused a family past 0.1 on either measurement;
        # this one is past it on both and every call returns build_plan's plan.
        lab_a, lab_b = SecretLabel("p", 0.4), SecretLabel("p", 0.6)
        fam = PairFamily(
            {lab_a: GaussianModel([1.0, 0.0], np.diag([2.0, 1.0]), 10),
             lab_b: GaussianModel([0.0, 0.0], [[2.0, 0.5], [0.5, 1.5]], 10)},
            [(lab_a, lab_b), (lab_b, lab_a)],
        )
        report = check_assumptions(fam)
        assert 0.1 < report.max_cov_discrepancy < COV_TOL
        assert 0.1 < report.common_eigenbasis_residual < BASIS_TOL
        self.assert_direct_calls_match_build_plan(fam)


class TestGroupDpBaseline:
    def test_adult_bounds_sigma_and_error_scale(self):
        components = (
            ("avg", 17, 90), ("avg", 1, 16), ("count",), ("count",), ("avg", 1, 99),
        )
        sens2 = per_record_sensitivity(components, 100, 2)
        plan = group_dp_calibrate(sens2, 100, PARAMS, "gaussian")
        assert plan.sigma == pytest.approx(708.0, abs=8.0)
        mean_l2 = plan.sigma * expected_l2_norm_factor(5)
        assert mean_l2 == pytest.approx(1539.93, rel=0.25)

    def test_group_size_one_is_plain_dp(self):
        plan_k1 = group_dp_calibrate(2.0, 1, PARAMS, "gaussian")
        assert plan_k1.sigma == pytest.approx(PARAMS.gaussian_c() * 2.0)

    def test_scale_linear_in_group_size(self):
        s1 = group_dp_calibrate(1.5, 10, PARAMS, "laplace").scale
        s2 = group_dp_calibrate(1.5, 20, PARAMS, "laplace").scale
        assert s2 == pytest.approx(2.0 * s1)

    def test_rejects_bad_group_size(self):
        with pytest.raises(ValueError):
            group_dp_calibrate(1.0, 0, PARAMS, "laplace")

    @pytest.mark.parametrize("noise", ["laplace", "gaussian"])
    def test_rejects_nan_sensitivity(self, noise):
        with pytest.raises(ValueError, match="nonnegative"):
            group_dp_calibrate(math.nan, 10, PARAMS, noise)


class TestPerRecordSensitivity:
    def test_adult_query_l1(self):
        components = (
            ("avg", 17, 90), ("avg", 1, 16), ("count",), ("count",), ("avg", 1, 99),
        )
        assert per_record_sensitivity(components, 100, 1) == pytest.approx(3.86)

    def test_single_average(self):
        assert per_record_sensitivity((("avg", 0, 1),), 10, 1) == pytest.approx(0.1)

    def test_l2_never_exceeds_l1(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            comps = []
            for _ in range(int(rng.integers(1, 6))):
                if rng.random() < 0.5:
                    lo = float(rng.uniform(0, 50))
                    comps.append(("avg", lo, lo + float(rng.uniform(0, 100))))
                else:
                    comps.append(("count",))
            n = int(rng.integers(1, 200))
            assert per_record_sensitivity(comps, n, 2) <= per_record_sensitivity(comps, n, 1) + 1e-12

    def test_rejects_bad_subset_size(self):
        with pytest.raises(ValueError):
            per_record_sensitivity((("count",),), 0, 1)


class TestRelaxedBudgets:
    def test_maxdiv_identity(self):
        budget = relaxed_budget_maxdiv(PrivacyParams(1.0, 0.0), 0.0, 0.0)
        assert budget.epsilon_prime == 1.0
        assert budget.delta_prime == 0.0

    def test_maxdiv_arithmetic(self):
        budget = relaxed_budget_maxdiv(PrivacyParams(1.0, 0.001), 0.1, 0.01)
        assert budget.epsilon_prime == pytest.approx(1.2, abs=1e-12)
        expected = (1.0 + math.exp(1.1)) * 0.01 + math.exp(0.1) * 0.001
        assert budget.delta_prime == pytest.approx(expected, abs=1e-12)

    def test_maxdiv_monotone(self):
        base = relaxed_budget_maxdiv(PrivacyParams(1.0, 0.001), 0.1, 0.01)
        assert relaxed_budget_maxdiv(PrivacyParams(1.0, 0.001), 0.2, 0.01).delta_prime > base.delta_prime
        assert relaxed_budget_maxdiv(PrivacyParams(1.0, 0.001), 0.1, 0.02).delta_prime > base.delta_prime
        assert relaxed_budget_maxdiv(PrivacyParams(1.0, 0.002), 0.1, 0.01).delta_prime > base.delta_prime

    def test_wasserstein_arithmetic(self):
        budget = relaxed_budget_wasserstein(PrivacyParams(1.0, 0.001), 0.5, 2.0)
        assert budget.epsilon_prime == pytest.approx(2.0, abs=1e-12)
        assert budget.delta_prime == pytest.approx(math.exp(0.5) * 0.001, abs=1e-12)
        assert budget.extra_noise_scale == pytest.approx(4.0, abs=1e-12)

    def test_wasserstein_no_deviation_no_noise(self):
        assert relaxed_budget_wasserstein(PrivacyParams(1.0, 0.001), 0.5, 0.0).extra_noise_scale == 0.0

    def test_wasserstein_delta_zero_stays_zero(self):
        assert relaxed_budget_wasserstein(PrivacyParams(1.0, 0.0), 0.5, 1.0).delta_prime == 0.0

    def test_wasserstein_rejects_zero_lambda_with_deviation(self):
        with pytest.raises(ValueError):
            relaxed_budget_wasserstein(PrivacyParams(1.0, 0.001), 0.0, 1.0)


class TestApply:
    def test_none_is_identity(self):
        x = np.array([1.0, -2.0, 3.5])
        out = apply(NoisePlan(kind="none"), x, derive_rng(0))
        assert out.tobytes() == x.tobytes()

    def test_directional_leaves_zero_components_bitwise(self):
        v = np.array([1.0, 0.0, 0.0])
        plan = NoisePlan(kind="scalar_along_direction", dist="gaussian", scale=5.0, direction=v)
        x = np.array([0.1, -2.25, 7.75])
        out = apply(plan, x, derive_rng(5))
        assert out[1:].tobytes() == x[1:].tobytes()
        assert out[0] != x[0]

    def test_directional_change_is_scalar_multiple(self):
        v = np.array([3.0, 4.0]) / 5.0
        plan = NoisePlan(kind="scalar_along_direction", dist="laplace", scale=2.0, direction=v)
        x = np.zeros(2)
        out = apply(plan, x, derive_rng(6))
        # (out - x) is y * v computed elementwise, so the ratio is constant
        assert out[0] / v[0] == pytest.approx(out[1] / v[1], rel=1e-12)

    def test_gaussian_cov_batch_moments(self):
        cov = np.array([[2.0, 0.7], [0.7, 1.0]])
        plan = NoisePlan(kind="gaussian_cov", cov=cov)
        out = apply_batch(plan, np.zeros((100_000, 2)), derive_rng(7, "m"))
        rel = np.linalg.norm(np.cov(out.T) - cov) / np.linalg.norm(cov)
        assert rel < 0.03

    def test_dimension_mismatch(self):
        plan = NoisePlan(kind="gaussian_cov", cov=np.eye(3))
        with pytest.raises(ValueError):
            apply(plan, np.zeros(2), derive_rng(8))

    def test_zero_scale_plans_apply_cleanly(self):
        x = np.array([5.0, 6.0])
        for plan in (
            NoisePlan(kind="laplace_iid", scale=0.0),
            NoisePlan(kind="gaussian_iid", sigma=0.0),
        ):
            assert np.array_equal(apply(plan, x, derive_rng(9)), x)


class TestNoisePlanValidation:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            NoisePlan(kind="cauchy_iid", scale=1.0)

    def test_rejects_negative_scale(self):
        with pytest.raises(ValueError):
            NoisePlan(kind="laplace_iid", scale=-1.0)

    def test_rejects_non_unit_direction(self):
        with pytest.raises(ValueError):
            NoisePlan(
                kind="scalar_along_direction",
                dist="laplace",
                scale=1.0,
                direction=np.array([1.0, 1.0]),
            )

    @pytest.mark.parametrize("kind,field", [
        ("laplace_iid", "scale"), ("gaussian_iid", "sigma"), ("scalar_along_direction", "scale"),
    ])
    def test_rejects_nan_scale(self, kind, field):
        extra = {"dist": "laplace", "direction": [1.0, 0.0]} if "direction" in kind else {}
        with pytest.raises(ValueError, match="nonnegative"):
            NoisePlan(kind=kind, **{field: math.nan}, **extra)

    @staticmethod
    def wass_on_overflowing_distance() -> NoisePlan:
        """`wass` on finite mean gaps of (1e308, 1e308), whose L1 norm overflows."""
        lab_a, lab_b = SecretLabel("p", 0.4), SecretLabel("p", 0.6)
        family = PairFamily({lab_a: GaussianModel([1e308, 1e308], np.eye(2), 10),
                             lab_b: GaussianModel([0.0, 0.0], np.eye(2), 10)},
                            [(lab_a, lab_b), (lab_b, lab_a)])
        with np.errstate(over="ignore"):
            return calibrate_wasserstein(family, PrivacyParams(1.0))

    @pytest.mark.parametrize("build", [
        lambda: TestNoisePlanValidation.wass_on_overflowing_distance(),
        lambda: NoisePlan(kind="gaussian_iid", sigma=math.inf),
        lambda: group_dp_calibrate(1.0, 1, PrivacyParams(1e-320), "laplace"),  # 1 / 1e-320 = inf
    ], ids=["wass-infinite-distance", "infinite-sigma", "overflowing-scale"])
    def test_rejects_infinite_scale(self, build):
        with pytest.raises(ValueError, match="finite nonnegative"):
            build()

    def test_rejects_nan_direction(self):
        with pytest.raises(ValueError, match="unit norm"):
            NoisePlan(kind="scalar_along_direction", dist="laplace", scale=1.0,
                      direction=np.array([np.nan, 0.0]))

    def test_plans_are_immutable(self):
        fam = worked_example_family()
        for plan in (eig_plan(fam, PARAMS), dau_plan(fam, PARAMS),
                     calibrate_expm(fam, PARAMS, "laplace")):
            with pytest.raises(AttributeError):
                plan.kind = "none"
            with pytest.raises(AttributeError):
                plan.scale = 0.0
        plan = eig_plan(fam, PARAMS)
        for array in (plan.cov, plan.factor):
            with pytest.raises(ValueError):
                array[0, 0] = 0.0
        with pytest.raises(ValueError):
            dau_plan(fam, PARAMS).direction[0] = 0.0

    def test_provenance_cannot_be_patched(self):
        given = {"mechanism": "test", "w": 1.0}
        plan = NoisePlan(kind="laplace_iid", scale=1.0, provenance=given)
        with pytest.raises(TypeError):
            plan.provenance["w"] = 2.0
        given["w"] = 3.0
        given["added"] = True
        assert dict(plan.provenance) == {"mechanism": "test", "w": 1.0}
        assert plan.to_json()["provenance"] == {"mechanism": "test", "w": 1.0}
        # Nested values are frozen too, and to_json gives back plain JSON values.
        given = {"mechanism": "test", "warnings": ["w1"], "inner": {"sigma_sq": [1.0, 2.0]}}
        plan = NoisePlan(kind="laplace_iid", scale=1.0, provenance=given)
        given["warnings"].append("late")
        given["inner"]["sigma_sq"][0] = 9.0
        with pytest.raises(AttributeError):
            plan.provenance["warnings"].append("patched")
        with pytest.raises(TypeError):
            plan.provenance["inner"]["sigma_sq"] = []
        with pytest.raises(TypeError):
            plan.provenance["inner"]["sigma_sq"][0] = 9.0
        doc = plan.to_json()["provenance"]
        assert doc == {"mechanism": "test", "warnings": ["w1"], "inner": {"sigma_sq": [1.0, 2.0]}}
        assert type(doc["warnings"]) is list and type(doc["inner"]) is dict
        assert json.dumps(doc) == ('{"mechanism": "test", "warnings": ["w1"], '
                                   '"inner": {"sigma_sq": [1.0, 2.0]}}')
        fam = worked_example_family()
        expm = calibrate_expm(fam, PrivacyParams(2.0, 1e-3), "gaussian")
        before = json.dumps(expm.to_json())
        with pytest.raises(AttributeError):
            expm.provenance["warnings"].append("patched")
        assert json.dumps(expm.to_json()) == before
        eig = eig_plan(fam, PARAMS)
        with pytest.raises(TypeError):
            eig.provenance["sigma_sq"][0] = 0.0

    def test_direction_is_copied_not_frozen_in_place(self):
        v = np.array([1.0, 0.0])
        plan = NoisePlan(kind="scalar_along_direction", dist="laplace", scale=1.0, direction=v)
        v[0] = 0.5
        assert plan.direction.tolist() == [1.0, 0.0]

    def test_draws_read_the_factor_stored_at_construction(self, monkeypatch):
        import distpriv.model

        fam = worked_example_family()
        plan = eig_plan(fam, PARAMS)
        model = fam.catalog[fam.sorted_labels()[0]]

        def draws():
            return (apply_batch(plan, np.zeros((7, fam.dim)), derive_rng(5, "factor")).tobytes(),
                    gaussian_model_draws(model, 7, derive_rng(6, "factor")).tobytes())

        before = draws()

        def refuse(cov):
            raise AssertionError("a covariance was decomposed after construction")

        monkeypatch.setattr(distpriv.model, "eigendecompose", refuse)
        assert draws() == before

    def test_plans_read_the_spectrum_stored_in_the_catalog(self, monkeypatch):
        import distpriv.model

        fam = family_from_catalog(load_catalog(GOLDEN_CATALOG), [(0.45, 0.55)], "income")

        def results():
            plan = eig_plan(fam, PARAMS)
            return plan.cov.tobytes(), plan.factor.tobytes(), plan.provenance, \
                eigenbasis_residual(fam)

        before = results()
        decompose = distpriv.model.eigendecompose

        def refuse_catalog_covariances(cov):
            if any(np.array_equal(cov, model.cov) for model in fam.catalog.values()):
                raise AssertionError("a catalog covariance was decomposed again")
            return decompose(cov)  # the plan's own covariance, once

        monkeypatch.setattr(distpriv.model, "eigendecompose", refuse_catalog_covariances)
        assert results() == before


class TestAudit:
    def test_identical_models_never_violate(self):
        model = GaussianModel([0.0, 0.0], np.eye(2), 100)
        report = audit(
            NoisePlan(kind="none"), model, model, PrivacyParams(0.5, 0.001),
            20_000, derive_rng(10, "same"),
        )
        assert report.estimated_violation <= 0.0

    def test_unprotected_separated_models_violate(self):
        params = PrivacyParams(0.1, 0.001)
        gap = 10.0 * params.epsilon / params.gaussian_c()
        model_i = GaussianModel([gap, 0.0], np.eye(2), 100)
        model_j = GaussianModel([0.0, 0.0], np.eye(2), 100)
        report = audit(
            NoisePlan(kind="none"), model_i, model_j, params, 100_000, derive_rng(11, "sep")
        )
        assert report.estimated_violation > 0.0

    def test_calibrated_plan_passes(self):
        fam = translation_family(np.random.default_rng(12))
        params = PrivacyParams(0.5, 0.005)
        plan = calibrate_expm(fam, params, "gaussian")
        lab_i, lab_j = fam.pairs[0]
        report = audit(
            plan, fam.catalog[lab_i], fam.catalog[lab_j], params, 50_000, derive_rng(13)
        )
        assert report.estimated_violation <= 0.0

    def test_worked_example_gaussian_plan_passes(self):
        fam = worked_example_family()
        plan = calibrate_expm(fam, PARAMS, "gaussian")
        lab_i, lab_j = fam.pairs[0]
        report = audit(
            plan, fam.catalog[lab_i], fam.catalog[lab_j], PARAMS, 100_000, derive_rng(15)
        )
        assert report.estimated_violation <= 0.0

    def test_rejects_too_few_trials(self):
        model = GaussianModel([0.0], [[1.0]], 10)
        with pytest.raises(ValueError):
            audit(NoisePlan(kind="none"), model, model, PARAMS, 100, derive_rng(14))

    # float.hex of estimated_violation per mechanism, at (1, 1e-3). The two
    # models have diagonal covariances and means that differ along one axis,
    # and so has expm-g's release covariance Sigma + sigma^2 I, so every
    # draw, noise vector and projection has one nonzero term per entry and
    # no BLAS summation order can move a bit.
    PINNED_VIOLATIONS = {
        "none": "0x1.c1aa71652521ap-4", "expm-l": "-0x1.e1116f08de5dap-7",
        "expm-g": "-0x1.10d20b69edab8p-5", "dir-l": "-0x1.2b4fa3649d262p-6",
    }

    def test_violations_match_pinned_bits(self):
        lab_a, lab_b = SecretLabel("income", 0.45), SecretLabel("income", 0.55)
        mean = np.array([4.0, -1.0, 2.5, 0.0, 7.0])
        cov = np.diag([2.0, 0.5, 1.5, 3.0, 1.0])
        model_a = GaussianModel(mean, cov, 1000)
        model_b = GaussianModel(mean - [1.5, 0.0, 0.0, 0.0, 0.0], cov, 1000)
        fam = PairFamily({lab_a: model_a, lab_b: model_b}, [(lab_a, lab_b), (lab_b, lab_a)])
        params = PrivacyParams(1.0, 1e-3)
        got = {}
        for mech in self.PINNED_VIOLATIONS:
            plan = build_plan(mech, fam, params, TestPlanBits.config())
            report = audit(plan, model_a, model_b, params, 10_000, derive_rng(19, mech))
            got[mech] = report.estimated_violation.hex()
        assert got == self.PINNED_VIOLATIONS

    V = np.array([0.6, 0.0, -0.8])

    @pytest.mark.parametrize("plan", [
        NoisePlan(kind="gaussian_cov", cov=np.eye(3)),
        NoisePlan(kind="scalar_along_direction", dist="gaussian", scale=1.0, direction=V),
        NoisePlan(kind="scalar_along_direction", dist="laplace", scale=1.0, direction=V),
    ], ids=["gaussian_cov", "gaussian_direction", "laplace_direction"])
    def test_rejects_a_plan_of_another_dimension_before_drawing(self, plan):
        model = GaussianModel([0.0, 0.0], np.eye(2), 100)
        with pytest.raises(ValueError, match="plan dimension 3 does not match"):
            audit(plan, model, model, PARAMS, 10_000, derive_rng(20))
        rng = derive_rng(20)
        before = rng.bit_generator.state
        with pytest.raises(ValueError, match="plan dimension 3 does not match"):
            release_draws(plan, model, 10, rng)
        assert rng.bit_generator.state == before


def audit_draws(plan, model_i, model_j, trials, rng):
    """The release draws and Mahalanobis direction `audit` scores, drawn as it draws them."""
    out_i = release_draws(plan, model_i, trials, rng)
    out_j = release_draws(plan, model_j, trials, rng)
    gap = model_i.mean - model_j.mean
    return out_i, out_j, (solve_spd(model_i.cov, gap) if np.any(gap != 0.0) else None)


class TestAuditScoringOracle:
    """`audit` counts events from two sorts per direction and reads its
    thresholds by numpy's linear rule; each violation must equal, bit for
    bit, the one from sorting both sides and calling np.quantile."""

    @staticmethod
    def assert_matches_oracle(plan, model_i, model_j, params, trials, *tags):
        report = audit(plan, model_i, model_j, params, trials, derive_rng(*tags))
        draws = audit_draws(plan, model_i, model_j, trials, derive_rng(*tags))
        assert report.estimated_violation.hex() == oracle_audit_violation(*draws, params).hex()

    @staticmethod
    def golden_family() -> PairFamily:
        return family_from_catalog(load_catalog(GOLDEN_CATALOG), [(0.45, 0.55)], "income")

    @pytest.mark.parametrize("eps", [0.2, 1.0, 5.0])
    @pytest.mark.parametrize("mech", list(MECHANISMS))
    def test_golden_catalog(self, mech, eps):
        fam = self.golden_family()
        params = PrivacyParams(eps, 1e-3)
        plan = build_plan(mech, fam, params, TestPlanBits.config())
        lab_i, lab_j = fam.pairs[0]
        self.assert_matches_oracle(plan, fam.catalog[lab_i], fam.catalog[lab_j], params,
                                   10_000, 31, mech, eps)

    def test_zero_gap_pair_has_no_mahalanobis_direction(self):
        fam = self.golden_family()
        lab_i, lab_j = fam.pairs[0]
        model_i = fam.catalog[lab_i]
        model_j = GaussianModel(model_i.mean, fam.catalog[lab_j].cov, 200)
        params = PrivacyParams(1.0, 1e-3)
        assert audit_draws(NoisePlan(kind="none"), model_i, model_j, 10_000,
                           derive_rng(32))[2] is None
        self.assert_matches_oracle(calibrate_expm(fam, params, "gaussian"), model_i, model_j,
                                   params, 10_000, 32)

    def test_odd_trial_count(self):
        fam = self.golden_family()
        params = PrivacyParams(0.5, 1e-3)
        lab_i, lab_j = fam.pairs[0]
        self.assert_matches_oracle(calibrate_expm(fam, params, "laplace"), fam.catalog[lab_i],
                                   fam.catalog[lab_j], params, 10_001, 33)

    def test_zero_variance_coordinate_ties_every_draw(self):
        cov = np.diag([1.0, 0.0, 2.0])
        model_i = GaussianModel([1.0, 4.0, 0.0], cov, 100)
        model_j = GaussianModel([0.0, 4.0, 0.0], cov, 100)
        params = PrivacyParams(1.0, 1e-3)
        out_i = audit_draws(NoisePlan(kind="none"), model_i, model_j, 10_000, derive_rng(34))[0]
        assert np.all(out_i[:, 1] == 4.0)
        self.assert_matches_oracle(NoisePlan(kind="none"), model_i, model_j, params, 10_000, 34)

    @staticmethod
    def stepped_pool(rng, size):
        """A sorted pool whose order statistics jump between each pair the
        thresholds interpolate, so that a + d t and b - d (1 - t) often round
        apart. The median's weight is exactly 0.5 in an even pool; its pair
        is -3.0 and -0.9, where the two forms give different bits."""
        index = np.floor((size - 1) * _AUDIT_QUANTILES).astype(np.intp)
        steps = np.zeros(size)
        steps[index + 1] = rng.uniform(0.5, 5.0, size=index.size)
        pool = np.sort(rng.normal(size=size)) + np.cumsum(steps)
        mid = index[_AUDIT_QUANTILES.size // 2]
        pool[:mid + 1] = pool[:mid + 1] - pool[mid] - 3.0
        pool[mid + 1:] = pool[mid + 1:] - pool[mid + 1] - 0.9
        return pool

    @pytest.mark.parametrize("trials", [10_000, 10_001, 100_000])
    def test_thresholds_are_numpys_linear_quantiles(self, trials):
        rng = derive_rng(35, trials)
        # The tied pool holds no -0.0: np.quantile partitions the sorted pool
        # again, which may swap -0.0 and 0.0 and so flip a zero threshold's
        # sign, a difference no count can see.
        pools = [np.sort(rng.normal(size=2 * trials)),
                 np.sort(np.round(rng.normal(size=2 * trials), 1) + 0.0),
                 self.stepped_pool(rng, 2 * trials)]
        for pool in pools:
            assert np.all(np.diff(pool) >= 0.0)
            want = np.quantile(pool, _AUDIT_QUANTILES)
            assert _sorted_quantiles(pool).tobytes() == want.tobytes()


GAUSSIAN_MECHANISMS = ("expm-g", "dir-g", "eig", "dau", "gdp-g")
LAPLACE_MECHANISMS = ("wass", "awass", "expm-l", "gdp-l", "dir-l")


class TestReleaseDraws:
    """`release_draws` draws every plan's releases from their law: a
    Gaussian plan's from N(mu, Sigma + added_cov), a Laplace plan's as a
    model draw plus b (E_1 - E_2) per entry or along its direction. Both
    follow the law of the two-draw path (`oracle_release_draws`), and
    `none` draws as that path does, bit for bit."""

    TRIALS = 100_000

    @staticmethod
    def golden_plans(params):
        fam = TestAuditScoringOracle.golden_family()
        plans = {mech: build_plan(mech, fam, params, TestPlanBits.config()) for mech in MECHANISMS}
        return fam, plans

    def test_noise_plans_follow_the_two_draw_law(self):
        stats = pytest.importorskip("scipy.stats")
        params = PrivacyParams(1.0, 1e-3)
        fam, plans = self.golden_plans(params)
        gaussian = {mech for mech, plan in plans.items()
                    if plan.kind in ("gaussian_iid", "gaussian_cov") or plan.dist == "gaussian"}
        assert gaussian == set(GAUSSIAN_MECHANISMS)
        assert {mech for mech, plan in plans.items()
                if plan.kind == "laplace_iid" or plan.dist == "laplace"} == set(LAPLACE_MECHANISMS)
        (lab_i, lab_j), n = fam.pairs[0], self.TRIALS
        gap = fam.catalog[lab_i].mean - fam.catalog[lab_j].mean
        direction = solve_spd(fam.catalog[lab_i].cov, gap)
        pvalues = []
        for mech in GAUSSIAN_MECHANISMS + LAPLACE_MECHANISMS:
            plan = plans[mech]
            for label in (lab_i, lab_j):
                model = fam.catalog[label]
                got = release_draws(plan, model, n, derive_rng(37, mech, label.value))
                want = oracle_release_draws(plan, model, n, derive_rng(38, mech, label.value))
                for k in range(model.dim):
                    pvalues.append(stats.ks_2samp(got[:, k], want[:, k]).pvalue)
                pvalues.append(stats.ks_2samp(got @ direction, want @ direction).pvalue)
                if mech in LAPLACE_MECHANISMS:
                    continue
                # Each sample covariance entry has variance
                # (C_kk C_ll + C_kl^2) / n about the release covariance C.
                release_cov = model.cov + plan.added_cov(model.dim)
                sd = np.sqrt((np.outer(np.diag(release_cov), np.diag(release_cov))
                              + release_cov**2) / n)
                assert np.all(np.abs(np.cov(got, rowvar=False) - release_cov) <= 5.0 * sd), mech
        # Bonferroni over every axis and direction: family-wise level 1e-3.
        assert min(pvalues) >= 1e-3 / len(pvalues)

    @pytest.mark.parametrize("eps", [0.2, 1.0, 5.0])
    def test_other_plans_draw_as_the_two_draw_path(self, eps):
        fam, plans = self.golden_plans(PrivacyParams(eps, 1e-3))
        others = [mech for mech in MECHANISMS
                  if mech not in GAUSSIAN_MECHANISMS + LAPLACE_MECHANISMS]
        assert others == ["none"] and plans["none"].kind == "none"
        for label in fam.catalog:
            got = release_draws(plans["none"], fam.catalog[label], 10_001, derive_rng(39, eps))
            want = oracle_release_draws(plans["none"], fam.catalog[label], 10_001,
                                        derive_rng(39, eps))
            assert got.tobytes() == want.tobytes()

    def test_directional_laplace_releases_move_only_along_the_direction(self):
        v = TestAddedCov.V
        plan = NoisePlan(kind="scalar_along_direction", dist="laplace", scale=3.0, direction=v)
        model = GaussianModel([1.0, -2.0, 0.5], np.zeros((3, 3)), 10)
        noise = release_draws(plan, model, 10**5, derive_rng(43)) - model.mean
        along = noise @ v
        # Rounding of the mean plus the noise, at a few ulps of the larger.
        tol = 8.0 * np.finfo(float).eps * (1.0 + np.abs(along))
        assert np.all(np.abs(noise - along[:, None] * v) <= tol[:, None])
        assert np.all(noise[:, 1] == 0.0)


class TestAddedCov:
    V = np.array([0.6, 0.0, -0.8])

    @pytest.mark.parametrize("plan,want", [
        (NoisePlan(kind="none"), np.zeros((3, 3))),
        (NoisePlan(kind="gaussian_iid", sigma=2.5), 6.25 * np.eye(3)),
        (NoisePlan(kind="laplace_iid", scale=1.5), 4.5 * np.eye(3)),
        (NoisePlan(kind="gaussian_cov", cov=[[2.0, 0.5], [0.5, 1.0]]), [[2.0, 0.5], [0.5, 1.0]]),
        (NoisePlan(kind="scalar_along_direction", dist="gaussian", scale=3.0, direction=V),
         9.0 * np.outer(V, V)),
        (NoisePlan(kind="scalar_along_direction", dist="laplace", scale=3.0, direction=V),
         18.0 * np.outer(V, V)),
    ], ids=["none", "gaussian_iid", "laplace_iid", "gaussian_cov", "gaussian_direction",
            "laplace_direction"])
    def test_exact_formula(self, plan, want):
        m = plan.dim or 3
        got = plan.added_cov(m)
        assert got.shape == (m, m) and got.tobytes() == np.asarray(want, dtype=float).tobytes()

    def test_gaussian_cov_is_a_copy_of_the_plans_covariance(self):
        plan = NoisePlan(kind="gaussian_cov", cov=[[2.0, 0.5], [0.5, 1.0]])
        got = plan.added_cov(2)
        assert np.array_equal(got, plan.cov) and got is not plan.cov

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            NoisePlan(kind="scalar_along_direction", dist="gaussian", scale=1.0,
                      direction=self.V).added_cov(2)
        with pytest.raises(ValueError, match="dimension"):
            NoisePlan(kind="gaussian_cov", cov=np.eye(2)).added_cov(3)

    @pytest.mark.parametrize("plan", [
        NoisePlan(kind="laplace_iid", scale=1.5),
        NoisePlan(kind="scalar_along_direction", dist="laplace", scale=3.0, direction=V),
    ], ids=["laplace_iid", "laplace_direction"])
    def test_laplace_noise_has_the_stated_variance(self, plan):
        """Both the noise `apply_batch` adds and the audit's releases under a
        zero-covariance model, b (E_1 - E_2)."""
        n, b = 10**6, plan.scale
        zero = GaussianModel(np.zeros(3), np.zeros((3, 3)), 10)
        draws = (lambda: apply_batch(plan, np.zeros((n, 3)), derive_rng(40, plan.kind)),
                 lambda: release_draws(plan, zero, n, derive_rng(42, plan.kind)))
        for draw in draws:
            noise = draw()
            squares = (noise.ravel() if plan.kind == "laplace_iid" else noise @ self.V) ** 2
            # A Laplace variable of scale b has E X^2 = 2 b^2 and Var X^2 = 20 b^4.
            assert abs(squares.mean() - 2.0 * b**2) <= 3.0 * math.sqrt(20.0 * b**4 / squares.size)


def audit_time_ratio(noise: str) -> float:
    """The median time of an expm audit at 20,000 trials on the golden
    catalog over that of one scoring the two-draw path's releases, 7 runs each."""
    fam = TestAuditScoringOracle.golden_family()
    params = PrivacyParams(1.0, 1e-3)
    plan = calibrate_expm(fam, params, noise)
    model_i, model_j = (fam.catalog[label] for label in fam.pairs[0])
    direction = solve_spd(model_i.cov, model_i.mean - model_j.mean)

    def two_draw_audit(rng):
        out_i = oracle_release_draws(plan, model_i, 20_000, rng)
        out_j = oracle_release_draws(plan, model_j, 20_000, rng)
        return _half_space_violation(out_i, out_j, direction, params)

    fast, slow = [], []
    for k in range(7):
        for run, times in ((lambda rng: audit(plan, model_i, model_j, params, 20_000, rng), fast),
                           (two_draw_audit, slow)):
            rng = derive_rng(41, k)
            start = time.perf_counter()
            run(rng)
            times.append(time.perf_counter() - start)
    return statistics.median(fast) / statistics.median(slow)


@pytest.mark.timing
def test_gaussian_audit_at_most_nine_tenths_of_the_two_draw_time():
    assert audit_time_ratio("gaussian") <= 0.9


@pytest.mark.timing
def test_laplace_audit_at_most_nine_tenths_of_the_two_draw_time():
    assert audit_time_ratio("laplace") <= 0.9


@pytest.mark.timing
def test_audit_scoring_at_most_seven_tenths_of_the_oracle_time():
    fam = TestAuditScoringOracle.golden_family()
    params = PrivacyParams(1.0, 1e-3)
    lab_i, lab_j = fam.pairs[0]
    draws = audit_draws(calibrate_expm(fam, params, "gaussian"), fam.catalog[lab_i],
                        fam.catalog[lab_j], 20_000, derive_rng(36))
    assert draws[2] is not None
    fast, slow = [], []
    for _ in range(5):
        for score, times in ((_half_space_violation, fast), (oracle_audit_violation, slow)):
            start = time.perf_counter()
            score(*draws, params)
            times.append(time.perf_counter() - start)
    assert statistics.median(fast) <= 0.7 * statistics.median(slow)


@pytest.mark.parametrize("calibrate", [
    lambda noise: calibrate_expm(worked_example_family(), PARAMS, noise),
    lambda noise: calibrate_directional(worked_example_family(), PARAMS, noise),
    lambda noise: group_dp_calibrate(1.0, 2, PARAMS, noise),
], ids=["expm", "directional", "group_dp"])
def test_unknown_noise_rejected(calibrate):
    with pytest.raises(ValueError, match="noise must be"):
        calibrate("uniform")


# float.hex of each plan's scale or sigma (for eig, a digest of the float.hex of
# every cov entry), per (epsilon, delta), built by cli.build_plan on the catalog
# below with n = 333 and group size 7.
PINNED_PLAN_BITS = {
    (0.2, 1e-06): {
        "wass": "0x1.1b6413ac6f3f9p+4", "awass": "0x1.7be8e93d4b681p+7",
        "expm-l": "0x1.1b6413ac6f3f9p+4", "expm-g": "0x1.ba208e09687c7p+5",
        "dir-l": "0x1.4dc19c2d6371bp+3", "dir-g": "0x1.ba208e09687c7p+5",
        "eig": "dac650f073ebffc3", "dau": "0x1.ba0670db91964p+5",
        "gdp-l": "0x1.6632bd1dfb632p+6", "gdp-g": "0x1.0f179c74286a2p+8",
    },
    (0.2, 0.001): {
        "wass": "0x1.1b6413ac6f3f9p+4", "awass": "0x1.26a01545c7ee7p+7",
        "expm-l": "0x1.1b6413ac6f3f9p+4", "expm-g": "0x1.3b1b1f775189fp+5",
        "dir-l": "0x1.4dc19c2d6371bp+3", "dir-g": "0x1.3b1b1f775189fp+5",
        "eig": "d609afa18a2a1c62", "dau": "0x1.3af67064a699ep+5",
        "gdp-l": "0x1.6632bd1dfb632p+6", "gdp-g": "0x1.826aceb5dd08fp+7",
    },
    (1.0, 1e-06): {
        "wass": "0x1.c56cec471865cp+1", "awass": "0x1.2fed87643c534p+5",
        "expm-l": "0x1.c56cec471865cp+1", "expm-g": "0x1.61b3a4d45396cp+3",
        "dir-l": "0x1.0b0149bde927cp+1", "dir-g": "0x1.61b3a4d45396cp+3",
        "eig": "7d8e6183ff09b2ab", "dau": "0x1.5fa6d1233b77fp+3",
        "gdp-l": "0x1.1e8efdb195e8fp+4", "gdp-g": "0x1.b1bf60b9da437p+5",
    },
    (1.0, 0.001): {
        "wass": "0x1.c56cec471865cp+1", "awass": "0x1.d766886fa64a6p+4",
        "expm-l": "0x1.c56cec471865cp+1", "expm-g": "0x1.f82b658bb5a98p+2",
        "dir-l": "0x1.0b0149bde927cp+1", "dir-g": "0x1.f82b658bb5a98p+2",
        "eig": "5110dfc518da20f8", "dau": "0x1.f2665ffee8b04p+2",
        "gdp-l": "0x1.1e8efdb195e8fp+4", "gdp-g": "0x1.35223ef7e4073p+5",
    },
    (5.0, 1e-06): {
        "wass": "0x1.6abd89d279eb0p-1", "awass": "0x1.e648d8a060853p+2",
        "expm-l": "0x1.6abd89d279eb0p-1", "expm-g": "0x1.1af61d76a9456p+1",
        "dir-l": "0x1.ab3542c9750c6p-2", "dir-g": "0x1.1af61d76a9456p+1",
        "eig": "be1e83e1d65d5e6a", "dau": "0x1.dd3193dcf4434p+0",
        "gdp-l": "0x1.ca7e62b5bca7ep+1", "gdp-g": "0x1.5aff8094ae9c6p+3",
    },
    (5.0, 0.001): {
        "wass": "0x1.6abd89d279eb0p-1", "awass": "0x1.791ed38c85085p+2",
        "expm-l": "0x1.6abd89d279eb0p-1", "expm-g": "0x1.9355ead62aee0p+0",
        "dir-l": "0x1.ab3542c9750c6p-2", "dir-g": "0x1.9355ead62aee0p+0",
        "eig": "c24a8c22e18fbfa9", "dau": "0x1.08cf84ee247f1p+0",
        "gdp-l": "0x1.ca7e62b5bca7ep+1", "gdp-g": "0x1.ee9d318ca00b8p+2",
    },
}


class TestPlanBits:
    """Every mechanism's plan, pinned bit for bit.

    The other plan tests compare with a tolerance, so a one-ulp drift in a
    calibration (for example computing c * (k * s) / epsilon instead of
    ((c * k) * s) / epsilon) would pass them. The covariances are
    diagonal, so the eigen- and Cholesky factors involved are exact.
    """

    @staticmethod
    def family() -> PairFamily:
        rng = np.random.default_rng(20261018)
        mu = rng.normal(size=5) * 5.0
        gap = rng.normal(size=5)
        var = rng.uniform(0.5, 4.0, size=5)
        lab_a, lab_b = SecretLabel("income", 0.45), SecretLabel("income", 0.55)
        return PairFamily(
            {lab_a: GaussianModel(mu, np.diag(var), 1000),
             lab_b: GaussianModel(mu - gap, np.diag(1.01 * var), 1000)},
            [(lab_a, lab_b), (lab_b, lab_a)],
        )

    @staticmethod
    def config() -> ExperimentConfig:
        return ExperimentConfig(
            dataset="", seed=5, delta_p=[0.1], epsilon=[1.0], delta=[1e-3], mechanisms=["none"],
            n=333, group_size=7, modeling_samples=2, repetitions=1,
        )

    def test_plans_match_pinned_bits(self):
        fam, cfg = self.family(), self.config()
        for (eps, delta), want in PINNED_PLAN_BITS.items():
            got = {}
            for mech in want:
                plan = build_plan(mech, fam, PrivacyParams(eps, delta), cfg)
                if plan.cov is not None:
                    text = " ".join(float(x).hex() for x in plan.cov.ravel())
                    got[mech] = hashlib.sha256(text.encode()).hexdigest()[:16]
                else:
                    got[mech] = float(plan.scale if plan.sigma is None else plan.sigma).hex()
            assert got == want, (eps, delta)

    def test_grid_holds_a_reassociation_sensitive_gdp_case(self):
        cfg = self.config()
        sens = per_record_sensitivity(QUERY_COMPONENTS, cfg.n, 2)
        k = cfg.group_size
        sensitive = []
        for eps, delta in PINNED_PLAN_BITS:
            c = PrivacyParams(eps, delta).gaussian_c()
            sensitive.append(c * k * sens / eps != c * (k * sens) / eps)
        assert any(sensitive)


# Builders of values that hold arrays; two calls give two values of equal content.
VALUES_HOLDING_ARRAYS = {
    "NoisePlan": lambda: NoisePlan(kind="gaussian_cov", cov=WORKED_COV),
    "DiscreteDistribution": lambda: DiscreteDistribution([[0.0], [1.0]], [1, 1], 2),
    "PairFamily": worked_example_family,
    "GaussianModel": lambda: GaussianModel([100.0, 101.0], WORKED_COV, 1000),
    "LinearClassifier": lambda: LinearClassifier(np.ones(2), 0.0, np.zeros(2), np.ones(2)),
    "AssumptionReport": lambda: AssumptionReport(0.0, 0.0, 0.0, np.array([1.0, 0.0])),
}


@pytest.mark.parametrize("name", sorted(VALUES_HOLDING_ARRAYS))
def test_values_holding_arrays_compare_and_hash_by_identity(name):
    a, b = VALUES_HOLDING_ARRAYS[name](), VALUES_HOLDING_ARRAYS[name]()
    assert (a == a) is True
    assert (a == b) is False and (a != b) is True
    assert hash(a) == hash(a)
    assert len({a, b, a}) == 2
