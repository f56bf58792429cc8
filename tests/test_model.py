import json

import numpy as np
import pytest

from distpriv.errors import ConfigError, EstimationError
from distpriv.model import (
    GaussianModel,
    PairFamily,
    PrivacyParams,
    SecretLabel,
    check_assumptions,
    cov_discrepancy,
    delta_E,
    eigendecompose,
    estimate_gaussian,
    family_from_catalog,
    fit_common_direction,
    gap_angle,
    load_catalog,
    model_from_doc,
    model_to_doc,
    save_catalog,
)

from helpers import WORKED_COV, worked_example_family
from oracles import oracle_mean_cov_two_pass


class TestLabelAndParams:
    def test_label_validation(self):
        with pytest.raises(ValueError):
            SecretLabel("", 0.5)
        with pytest.raises(ValueError):
            SecretLabel("income", 1.5)
        assert SecretLabel("income", 0.45).value == 0.45

    def test_params_validation(self):
        with pytest.raises(ValueError):
            PrivacyParams(0.0, 0.0)
        with pytest.raises(ValueError):
            PrivacyParams(1.0, 1.0)
        with pytest.raises(ValueError):
            PrivacyParams(1.0, -0.1)

    def test_gaussian_c(self):
        params = PrivacyParams(1.0, 0.001)
        assert params.gaussian_c() == pytest.approx(np.sqrt(2 * np.log(1250.0)))
        with pytest.raises(ValueError):
            PrivacyParams(1.0, 0.0).gaussian_c()


class TestGaussianModel:
    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            GaussianModel([0.0, 0.0], [[1.0, 0.5], [0.2, 1.0]], 10)

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError):
            GaussianModel([0.0, 0.0], [[1.0, 2.0], [2.0, 1.0]], 10)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            GaussianModel([np.nan, 0.0], np.eye(2), 10)

    def test_immutable(self):
        model = GaussianModel([0.0], [[1.0]], 5)
        with pytest.raises(AttributeError):
            model.sample_count = 7
        with pytest.raises(ValueError):
            model.mean[0] = 3.0


class TestEstimateGaussian:
    def test_two_point_formula(self):
        model = estimate_gaussian([[0.0, 0.0], [2.0, 2.0]])
        assert np.allclose(model.mean, [1.0, 1.0])
        assert np.allclose(model.cov, [[2.0, 2.0], [2.0, 2.0]])
        assert model.sample_count == 2

    def test_degenerate_equal_samples(self):
        model = estimate_gaussian([[5.0, 5.0, 5.0]] * 10)
        assert np.allclose(model.mean, 5.0)
        assert np.allclose(model.cov, 0.0)

    def test_matches_two_pass_oracle(self):
        rng = np.random.default_rng(3)
        samples = rng.normal(size=(1000, 5)) * [3, 1, 9, 9, 4] + [40, 10, 20, 35, 41]
        model = estimate_gaussian(samples)
        mean, cov = oracle_mean_cov_two_pass(samples)
        assert np.allclose(model.mean, mean, rtol=1e-10, atol=0)
        assert np.allclose(model.cov, cov, rtol=1e-10, atol=1e-12)

    def test_needs_two_samples(self):
        with pytest.raises(EstimationError):
            estimate_gaussian([[1.0, 2.0]])

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            estimate_gaussian([[1.0], [np.inf]])

    def test_cov_always_psd(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            n = int(rng.integers(2, 30))
            m = int(rng.integers(1, 6))
            model = estimate_gaussian(rng.normal(size=(n, m)) * 100)
            eigvals = np.linalg.eigvalsh(model.cov)
            assert eigvals.min() >= -1e-9 * max(eigvals.max(), 0.0)


class TestDeltaE:
    def test_worked_example_l2(self):
        assert delta_E(worked_example_family(), 2) == pytest.approx(np.sqrt(2.0), abs=1e-12)

    def test_identical_means(self):
        lab_a, lab_b = SecretLabel("p", 0.4), SecretLabel("p", 0.6)
        model = GaussianModel([3.0, 4.0], np.eye(2), 10)
        fam = PairFamily({lab_a: model, lab_b: model}, [(lab_a, lab_b), (lab_b, lab_a)])
        assert delta_E(fam, 1) == 0.0
        assert delta_E(fam, 2) == 0.0

    def test_sup_of_finite_gaps(self):
        labels = [SecretLabel("p", v) for v in (0.1, 0.2, 0.3, 0.4)]
        means = [0.0, 3.0, 10.0, 5.0]
        catalog = {
            lab: GaussianModel([mu], [[1.0]], 10) for lab, mu in zip(labels, means)
        }
        pairs = []
        for a, b in [(0, 1), (1, 2), (3, 0)]:  # L1 gaps 3, 7, 5
            pairs += [(labels[a], labels[b]), (labels[b], labels[a])]
        fam = PairFamily(catalog, pairs)
        assert delta_E(fam, 1) == 7.0

    def test_norm_inequality(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            lab_a, lab_b = SecretLabel("p", 0.3), SecretLabel("p", 0.7)
            m = int(rng.integers(1, 6))
            fam = PairFamily(
                {
                    lab_a: GaussianModel(rng.normal(size=m), np.eye(m), 10),
                    lab_b: GaussianModel(rng.normal(size=m), np.eye(m), 10),
                },
                [(lab_a, lab_b), (lab_b, lab_a)],
            )
            assert delta_E(fam, 2) <= delta_E(fam, 1) + 1e-12


class TestPairFamily:
    def test_requires_symmetric_pairs(self):
        lab_a, lab_b = SecretLabel("p", 0.4), SecretLabel("p", 0.6)
        model = GaussianModel([0.0], [[1.0]], 10)
        with pytest.raises(ConfigError):
            PairFamily({lab_a: model, lab_b: model}, [(lab_a, lab_b)])

    def test_requires_catalog_entries(self):
        lab_a, lab_b = SecretLabel("p", 0.4), SecretLabel("p", 0.6)
        model = GaussianModel([0.0], [[1.0]], 10)
        with pytest.raises(ConfigError):
            PairFamily({lab_a: model}, [(lab_a, lab_b), (lab_b, lab_a)])

    def test_requires_pairs(self):
        lab = SecretLabel("p", 0.4)
        with pytest.raises(ConfigError):
            PairFamily({lab: GaussianModel([0.0], [[1.0]], 10)}, [])


class TestCheckAssumptions:
    def test_equal_covariances(self):
        report = check_assumptions(worked_example_family())
        assert report.max_cov_discrepancy == 0.0

    def test_parallel_gaps_have_zero_angle(self):
        labels = [SecretLabel("p", v) for v in (0.2, 0.4, 0.6, 0.8)]
        means = [np.array([0.0, 0.0]), np.array([1.0, -1.0]),
                 np.array([0.0, 0.0]), np.array([2.0, -2.0])]
        catalog = {lab: GaussianModel(mu, np.eye(2), 10) for lab, mu in zip(labels, means)}
        pairs = [
            (labels[0], labels[1]), (labels[1], labels[0]),
            (labels[2], labels[3]), (labels[3], labels[2]),
        ]
        report = check_assumptions(PairFamily(catalog, pairs))
        assert report.max_direction_angle == pytest.approx(0.0, abs=1e-7)
        assert abs(report.common_direction @ np.array([1.0, -1.0]) / np.sqrt(2)) == pytest.approx(1.0)

    def test_translation_family_all_zero(self):
        rng = np.random.default_rng(17)
        a = rng.normal(size=(3, 3))
        cov = a @ a.T + np.eye(3)
        mu = rng.normal(size=3)
        shift = rng.normal(size=3)
        labels = [SecretLabel("p", v) for v in (0.3, 0.5, 0.7)]
        catalog = {
            labels[0]: GaussianModel(mu, cov, 10),
            labels[1]: GaussianModel(mu + shift, cov, 10),
            labels[2]: GaussianModel(mu + 2 * shift, cov, 10),
        }
        pairs = []
        for a_, b_ in [(0, 1), (1, 2), (0, 2)]:
            pairs += [(labels[a_], labels[b_]), (labels[b_], labels[a_])]
        report = check_assumptions(PairFamily(catalog, pairs))
        assert report.max_cov_discrepancy == 0.0
        assert report.max_direction_angle == pytest.approx(0.0, abs=1e-6)
        assert report.common_eigenbasis_residual == pytest.approx(0.0, abs=1e-9)

    def test_zero_gap_contributes_zero_angle(self):
        lab_a, lab_b = SecretLabel("p", 0.4), SecretLabel("p", 0.6)
        model = GaussianModel([1.0, 2.0], np.eye(2), 10)
        fam = PairFamily({lab_a: model, lab_b: model}, [(lab_a, lab_b), (lab_b, lab_a)])
        report = check_assumptions(fam)
        assert report.max_direction_angle == 0.0

    def test_measurements_name_the_worst_pair(self):
        labels = [SecretLabel("p", v) for v in (0.2, 0.4, 0.6)]
        catalog = {
            labels[0]: GaussianModel([0.0, 0.0], np.eye(2), 10),
            labels[1]: GaussianModel([1.0, 0.1], 1.1 * np.eye(2), 10),
            labels[2]: GaussianModel([1.0, 1.0], 2.0 * np.eye(2), 10),
        }
        pairs = [(labels[0], labels[1]), (labels[1], labels[0]),
                 (labels[0], labels[2]), (labels[2], labels[0])]
        fam = PairFamily(catalog, pairs)
        disc, disc_pair = cov_discrepancy(fam)
        assert disc == pytest.approx(0.5) and disc_pair == (labels[0], labels[2])
        angle, angle_pair = gap_angle(fam, np.array([1.0, 0.0]))
        assert angle == pytest.approx(np.pi / 4) and angle_pair == (labels[0], labels[2])
        report = check_assumptions(fam)
        assert report.max_cov_discrepancy == disc
        assert report.max_direction_angle == gap_angle(fam, report.common_direction)[0]

    def test_measurements_without_violation_name_no_pair(self):
        lab_a, lab_b = SecretLabel("p", 0.4), SecretLabel("p", 0.6)
        fam = PairFamily(
            {lab_a: GaussianModel([2.0, 0.0], np.eye(2), 10),
             lab_b: GaussianModel([0.0, 0.0], np.eye(2), 10)},
            [(lab_a, lab_b), (lab_b, lab_a)],
        )
        assert cov_discrepancy(fam) == (0.0, None)
        assert gap_angle(fam, np.array([1.0, 0.0])) == (0.0, None)

    def test_fit_direction_sign_convention(self):
        v = fit_common_direction(worked_example_family())
        assert v[0] > 0.0
        assert np.linalg.norm(v) == pytest.approx(1.0)


class TestEigendecompose:
    def test_worked_example(self):
        pairs = eigendecompose(WORKED_COV)
        vals = [lam for lam, _ in pairs]
        assert vals == pytest.approx([25.0, 10.0])
        v1, v2 = pairs[0][1], pairs[1][1]
        assert np.allclose(v1, np.array([2.0, -1.0]) / np.sqrt(5))
        assert np.allclose(v2, np.array([1.0, 2.0]) / np.sqrt(5))

    def test_identity(self):
        for lam, _ in eigendecompose(np.eye(4)):
            assert lam == pytest.approx(1.0)

    def test_reconstruction_random_symmetric(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            a = rng.normal(size=(5, 5))
            sym = a + a.T  # indefinite in general
            pairs = eigendecompose(sym)
            recon = sum(lam * np.outer(v, v) for lam, v in pairs)
            assert np.allclose(recon, sym, atol=1e-8 * np.abs(sym).max())
            basis = np.column_stack([v for _, v in pairs])
            assert np.allclose(basis.T @ basis, np.eye(5), atol=1e-8)
            for lam, v in pairs:
                assert np.allclose(sym @ v, lam * v, atol=1e-8 * np.linalg.norm(sym))

    def test_scaling_invariance(self):
        rng = np.random.default_rng(29)
        a = rng.normal(size=(4, 4))
        sym = a @ a.T
        base = eigendecompose(sym)
        scaled = eigendecompose(2.5 * sym)
        for (lam_b, v_b), (lam_s, v_s) in zip(base, scaled):
            assert lam_s == pytest.approx(2.5 * lam_b, rel=1e-10)
            assert np.allclose(v_b, v_s, atol=1e-9)

    def test_descending_order_and_sign(self):
        pairs = eigendecompose(np.diag([1.0, 3.0, 2.0]))
        assert [lam for lam, _ in pairs] == pytest.approx([3.0, 2.0, 1.0])
        for _, v in pairs:
            first_nonzero = v[np.nonzero(v)[0][0]]
            assert first_nonzero > 0.0

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            eigendecompose(np.array([[1.0, 2.0], [0.0, 1.0]]))


class TestCatalogSerialization:
    def test_round_trip(self, tmp_path):
        fam = worked_example_family()
        path = tmp_path / "catalog.json"
        save_catalog(fam.catalog, path)
        loaded = load_catalog(path)
        assert set(loaded) == set(fam.catalog)
        for label, model in fam.catalog.items():
            assert loaded[label] == model

    def test_doc_schema(self):
        label = SecretLabel("income", 0.45)
        model = GaussianModel([1.0, 2.0], np.eye(2), 7)
        doc = model_to_doc(label, model)
        assert set(doc) == {"property_id", "value", "mean", "cov", "sample_count"}
        back_label, back_model = model_from_doc(json.loads(json.dumps(doc)))
        assert back_label == label
        assert back_model == model

    def test_family_from_catalog_closes_pairs(self):
        fam = worked_example_family()
        rebuilt = family_from_catalog(fam.catalog, [(0.45, 0.55)], "income")
        assert len(rebuilt.pairs) == 2
        with pytest.raises(ConfigError):
            family_from_catalog(fam.catalog, [(0.45, 0.99)], "income")


@pytest.mark.adult
class TestAdultModels:
    def test_income_models_nearly_share_covariance(self, adult_splits):
        from distpriv.dataio import PropertySpec, compute_query, sample_subset_indices
        from distpriv.seeding import derive_rng

        catalog = {}
        modeling = adult_splits.modeling
        for p in (0.45, 0.55):
            rng = derive_rng(42, "adult-model-test", p)
            queries = np.vstack([
                compute_query(modeling.take(
                    sample_subset_indices(modeling, PropertySpec("income", p), 100, rng)
                ))
                for _ in range(1000)
            ])
            catalog[SecretLabel("income", p)] = estimate_gaussian(queries)
        fam = family_from_catalog(catalog, [(0.45, 0.55)], "income")
        report = check_assumptions(fam)
        assert 0.0 < report.max_cov_discrepancy < 0.1
        # variance of the female count sits near its reported scale
        var_female = catalog[SecretLabel("income", 0.45)].cov[3, 3]
        assert 12.0 < var_female < 25.0
