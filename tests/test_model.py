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
    covariance_spectrum,
    delta_E,
    eigenbasis_residual,
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
        with pytest.raises(ValueError, match="finite"):
            PrivacyParams(np.inf, 0.0)
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

    def test_cov_and_factor_are_read_only(self):
        model = GaussianModel([0.0, 0.0], [[2.0, 0.5], [0.5, 1.0]], 5)
        for name in ("cov", "factor"):
            with pytest.raises(AttributeError):
                setattr(model, name, np.eye(2))
            with pytest.raises(ValueError):
                getattr(model, name)[0, 0] = 3.0

    def test_factor_reproduces_the_covariance(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(4, 4))
        model = GaussianModel(np.zeros(4), a @ a.T, 5)
        assert np.allclose(model.factor @ model.factor.T, model.cov, rtol=1e-12, atol=1e-12)
        for stored, fresh in zip((model.eigenvalues, model.eigenvectors, model.factor),
                                 covariance_spectrum(model.cov)):
            assert np.array_equal(stored, fresh)

    def test_rejects_nonfinite_covariance(self):
        with pytest.raises(ValueError, match="finite"):
            GaussianModel([0.0, 0.0], [[1.0, 0.0], [0.0, np.inf]], 10)


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

    def test_refuses_a_gap_that_overflows(self):
        # 1e308 - (-1e308) overflows; the family would give no_noise_check
        # a NaN Mahalanobis gap and every calibration an infinite sensitivity.
        lab_a, lab_b = SecretLabel("p", 0.4), SecretLabel("p", 0.6)
        catalog = {lab_a: GaussianModel([1e308, 0.0], np.eye(2), 10),
                   lab_b: GaussianModel([-1e308, 0.0], np.eye(2), 10)}
        overflow = r"pair \(.*value=0\.4\).*value=0\.6\)\) has a mean gap that overflows"
        with pytest.raises(ConfigError, match=overflow):
            PairFamily(catalog, [(lab_a, lab_b), (lab_b, lab_a)])


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
        assert eigenbasis_residual(fam) == (0.0, None)

    def test_fit_direction_sign_convention(self):
        v = fit_common_direction(worked_example_family())
        assert v[0] > 0.0
        assert np.linalg.norm(v) == pytest.approx(1.0)


class TestEigendecompose:
    def test_worked_example(self):
        vals, vecs = eigendecompose(WORKED_COV)
        assert vals.tolist() == pytest.approx([25.0, 10.0])
        assert np.allclose(vecs[:, 0], np.array([2.0, -1.0]) / np.sqrt(5))
        assert np.allclose(vecs[:, 1], np.array([1.0, 2.0]) / np.sqrt(5))

    def test_identity(self):
        vals, _ = eigendecompose(np.eye(4))
        assert vals.tolist() == pytest.approx([1.0] * 4)

    def test_reconstruction_random_symmetric(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            a = rng.normal(size=(5, 5))
            sym = a + a.T  # indefinite in general
            vals, vecs = eigendecompose(sym)
            assert np.allclose((vecs * vals) @ vecs.T, sym, atol=1e-8 * np.abs(sym).max())
            assert np.allclose(vecs.T @ vecs, np.eye(5), atol=1e-8)
            assert np.allclose(sym @ vecs, vecs * vals, atol=1e-8 * np.linalg.norm(sym))

    def test_scaling_invariance(self):
        rng = np.random.default_rng(29)
        a = rng.normal(size=(4, 4))
        sym = a @ a.T
        vals_b, vecs_b = eigendecompose(sym)
        vals_s, vecs_s = eigendecompose(2.5 * sym)
        assert vals_s == pytest.approx(2.5 * vals_b, rel=1e-10)
        assert np.allclose(vecs_b, vecs_s, atol=1e-9)

    def test_descending_order_and_sign(self):
        vals, vecs = eigendecompose(np.diag([1.0, 3.0, 2.0]))
        assert vals.tolist() == pytest.approx([3.0, 2.0, 1.0])
        for v in vecs.T:
            first_nonzero = v[np.nonzero(v)[0][0]]
            assert first_nonzero > 0.0

    def test_vectors_are_c_contiguous_columns(self):
        rng = np.random.default_rng(31)
        a = rng.normal(size=(5, 5))
        vals, vecs = eigendecompose(a @ a.T)
        assert vals.shape == (5,) and vecs.shape == (5, 5)
        assert vecs.flags["C_CONTIGUOUS"]

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            eigendecompose(np.array([[1.0, 2.0], [0.0, 1.0]]))


def same_model(a: GaussianModel, b: GaussianModel) -> bool:
    """Models compare by identity; this compares what a catalog stores."""
    return (np.array_equal(a.mean, b.mean) and np.array_equal(a.cov, b.cov)
            and a.sample_count == b.sample_count)


class TestCatalogSerialization:
    def test_round_trip(self, tmp_path):
        fam = worked_example_family()
        path = tmp_path / "catalog.json"
        save_catalog(fam.catalog, path)
        loaded = load_catalog(path)
        assert set(loaded) == set(fam.catalog)
        for label, model in fam.catalog.items():
            assert same_model(loaded[label], model)

    def test_failed_save_keeps_the_old_catalog(self, tmp_path, monkeypatch):
        fam = worked_example_family()
        path = tmp_path / "catalog.json"
        save_catalog(fam.catalog, path)
        saved = path.read_bytes()

        def broken_dump(doc, fh, **kwargs):
            fh.write("[{")
            raise OSError("disk full")

        monkeypatch.setattr(json, "dump", broken_dump)
        with pytest.raises(OSError):
            save_catalog({SecretLabel("income", 0.3): fam.catalog[fam.sorted_labels()[0]]}, path)
        assert path.read_bytes() == saved
        assert [p.name for p in tmp_path.iterdir()] == ["catalog.json"]

    def test_doc_schema(self):
        label = SecretLabel("income", 0.45)
        model = GaussianModel([1.0, 2.0], np.eye(2), 7)
        doc = model_to_doc(label, model)
        assert set(doc) == {"property_id", "value", "mean", "cov", "sample_count"}
        back_label, back_model = model_from_doc(json.loads(json.dumps(doc)))
        assert back_label == label
        assert same_model(back_model, model)

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
