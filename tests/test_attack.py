import numpy as np
import pytest

from distpriv.attack import (
    LinearClassifier,
    ShadowConfig,
    draw_attack_queries,
    evaluate_attack,
    run_attack_trial,
    train_meta_classifier,
)
from distpriv.dataio import PropertySpec, SubsetSampler, split_dataset
from distpriv.errors import TrainingError
from distpriv.mechanisms import NoisePlan, calibrate_expm
from distpriv.model import PrivacyParams, SecretLabel, estimate_gaussian, family_from_catalog
from distpriv.seeding import derive_rng

from helpers import synthetic_census_table


@pytest.fixture(scope="module")
def synth_splits():
    return split_dataset(synthetic_census_table(30_000, seed=11), seed=5)


@pytest.fixture(scope="module")
def samplers(synth_splits):
    return SubsetSampler(synth_splits.aux, "income"), SubsetSampler(synth_splits.test, "income")


def shadow_cfg(**kw):
    base = dict(p_low=0.45, p_high=0.55, repetitions=1)
    base.update(kw)
    return ShadowConfig(**base)


class TestShadowConfig:
    def test_counts_must_be_even(self):
        with pytest.raises(ValueError):
            shadow_cfg(shadow_count=199)

    def test_property_values_ordered(self):
        with pytest.raises(ValueError):
            shadow_cfg(p_low=0.6, p_high=0.4)


class TestTraining:
    def test_separable_data_fits_perfectly(self):
        x = np.array([[-1.0]] * 50 + [[1.0]] * 50)
        y = np.array([0] * 50 + [1] * 50)
        clf = train_meta_classifier(x, y)
        assert evaluate_attack(clf, x, y) == 1.0

    def test_permuted_labels_are_chance(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(400, 4))
        y = rng.integers(0, 2, size=400)
        clf = train_meta_classifier(x, y)
        held_x = rng.normal(size=(1000, 4))
        held_y = rng.integers(0, 2, size=1000)
        assert abs(evaluate_attack(clf, held_x, held_y) - 0.5) < 0.05

    def test_loss_never_exceeds_zero_classifier(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(200, 3))
        y = (x[:, 0] + 0.3 * rng.normal(size=200) > 0).astype(int)
        clf = train_meta_classifier(x, y)
        z = (x - clf.feature_means) / clf.feature_scales
        scores = z @ clf.weights + clf.bias
        signed = np.where(y > 0.5, -scores, scores)
        loss = float(np.logaddexp(0.0, signed).sum()) + 0.5 * float(clf.weights @ clf.weights)
        assert loss <= 200 * np.log(2.0) + 1e-9

    def test_single_class_rejected(self):
        with pytest.raises(TrainingError):
            train_meta_classifier(np.zeros((10, 2)), np.ones(10))

    def test_nonfinite_rejected(self):
        x = np.zeros((4, 2))
        x[0, 0] = np.inf
        with pytest.raises(ValueError):
            train_meta_classifier(x, np.array([0, 0, 1, 1]))

    def test_deterministic(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(100, 5))
        y = rng.integers(0, 2, size=100)
        while len(np.unique(y)) < 2:
            y = rng.integers(0, 2, size=100)
        a = train_meta_classifier(x, y)
        b = train_meta_classifier(x, y)
        assert a.weights.tobytes() == b.weights.tobytes()
        assert a.bias == b.bias


class TestEvaluate:
    def test_all_correct_and_inverted(self):
        clf = LinearClassifier(
            weights=np.array([1.0]), bias=0.0,
            feature_means=np.zeros(1), feature_scales=np.ones(1),
        )
        x = np.array([[-2.0], [2.0]])
        y = np.array([0, 1])
        assert evaluate_attack(clf, x, y) == 1.0
        flipped = LinearClassifier(
            weights=np.array([-1.0]), bias=0.0,
            feature_means=np.zeros(1), feature_scales=np.ones(1),
        )
        assert evaluate_attack(flipped, x, y) == 0.0

    def test_exact_zero_scores_count_as_class_one(self):
        clf = LinearClassifier(
            weights=np.array([0.0]), bias=0.0,
            feature_means=np.zeros(1), feature_scales=np.ones(1),
        )
        assert evaluate_attack(clf, np.array([[3.0]]), np.array([1])) == 1.0

    def test_balanced_random_predictions_near_half(self):
        rng = np.random.default_rng(9)
        clf = LinearClassifier(
            weights=rng.normal(size=3), bias=0.0,
            feature_means=np.zeros(3), feature_scales=np.ones(3),
        )
        x = rng.normal(size=(4000, 3))
        y = rng.integers(0, 2, size=4000)
        assert abs(evaluate_attack(clf, x, y) - 0.5) < 0.05

    def test_feature_scaling_invariance(self):
        rng = np.random.default_rng(13)
        x = rng.normal(size=(120, 4))
        y = (x[:, 1] > 0).astype(int)
        clf = train_meta_classifier(x, y)
        clf_scaled = train_meta_classifier(1000.0 * x, y)
        assert np.array_equal(clf.predict(x), clf_scaled.predict(1000.0 * x))

    def test_dimension_mismatch(self):
        clf = LinearClassifier(
            weights=np.array([1.0, 2.0]), bias=0.0,
            feature_means=np.zeros(2), feature_scales=np.ones(2),
        )
        with pytest.raises(ValueError):
            clf.predict(np.zeros((3, 5)))


def trial(samplers, cfg, plan, rng):
    """Draw one repetition's query matrices, then noise, train and score."""
    return run_attack_trial(*draw_attack_queries(*samplers, cfg, rng), cfg, plan, rng)


class TestAttackTrial:
    def test_undefended_attack_beats_chance(self, samplers):
        accs = [
            trial(samplers, shadow_cfg(), NoisePlan(kind="none"), derive_rng(1, "trial", rep))
            for rep in range(5)
        ]
        assert np.mean(accs) > 0.65

    def test_huge_noise_destroys_attack(self, samplers):
        plan = NoisePlan(kind="gaussian_iid", sigma=1e9)
        accs = [
            trial(samplers, shadow_cfg(), plan, derive_rng(2, "noise", rep))
            for rep in range(5)
        ]
        assert abs(np.mean(accs) - 0.5) < 0.08

    def test_deterministic_given_seed(self, samplers):
        args = (samplers, shadow_cfg(), NoisePlan(kind="none"))
        assert trial(*args, derive_rng(3)) == trial(*args, derive_rng(3))

    def test_defense_weakens_as_epsilon_grows(self, synth_splits, samplers):
        # calibrated Gaussian noise at eps = 0.2 must defend at least as
        # well as at eps = 5 (with margin), mirroring the utility trend
        catalog = {}
        for p in (0.45, 0.55):
            rng = derive_rng(4, "models", p)
            queries = np.vstack([
                np.asarray(
                    run_attack_query(synth_splits.modeling, p, rng)
                )
                for _ in range(300)
            ])
            catalog[SecretLabel("income", p)] = estimate_gaussian(queries)
        family = family_from_catalog(catalog, [(0.45, 0.55)], "income")
        means = {}
        for eps in (0.2, 5.0):
            plan = calibrate_expm(family, PrivacyParams(eps, 0.001), "gaussian")
            accs = [
                trial(samplers, shadow_cfg(), plan, derive_rng(5, "eps", eps, rep))
                for rep in range(10)
            ]
            means[eps] = float(np.mean(accs))
        assert means[0.2] <= means[5.0] - 0.01

    def test_label_balance(self, samplers):
        # Each matrix's first half is labeled p_low and its second half
        # p_high: queries that one feature splits at the halves are scored
        # exactly right, and exactly wrong with the test halves swapped.
        cfg = shadow_cfg()
        shadow_x, test_x = draw_attack_queries(*samplers, cfg, derive_rng(6))
        assert shadow_x.shape == (cfg.shadow_count, 5)
        assert test_x.shape == (cfg.test_count, 5)

        def halves(count):
            return np.repeat([[0.0] * 5, [1.0] * 5], count // 2, axis=0)

        none = NoisePlan(kind="none")
        shadow = halves(cfg.shadow_count)
        assert run_attack_trial(shadow, halves(cfg.test_count), cfg, none, derive_rng(6)) == 1.0
        assert run_attack_trial(shadow, 1.0 - halves(cfg.test_count), cfg, none,
                                derive_rng(6)) == 0.0

    def test_row_counts_must_match_config(self, samplers):
        cfg = shadow_cfg()
        shadow_x, test_x = draw_attack_queries(*samplers, cfg, derive_rng(7))
        with pytest.raises(ValueError, match="shadow queries"):
            run_attack_trial(shadow_x[1:], test_x, cfg, NoisePlan(kind="none"), derive_rng(7))
        with pytest.raises(ValueError, match="test queries"):
            run_attack_trial(shadow_x, test_x[:, 0], cfg, NoisePlan(kind="none"), derive_rng(7))


def run_attack_query(table, p, rng):
    from distpriv.dataio import compute_query, sample_subset_indices

    return compute_query(
        table.take(sample_subset_indices(table, PropertySpec("income", p), 100, rng))
    )
