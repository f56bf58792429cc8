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
from distpriv.mechanisms import NoisePlan, apply_batch, calibrate_expm
from distpriv.model import PrivacyParams, SecretLabel, estimate_gaussian, family_from_catalog
from distpriv.seeding import derive_rng

from helpers import synthetic_census_table
from oracles import oracle_train_meta_classifier


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


def overshooting_matrix(seed: int, n: int = 100, m: int = 4) -> np.ndarray:
    """Two well-separated classes with three rows flipped and stretched; at
    seed 66 one Newton step of its fit overshoots and is halved twice."""
    rng = np.random.default_rng(seed)
    x = 20.0 * np.repeat([0.0, 1.0], n // 2)[:, None] + rng.normal(size=(n, m))
    rows = rng.choice(n, size=3, replace=False)
    x[rows] *= -rng.uniform(1.0, 50.0, size=(3, 1))
    return x


class TestBatchedTraining:
    """A stack of fits equals, bit for bit, each matrix fitted alone by the
    single-fit Newton loop (`oracle_train_meta_classifier`)."""

    @staticmethod
    def assert_members_match_the_oracle(stack, labels):
        clf = train_meta_classifier(stack, labels)
        assert clf.weights.shape == (len(stack), stack.shape[2])
        steps = []
        for k, x in enumerate(stack):
            halvings = []
            weights, bias, means, scales = oracle_train_meta_classifier(x, labels, halvings)
            assert clf.weights[k].tobytes() == weights.tobytes(), k
            assert clf.bias[k] == bias, k
            assert clf.feature_means[k].tobytes() == means.tobytes(), k
            assert clf.feature_scales[k].tobytes() == scales.tobytes(), k
            steps.append(halvings)
        return steps

    def test_members_converging_at_different_steps(self):
        rng = np.random.default_rng(21)
        labels = np.repeat([0, 1], 100)
        # from pure noise to nearly separable: the fits take different step counts
        stack = np.stack([rng.normal(size=(200, 5)) + gap * labels[:, None]
                          for gap in (0.0, 0.5, 2.0, 4.0, 8.0)])
        steps = self.assert_members_match_the_oracle(stack, labels)
        assert len({len(halvings) for halvings in steps}) >= 3

    def test_a_stack_whose_member_backtracks(self):
        stack = np.stack([overshooting_matrix(seed) for seed in (0, 66, 1, 2)])
        steps = self.assert_members_match_the_oracle(stack, np.repeat([0, 1], 50))
        assert not any(steps[0]) and max(steps[1]) > 0
        assert len({len(halvings) for halvings in steps}) > 1

    def test_a_batch_of_one_and_a_single_matrix(self):
        x = overshooting_matrix(66)
        labels = np.repeat([0, 1], 50)
        self.assert_members_match_the_oracle(x[None], labels)
        single = train_meta_classifier(x, labels)
        weights, bias, means, scales = oracle_train_meta_classifier(x, labels)
        assert single.weights.tobytes() == weights.tobytes()
        assert type(single.bias) is float and single.bias == bias
        assert single.feature_means.tobytes() == means.tobytes()
        assert single.feature_scales.tobytes() == scales.tobytes()

    def test_stacked_prediction_scores_each_member_on_its_matrix(self):
        rng = np.random.default_rng(22)
        labels = np.repeat([0, 1], 60)
        stack = np.stack([rng.normal(size=(120, 3)) + gap * labels[:, None]
                          for gap in (0.3, 1.0, 3.0)])
        held = np.stack([rng.normal(size=(40, 3)) for _ in range(3)])
        held_labels = rng.integers(0, 2, size=40)
        clf = train_meta_classifier(stack, labels)
        accuracies = evaluate_attack(clf, held, held_labels)
        for k in range(3):
            alone = train_meta_classifier(stack[k], labels)
            assert clf.decision_scores(held)[k].tobytes() == alone.decision_scores(held[k]).tobytes()
            assert accuracies[k] == evaluate_attack(alone, held[k], held_labels)

    def test_a_fit_stops_once_its_loss_cannot_see_a_step(self, monkeypatch):
        # At 211,618 rows the loss, a sum over every row, cannot resolve the
        # descent of a step whose gradient is still above GRAD_TOL: member 0
        # reaches a gradient of 1.1e-4 in 5 steps, after which a step is
        # accepted only once it is halved so far that the loss is unchanged.
        # A fit that went on from there ran all MAX_ITER iterations.
        import distpriv.attack

        n = 211_618
        rng = np.random.default_rng(1)
        x = rng.normal(size=(n, 1))
        labels = (rng.random(n) < 1.0 / (1.0 + np.exp(-2.0 * x[:, 0]))).astype(int)
        stack = np.stack([x, x + 0.5 * rng.normal(size=(n, 1))])
        iterations = []
        sigmoid = distpriv.attack._sigmoid
        monkeypatch.setattr(distpriv.attack, "_sigmoid",
                            lambda z: iterations.append(z.shape[0]) or sigmoid(z))
        steps = self.assert_members_match_the_oracle(stack, labels)
        assert len(iterations) <= 10 < distpriv.attack.MAX_ITER
        assert max(len(halvings) for halvings in steps) <= 10

    @pytest.mark.parametrize("stack,labels,error", [
        (np.zeros((3, 10, 2)), np.ones(10), TrainingError),
        (np.zeros((3, 10, 2)), np.array([0, 0, 1, 1, 2, 2, 0, 1, 0, 1]), TrainingError),
        (np.zeros((3, 10, 2)), np.repeat([0, 1], 4), TrainingError),
        (np.where(np.arange(60).reshape(3, 10, 2) == 57, np.nan, 1.0), np.repeat([0, 1], 5),
         ValueError),
    ], ids=["single-class", "label-outside-0-1", "label-count", "nonfinite-member"])
    def test_bad_stacks_are_refused_before_fitting(self, monkeypatch, stack, labels, error):
        import distpriv.attack

        def no_fit(design, y):
            raise AssertionError("a refused stack reached the solver")

        monkeypatch.setattr(distpriv.attack, "_newton", no_fit)
        with pytest.raises(error):
            train_meta_classifier(stack, labels)


@pytest.mark.timing
class TestTrainingBudget:
    def test_a_cell_of_five_fits_beats_the_oracle_loop(self):
        # One paper-size attack cell: 5 repetitions of 200 shadow releases of
        # the 5 query components.
        import time

        rng = np.random.default_rng(24)
        labels = np.repeat([0, 1], 100)
        stack = rng.normal(size=(5, 200, 5)) + 0.3 * labels[:, None]

        def seconds(fit_cell):
            runs = []
            for _ in range(7):
                start = time.perf_counter()
                for _ in range(20):
                    fit_cell()
                runs.append(time.perf_counter() - start)
            return sorted(runs)[3]

        batched = seconds(lambda: train_meta_classifier(stack, labels))
        oracle = seconds(lambda: [oracle_train_meta_classifier(x, labels) for x in stack])
        assert batched <= 0.7 * oracle


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
        stacked = LinearClassifier(
            weights=np.array([[0.0], [1.0]]), bias=np.zeros(2),
            feature_means=np.zeros((2, 1)), feature_scales=np.ones((2, 1)),
        )
        accuracies = evaluate_attack(stacked, np.array([[[3.0]], [[0.0]]]), np.array([1]))
        assert accuracies.tolist() == [1.0, 1.0]

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
    return run_attack_trial([draw_attack_queries(*samplers, cfg, rng)], cfg, plan, [rng])[0]


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
        queries = [(shadow, halves(cfg.test_count)), (shadow, 1.0 - halves(cfg.test_count))]
        assert run_attack_trial(queries, cfg, none, [derive_rng(6), derive_rng(7)]) == [1.0, 0.0]

    def test_row_counts_must_match_config(self, samplers):
        cfg = shadow_cfg()
        shadow_x, test_x = draw_attack_queries(*samplers, cfg, derive_rng(7))
        none = NoisePlan(kind="none")
        with pytest.raises(ValueError, match="shadow queries"):
            run_attack_trial([(shadow_x, test_x), (shadow_x[1:], test_x)], cfg, none,
                             [derive_rng(7), derive_rng(8)])
        with pytest.raises(ValueError, match="test queries"):
            run_attack_trial([(shadow_x, test_x[:, 0])], cfg, none, [derive_rng(7)])
        with pytest.raises(ValueError, match="one generator per repetition"):
            run_attack_trial([(shadow_x, test_x)] * 2, cfg, none, [derive_rng(7)])
        with pytest.raises(ValueError, match="one generator per repetition"):
            run_attack_trial([], cfg, none, [])

    def test_a_cell_equals_its_repetitions_run_alone(self, samplers):
        # Each repetition noises its shadow, then its test queries from its own
        # generator, and its meta-classifier is the fit of its releases alone.
        cfg = shadow_cfg()
        plan = NoisePlan(kind="gaussian_iid", sigma=3.0)
        queries = [draw_attack_queries(*samplers, cfg, derive_rng(8, rep)) for rep in range(4)]
        cell = run_attack_trial(queries, cfg, plan, [derive_rng(9, rep) for rep in range(4)])
        labels = np.repeat([0, 1], cfg.shadow_count // 2)
        for rep, (shadow_x, test_x) in enumerate(queries):
            rng = derive_rng(9, rep)
            shadow_x, test_x = apply_batch(plan, shadow_x, rng), apply_batch(plan, test_x, rng)
            weights, bias, means, scales = oracle_train_meta_classifier(shadow_x, labels)
            scores = ((test_x - means) / scales) @ weights + bias
            alone = float(((scores >= 0.0) == np.repeat([0, 1], cfg.test_count // 2)).mean())
            assert cell[rep] == alone, rep
        assert all(type(accuracy) is float for accuracy in cell)


def run_attack_query(table, p, rng):
    from distpriv.dataio import compute_query, sample_subset_indices

    return compute_query(
        table.take(sample_subset_indices(table, PropertySpec("income", p), 100, rng))
    )
