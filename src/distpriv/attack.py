"""Property inference attack: shadow sampling plus a linear meta-classifier.

The attacker draws shadow subsets from auxiliary data at each candidate
property value, observes the (noised) released statistics, trains a
logistic-regression meta-classifier on them, and is scored on fresh
subsets from held-out test data. Attack accuracy near one half means the
release leaks nothing usable about the property.

The subsets do not depend on the mechanism, so drawing them
(`draw_attack_queries`) is kept apart from noising, training and
scoring (`run_attack_trial`): one repetition's query matrices can serve
every mechanism and budget of a sweep.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

import numpy as np

from .dataio import SubsetSampler
from .errors import TrainingError
from .mechanisms import NoisePlan, apply_batch

L2_STRENGTH = 1.0
GRAD_TOL = 1e-6
MAX_ITER = 500


@dataclass(frozen=True)
class ShadowConfig:
    """Sizes and property values for one attack experiment."""

    p_low: float
    p_high: float
    n: int = 100
    shadow_count: int = 200
    test_count: int = 200
    repetitions: int = 50

    def __post_init__(self):
        for name in ("n", "shadow_count", "test_count", "repetitions"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        for name in ("shadow_count", "test_count"):
            count = getattr(self, name)
            if count <= 0 or count % 2 != 0:
                raise ValueError(f"{name} must be positive and even, got {count}")
        if self.n <= 0 or self.repetitions <= 0:
            raise ValueError("subset size and repetitions must be positive")
        if not (0.0 <= self.p_low < self.p_high <= 1.0):
            raise ValueError(
                f"need 0 <= p_low < p_high <= 1, got ({self.p_low}, {self.p_high})"
            )


@dataclass(frozen=True, eq=False)
class LinearClassifier:
    """Logistic-regression meta-classifier with stored standardization."""

    weights: np.ndarray
    bias: float
    feature_means: np.ndarray = field(repr=False)
    feature_scales: np.ndarray = field(repr=False)

    def decision_scores(self, features) -> np.ndarray:
        x = np.asarray(features, dtype=float)
        if x.ndim == 1:
            x = x[None, :]
        if x.shape[1] != self.weights.size:
            raise ValueError(
                f"feature dimension {x.shape[1]} does not match classifier {self.weights.size}"
            )
        standardized = (x - self.feature_means) / self.feature_scales
        return standardized @ self.weights + self.bias

    def predict(self, features) -> np.ndarray:
        # Exact-zero scores count as class 1.
        return (self.decision_scores(features) >= 0.0).astype(int)


def train_meta_classifier(features, labels) -> LinearClassifier:
    """Fit L2-regularized logistic regression by full-batch Newton steps.

    Features are standardized to zero mean and unit variance first
    (noised counts and averages live on very different scales). The
    penalty (strength 1.0, bias excluded) applies on the standardized
    scale. Training is deterministic: it starts from zero weights and
    runs damped Newton iterations until the gradient norm falls below
    1e-6 or 500 iterations elapse.
    """
    x = np.asarray(features, dtype=float)
    y = np.asarray(labels, dtype=float)
    if x.ndim != 2 or y.ndim != 1 or x.shape[0] != y.size:
        raise TrainingError("features must be (n, m) with one 0/1 label per row")
    if not np.all(np.isfinite(x)):
        raise ValueError("features must be finite")
    classes, counts = np.unique(y, return_counts=True)
    if not set(classes.tolist()) <= {0.0, 1.0}:
        raise TrainingError(f"labels must be 0 or 1, got {classes}")
    if len(classes) < 2 or counts.min() < 2:
        raise TrainingError("need at least 2 examples of each class")

    means = x.mean(axis=0)
    scales = x.std(axis=0)
    scales = np.where(scales > 0.0, scales, 1.0)
    z = (x - means) / scales

    n, m = z.shape
    design = np.column_stack([z, np.ones(n)])
    theta = np.zeros(m + 1)
    penalty = np.append(np.full(m, L2_STRENGTH), 0.0)
    loss = _logistic_loss(design, y, theta, penalty)
    for _ in range(MAX_ITER):
        p = _sigmoid(design @ theta)
        grad = design.T @ (p - y) + penalty * theta
        if float(np.linalg.norm(grad)) <= GRAD_TOL:
            break
        w = np.clip(p * (1.0 - p), 1e-12, None)
        hessian = (design * w[:, None]).T @ design + np.diag(penalty) + 1e-12 * np.eye(m + 1)
        step = np.linalg.solve(hessian, grad)
        # Backtrack if a full Newton step overshoots.
        factor = 1.0
        for _ in range(30):
            candidate = theta - factor * step
            new_loss = _logistic_loss(design, y, candidate, penalty)
            if new_loss <= loss:
                theta, loss = candidate, new_loss
                break
            factor *= 0.5
        else:
            break

    return LinearClassifier(
        weights=theta[:m].copy(),
        bias=float(theta[m]),
        feature_means=means,
        feature_scales=scales,
    )


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(z, -35.0, 35.0)))


def _logistic_loss(design, y, theta, penalty) -> float:
    scores = design @ theta
    # log(1 + exp(-y' s)) with y' in {-1, +1}, computed stably.
    signed = np.where(y > 0.5, -scores, scores)
    return float(np.logaddexp(0.0, signed).sum() + 0.5 * (penalty * theta**2).sum())


def evaluate_attack(clf: LinearClassifier, features, labels) -> float:
    """Fraction of examples whose predicted class matches the label."""
    y = np.asarray(labels, dtype=int)
    if y.size == 0:
        raise ValueError("evaluation set must be nonempty")
    return float((clf.predict(features) == y).mean())


def draw_attack_queries(
    aux: SubsetSampler, test: SubsetSampler, cfg: ShadowConfig, rng: np.random.Generator
) -> Tuple[np.ndarray, np.ndarray]:
    """One repetition's shadow and test query matrices, before any noise.

    Shadow subsets come from the auxiliary table, test subsets from the
    held-out test table; each matrix holds its p_low half, then its
    p_high half. One generator draws them in that order: shadow p_low,
    shadow p_high, test p_low, test p_high.
    """
    def halves(sampler, count):
        return np.vstack([sampler.draw(p, cfg.n, count // 2, rng)[1]
                          for p in (cfg.p_low, cfg.p_high)])

    return halves(aux, cfg.shadow_count), halves(test, cfg.test_count)


def run_attack_trial(
    shadow_queries,
    test_queries,
    cfg: ShadowConfig,
    plan: NoisePlan,
    rng: np.random.Generator,
) -> float:
    """One shadow-train / test-evaluate round; returns attack accuracy.

    The query matrices are those of `draw_attack_queries`: the first half
    of each is labeled p_low (0), the second half p_high (1). The rng
    noises the shadow queries, then the test queries, each with fresh
    draws, as an attacker simulating the release would see them. The
    meta-classifier trains on the shadow releases and is scored on the
    test releases. Averaging across cfg.repetitions with derived
    per-repetition seeds is the caller's job.
    """
    shadow_x = np.asarray(shadow_queries, dtype=float)
    test_x = np.asarray(test_queries, dtype=float)
    for name, x, count in (("shadow", shadow_x, cfg.shadow_count),
                           ("test", test_x, cfg.test_count)):
        if x.ndim != 2 or x.shape[0] != count:
            raise ValueError(f"{name} queries must be a matrix of {count} rows, got {x.shape}")
    shadow_x = apply_batch(plan, shadow_x, rng)
    test_x = apply_batch(plan, test_x, rng)
    clf = train_meta_classifier(shadow_x, _half_labels(cfg.shadow_count))
    return evaluate_attack(clf, test_x, _half_labels(cfg.test_count))


def _half_labels(count: int) -> np.ndarray:
    return np.repeat([0, 1], count // 2)
