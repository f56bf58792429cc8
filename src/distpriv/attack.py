"""Property inference attack: shadow sampling plus a linear meta-classifier.

The attacker draws shadow subsets from auxiliary data at each candidate
property value, observes the (noised) released statistics, trains a
logistic-regression meta-classifier on them, and is scored on fresh
subsets from held-out test data. Attack accuracy near one half means the
release leaks nothing usable about the property.

The subsets do not depend on the mechanism, so drawing them
(`draw_attack_queries`) is kept apart from noising, training and
scoring (`run_attack_trial`): one repetition's query matrices can serve
every mechanism and budget of a sweep. `run_attack_trial` runs one
sweep cell, every repetition of one plan. Its repetitions share the
labels, so their meta-classifiers are fitted as one batch: a single
damped Newton solve over the stack of their shadow releases, in which
each repetition converges and stops on its own.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence, Tuple, Union

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
    """Logistic-regression meta-classifier with stored standardization.

    One classifier holds weights of shape (m,) and a float bias. A stack
    of r classifiers, fitted together, holds weights (r, m), biases (r,)
    and per-member means and scales (r, m); it scores an (r, t, m) stack
    of feature matrices, member k scoring matrix k.
    """

    weights: np.ndarray
    bias: Union[float, np.ndarray]
    feature_means: np.ndarray = field(repr=False)
    feature_scales: np.ndarray = field(repr=False)

    def decision_scores(self, features) -> np.ndarray:
        x = np.asarray(features, dtype=float)
        if x.ndim == 1:
            x = x[None, :]
        if x.shape[-1] != self.weights.shape[-1]:
            raise ValueError(
                f"feature dimension {x.shape[-1]} does not match classifier "
                f"{self.weights.shape[-1]}"
            )
        standardized = (x - self.feature_means[..., None, :]) / self.feature_scales[..., None, :]
        return _matvec(standardized, self.weights) + np.asarray(self.bias)[..., None]

    def predict(self, features) -> np.ndarray:
        # Exact-zero scores count as class 1.
        return (self.decision_scores(features) >= 0.0).astype(int)


def train_meta_classifier(features, labels) -> LinearClassifier:
    """Fit L2-regularized logistic regression by full-batch Newton steps.

    `features` is one (n, m) matrix, or an (r, n, m) stack of r matrices
    that share the n labels; a stack is fitted as one batched solve and
    gives a stacked classifier, and a single matrix is a stack of one.
    Features are standardized to zero mean and unit variance first, each
    matrix on its own (noised counts and averages live on very different
    scales). The penalty (strength 1.0, bias excluded) applies on the
    standardized scale. Training is deterministic: each fit starts from
    zero weights and runs damped Newton iterations until its gradient
    norm falls below 1e-6, a step finds no descent in 30 halvings, an
    accepted step leaves its loss unchanged, or 500 iterations elapse; a
    fit that stops keeps its weights while the rest go on, so each member
    equals the fit of its matrix alone.
    """
    x = np.asarray(features, dtype=float)
    y = np.asarray(labels, dtype=float)
    if x.ndim not in (2, 3) or y.ndim != 1 or x.shape[-2] != y.size:
        raise TrainingError("features must be (n, m), or (r, n, m) for r fits, "
                            "with one 0/1 label per row")
    if not np.all(np.isfinite(x)):
        raise ValueError("features must be finite")
    classes, counts = np.unique(y, return_counts=True)
    if not set(classes.tolist()) <= {0.0, 1.0}:
        raise TrainingError(f"labels must be 0 or 1, got {classes}")
    if len(classes) < 2 or counts.min() < 2:
        raise TrainingError("need at least 2 examples of each class")

    stack = x if x.ndim == 3 else x[None]
    means = stack.mean(axis=1)
    scales = stack.std(axis=1)
    scales = np.where(scales > 0.0, scales, 1.0)
    z = (stack - means[:, None, :]) / scales[:, None, :]
    design = np.concatenate([z, np.ones(z.shape[:2] + (1,))], axis=2)
    theta = _newton(design, y)

    m = x.shape[-1]
    if x.ndim == 2:
        return LinearClassifier(weights=theta[0, :m].copy(), bias=float(theta[0, m]),
                                feature_means=means[0], feature_scales=scales[0])
    return LinearClassifier(weights=theta[:, :m].copy(), bias=theta[:, m].copy(),
                            feature_means=means, feature_scales=scales)


def _newton(design: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The (r, k) parameters of the r damped Newton fits of an (r, n, k) design stack.

    Scores, gradients and Hessians are stacked matmuls and the steps one
    batched solve, so member i takes, operation for operation, the steps
    its fit alone would take. `live` indexes the fits still iterating and
    `d` holds their designs; the scores of each accepted step are kept
    for the next gradient.
    """
    r, _, k = design.shape
    penalty = np.append(np.full(k - 1, L2_STRENGTH), 0.0)
    penalty_matrix, jitter = np.diag(penalty), 1e-12 * np.eye(k)
    theta = np.zeros((r, k))
    scores = _matvec(design, theta)
    loss = _logistic_loss(scores, y, theta, penalty)
    live, d = np.arange(r), design
    for _ in range(MAX_ITER):
        th = theta[live]
        p = _sigmoid(scores[live])
        grad = _matvec(d.transpose(0, 2, 1), p - y) + penalty * th
        # np.linalg.norm's sqrt(g . g), one dot per fit
        norm = np.sqrt((grad[:, None, :] @ grad[:, :, None])[:, 0, 0])
        moving = ~(norm <= GRAD_TOL)
        if not moving.all():
            live, d, th, p, grad = live[moving], d[moving], th[moving], p[moving], grad[moving]
            if not live.size:
                break
        w = np.clip(p * (1.0 - p), 1e-12, None)
        hessian = (d * w[..., None]).transpose(0, 2, 1) @ d + penalty_matrix + jitter
        step = np.linalg.solve(hessian, grad[..., None])[..., 0]
        # Backtrack each fit whose full Newton step overshoots; one that
        # finds no descent in 30 halvings stops where it is. A fit whose
        # accepted step leaves its loss unchanged takes the step and stops:
        # its loss, a sum over n rows, no longer resolves a descent, and
        # later steps would be accepted only once they barely move.
        factor = 1.0
        stop = np.zeros(live.size, dtype=bool)
        pending = np.arange(live.size)  # positions in `live` still backtracking
        for _ in range(30):
            candidate = th[pending] - factor * step[pending]
            new_scores = _matvec(d[pending] if pending.size < live.size else d, candidate)
            new_loss = _logistic_loss(new_scores, y, candidate, penalty)
            old_loss = loss[live[pending]]
            better = new_loss <= old_loss
            stop[pending[new_loss == old_loss]] = True
            done = live[pending[better]]
            theta[done], scores[done], loss[done] = (
                candidate[better], new_scores[better], new_loss[better])
            pending = pending[~better]
            if not pending.size:
                break
            factor *= 0.5
        stop[pending] = True
        if stop.any():
            live, d = live[~stop], d[~stop]
            if not live.size:
                break
    return theta


def _matvec(matrices: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """matrices[..., i, :] @ vectors[..., :] for every i: one BLAS gemv per matrix,
    as `matrix @ vector` runs it."""
    return (matrices @ vectors[..., None])[..., 0]


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(z, -35.0, 35.0)))


def _logistic_loss(scores, y, theta, penalty) -> np.ndarray:
    """Each fit's penalized loss, from its (n,) scores and (k,) parameters."""
    # log(1 + exp(-y' s)) with y' in {-1, +1}, computed stably.
    signed = np.where(y > 0.5, -scores, scores)
    return np.logaddexp(0.0, signed).sum(axis=-1) + 0.5 * (penalty * theta**2).sum(axis=-1)


def evaluate_attack(clf: LinearClassifier, features, labels):
    """Fraction of examples whose predicted class matches the label: a float,
    or for a stacked classifier one fraction per member (an (r,) array)."""
    y = np.asarray(labels, dtype=int)
    if y.size == 0:
        raise ValueError("evaluation set must be nonempty")
    hits = (clf.predict(features) == y).mean(axis=-1)
    return float(hits) if hits.ndim == 0 else hits


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
    queries: Sequence[Tuple[np.ndarray, np.ndarray]],
    cfg: ShadowConfig,
    plan: NoisePlan,
    rngs: Sequence[np.random.Generator],
) -> List[float]:
    """One attack cell: shadow-train / test-evaluate per repetition; returns
    one attack accuracy per repetition.

    `queries` holds each repetition's (shadow, test) query matrices from
    `draw_attack_queries`: the first half of each is labeled p_low (0),
    the second half p_high (1). Repetition k's generator `rngs[k]` noises
    its shadow queries, then its test queries, each with fresh draws, as
    an attacker simulating the release would see them. Every repetition's
    meta-classifier trains on its shadow releases, all of them in one
    batched `train_meta_classifier` call, and is scored on its test
    releases. Deriving the per-repetition seeds is the caller's job.
    """
    rngs = list(rngs)
    matrices = [tuple(np.asarray(x, dtype=float) for x in pair) for pair in queries]
    if not matrices or len(matrices) != len(rngs):
        raise ValueError(f"need one generator per repetition, got {len(matrices)} query "
                         f"pairs and {len(rngs)} generators")
    for shadow_x, test_x in matrices:
        for name, x, count in (("shadow", shadow_x, cfg.shadow_count),
                               ("test", test_x, cfg.test_count)):
            if x.ndim != 2 or x.shape[0] != count:
                raise ValueError(f"{name} queries must be a matrix of {count} rows, "
                                 f"got {x.shape}")
    noised = [(apply_batch(plan, shadow_x, rng), apply_batch(plan, test_x, rng))
              for (shadow_x, test_x), rng in zip(matrices, rngs)]
    shadow_stack, test_stack = (np.stack(side) for side in zip(*noised))
    clf = train_meta_classifier(shadow_stack, _half_labels(cfg.shadow_count))
    return evaluate_attack(clf, test_stack, _half_labels(cfg.test_count)).tolist()


def _half_labels(count: int) -> np.ndarray:
    return np.repeat([0, 1], count // 2)
