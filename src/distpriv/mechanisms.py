"""Noise mechanisms and budget calculators for distribution privacy.

Calibrations turn a protected pair family plus a privacy budget into a
fully resolved noise plan: iid Laplace scaled to a transport distance or
an L1 mean-gap sensitivity, iid Gaussian scaled to the L2 sensitivity,
anisotropic Gaussian shaped by the data's own eigenstructure, or a
scalar noise component along a single direction. Each calibration states
its sensitivity S, and one rule, `_noise_scale`, turns it into the scale
and the claimed budget: Laplace S / epsilon with (epsilon, 0), or
Gaussian c * S / epsilon with c = sqrt(2 ln(1.25/delta)) and
(epsilon, delta). Adversarial-uncertainty
variants subtract the query's inherent randomness from the noise that
must be added. An empirical auditor estimates violations of the
indistinguishability guarantee from samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .errors import AssumptionViolation, NumericError
from .model import (
    GaussianModel,
    PairFamily,
    PrivacyParams,
    check_assumptions,
    cov_discrepancy,
    delta_E,
    eigendecompose,
    gap_angle,
    solve_spd,
)

PLAN_KINDS = ("laplace_iid", "gaussian_iid", "gaussian_cov", "scalar_along_direction", "none")
DEFAULT_ANGLE_TOL = 1e-6
DEFAULT_COV_TOL = 0.1
DEFAULT_BASIS_TOL = 0.1
MIN_AUDIT_TRIALS = 10_000

_UNIT_NORM_TOL = 1e-9
_PSD_TOL = 1e-9


@dataclass
class NoisePlan:
    """A fully resolved noise description.

    Exactly one of the shape fields is meaningful, selected by `kind`:
    scale for laplace_iid, sigma for gaussian_iid, cov for gaussian_cov,
    and (dist, scale, direction) for scalar_along_direction. `none` adds
    no noise. Provenance records which calibration produced the plan and
    the parameters it resolved.
    """

    kind: str
    scale: Optional[float] = None
    sigma: Optional[float] = None
    cov: Optional[np.ndarray] = None
    direction: Optional[np.ndarray] = None
    dist: Optional[str] = None
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in PLAN_KINDS:
            raise ValueError(f"unknown plan kind {self.kind!r}")
        if self.kind == "laplace_iid":
            if self.scale is None or self.scale < 0:
                raise ValueError("laplace_iid requires a nonnegative scale")
        elif self.kind == "gaussian_iid":
            if self.sigma is None or self.sigma < 0:
                raise ValueError("gaussian_iid requires a nonnegative sigma")
        elif self.kind == "gaussian_cov":
            cov = np.asarray(self.cov, dtype=float)
            if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
                raise ValueError("gaussian_cov requires a square covariance")
            eigvals = np.linalg.eigvalsh(0.5 * (cov + cov.T))
            if eigvals.size and eigvals[0] < -_PSD_TOL * max(float(eigvals[-1]), 0.0):
                raise ValueError("plan covariance must be positive semi-definite")
            self.cov = cov
        elif self.kind == "scalar_along_direction":
            if self.dist not in ("laplace", "gaussian"):
                raise ValueError("directional plans need dist 'laplace' or 'gaussian'")
            if self.scale is None or self.scale < 0:
                raise ValueError("directional plans require a nonnegative scale")
            v = np.asarray(self.direction, dtype=float)
            if v.ndim != 1:
                raise ValueError("direction must be a vector")
            if abs(float(np.linalg.norm(v)) - 1.0) > _UNIT_NORM_TOL:
                raise ValueError("direction must have unit norm")
            self.direction = v

    @property
    def dim(self) -> Optional[int]:
        if self.kind == "gaussian_cov":
            return self.cov.shape[0]
        if self.kind == "scalar_along_direction":
            return self.direction.size
        return None

    def to_json(self) -> dict:
        doc = {"kind": self.kind, "provenance": self.provenance}
        if self.scale is not None:
            doc["scale"] = float(self.scale)
        if self.sigma is not None:
            doc["sigma"] = float(self.sigma)
        if self.cov is not None:
            doc["cov"] = [[float(x) for x in row] for row in self.cov]
        if self.direction is not None:
            doc["direction"] = [float(x) for x in self.direction]
        if self.dist is not None:
            doc["dist"] = self.dist
        return doc

    @classmethod
    def from_json(cls, doc: dict) -> "NoisePlan":
        return cls(
            kind=doc["kind"],
            scale=doc.get("scale"),
            sigma=doc.get("sigma"),
            cov=np.asarray(doc["cov"], dtype=float) if "cov" in doc else None,
            direction=np.asarray(doc["direction"], dtype=float) if "direction" in doc else None,
            dist=doc.get("dist"),
            provenance=doc.get("provenance", {}),
        )


@dataclass(frozen=True)
class RelaxedBudget:
    """Privacy budget after accounting for model misspecification."""

    epsilon_prime: float
    delta_prime: float
    extra_noise_scale: Optional[float] = None


@dataclass(frozen=True)
class AuditReport:
    """Result of an empirical indistinguishability check.

    estimated_violation is the largest value of
    P_i(S) - exp(epsilon) * P_j(S) - delta over the tested event family,
    with a 3-sigma binomial confidence slack already subtracted; values
    at or below zero mean no statistically confident violation was found.
    Any finite event family only lower-bounds the true worst case.
    """

    estimated_violation: float
    trials: int
    event_family: str


# --- Gaussian draws -------------------------------------------------------


def _cov_transform(cov: np.ndarray) -> np.ndarray:
    """Matrix A with A A^T = cov, via the deterministic eigendecomposition."""
    pairs = eigendecompose(cov)
    vals = np.array([lam for lam, _ in pairs])
    lam_max = max(float(vals.max()), 0.0) if vals.size else 0.0
    if vals.size and float(vals.min()) < -_PSD_TOL * max(lam_max, 1e-300):
        raise ValueError(f"covariance is not positive semi-definite (min eig {vals.min():g})")
    basis = np.column_stack([vec for _, vec in pairs])
    return basis * np.sqrt(np.clip(vals, 0.0, None))


def gaussian_model_draws(model: GaussianModel, n: int, rng: np.random.Generator) -> np.ndarray:
    """n draws from a fitted Gaussian model, one per row."""
    transform = _cov_transform(model.cov)
    return model.mean + rng.standard_normal((n, model.dim)) @ transform.T


# --- applying plans -------------------------------------------------------


def apply(plan: NoisePlan, query_value, rng: np.random.Generator) -> np.ndarray:
    """Add one noise draw from the plan to a query vector."""
    x = np.asarray(query_value, dtype=float)
    if x.ndim != 1:
        raise ValueError("query value must be a vector")
    return apply_batch(plan, x[None, :], rng)[0]


def apply_batch(plan: NoisePlan, values, rng: np.random.Generator) -> np.ndarray:
    """Add independent noise draws to each row of a batch of vectors.

    Directional plans add noise only along the plan's direction; entries
    where the direction is exactly zero pass through bitwise unchanged.
    """
    x = np.asarray(values, dtype=float)
    if x.ndim != 2:
        raise ValueError("values must form a 2-D batch of row vectors")
    n, m = x.shape
    want = plan.dim
    if want is not None and want != m:
        raise ValueError(f"plan dimension {want} does not match query dimension {m}")
    if plan.kind == "none":
        return x.copy()
    if plan.kind == "laplace_iid":
        return x + rng.laplace(0.0, plan.scale, size=(n, m))
    if plan.kind == "gaussian_iid":
        return x + rng.normal(0.0, plan.sigma, size=(n, m))
    if plan.kind == "gaussian_cov":
        transform = _cov_transform(plan.cov)
        return x + rng.standard_normal((n, m)) @ transform.T
    # scalar_along_direction
    if plan.dist == "laplace":
        y = rng.laplace(0.0, plan.scale, size=n)
    else:
        y = rng.normal(0.0, plan.scale, size=n)
    return x + y[:, None] * plan.direction[None, :]


# --- calibrations ---------------------------------------------------------


def calibrate_wasserstein(delta_w: float, params: PrivacyParams) -> NoisePlan:
    """iid Laplace with scale delta_w / epsilon.

    delta_w is the worst-case infinity-Wasserstein distance over the
    protected pairs; the guarantee is (epsilon, 0) and params.delta is
    ignored.
    """
    if delta_w < 0:
        raise ValueError(f"transport distance must be nonnegative, got {delta_w}")
    scale, budget = _noise_scale("laplace", params, delta_w)
    return NoisePlan(
        kind="laplace_iid",
        scale=scale,
        provenance={"mechanism": "wasserstein", "delta_w": float(delta_w), **budget},
    )


def calibrate_approx_wasserstein(w: float, params: PrivacyParams) -> NoisePlan:
    """iid Laplace with scale w / epsilon for a certified (w, delta) closeness.

    The caller is responsible for the closeness certificate (for example
    via transport.is_w_delta_close at params.delta, or the concentration
    bound closeness_from_bounds); the resulting guarantee is
    (epsilon, delta).
    """
    if w < 0:
        raise ValueError(f"closeness radius must be nonnegative, got {w}")
    scale, budget = _noise_scale("laplace", params, w)
    # The closeness certificate, not the noise, spends delta.
    return NoisePlan(
        kind="laplace_iid",
        scale=scale,
        provenance={"mechanism": "approx_wasserstein", "w": float(w), **budget,
                    "delta": params.delta},
    )


def calibrate_expm(family: PairFamily, params: PrivacyParams, noise: str) -> NoisePlan:
    """Expected-value mechanism for translation pairs.

    Laplace: iid scale delta_E1 / epsilon, guarantee (epsilon, 0).
    Gaussian: iid sigma = c * delta_E2 / epsilon with
    c = sqrt(2 ln(1.25/delta)), guarantee (epsilon, delta).
    """
    norm = 1 if noise == "laplace" else 2
    sens = delta_E(family, norm)
    scale, budget = _noise_scale(noise, params, sens)
    return NoisePlan(
        kind=f"{noise}_iid",
        scale=scale if noise == "laplace" else None,
        sigma=scale if noise == "gaussian" else None,
        provenance={"mechanism": f"expected_value_{noise}", f"delta_e{norm}": sens, **budget},
    )


def calibrate_directional(
    family: PairFamily,
    v,
    params: PrivacyParams,
    noise: str,
    angle_tol: float = DEFAULT_ANGLE_TOL,
) -> NoisePlan:
    """Scalar noise along a single unit direction v.

    Every protected mean gap must be parallel to v within angle_tol
    radians (sign ignored); otherwise the worst pair is reported.
    The scale is delta_E2 / epsilon for Laplace noise and
    c * delta_E2 / epsilon for Gaussian noise.

    The guarantee holds only when the pair covariances are exactly equal:
    a covariance that differs off v leaks through the directions left
    un-noised, so the Laplace plan's claimed delta = 0 and the Gaussian
    plan's delta are then not met. Covariance equality is not checked.
    """
    v = _unit_vector(v)
    _require_within(gap_angle(family, v), angle_tol, "mean-gap angle (rad) to the noise direction")
    d2 = delta_E(family, 2)
    scale, budget = _noise_scale(noise, params, d2)
    return NoisePlan(
        kind="scalar_along_direction", dist=noise, scale=scale, direction=v,
        provenance={"mechanism": f"directional_{noise}", "delta_e2": d2, **budget},
    )


def no_noise_check(
    family: PairFamily, params: PrivacyParams, cov_tol: float = DEFAULT_COV_TOL
) -> bool:
    """Whether the query may be released with no added noise.

    True iff for every protected pair the Mahalanobis gap satisfies
    (mu_i - mu_j)^T Sigma_i^{-1} (mu_i - mu_j) <= (epsilon / c)^2. The
    pair covariances must agree within cov_tol (entrywise relative).
    """
    return added_cov_check(family, np.zeros((family.dim, family.dim)), params, cov_tol=cov_tol)


def added_cov_check(
    family: PairFamily,
    sigma_add,
    params: PrivacyParams,
    cov_tol: float = DEFAULT_COV_TOL,
) -> bool:
    """no_noise_check with Sigma_i replaced by Sigma_i + sigma_add."""
    _, budget = _noise_scale("gaussian", params)
    sigma_add = np.asarray(sigma_add, dtype=float)
    bound = (params.epsilon / budget["c"]) ** 2
    _require_within(cov_discrepancy(family), cov_tol, "relative covariance discrepancy")
    for a, b in family.pairs:
        gap = family.catalog[a].mean - family.catalog[b].mean
        total = family.catalog[a].cov + sigma_add
        mahal = float(gap @ solve_spd(total, gap))
        if mahal > bound:
            return False
    return True


def eig_plan(
    family: PairFamily, params: PrivacyParams, basis_tol: float = DEFAULT_BASIS_TOL
) -> NoisePlan:
    """Eigenvector-shaped Gaussian noise crediting adversarial uncertainty.

    In the shared eigenbasis v_1..v_m (taken from the reference model,
    the smallest label in sorted order), the variance added along v_k is
    sigma_k^2 = max over models of max(0, (c * delta_E2 / epsilon)^2 -
    v_k^T Sigma v_k), so each total variance reaches the isotropic
    requirement but no direction is over-noised.
    """
    report = check_assumptions(family)
    if report.common_eigenbasis_residual > basis_tol:
        raise AssumptionViolation(
            "covariances do not share an eigenbasis within tolerance "
            f"(residual {report.common_eigenbasis_residual:.3g} > {basis_tol:g})"
        )
    d2 = delta_E(family, 2)
    scale, budget = _noise_scale("gaussian", params, d2)
    target = scale**2
    labels = family.sorted_labels()
    basis_pairs = report.reference_eigenpairs
    m = family.dim
    sigma_sq = np.zeros(m)
    for k, (_, vec) in enumerate(basis_pairs):
        worst = 0.0
        for label in labels:
            lam = float(vec @ family.catalog[label].cov @ vec)
            worst = max(worst, max(0.0, target - lam))
        sigma_sq[k] = worst
    basis = np.column_stack([vec for _, vec in basis_pairs])
    cov = (basis * sigma_sq) @ basis.T
    cov = 0.5 * (cov + cov.T)
    return NoisePlan(
        kind="gaussian_cov",
        cov=cov,
        provenance={
            "mechanism": "eigenvector_gaussian",
            "delta_e2": d2,
            "target_variance": target,
            "sigma_sq": [float(s) for s in sigma_sq],
            "eigenbasis_residual": report.common_eigenbasis_residual,
            **budget,
        },
    )


def dau_sigma(model: GaussianModel, alpha: float, v, params: PrivacyParams) -> float:
    """Directional noise variance credited with the data's own variance.

    Solves det(Sigma + beta v v^T) = 0 in closed form
    (beta = -1 / (v^T Sigma^{-1} v)) and returns
    max(eta, (alpha c / epsilon)^2 - 1/(v^T Sigma^{-1} v) + eta) with the
    bump eta = 1e-6 (alpha c / epsilon)^2 + 1e-12 keeping the perturbed
    matrix strictly positive definite.
    """
    v = _unit_vector(v)
    target = _noise_scale("gaussian", params, abs(alpha))[0] ** 2
    quad = float(v @ solve_spd(model.cov, v))
    if not np.isfinite(quad) or quad <= 0.0:
        raise NumericError("covariance quadratic form is not positive; matrix too singular")
    eta = 1e-6 * target + 1e-12
    return max(eta, target - 1.0 / quad + eta)


def dau_plan(
    family: PairFamily,
    v,
    params: PrivacyParams,
    angle_tol: float = DEFAULT_ANGLE_TOL,
    cov_tol: float = DEFAULT_COV_TOL,
) -> NoisePlan:
    """Directional Gaussian noise with adversarial-uncertainty credit.

    For each protected pair, alpha is the signed projection of the mean
    gap on v and the required variance comes from dau_sigma on the first
    model of the pair; the plan takes the worst case over pairs.

    The guarantee holds only when the pair covariances are exactly equal,
    since a covariance that differs off v leaks through the directions
    left un-noised. cov_tol bounds the accepted mismatch but certifies
    nothing.
    """
    v = _unit_vector(v)
    _require_within(gap_angle(family, v), angle_tol, "mean-gap angle (rad) to the noise direction")
    _require_within(cov_discrepancy(family), cov_tol, "relative covariance discrepancy")
    _, budget = _noise_scale("gaussian", params)
    sigma_sq = 0.0
    for a, b in family.pairs:
        gap = family.catalog[a].mean - family.catalog[b].mean
        alpha = float(gap @ v)
        sigma_sq = max(sigma_sq, dau_sigma(family.catalog[a], alpha, v, params))
    return NoisePlan(
        kind="scalar_along_direction",
        dist="gaussian",
        scale=math.sqrt(sigma_sq),
        direction=v,
        provenance={"mechanism": "directional_adversarial_uncertainty", "sigma_sq": sigma_sq,
                    **budget},
    )


def group_dp_calibrate(
    per_record_sens: float, k: int, params: PrivacyParams, noise: str
) -> NoisePlan:
    """Group differential privacy baseline: sensitivity scaled by group size.

    Laplace: iid scale k * sens / epsilon (sens measured in L1).
    Gaussian: iid sigma = c * k * sens / epsilon (sens measured in L2).
    """
    if k < 1:
        raise ValueError(f"group size must be at least 1, got {k}")
    if per_record_sens < 0:
        raise ValueError("per-record sensitivity must be nonnegative")
    scale, budget = _noise_scale(noise, params, k, per_record_sens)
    return NoisePlan(
        kind=f"{noise}_iid",
        scale=scale if noise == "laplace" else None,
        sigma=scale if noise == "gaussian" else None,
        provenance={"mechanism": f"group_dp_{noise}", "k": int(k),
                    "per_record_sensitivity": per_record_sens, **budget},
    )


def per_record_sensitivity(components: Iterable[Sequence], n: int, norm: int) -> float:
    """One-record-replacement sensitivity of a mixed average/count query.

    components lists the query outputs in order, each either
    ("avg", lo, hi) for an average of an attribute bounded in [lo, hi],
    or ("count",) for a subset count. Replacing one record in a subset of
    size n moves an average by at most (hi - lo) / n and a count by at
    most 1.
    """
    if n <= 0:
        raise ValueError(f"subset size must be positive, got {n}")
    if norm not in (1, 2):
        raise ValueError(f"norm must be 1 or 2, got {norm}")
    contribs = []
    for comp in components:
        kind = comp[0]
        if kind == "avg":
            _, lo, hi = comp
            if hi < lo:
                raise ValueError(f"invalid bounds ({lo}, {hi})")
            contribs.append((float(hi) - float(lo)) / n)
        elif kind == "count":
            contribs.append(1.0)
        else:
            raise ValueError(f"unknown component kind {kind!r}")
    arr = np.array(contribs)
    return float(arr.sum()) if norm == 1 else float(np.sqrt((arr**2).sum()))


def relaxed_budget_maxdiv(params: PrivacyParams, lam: float, eta: float) -> RelaxedBudget:
    """Budget after replacing true distributions with approximations whose
    eta-approximate max-divergence from the truth is at most lam, both ways.

    epsilon' = epsilon + 2 lam;
    delta'   = (1 + exp(epsilon + lam)) eta + exp(lam) delta.
    """
    if lam < 0 or eta < 0:
        raise ValueError("lambda and eta must be nonnegative")
    eps_prime = params.epsilon + 2.0 * lam
    delta_prime = (1.0 + math.exp(params.epsilon + lam)) * eta + math.exp(lam) * params.delta
    return RelaxedBudget(epsilon_prime=eps_prime, delta_prime=delta_prime)


def relaxed_budget_wasserstein(params: PrivacyParams, lam: float, w_dev: float) -> RelaxedBudget:
    """Budget when approximation error is absorbed with extra Laplace noise.

    If the approximations sit within infinity-Wasserstein distance w_dev
    of the true distributions, adding iid Laplace noise of scale
    w_dev / lam per axis yields epsilon' = epsilon + 2 lam and
    delta' = exp(lam) delta.
    """
    if w_dev < 0:
        raise ValueError("w_dev must be nonnegative")
    if lam < 0:
        raise ValueError("lambda must be nonnegative")
    if lam == 0.0:
        if w_dev > 0.0:
            raise ValueError("lambda must be positive when extra noise is required")
        return RelaxedBudget(params.epsilon, params.delta, extra_noise_scale=0.0)
    return RelaxedBudget(
        epsilon_prime=params.epsilon + 2.0 * lam,
        delta_prime=math.exp(lam) * params.delta,
        extra_noise_scale=w_dev / lam,
    )


# --- empirical auditing ---------------------------------------------------

_AUDIT_QUANTILES = np.linspace(0.025, 0.975, 41)
_AUDIT_EVENT_FAMILY = (
    "axis-aligned half-spaces at 41 pooled quantiles per axis (both tails) "
    "plus half-spaces along the Mahalanobis direction of the mean gap under "
    "the first model's covariance (likelihood-ratio events only when the two "
    "covariances are equal); "
    "3-sigma binomial slack subtracted; any finite family only lower-bounds "
    "the true violation"
)


def audit(
    plan: NoisePlan,
    model_i: GaussianModel,
    model_j: GaussianModel,
    params: PrivacyParams,
    trials: int,
    rng: np.random.Generator,
) -> AuditReport:
    """Estimate the worst violation of
    P(M in S | theta_i) <= exp(epsilon) P(M in S | theta_j) + delta
    over a fixed family of events, from `trials` Monte Carlo draws per side.
    """
    if trials < MIN_AUDIT_TRIALS:
        raise ValueError(f"audit needs at least {MIN_AUDIT_TRIALS} trials, got {trials}")
    if model_i.dim != model_j.dim:
        raise ValueError("models must share a dimension")
    out_i = apply_batch(plan, gaussian_model_draws(model_i, trials, rng), rng)
    out_j = apply_batch(plan, gaussian_model_draws(model_j, trials, rng), rng)

    axes = [(out_i[:, k], out_j[:, k]) for k in range(model_i.dim)]
    gap = model_i.mean - model_j.mean
    if np.any(gap != 0.0):
        direction = solve_spd(model_i.cov, gap)
        axes.append((out_i @ direction, out_j @ direction))

    e_eps = math.exp(params.epsilon)
    worst = -math.inf
    for a_i, a_j in axes:
        pooled = np.concatenate([a_i, a_j])
        # The same order statistics as the unsorted pool, found far faster.
        thresholds = np.quantile(np.sort(pooled), _AUDIT_QUANTILES)
        s_i = np.sort(a_i)
        s_j = np.sort(a_j)
        for lower_tail in (True, False):
            if lower_tail:
                p_i = np.searchsorted(s_i, thresholds, side="right") / trials
                p_j = np.searchsorted(s_j, thresholds, side="right") / trials
            else:
                p_i = 1.0 - np.searchsorted(s_i, thresholds, side="left") / trials
                p_j = 1.0 - np.searchsorted(s_j, thresholds, side="left") / trials
            viol = (
                (p_i - _binomial_slack(p_i, trials))
                - e_eps * (p_j + _binomial_slack(p_j, trials))
                - params.delta
            )
            worst = max(worst, float(viol.max()))
    return AuditReport(
        estimated_violation=worst, trials=int(trials), event_family=_AUDIT_EVENT_FAMILY
    )


def _binomial_slack(p: np.ndarray, n: int) -> np.ndarray:
    return 3.0 * np.sqrt(p * (1.0 - p) / n + 1.0 / n**2)


# --- shared helpers -------------------------------------------------------


def _noise_scale(noise: str, params: PrivacyParams, *sensitivity: float) -> Tuple[float, dict]:
    """The one noise-scale rule: (scale, budget fields of the provenance).

    Laplace noise gets scale S / epsilon and claims (epsilon, 0); Gaussian
    noise gets c * S / epsilon with c = sqrt(2 ln(1.25/delta)) and claims
    (epsilon, delta), recording c and a warning when epsilon >= 1. The
    sensitivity S is passed as factors and multiplied left to right after
    c, so c * k * s / epsilon rounds as ((c * k) * s) / epsilon.
    """
    if noise == "laplace":
        return math.prod(sensitivity) / params.epsilon, {"epsilon": params.epsilon, "delta": 0.0}
    if noise != "gaussian":
        raise ValueError(f"noise must be 'laplace' or 'gaussian', got {noise!r}")
    c = params.gaussian_c()
    budget = {"c": c, "epsilon": params.epsilon, "delta": params.delta,
              "warnings": _epsilon_warnings(params)}
    return math.prod((c,) + sensitivity) / params.epsilon, budget


def _epsilon_warnings(params: PrivacyParams) -> List[str]:
    if params.epsilon >= 1.0:
        return [
            "gaussian calibration guarantee is stated for epsilon < 1; "
            f"epsilon = {params.epsilon:g} follows experimental usage"
        ]
    return []


def _unit_vector(v) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if v.ndim != 1:
        raise ValueError("direction must be a vector")
    norm = float(np.linalg.norm(v))
    if abs(norm - 1.0) > 1e-6:
        raise ValueError(f"direction must be a unit vector (norm {norm:g})")
    return v / norm


def _require_within(measured, tol: float, what: str) -> None:
    """Raise for the worst pair of a (value, pair) assumption measurement."""
    value, pair = measured
    if value > tol:
        raise AssumptionViolation(
            f"{what} of pair {pair} is {value:.3g} (tolerance {tol:g})", pair=pair
        )
