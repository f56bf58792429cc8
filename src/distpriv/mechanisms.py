"""Noise mechanisms and budget calculators for distribution privacy.

Each calibration takes a protected pair family and a privacy budget and
returns a finished noise plan: iid Laplace scaled to the worst L1 mean
gap, or to that gap plus twice a certified L1 radius
(`calibrate_approx_wasserstein`), iid Gaussian scaled to the L2
sensitivity, anisotropic Gaussian shaped by the data's own
eigenstructure, or a scalar noise component along a single direction.
Each computes its sensitivity S from the family (the group-DP baseline
takes the query's per-record sensitivity instead), and one rule,
`_noise_scale`, turns S into the scale and the claimed budget: Laplace
S / epsilon with (epsilon, 0), or Gaussian c * S / epsilon with
c = sqrt(2 ln(1.25/delta)) and (epsilon, delta). Adversarial-uncertainty
variants subtract the query's inherent randomness from the noise that
must be added. An empirical auditor estimates violations of the
indistinguishability guarantee from samples of each side's release, drawn
from the release law (`release_draws`): at once from N(mu, Sigma +
added_cov) for a Gaussian plan, and as a model draw plus b (E_1 - E_2),
a difference of unit exponentials, for a Laplace plan.

Plans are immutable, provenance included, and a plan owns the range of
its noise scale: a scale or sigma must be finite and nonnegative, so a
calibration whose sensitivity is negative, NaN or infinite, or whose
scale overflows, is refused when its plan is built; no calibration
checks its sensitivity.
A `gaussian_cov` plan, like a `GaussianModel`, checks and factors its
covariance once when it is built (`model.covariance_spectrum`), and
every draw reads the stored factor.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .errors import AssumptionViolation, ConfigError, NumericError
from .model import (
    GaussianModel,
    PairFamily,
    PrivacyParams,
    cov_discrepancy,
    covariance_spectrum,
    delta_E,
    eigenbasis_residual,
    fit_common_direction,
    gap_angle,
    solve_spd,
)

PLAN_KINDS = ("laplace_iid", "gaussian_iid", "gaussian_cov", "scalar_along_direction", "none")
# Largest angle (rad) a protected mean gap may make with a directional
# plan's noise direction, the family's fitted common direction: a gap off
# the direction is left un-noised. No other direction could pass: one
# within ANGLE_TOL of every gap lies within it, up to sign, of the fit,
# unless every gap is zero and any direction gives scale 0 (dau: its bump).
ANGLE_TOL = 1e-6
# Largest relative covariance discrepancy (dau, no_noise_check) and
# common-eigenbasis residual (eig) a family may have. Both only refuse a
# family far from the assumption; neither certifies the claimed budget.
COV_TOL = 0.5
BASIS_TOL = 0.5
MIN_AUDIT_TRIALS = 10_000
# gaussian_l1_radius sums over 2^(m-1) sign vectors (2,048 at 12 dimensions)
# and refuses a wider model; every catalog `model` writes is 5-D.
MAX_L1_RADIUS_DIM = 12

_UNIT_NORM_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class NoisePlan:
    """A fully resolved, immutable noise description.

    Exactly one of the shape fields is meaningful, selected by `kind`:
    scale for laplace_iid, sigma for gaussian_iid, cov for gaussian_cov,
    and (dist, scale, direction) for scalar_along_direction. `none` adds
    no noise. Provenance records which calibration produced the plan and
    the parameters it resolved; the plan keeps a read-only copy of it, in
    which every nested dict is a read-only mapping and every list a tuple,
    and `to_json` gives it back as plain dicts and lists.

    Construction checks every field once. The scale of laplace_iid and
    scalar_along_direction, and the sigma of gaussian_iid, must be finite
    and nonnegative (NaN fails); this is the only check of a noise scale's
    range. A gaussian_cov plan keeps the symmetric covariance and the
    factor of its `covariance_spectrum` as `cov` and `factor`, which every
    draw reads; cov, direction and factor are read-only arrays.
    """

    kind: str
    scale: Optional[float] = None
    sigma: Optional[float] = None
    cov: Optional[np.ndarray] = None
    direction: Optional[np.ndarray] = None
    dist: Optional[str] = None
    provenance: Mapping = field(default_factory=dict)
    factor: Optional[np.ndarray] = field(default=None, init=False, repr=False)

    def __post_init__(self):
        if self.kind not in PLAN_KINDS:
            raise ValueError(f"unknown plan kind {self.kind!r}")
        object.__setattr__(self, "provenance", _frozen(self.provenance))
        if self.kind in ("laplace_iid", "gaussian_iid", "scalar_along_direction"):
            name = "sigma" if self.kind == "gaussian_iid" else "scale"
            value = getattr(self, name)
            if value is None or not 0.0 <= value < math.inf:
                raise ValueError(f"{self.kind} requires a finite nonnegative {name}, got {value}")
        if self.kind == "gaussian_cov":
            _, _, factor, cov = covariance_spectrum(self.cov)
            object.__setattr__(self, "factor", factor)
            object.__setattr__(self, "cov", cov)
        elif self.kind == "scalar_along_direction":
            if self.dist not in ("laplace", "gaussian"):
                raise ValueError("directional plans need dist 'laplace' or 'gaussian'")
            v = np.array(self.direction, dtype=float)
            if v.ndim != 1:
                raise ValueError("direction must be a vector")
            if not abs(float(np.linalg.norm(v)) - 1.0) <= _UNIT_NORM_TOL:
                raise ValueError("direction must have unit norm")
            v.setflags(write=False)
            object.__setattr__(self, "direction", v)

    @property
    def dim(self) -> Optional[int]:
        if self.kind == "gaussian_cov":
            return self.cov.shape[0]
        if self.kind == "scalar_along_direction":
            return self.direction.size
        return None

    def added_cov(self, m: int) -> np.ndarray:
        """The exact covariance of the noise the plan adds to an m-vector.

        sigma^2 I for gaussian_iid, cov for gaussian_cov, s^2 v v^T for
        Gaussian scalar_along_direction, 2 b^2 I for laplace_iid and
        2 b^2 v v^T for Laplace scalar_along_direction (a Laplace variable
        of scale b has variance 2 b^2), and zeros for `none`. A plan of
        another dimension raises ValueError.
        """
        if self.dim is not None and self.dim != m:
            raise ValueError(f"plan dimension {self.dim} does not match query dimension {m}")
        if self.kind == "none":
            return np.zeros((m, m))
        if self.kind == "gaussian_cov":
            return self.cov.copy()
        if self.kind == "gaussian_iid":
            return self.sigma**2 * np.eye(m)
        variance = self.scale**2 if self.dist == "gaussian" else 2.0 * self.scale**2
        if self.kind == "laplace_iid":
            return variance * np.eye(m)
        return variance * np.outer(self.direction, self.direction)

    def to_json(self) -> dict:
        doc = {"kind": self.kind, "provenance": _thawed(self.provenance)}
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


def _frozen(value):
    """A read-only deep copy of a provenance value: mappings become
    read-only mappings, lists and tuples become tuples."""
    if isinstance(value, Mapping):
        return MappingProxyType({key: _frozen(item) for key, item in value.items()})
    if isinstance(value, (list, tuple)):
        return tuple(_frozen(item) for item in value)
    return value


def _thawed(value):
    """The plain dicts and lists of a `_frozen` value, for JSON."""
    if isinstance(value, Mapping):
        return {key: _thawed(item) for key, item in value.items()}
    if isinstance(value, tuple):
        return [_thawed(item) for item in value]
    return value


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


def gaussian_model_draws(model: GaussianModel, n: int, rng: np.random.Generator) -> np.ndarray:
    """n draws from a fitted Gaussian model, one per row, through its stored factor."""
    draws = rng.standard_normal((n, model.dim)) @ model.factor.T
    draws += model.mean
    return draws


def gaussian_l1_radius(model: GaussianModel, delta: float) -> float:
    """An L1 radius about the model's mean that holds at least 1 - delta/2 of its mass.

    For Y ~ N(0, Sigma), ||Y||_1 is the largest s^T Y over the sign vectors
    s in {-1, 1}^m, and s^T Y ~ N(0, sigma_s^2) with sigma_s^2 = s^T Sigma s.
    The events s^T Y > r and -s^T Y > r are disjoint, so the union bound over
    the 2^(m-1) sign vectors with s_1 = 1 gives

        P(||Y||_1 > r) <= sum_s erfc(r / (sigma_s sqrt(2))),

    where terms with sigma_s = 0 vanish. The radius is the smallest float r
    at which this sum is at most delta/2, found by bisection and taken from
    the bracket's upper end, so it never falls below what the bound
    certifies. In one dimension the bound is exact: r = sigma * isf(delta/4).
    A model of more than MAX_L1_RADIUS_DIM dimensions raises ConfigError.
    """
    if model.dim > MAX_L1_RADIUS_DIM:
        raise ConfigError(f"the L1 radius bound sums over 2^(m-1) sign vectors and accepts "
                          f"at most {MAX_L1_RADIUS_DIM} dimensions; the model has {model.dim}")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    signs = np.array([(1.0, *s) for s in itertools.product((1.0, -1.0), repeat=model.dim - 1)])
    variances = np.einsum("ij,jk,ik->i", signs, model.cov, signs)
    scales = [math.sqrt(2.0 * float(v)) for v in variances if v > 0.0]
    if not scales:
        return 0.0
    target = delta / 2.0

    def tail(r: float) -> float:  # fsum keeps the sum monotone in r
        return math.fsum(math.erfc(r / s) for s in scales)

    # erfc(x) <= exp(-x^2), so at hi every term is at most target / len(scales).
    lo, hi = 0.0, max(scales) * math.sqrt(math.log(len(scales) / target))
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if tail(mid) <= target:
            hi = mid
        else:
            lo = mid
    return hi


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
        return x + rng.standard_normal((n, m)) @ plan.factor.T
    # scalar_along_direction
    if plan.dist == "laplace":
        y = rng.laplace(0.0, plan.scale, size=n)
    else:
        y = rng.normal(0.0, plan.scale, size=n)
    return x + y[:, None] * plan.direction[None, :]


# --- calibrations ---------------------------------------------------------


def calibrate_wasserstein(family: PairFamily, params: PrivacyParams) -> NoisePlan:
    """iid Laplace with scale delta_w / epsilon, guarantee (epsilon, 0).

    delta_w = delta_E(family, 1), the worst L1 mean gap over the protected
    pairs. It is the worst-case infinity-Wasserstein distance (in L1) when
    every pair is a translation pair, two models that differ only in their
    mean, which is what a Gaussian catalog of equal covariances encodes.
    params.delta is ignored.
    """
    delta_w = delta_E(family, 1)
    scale, budget = _noise_scale("laplace", params, delta_w)
    return _iid_plan("laplace", scale, {"mechanism": "wasserstein", "delta_w": delta_w, **budget})


def calibrate_approx_wasserstein(family: PairFamily, params: PrivacyParams) -> NoisePlan:
    """iid Laplace with scale w / epsilon for a certified (w, delta) closeness.

    The radius r is the largest `gaussian_l1_radius` at params.delta over
    the family's models: each model holds at least 1 - delta/2 of its mass
    within L1 distance r of its mean, so by the triangle inequality every
    protected pair is (w, delta)-close with w = delta_E(family, 1) + 2r.
    The guarantee is (epsilon, delta), and delta must lie in (0, 1). The
    provenance records the radius and how it was bounded.
    """
    radius = max(gaussian_l1_radius(family.catalog[label], params.delta)
                 for label in family.sorted_labels())
    w = delta_E(family, 1) + 2.0 * radius
    scale, budget = _noise_scale("laplace", params, w)
    # The closeness certificate, not the noise, spends delta.
    return _iid_plan("laplace", scale, {
        "mechanism": "approx_wasserstein", "w": w, **budget, "delta": params.delta,
        "l1_radius": radius, "l1_radius_method": "gaussian_union_bound"})


def calibrate_expm(family: PairFamily, params: PrivacyParams, noise: str) -> NoisePlan:
    """Expected-value mechanism for translation pairs.

    Laplace: iid scale delta_E1 / epsilon, guarantee (epsilon, 0).
    Gaussian: iid sigma = c * delta_E2 / epsilon with
    c = sqrt(2 ln(1.25/delta)), guarantee (epsilon, delta).
    """
    norm = 1 if noise == "laplace" else 2
    sens = delta_E(family, norm)
    scale, budget = _noise_scale(noise, params, sens)
    return _iid_plan(noise, scale,
                     {"mechanism": f"expected_value_{noise}", f"delta_e{norm}": sens, **budget})


def calibrate_directional(family: PairFamily, params: PrivacyParams, noise: str) -> NoisePlan:
    """Scalar noise along the family's fitted common direction.

    The direction is fit_common_direction(family), and every protected
    mean gap must be parallel to it within ANGLE_TOL radians (sign
    ignored); otherwise the worst pair is reported. The scale is
    delta_E2 / epsilon for Laplace noise and c * delta_E2 / epsilon for
    Gaussian noise.

    The guarantee holds only when the pair covariances are exactly equal:
    a covariance that differs off the direction leaks through the
    directions left un-noised, so the Laplace plan's claimed delta = 0 and
    the Gaussian plan's delta are then not met. Covariance equality is not
    checked.
    """
    v = _fitted_direction(family)
    d2 = delta_E(family, 2)
    scale, budget = _noise_scale(noise, params, d2)
    return NoisePlan(
        kind="scalar_along_direction", dist=noise, scale=scale, direction=v,
        provenance={"mechanism": f"directional_{noise}", "delta_e2": d2, **budget},
    )


def no_noise_check(family: PairFamily, params: PrivacyParams) -> bool:
    """Whether the query may be released with no added noise.

    True iff for every protected pair the Mahalanobis gap satisfies
    (mu_i - mu_j)^T Sigma_i^{-1} (mu_i - mu_j) <= (epsilon / c)^2. The
    pair covariances must agree within COV_TOL (cov_discrepancy).
    """
    _, budget = _noise_scale("gaussian", params)
    bound = (params.epsilon / budget["c"]) ** 2
    _require_within(cov_discrepancy(family), COV_TOL, "relative covariance discrepancy")
    for (a, _), gap in zip(family.pairs, family.gaps):
        # Fails closed: a NaN quadratic form is not within the bound.
        if not float(gap @ solve_spd(family.catalog[a].cov, gap)) <= bound:
            return False
    return True


def eig_plan(family: PairFamily, params: PrivacyParams) -> NoisePlan:
    """Eigenvector-shaped Gaussian noise crediting adversarial uncertainty.

    In the stored eigenbasis v_1..v_m of the reference model (the smallest
    label in sorted order), the variance added along v_k is sigma_k^2 =
    max over models of max(0, (c * delta_E2 / epsilon)^2 - v_k^T Sigma
    v_k), so each total variance reaches the isotropic requirement but no
    direction is over-noised. Every covariance must be diagonal in that
    basis within BASIS_TOL
    (eigenbasis_residual); the residual is recorded in the provenance.
    """
    residual = eigenbasis_residual(family)
    _require_within(residual, BASIS_TOL, "common-eigenbasis residual")
    d2 = delta_E(family, 2)
    scale, budget = _noise_scale("gaussian", params, d2)
    target = scale**2
    labels = family.sorted_labels()
    basis = family.catalog[labels[0]].eigenvectors
    # One contiguous row per eigenvector: a strided column rounds differently.
    sigma_sq = np.array([
        max(0.0, *(target - float(vec @ family.catalog[label].cov @ vec) for label in labels))
        for vec in np.ascontiguousarray(basis.T)
    ])
    return NoisePlan(
        kind="gaussian_cov",
        cov=(basis * sigma_sq) @ basis.T,
        provenance={
            "mechanism": "eigenvector_gaussian",
            "delta_e2": d2,
            "target_variance": target,
            "sigma_sq": [float(s) for s in sigma_sq],
            "eigenbasis_residual": residual[0],
            **budget,
        },
    )


def dau_plan(family: PairFamily, params: PrivacyParams) -> NoisePlan:
    """Directional Gaussian noise with adversarial-uncertainty credit.

    The direction v is fit_common_direction(family), and every protected
    mean gap must be parallel to it within ANGLE_TOL radians. For each
    protected pair, alpha is the projection of the mean gap on v and Sigma
    the first model's covariance. Solving det(Sigma + beta v v^T) = 0 in
    closed form (beta = -1 / (v^T Sigma^{-1} v)), the pair needs variance
    max(eta, (alpha c / epsilon)^2 - 1/(v^T Sigma^{-1} v) + eta), where the
    bump eta = 1e-6 (alpha c / epsilon)^2 + 1e-12 keeps the perturbed
    matrix strictly positive definite; the plan takes the worst pair.

    The guarantee holds only when the pair covariances are exactly equal,
    since a covariance that differs off v leaks through the directions
    left un-noised. COV_TOL bounds the accepted mismatch (cov_discrepancy)
    but certifies nothing.
    """
    v = _fitted_direction(family)
    _require_within(cov_discrepancy(family), COV_TOL, "relative covariance discrepancy")
    _, budget = _noise_scale("gaussian", params)
    sigma_sq = 0.0
    for (a, _), gap in zip(family.pairs, family.gaps):
        target = _noise_scale("gaussian", params, abs(float(gap @ v)))[0] ** 2
        quad = float(v @ solve_spd(family.catalog[a].cov, v))
        if not np.isfinite(quad) or quad <= 0.0:
            raise NumericError("covariance quadratic form is not positive; matrix too singular")
        eta = 1e-6 * target + 1e-12
        sigma_sq = max(sigma_sq, eta, target - 1.0 / quad + eta)
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
    scale, budget = _noise_scale(noise, params, k, per_record_sens)
    return _iid_plan(noise, scale, {"mechanism": f"group_dp_{noise}", "k": int(k),
                                    "per_record_sensitivity": per_record_sens, **budget})


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
    "the first model's data covariance, Sigma_i^-1 gap (likelihood-ratio "
    "events only for a plan that adds no noise, on two equal covariances: "
    "noise moves the release's likelihood-ratio direction, to "
    "(Sigma_i + Sigma_add)^-1 gap for Gaussian noise); "
    "3-sigma binomial slack subtracted; any finite family only lower-bounds "
    "the true violation"
)


def release_draws(plan: NoisePlan, model: GaussianModel, n: int,
                  rng: np.random.Generator) -> np.ndarray:
    """n releases of the plan's query under a model, one per row, drawn from
    the release law; a plan of another dimension raises ValueError first.

    No plan's noise depends on the query. A Gaussian plan's release is
    exactly N(mean, cov + plan.added_cov(m)), drawn through the factor of
    that one covariance. Every other release is a model draw plus the
    plan's noise: none for `none`, and for a Laplace plan of scale b,
    b (E_1 - E_2) per entry (`laplace_iid`) or b (E_1 - E_2) v per row
    (along direction v), where E_1 and E_2 are independent unit
    exponentials drawn after the model draw, so E_1 - E_2 is a standard
    Laplace.
    """
    m = model.dim
    if plan.dim is not None and plan.dim != m:
        raise ValueError(f"plan dimension {plan.dim} does not match query dimension {m}")
    if plan.kind in ("gaussian_iid", "gaussian_cov") or plan.dist == "gaussian":
        release = GaussianModel(model.mean, model.cov + plan.added_cov(m), model.sample_count)
        return gaussian_model_draws(release, n, rng)
    out = gaussian_model_draws(model, n, rng)
    if plan.kind == "none":
        return out
    iid = plan.kind == "laplace_iid"
    pair = rng.standard_exponential((2, n, m) if iid else (2, n))
    noise = np.subtract(pair[0], pair[1], out=pair[0])
    noise *= plan.scale
    out += noise if iid else noise[:, None] * plan.direction
    return out


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

    Each side's releases are `release_draws`, drawn from the release law:
    a Gaussian plan's at once from N(mu, Sigma + plan.added_cov(m)), a
    Laplace plan's as a model draw plus b (E_1 - E_2) per entry or along
    its direction, and `none`'s as the model draw itself. A plan of
    another dimension raises ValueError before anything is drawn.

    Events are counted with two sorts per direction: the pooled sample
    and side i. The thresholds are read from the sorted pool by numpy's
    `linear` quantile rule, side i's counts come from `searchsorted`, and
    side j's are the pooled counts minus side i's, exact integers that
    ties cannot move. The violations are those of sorting each side and
    calling `np.quantile`, bit for bit.
    """
    if trials < MIN_AUDIT_TRIALS:
        raise ValueError(f"audit needs at least {MIN_AUDIT_TRIALS} trials, got {trials}")
    if model_i.dim != model_j.dim:
        raise ValueError("models must share a dimension")
    out_i = release_draws(plan, model_i, trials, rng)
    out_j = release_draws(plan, model_j, trials, rng)
    gap = model_i.mean - model_j.mean
    direction = solve_spd(model_i.cov, gap) if np.any(gap != 0.0) else None
    return AuditReport(
        estimated_violation=_half_space_violation(out_i, out_j, direction, params),
        trials=int(trials), event_family=_AUDIT_EVENT_FAMILY,
    )


def _half_space_violation(
    out_i: np.ndarray, out_j: np.ndarray, direction: Optional[np.ndarray], params: PrivacyParams
) -> float:
    """The worst slack-corrected violation over `_AUDIT_EVENT_FAMILY`, from
    equally many release draws per side (rows) and the Mahalanobis
    direction of the mean gap, or None when the means coincide."""
    trials = out_i.shape[0]
    axes = [(out_i[:, k], out_j[:, k]) for k in range(out_i.shape[1])]
    if direction is not None:
        axes.append((out_i @ direction, out_j @ direction))
    # [d, 0] counts the draws at or below direction d's thresholds, [d, 1] those below.
    counts_i = np.empty((len(axes), 2, _AUDIT_QUANTILES.size), dtype=np.intp)
    counts_pool = np.empty_like(counts_i)
    for d, (a_i, a_j) in enumerate(axes):
        pool = np.concatenate([a_i, a_j])
        pool.sort()
        s_i = np.sort(a_i)
        thresholds = _sorted_quantiles(pool)
        for side, tie in enumerate(("right", "left")):
            counts_i[d, side] = np.searchsorted(s_i, thresholds, side=tie)
            counts_pool[d, side] = np.searchsorted(pool, thresholds, side=tie)
    below_i = counts_i / trials
    below_j = (counts_pool - counts_i) / trials
    # Lower tails x <= t, then upper tails x >= t.
    p_i = np.stack([below_i[:, 0], 1.0 - below_i[:, 1]])
    p_j = np.stack([below_j[:, 0], 1.0 - below_j[:, 1]])
    viol = (
        (p_i - _binomial_slack(p_i, trials))
        - math.exp(params.epsilon) * (p_j + _binomial_slack(p_j, trials))
        - params.delta
    )
    return float(viol.max())


def _sorted_quantiles(ordered: np.ndarray) -> np.ndarray:
    """`np.quantile(ordered, _AUDIT_QUANTILES)` of an ascending array, bit for
    bit, without partitioning it again: numpy's `linear` rule reads the
    order statistics at floor((n - 1) q) and the next one, and interpolates
    as its `_lerp` does, from the upper neighbour when the weight is >= 0.5."""
    virtual = (ordered.size - 1) * _AUDIT_QUANTILES
    lower = np.floor(virtual)
    weight = virtual - lower
    index = lower.astype(np.intp)
    below, above = ordered[index], ordered[index + 1]
    diff = above - below
    return np.where(weight >= 0.5, above - diff * (1 - weight), below + diff * weight)


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


def _iid_plan(noise: str, scale: float, provenance: dict) -> NoisePlan:
    """iid noise of this scale: Laplace `scale` or Gaussian `sigma`."""
    if noise == "laplace":
        return NoisePlan(kind="laplace_iid", scale=scale, provenance=provenance)
    return NoisePlan(kind="gaussian_iid", sigma=scale, provenance=provenance)


def _epsilon_warnings(params: PrivacyParams) -> List[str]:
    if params.epsilon >= 1.0:
        return [
            "gaussian calibration guarantee is stated for epsilon < 1; "
            f"epsilon = {params.epsilon:g} follows experimental usage"
        ]
    return []


def _fitted_direction(family: PairFamily) -> np.ndarray:
    """The directional plans' noise direction: fit_common_direction, divided
    by its norm once more (which can move a last bit, and the released
    directions are pinned with it) and checked against every protected gap.
    """
    v = fit_common_direction(family)
    v = v / np.linalg.norm(v)
    _require_within(gap_angle(family, v), ANGLE_TOL, "mean-gap angle (rad) to the noise direction")
    return v


def _require_within(measured, tol: float, what: str) -> None:
    """Raise for the worst pair of a (value, pair) assumption measurement."""
    value, pair = measured
    if value > tol:
        raise AssumptionViolation(
            f"{what} of pair {pair} is {value:.3g} (tolerance {tol:g})", pair=pair
        )
