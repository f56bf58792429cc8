"""Gaussian instantiation of the distribution-privacy framework.

A protected instantiation is a catalog of secret labels (a sensitive
property name plus a proportion value) mapped to Gaussian models of the
query distribution, together with the ordered pairs of labels an
attacker must not be able to distinguish. This module estimates the
models, measures expected-value sensitivities, and quantifies how well
the data satisfy the assumptions the noise mechanisms rely on
(shared covariance, common gap direction, common eigenbasis).

Every covariance, of a model or of a Gaussian noise plan, is checked,
symmetrized, decomposed and factored by `covariance_spectrum`, once, when
its holder is built: the one positive semi-definiteness rule lives there.
A model keeps its symmetric covariance, its spectrum and its factor, and
a family keeps its mean gaps, so draws, calibrations and assumption
measurements read stored facts instead of recomputing them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .dataio import output_file, read_json
from .errors import ConfigError, EstimationError, NumericError

SYMMETRY_RTOL = 1e-9
PSD_RTOL = 1e-9
RIDGE_REL = 1e-9


@dataclass(frozen=True, order=True)
class SecretLabel:
    """One possible value of a sensitive global property."""

    property_id: str
    value: float

    def __post_init__(self):
        if not self.property_id:
            raise ValueError("property_id must be nonempty")
        if not (0.0 <= self.value <= 1.0):
            raise ValueError(f"property value must lie in [0, 1], got {self.value}")


Pair = Tuple[SecretLabel, SecretLabel]


@dataclass(frozen=True)
class PrivacyParams:
    """Privacy budget (epsilon, delta) with 0 < epsilon < inf and 0 <= delta < 1."""

    epsilon: float
    delta: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.epsilon < np.inf:
            raise ValueError(f"epsilon must be positive and finite, got {self.epsilon}")
        if not (0.0 <= self.delta < 1.0):
            raise ValueError(f"delta must lie in [0, 1), got {self.delta}")

    def gaussian_c(self) -> float:
        """The Gaussian-mechanism constant c = sqrt(2 ln(1.25/delta))."""
        if self.delta <= 0.0:
            raise ValueError("gaussian calibration requires delta > 0")
        return float(np.sqrt(2.0 * np.log(1.25 / self.delta)))


class GaussianModel:
    """Multivariate Gaussian approximation of a query distribution.

    Holds a mean vector, the number of samples used in estimation, and
    the covariance's `covariance_spectrum` from its one decomposition:
    `cov`, the symmetric positive semi-definite form of the covariance
    given, `eigenvalues` (descending), `eigenvectors` (column k belongs
    to eigenvalue k) and `factor` (A with A A^T = cov), which draws read.
    Arrays are read-only after construction; instances are safe to share
    across threads.
    """

    __slots__ = ("mean", "cov", "eigenvalues", "eigenvectors", "factor", "sample_count")

    def __init__(self, mean, cov, sample_count: int):
        mean = np.asarray(mean, dtype=float)
        cov = np.asarray(cov, dtype=float)
        if mean.ndim != 1:
            raise ValueError("mean must be a vector")
        if cov.shape != (mean.size, mean.size):
            raise ValueError(f"cov must be {mean.size}x{mean.size}, got {cov.shape}")
        if not np.all(np.isfinite(mean)):
            raise ValueError("mean must be finite")
        if int(sample_count) < 1:
            raise ValueError("sample_count must be positive")
        eigenvalues, eigenvectors, factor, cov = covariance_spectrum(cov)
        mean.setflags(write=False)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)
        object.__setattr__(self, "eigenvalues", eigenvalues)
        object.__setattr__(self, "eigenvectors", eigenvectors)
        object.__setattr__(self, "factor", factor)
        object.__setattr__(self, "sample_count", int(sample_count))

    def __setattr__(self, name, value):
        raise AttributeError("GaussianModel is immutable")

    @property
    def dim(self) -> int:
        return self.mean.size

    def __repr__(self):
        return f"GaussianModel(dim={self.dim}, sample_count={self.sample_count})"


@dataclass(frozen=True, eq=False)
class PairFamily:
    """A catalog of Gaussian models plus the protected ordered pairs.

    Pairs must be symmetric: whenever (i, j) is protected, (j, i) must be
    listed as well, so the indistinguishability guarantee runs both ways.
    Every label of a pair must have a model in the catalog. `gaps` holds
    the mean gaps, computed once: row k is mu_a - mu_b for the k-th pair
    (a, b), and the array is read-only. A gap that overflows to an
    infinity raises ConfigError naming its pair.
    """

    catalog: Mapping[SecretLabel, GaussianModel]
    pairs: Tuple[Pair, ...]
    gaps: np.ndarray = field(init=False, repr=False)

    def __init__(self, catalog, pairs):
        catalog = dict(catalog)
        pairs = tuple((a, b) for a, b in pairs)
        if not pairs:
            raise ConfigError("pair family requires at least one protected pair")
        pair_set = set(pairs)
        for a, b in pairs:
            for lab in (a, b):
                if lab not in catalog:
                    raise ConfigError(f"pair label {lab} missing from catalog")
            if (b, a) not in pair_set:
                raise ConfigError(f"pair {(a, b)} lacks its reverse; protection must be symmetric")
        dims = {model.dim for model in catalog.values()}
        if len(dims) != 1:
            raise ConfigError(f"catalog models disagree on dimension: {sorted(dims)}")
        with np.errstate(over="ignore"):  # means are finite; a gap may still overflow
            gaps = np.array([catalog[a].mean - catalog[b].mean for a, b in pairs])
        for pair, gap in zip(pairs, gaps):
            if not np.all(np.isfinite(gap)):
                raise ConfigError(f"pair {pair} has a mean gap that overflows: {gap.tolist()}")
        gaps.setflags(write=False)
        object.__setattr__(self, "catalog", catalog)
        object.__setattr__(self, "pairs", pairs)
        object.__setattr__(self, "gaps", gaps)

    @property
    def dim(self) -> int:
        return next(iter(self.catalog.values())).dim

    def sorted_labels(self) -> List[SecretLabel]:
        return sorted(self.catalog)


@dataclass(frozen=True, eq=False)
class AssumptionReport:
    """How far a family sits from the mechanisms' modeling assumptions.

    Each field is the value of one measurement, whose own function also
    names the pair attaining it: max_cov_discrepancy is cov_discrepancy,
    max_direction_angle is gap_angle to common_direction (the
    fit_common_direction of the family), and common_eigenbasis_residual
    is eigenbasis_residual.
    """

    max_cov_discrepancy: float
    max_direction_angle: float
    common_eigenbasis_residual: float
    common_direction: np.ndarray = field(repr=False)


def estimate_gaussian(samples) -> GaussianModel:
    """Fit a Gaussian by sample mean and unbiased sample covariance.

    Requires at least two samples of equal length; the covariance uses
    the (count - 1) divisor.
    """
    x = np.asarray(samples, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    if x.ndim != 2:
        raise EstimationError("samples must form a 2-D array of row vectors")
    n = x.shape[0]
    if n < 2:
        raise EstimationError(f"need at least 2 samples to estimate a covariance, got {n}")
    if not np.all(np.isfinite(x)):
        raise ValueError("samples must be finite")
    mean = x.mean(axis=0)
    centered = x - mean
    return GaussianModel(mean=mean, cov=centered.T @ centered / (n - 1), sample_count=n)


def delta_E(family: PairFamily, norm: int) -> float:
    """Worst-case distance between expected values over protected pairs."""
    if norm not in (1, 2):
        raise ValueError(f"norm must be 1 or 2, got {norm}")
    # One column per pair, so each sum runs in coordinate order: numpy sums
    # a contiguous row pairwise, which can move a last bit from 9 entries on.
    cols = np.ascontiguousarray(family.gaps.T)
    per_pair = np.abs(cols).sum(axis=0) if norm == 1 else np.sqrt((cols**2).sum(axis=0))
    return float(per_pair.max())


def fit_common_direction(family: PairFamily) -> np.ndarray:
    """Dominant singular direction of the pairwise mean gaps.

    Automates the domain-expert choice of the direction along which the
    query means move as the sensitive property changes. Returns a unit
    vector with the usual sign convention (first nonzero entry positive);
    falls back to the first axis when every gap is zero.
    """
    if not np.any(family.gaps):
        v = np.zeros(family.dim)
        v[0] = 1.0
        return v
    u, _, _ = np.linalg.svd(family.gaps.T, full_matrices=False)
    v = u[:, 0]
    return _fix_sign(v / np.linalg.norm(v))


def cov_discrepancy(family: PairFamily) -> Tuple[float, Optional[Pair]]:
    """Largest entrywise difference between the two covariances of a
    protected pair, relative to the largest entry magnitude of either
    matrix, and the pair attaining it (None when every pair agrees).
    """
    worst, where = 0.0, None
    for a, b in family.pairs:
        ca, cb = family.catalog[a].cov, family.catalog[b].cov
        scale = max(np.abs(ca).max(), np.abs(cb).max())
        diff = np.abs(ca - cb).max()
        if diff > 0.0 and diff / scale > worst:
            worst, where = diff / scale, (a, b)
    return worst, where


def gap_angle(family: PairFamily, v: np.ndarray) -> Tuple[float, Optional[Pair]]:
    """Largest angle (radians, sign ignored) between a protected mean gap
    and the unit direction v, and the pair attaining it (None when every
    gap is parallel to v).
    """
    worst, where = 0.0, None
    for (a, b), gap in zip(family.pairs, family.gaps):
        norm = float(np.linalg.norm(gap))
        if norm == 0.0:
            continue  # zero-difference pairs are parallel to anything
        cosine = abs(float(gap @ v)) / norm
        angle = float(np.arccos(np.clip(cosine, -1.0, 1.0)))
        if angle > worst:
            worst, where = angle, (a, b)
    return worst, where


def eigenbasis_residual(family: PairFamily) -> Tuple[float, Optional[Pair]]:
    """Largest off-diagonal magnitude of any covariance expressed in the
    reference model's stored eigenbasis (the smallest label in sorted
    order), relative to the reference's largest eigenvalue magnitude, and
    the (reference label, worst label) pair attaining it (None when every
    covariance is diagonal in that basis).
    """
    labels = family.sorted_labels()
    reference = family.catalog[labels[0]]
    basis = reference.eigenvectors
    lam_scale = float(np.abs(reference.eigenvalues).max())
    worst, where = 0.0, None
    off_mask = ~np.eye(family.dim, dtype=bool)
    for lab in labels:
        rotated = basis.T @ family.catalog[lab].cov @ basis
        off = float(np.abs(rotated[off_mask]).max()) if family.dim > 1 else 0.0
        if off > 0.0:
            relative = off / lam_scale if lam_scale > 0.0 else float("inf")
            if relative > worst:
                worst, where = relative, (labels[0], lab)
    return worst, where


def check_assumptions(family: PairFamily) -> AssumptionReport:
    """A report of the three assumption measurements, for diagnostics.

    No calibration reads it: each checks only the measurement its noise
    rests on, at its own tolerance.
    """
    v = fit_common_direction(family)
    return AssumptionReport(
        max_cov_discrepancy=cov_discrepancy(family)[0],
        max_direction_angle=gap_angle(family, v)[0],
        common_eigenbasis_residual=eigenbasis_residual(family)[0],
        common_direction=v,
    )


def eigendecompose(cov) -> Tuple[np.ndarray, np.ndarray]:
    """Symmetric eigendecomposition with a deterministic output convention.

    Returns (values, vectors): the eigenvalues sorted descending, and a
    C-contiguous matrix whose column k is the normalized eigenvector of
    values[k], sign-fixed so its first nonzero entry is positive.
    """
    cov = np.asarray(cov, dtype=float)
    if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {cov.shape}")
    _require_symmetric(cov)
    vals, vecs = np.linalg.eigh(0.5 * (cov + cov.T))
    order = np.argsort(vals)[::-1]
    return vals[order], _fix_sign(np.ascontiguousarray(vecs[:, order]))


def covariance_spectrum(cov) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Read-only (eigenvalues, eigenvectors) from eigendecompose of a
    covariance, the factor A = eigenvectors * sqrt(eigenvalues), A A^T = cov,
    and the symmetric form 0.5 * (cov + cov^T) that its holder keeps.

    The one check of a covariance: it must be finite, square and symmetric
    (eigendecompose), and positive semi-definite, which means no eigenvalue
    below -PSD_RTOL times the largest (or times 1e-300 when none is
    positive). Negative eigenvalues within that bound count as zero in
    the factor.
    """
    cov = np.asarray(cov, dtype=float)
    if not np.all(np.isfinite(cov)):
        raise ValueError("covariance must be finite")
    vals, vecs = eigendecompose(cov)
    if vals.size and not vals[-1] >= -PSD_RTOL * max(vals[0], 1e-300):
        raise ValueError(f"covariance is not positive semi-definite (min eigenvalue {vals[-1]:g})")
    factor = vecs * np.sqrt(np.clip(vals, 0.0, None))
    symmetric = 0.5 * (cov + cov.T)
    for array in (vals, vecs, factor, symmetric):
        array.setflags(write=False)
    return vals, vecs, factor, symmetric


def solve_spd(cov: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve (cov + ridge) x = rhs by Cholesky, with the standard ridge
    RIDGE_REL * trace / dim added before the inversion when it is
    positive; raise NumericError if singular."""
    cov = np.asarray(cov, dtype=float)
    m = cov.shape[0]
    ridge = RIDGE_REL * float(np.trace(cov)) / m
    repaired = cov + ridge * np.eye(m) if ridge > 0.0 else cov
    try:
        chol = np.linalg.cholesky(repaired)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"covariance is singular after ridge repair: {exc}") from exc
    y = np.linalg.solve(chol, rhs)
    return np.linalg.solve(chol.T, y)


# --- JSON catalog format ------------------------------------------------
#
# One model document: {"property_id": str, "value": float, "mean": [...],
# "cov": [[...]], "sample_count": int}; a catalog file is a JSON array of
# these documents.


def model_to_doc(label: SecretLabel, model: GaussianModel) -> dict:
    return {
        "property_id": label.property_id,
        "value": label.value,
        "mean": [float(x) for x in model.mean],
        "cov": [[float(x) for x in row] for row in model.cov],
        "sample_count": model.sample_count,
    }


def model_from_doc(doc: dict) -> Tuple[SecretLabel, GaussianModel]:
    label = SecretLabel(property_id=doc["property_id"], value=float(doc["value"]))
    model = GaussianModel(
        mean=doc["mean"], cov=doc["cov"], sample_count=int(doc["sample_count"])
    )
    return label, model


def save_catalog(catalog: Mapping[SecretLabel, GaussianModel], path) -> None:
    docs = [model_to_doc(lab, catalog[lab]) for lab in sorted(catalog)]
    with output_file(path) as fh:
        json.dump(docs, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_catalog(path, data=None) -> Dict[SecretLabel, GaussianModel]:
    """The catalog in the file at path, or in data, its bytes as read."""
    return read_json(path, lambda docs: dict(map(model_from_doc, docs)), data)


def family_from_catalog(
    catalog: Mapping[SecretLabel, GaussianModel],
    value_pairs: Iterable[Sequence[float]],
    property_id: str,
) -> PairFamily:
    """Build the family of property_id's labels at (value_i, value_j) pairs.

    Pairs are closed under reversal automatically; a label the catalog
    lacks raises ConfigError from PairFamily.
    """
    pairs = {}  # insertion-ordered and without repeats
    for vi, vj in value_pairs:
        a, b = SecretLabel(property_id, float(vi)), SecretLabel(property_id, float(vj))
        pairs.update(dict.fromkeys([(a, b), (b, a)]))
    used = {lab for pair in pairs for lab in pair}
    return PairFamily(catalog={lab: catalog[lab] for lab in used if lab in catalog}, pairs=pairs)


def _require_symmetric(mat: np.ndarray) -> None:
    scale = max(1.0, float(np.abs(mat).max()) if mat.size else 0.0)
    asym = float(np.abs(mat - mat.T).max()) if mat.size else 0.0
    if asym > SYMMETRY_RTOL * scale:
        raise ValueError(f"matrix is not symmetric (max asymmetry {asym:g})")


def _fix_sign(vectors: np.ndarray) -> np.ndarray:
    """A vector, or each column of a matrix, negated if its first nonzero entry is negative."""
    cols = vectors.reshape(vectors.shape[0], -1)
    lead = cols[np.argmax(cols != 0.0, axis=0), np.arange(cols.shape[1])]
    return np.where(lead < 0.0, -vectors, vectors)
