"""Census table ingestion, splits, stratified sampling, and the query.

The released statistic is a five-component vector over a subset of
records: average age, average years of education, number never married,
number of female individuals, and average hours worked per week. The
sensitive global properties are the subset's proportion of high earners
(income) and of private-sector workers (workclass).
"""

from __future__ import annotations

import csv
import hashlib
import json
import logging
from dataclasses import dataclass
from pathlib import Path
from typing import List

import numpy as np

from .errors import ConfigError, FormatError, ParseError, SamplingError

logger = logging.getLogger(__name__)

AGE_BOUNDS = (17, 90)
EDUCATION_BOUNDS = (1, 16)
HOURS_BOUNDS = (1, 99)
CANONICAL_ROW_COUNT = 45222

_ADULT_COLUMNS = 15
_FIELD_NAMES = (
    "age",
    "education_num",
    "never_married",
    "female",
    "hours_per_week",
    "income_gt_50k",
    "private_workclass",
)


@dataclass(frozen=True)
class PropertySpec:
    """A sensitive global property: which attribute, and a target proportion."""

    which: str
    p: float

    def __post_init__(self):
        if self.which not in ("income", "workclass"):
            raise ValueError(f"property must be 'income' or 'workclass', got {self.which!r}")
        if not (0.0 <= self.p <= 1.0):
            raise ValueError(f"target proportion must lie in [0, 1], got {self.p}")


class Table:
    """Immutable columnar store of records.

    Columns are read-only numpy arrays, one entry per record. Safe to
    share across threads once built.
    """

    __slots__ = ("age", "education_num", "never_married", "female",
                 "hours_per_week", "income_gt_50k", "private_workclass")

    def __init__(self, age, education_num, never_married, female,
                 hours_per_week, income_gt_50k, private_workclass):
        cols = {
            "age": np.asarray(age, dtype=np.int64),
            "education_num": np.asarray(education_num, dtype=np.int64),
            "never_married": np.asarray(never_married, dtype=bool),
            "female": np.asarray(female, dtype=bool),
            "hours_per_week": np.asarray(hours_per_week, dtype=np.int64),
            "income_gt_50k": np.asarray(income_gt_50k, dtype=bool),
            "private_workclass": np.asarray(private_workclass, dtype=bool),
        }
        n = len(cols["age"])
        for name, col in cols.items():
            if len(col) != n:
                raise ValueError(f"column {name} has length {len(col)}, expected {n}")
            col.setflags(write=False)
            object.__setattr__(self, name, col)

    def __setattr__(self, name, value):
        raise AttributeError("Table is immutable")

    def __len__(self) -> int:
        return len(self.age)

    def take(self, indices) -> "Table":
        idx = np.asarray(indices, dtype=np.int64)
        return Table(**{name: getattr(self, name)[idx] for name in _FIELD_NAMES})

    def property_mask(self, which: str) -> np.ndarray:
        if which == "income":
            return self.income_gt_50k
        if which == "workclass":
            return self.private_workclass
        raise ValueError(f"unknown property {which!r}")


@dataclass(frozen=True)
class SplitTables:
    """Disjoint auxiliary / testing / modeling partition of one table."""

    aux: Table
    test: Table
    modeling: Table


def dataset_files(path, dataset_format: str = "adult") -> List[Path]:
    """The files a dataset path names, in the order they are read.

    An Adult path is one concatenated file or a directory holding
    adult.data and adult.test; a simple-format path is one CSV file.
    """
    path = Path(path)
    if dataset_format == "adult" and path.is_dir():
        files = [path / "adult.data", path / "adult.test"]
        missing = [str(f) for f in files if not f.exists()]
        if missing:
            raise FileNotFoundError(f"expected Adult files not found: {missing}")
        return files
    if not path.exists():
        raise FileNotFoundError(str(path))
    return [path]


def dataset_sha256(path, dataset_format: str = "adult") -> str:
    """sha256 over the sha256 of each of the dataset's files, in read order."""
    outer = hashlib.sha256()
    for file in dataset_files(path, dataset_format):
        inner = hashlib.sha256()
        with open(file, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                inner.update(chunk)
        outer.update(inner.digest())
    return outer.hexdigest()


def load_adult(path, allow_variant: bool = False) -> Table:
    """Load UCI Adult census CSV data into a Table.

    Accepts a single concatenated file or a directory holding adult.data
    and adult.test. Rows with the missing marker '?' are dropped, the
    test file's trailing '.' on labels is normalized, and out-of-range
    rows are rejected; both rejection counts are logged. The canonical
    files yield exactly 45222 records, which is asserted unless
    allow_variant is set.
    """
    files = dataset_files(path)
    columns: List[List] = [[] for _ in _FIELD_NAMES]
    dropped_missing = 0
    dropped_range = 0
    for file in files:
        with open(file, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.strip()
                if not line or line.startswith("|"):
                    continue
                fields = [f.strip() for f in line.split(",")]
                if len(fields) != _ADULT_COLUMNS:
                    raise FormatError(
                        f"{file.name}: expected {_ADULT_COLUMNS} comma-separated fields, "
                        f"got {len(fields)}",
                        line=lineno,
                    )
                if "?" in fields:
                    dropped_missing += 1
                    continue
                try:
                    age = int(fields[0])
                    education_num = int(fields[4])
                    hours = int(fields[12])
                except ValueError as exc:
                    raise ParseError(f"{file.name}: {exc}", line=lineno) from exc
                if not (AGE_BOUNDS[0] <= age <= AGE_BOUNDS[1]
                        and EDUCATION_BOUNDS[0] <= education_num <= EDUCATION_BOUNDS[1]
                        and HOURS_BOUNDS[0] <= hours <= HOURS_BOUNDS[1]):
                    dropped_range += 1
                    continue
                label = fields[14].rstrip(".")
                columns[0].append(age)
                columns[1].append(education_num)
                columns[2].append(fields[5] == "Never-married")
                columns[3].append(fields[9] == "Female")
                columns[4].append(hours)
                columns[5].append(label == ">50K")
                columns[6].append(fields[1] == "Private")

    if dropped_missing:
        logger.warning("dropped %d rows with missing '?' fields", dropped_missing)
    if dropped_range:
        logger.warning("dropped %d rows with out-of-range attributes", dropped_range)

    table = Table(*columns)
    if len(table) != CANONICAL_ROW_COUNT and not allow_variant:
        raise ConfigError(
            f"expected the canonical {CANONICAL_ROW_COUNT} preprocessed records, got "
            f"{len(table)}; pass allow_variant=True for non-canonical files"
        )
    return table


def load_simple_csv(path) -> Table:
    """Escape-hatch loader: headered CSV with the seven canonical columns.

    Intended for synthetic tables in tests and demos; booleans accept
    0/1 or true/false.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or set(_FIELD_NAMES) - set(reader.fieldnames):
            raise FormatError(f"simple CSV must declare columns {_FIELD_NAMES}")
        columns: List[List] = [[] for _ in _FIELD_NAMES]
        for lineno, row in enumerate(reader, start=2):
            try:
                columns[0].append(int(row["age"]))
                columns[1].append(int(row["education_num"]))
                columns[2].append(_parse_bool(row["never_married"]))
                columns[3].append(_parse_bool(row["female"]))
                columns[4].append(int(row["hours_per_week"]))
                columns[5].append(_parse_bool(row["income_gt_50k"]))
                columns[6].append(_parse_bool(row["private_workclass"]))
            except (ValueError, TypeError) as exc:
                raise ParseError(str(exc), line=lineno) from exc
    return Table(*columns)


def _parse_bool(text: str) -> bool:
    value = text.strip().lower()
    if value in ("1", "true"):
        return True
    if value in ("0", "false"):
        return False
    raise ValueError(f"cannot parse boolean from {text!r}")


def split_dataset(table: Table, seed: int, aux_size: int = 10000, test_size: int = 10000) -> SplitTables:
    """Seeded uniform split into auxiliary, testing, and modeling tables."""
    n = len(table)
    if n < aux_size + test_size:
        raise ValueError(f"table has {n} rows; need at least {aux_size + test_size}")
    perm = np.random.default_rng(seed).permutation(n)
    return SplitTables(
        aux=table.take(perm[:aux_size]),
        test=table.take(perm[aux_size : aux_size + test_size]),
        modeling=table.take(perm[aux_size + test_size :]),
    )


def _strata(table: Table, which: str):
    mask = table.property_mask(which)
    return np.nonzero(mask)[0], np.nonzero(~mask)[0]


def _stratified_draw(strata, prop: PropertySpec, n: int, rng: np.random.Generator) -> np.ndarray:
    pos_pool, neg_pool = strata
    n_pos = int(round(n * prop.p))
    n_neg = n - n_pos
    if len(pos_pool) < n_pos:
        raise SamplingError(
            f"table has {len(pos_pool)} records with {prop.which} positive; need {n_pos}"
        )
    if len(neg_pool) < n_neg:
        raise SamplingError(
            f"table has {len(neg_pool)} records with {prop.which} negative; need {n_neg}"
        )
    chosen_pos = rng.choice(pos_pool, size=n_pos, replace=False)
    chosen_neg = rng.choice(neg_pool, size=n_neg, replace=False)
    return np.concatenate([chosen_pos, chosen_neg])


def sample_subset_indices(
    table: Table, prop: PropertySpec, n: int, rng: np.random.Generator
) -> np.ndarray:
    """Indices of a subset of size n with exactly round(n*p) positives.

    Rounding is half-to-even. Both strata are drawn uniformly without
    replacement, so the subset proportion is exact, not binomial.
    """
    return _stratified_draw(_strata(table, prop.which), prop, n, rng)


def _query_features(table: Table) -> np.ndarray:
    """Rows x 5 integer contributions to the query's sums, in query order."""
    return np.column_stack([table.age, table.education_num, table.never_married,
                            table.female, table.hours_per_week]).astype(np.int64)


def _gather_queries(features: np.ndarray, indices: np.ndarray) -> np.ndarray:
    # Exact int64 sums divided in float64 round as int(sum) / n does.
    n = indices.shape[1]
    return features[indices].sum(axis=1) / np.array([n, n, 1, 1, n], dtype=float)


class SubsetSampler:
    """Stratified subsets of one table by one property, drawn in batches.

    The strata and the table's query features are computed once. Each
    subset takes exactly the generator calls of `sample_subset_indices`,
    so a batch equals that many calls in a row on the same generator.
    """

    def __init__(self, table: Table, which: str):
        self.which = which
        self.strata = _strata(table, which)
        self.features = _query_features(table)

    def draw(self, p: float, n: int, count: int, rng: np.random.Generator):
        """(count x n indices, count x 5 queries) of count subsets at proportion p."""
        prop = PropertySpec(self.which, p)
        indices = np.stack([_stratified_draw(self.strata, prop, n, rng) for _ in range(count)])
        return indices, _gather_queries(self.features, indices)


def compute_query(subset: Table) -> np.ndarray:
    """The five released statistics of a subset, in fixed order.

    Output: [avg_age, avg_education_num, count_never_married,
    count_female, avg_hours_per_week]. Averages are exact integer sums
    divided by the count, emitted as doubles.
    """
    n = len(subset)
    if n == 0:
        raise ValueError("query subset must be nonempty")
    return _gather_queries(_query_features(subset), np.arange(n)[None, :])[0]


def load_query_json(path) -> np.ndarray:
    """A query vector from a file holding a nonempty JSON array of finite numbers."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
            value = np.asarray(doc, dtype=float)
        except (TypeError, ValueError, OverflowError):  # not JSON, or not numbers
            value = None
    if (value is None or value.ndim != 1 or value.size == 0 or not np.all(np.isfinite(value))
            or any(isinstance(x, bool) for x in doc)):
        raise FormatError(f"{path}: query must be a nonempty JSON array of finite numbers")
    return value
