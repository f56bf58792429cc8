"""Census table ingestion, splits, stratified sampling, and the query.

The released statistic is a five-component vector over a subset of
records: average age, average years of education, number never married,
number of female individuals, and average hours worked per week. The
sensitive global properties are the subset's proportion of high earners
(income) and of private-sector workers (workclass). `output_file` is the
one writer of the files a run produces, and `read_json` the one reader of
the JSON files it is given.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import logging
import os
import secrets
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import List

import numpy as np

from .errors import FormatError, ParseError, SamplingError

logger = logging.getLogger(__name__)

AGE_BOUNDS = (17, 90)
EDUCATION_BOUNDS = (1, 16)
HOURS_BOUNDS = (1, 99)
# The query's components in release order: ("avg", low, high) averages a
# column both loaders hold to [low, high]; ("count",) counts a flag. Group-DP
# sensitivities scale to these bounds.
QUERY_COMPONENTS = (("avg",) + AGE_BOUNDS, ("avg",) + EDUCATION_BOUNDS, ("count",), ("count",),
                    ("avg",) + HOURS_BOUNDS)
CANONICAL_ROW_COUNT = 45222
# Rows of the auxiliary and testing tables; the modeling table takes the rest.
AUX_SIZE = 10_000
TEST_SIZE = 10_000

_ADULT_COLUMNS = 15
# The Adult fields load_adult reads, by position: age, workclass,
# education-num, marital-status, sex, hours-per-week, income. Entries 0, 2
# and 5 of that list are the integers. Each is a row, as the parser lays
# out one field of all rows in one row of its arrays.
_READ_FIELDS = np.array([[0], [1], [4], [5], [9], [12], [14]])
_INTEGER_FIELDS = [0, 2, 5]
_INTEGER_NAMES = ("age", "education-num", "hours-per-week")
_INTEGER_LOW = np.array([[AGE_BOUNDS[0]], [EDUCATION_BOUNDS[0]], [HOURS_BOUNDS[0]]])
_INTEGER_HIGH = np.array([[AGE_BOUNDS[1]], [EDUCATION_BOUNDS[1]], [HOURS_BOUNDS[1]]])
# load_adult parses each file in blocks of about this many bytes, cut at a
# newline, so its temporaries stay small beside the table. On the
# benchmark's seed-101 Adult pair (6.3 MB) a load took 38 ms in blocks of
# 64 KiB, 29 ms in 128 KiB, 25 ms in 256 KiB, 24 ms in 512 KiB, 26 ms in
# 1 MiB and 41 ms in 8 MiB (medians of 30 loads each, on a shared 2-vCPU
# x86-64 host). 512 KiB was within the noise of 256 KiB, with temporaries
# twice as large.
_BLOCK_BYTES = 1 << 18
# A block is parsed from a copy that starts with a newline, so that every
# line follows one, and ends in _PAD zero bytes, so that 16 bytes can be
# read from any position of a line.
_PAD = 16
_ZEROS = bytes(_PAD)
# The ASCII characters str.strip removes, and those of them that a field
# can hold (all but the newline).
_WHITESPACE = " \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f"
_IS_BLANK = np.zeros(256, dtype=bool)
_IS_BLANK[list(_WHITESPACE.replace("\n", "").encode())] = True
_IS_DOT = np.zeros(256, dtype=bool)
_IS_DOT[ord(".")] = True
_NEWLINE, _CR, _SPACE, _COMMA, _PIPE, _QUESTION, _PLUS, _MINUS = b"\n\r ,|?+-"
# Digits an integer field may hold: with them every value fits in int64.
_MAX_DIGITS = 18
_POW10 = 10 ** np.arange(_MAX_DIGITS, dtype=np.int64)
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


def load_adult(path) -> Table:
    """Load UCI Adult census CSV data into a Table.

    Accepts a single concatenated file or a directory holding adult.data
    and adult.test. Rows with the missing marker '?' are dropped, the
    test file's trailing '.' on labels is normalized, and out-of-range
    rows are rejected; both rejection counts are logged. The canonical
    files yield exactly CANONICAL_ROW_COUNT records, which the sweep
    commands check (`cli.load_dataset`); this loader reads any count.

    The syntax read: UTF-8 text whose lines end in "\\n" or "\\r\\n" (the
    last may have no end). Blank lines and lines whose first non-blank
    character is '|' are skipped. Every other line holds 15
    comma-separated fields, with ASCII whitespace around a field ignored.
    Age, education-num and hours-per-week are integers written as an
    optional '+' or '-' and 1 to 18 ASCII digits. A line breaking this
    raises FormatError, or ParseError for a bad integer, naming the file
    and line. So does a field padded with non-ASCII whitespace, which
    would otherwise be read as another word.
    """
    parts = []
    dropped_missing = 0
    dropped_range = 0
    for file in dataset_files(path):
        line = 1
        for block in _newline_blocks(file):
            columns, missing, out_of_range, lines = _parse_adult_block(block, file.name, line)
            parts.append(columns)
            dropped_missing += missing
            dropped_range += out_of_range
            line += lines

    if dropped_missing:
        logger.warning("dropped %d rows with missing '?' fields", dropped_missing)
    if dropped_range:
        logger.warning("dropped %d rows with out-of-range attributes", dropped_range)

    return Table(*(np.concatenate(column) for column in zip(*parts))) if parts else Table(*[()] * 7)


def _newline_blocks(file: Path):
    """The file's bytes in blocks of about _BLOCK_BYTES of whole lines, each
    as a newline, the lines, and _PAD zero bytes (see _parse_adult_block).
    A last line with no newline is given one."""
    with open(file, "rb") as fh:
        tail = []  # the bytes read since the last newline, joined once
        while data := fh.read(_BLOCK_BYTES):
            cut = data.rfind(b"\n") + 1
            if cut:
                yield b"".join((b"\n", *tail, memoryview(data)[:cut], _ZEROS))
                tail = [data[cut:]]
            else:
                tail.append(data)
        if any(tail):
            yield b"".join((b"\n", *tail, b"\n", _ZEROS))


def _parse_adult_block(text: bytes, name: str, first_line: int):
    """The kept rows of a block of whole Adult lines, as Table columns, the
    counts of rows dropped as missing and as out of range, and the block's
    line count. text is a newline, the lines, and _PAD zero bytes; its first
    line is line first_line of the file called name."""
    arr = np.frombuffer(text, dtype=np.uint8)
    body = arr[:-_PAD]
    # Every comma and newline, in order. Line i lies between the newlines
    # seps[breaks[i]] and seps[breaks[i + 1]], and a line of 15 fields has
    # its field j between seps[breaks[i] + j] and seps[breaks[i] + j + 1].
    seps = np.flatnonzero((body == _COMMA) | (body == _NEWLINE))
    breaks = np.flatnonzero(arr[seps] == _NEWLINE)
    newlines = seps[breaks]
    fields = np.diff(breaks)
    first = _strip(arr, newlines[:-1] + 1, 1)
    data = (arr[first] != _NEWLINE) & (arr[first] != _PIPE)

    # (block line, error) for each kind of bad line, at its first instance;
    # the earliest is raised. Rows are read only up to the first line whose
    # fields cannot be found.
    errors = []

    def error(kind, i, message):
        errors.append((i, kind(f"{name}: {message}", line=first_line + int(i))))

    def line_of(position):
        return np.searchsorted(newlines, position) - 1

    wrong = np.flatnonzero(data & (fields != _ADULT_COLUMNS))
    if wrong.size:
        error(FormatError, wrong[0],
              f"expected {_ADULT_COLUMNS} comma-separated fields, got {fields[wrong[0]]}")
    if b"\r" in text:
        cr = np.flatnonzero(body == _CR)
        lone = cr[arr[cr + 1] != _NEWLINE]
        if lone.size:
            error(FormatError, line_of(lone[0]), "carriage return not followed by a newline")
    ascii_only = text.isascii()
    if not ascii_only:
        try:
            text.decode("utf-8")
        except UnicodeDecodeError as exc:
            error(FormatError, line_of(exc.start), f"not UTF-8 text: {exc.reason}")
    limit = min((i for i, _ in errors), default=fields.size)
    rows = np.flatnonzero(data[:limit])

    if not ascii_only:
        wide = np.unique(line_of(np.flatnonzero(body >= 0x80)))
        wide = wide[wide < limit]
        for i in wide[data[wide]]:
            line = text[newlines[i] + 1:newlines[i + 1]].decode("utf-8")
            if any(f.strip() != f.strip(_WHITESPACE) for f in line.split(",")):
                error(FormatError, i, "a field is padded with non-ASCII whitespace")
                break

    # A '?' is a whole field when only blanks separate it from the commas
    # or newlines on either side.
    rows_missing = 0
    if b"?" in text:
        marks = np.flatnonzero(body == _QUESTION)
        before = arr[_strip(arr, marks - 1, -1)]
        after = arr[_strip(arr, marks + 1, 1)]
        whole = (((before == _COMMA) | (before == _NEWLINE))
                 & ((after == _COMMA) | (after == _NEWLINE)))
        missing = np.zeros(fields.size, dtype=bool)
        missing[line_of(marks[whole])] = True
        missing = missing[rows]
        rows_missing = int(np.count_nonzero(missing))
        if rows_missing:
            rows = rows[~missing]

    # The stripped byte range [lo, hi) of each read field (a row of lo and
    # hi) of each kept row (a column). A field of blanks only comes out
    # with hi <= lo.
    left = breaks[rows] + _READ_FIELDS
    lo = _strip(arr, seps[left] + 1, 1)
    hi = _skip(arr, seps[left + 1] - 1, -1, _IS_BLANK) + 1

    numbers, valid = _parse_integers(arr, lo[_INTEGER_FIELDS].ravel(), hi[_INTEGER_FIELDS].ravel())
    numbers = numbers.reshape(len(_INTEGER_FIELDS), rows.size)
    invalid = ~valid.reshape(numbers.shape)
    if invalid.any():
        row = np.flatnonzero(invalid.any(axis=0))[0]
        k = np.flatnonzero(invalid[:, row])[0]
        field = _INTEGER_FIELDS[k]
        value = text[lo[field, row]:hi[field, row]].decode("utf-8", "replace")
        error(ParseError, rows[row], f"{_INTEGER_NAMES[k]} {value!r} is not an integer")
    if errors:
        raise min(errors, key=lambda item: item[0])[1]

    keep = np.all((numbers >= _INTEGER_LOW) & (numbers <= _INTEGER_HIGH), axis=0)
    out_of_range = keep.size - int(np.count_nonzero(keep))
    if out_of_range:
        lo, hi, numbers = lo[:, keep], hi[:, keep], numbers[:, keep]
    # The 8 bytes from each position of the block, as one little-endian word.
    words = np.ndarray((arr.size - 7,), dtype="<u8", buffer=text, strides=(1,))
    label_end = _skip(arr, hi[6] - 1, -1, _IS_DOT) + 1
    columns = (
        numbers[0],
        numbers[1],
        _equals(words, lo[3], hi[3], b"Never-married"),
        _equals(words, lo[4], hi[4], b"Female"),
        numbers[2],
        _equals(words, lo[6], label_end, b">50K"),
        _equals(words, lo[1], hi[1], b"Private"),
    )
    return columns, rows_missing, out_of_range, fields.size


def _strip(arr, pos, step):
    """Each position moved by step (+1 or -1) past the blanks it is on. A
    line's newline, and a comma, stop it."""
    space = arr[pos] == _SPACE  # the most common first step, for all at once
    return _skip(arr, pos + space if step > 0 else pos - space, step, _IS_BLANK)


def _skip(arr, pos, step, table):
    """The positions of pos, a fresh array, each moved in place by step (+1
    or -1) while it is on a byte that table marks. The table leaves the
    newline unmarked, which bounds every line of a block."""
    flat = pos.reshape(-1)
    todo = np.flatnonzero(table[arr[flat]])
    while todo.size:
        flat[todo] += step
        todo = todo[table[arr[flat[todo]]]]
    return pos


def _parse_integers(arr, lo, hi):
    """The integer each byte range [lo, hi) writes, and whether it writes one:
    an optional sign and 1 to _MAX_DIGITS ASCII digits."""
    sign = arr[lo]  # an empty range's lo is on a comma or newline
    minus = sign == _MINUS
    signed = minus | (sign == _PLUS)
    if signed.any():
        lo = lo + signed
    n = hi - lo
    valid = (n > 0) & (n <= _MAX_DIGITS)
    values = np.zeros(n.size, dtype=np.int64)
    # One pass per digit place, as many as the widest range has; a range
    # reads 0 at the places left of its first digit.
    for place in range(min(int(n.max(initial=0)), _MAX_DIGITS)):
        # A place left of the block's start wraps to its end, and is masked.
        digit = arr[hi - (place + 1)] - np.uint8(ord("0"))
        digit *= n > place
        valid &= digit <= 9
        # A one-element slice, not a scalar: numpy before 2.0 would keep a
        # uint8 array times a small int64 scalar in uint8, and wrap.
        values += digit * _POW10[place:place + 1]
    if minus.any():
        np.negative(values, out=values, where=minus)
    return values, valid


def _equals(words, lo, hi, word: bytes):
    """Whether each byte range [lo, hi) holds exactly word, of 1 to 16
    bytes, with words the 8-byte windows of the block."""
    out = (hi - lo) == len(word)
    for offset in (0,) if len(word) <= 8 else (0, len(word) - 8):
        chunk = word[offset:offset + 8]
        mask = np.uint64((1 << 8 * len(chunk)) - 1)
        out &= (words[lo + offset] & mask) == np.uint64(int.from_bytes(chunk, "little"))
    return out


def load_simple_csv(path) -> Table:
    """Escape-hatch loader: headered CSV with the seven canonical columns.

    Intended for synthetic tables in tests and demos; booleans accept
    0/1 or true/false. A value outside the bounds of its query component
    (`QUERY_COMPONENTS`) raises ParseError, since the group-DP baselines
    scale their noise to those bounds; a file that is not UTF-8 text
    raises FormatError naming it.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        try:
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
        except UnicodeDecodeError as exc:
            raise FormatError(f"{path}: not UTF-8 text: {exc.reason}") from exc
    for name, values, (kind, *bounds) in zip(_FIELD_NAMES, columns, QUERY_COMPONENTS):
        if kind == "avg":
            low, high = bounds
            column = np.asarray(values)
            outside = np.flatnonzero((column < low) | (column > high))
            if outside.size:
                raise ParseError(f"{name} {column[outside[0]]} outside its bounds [{low}, {high}]",
                                 line=int(outside[0]) + 2)
    return Table(*columns)


def _parse_bool(text: str) -> bool:
    value = text.strip().lower()
    if value in ("1", "true"):
        return True
    if value in ("0", "false"):
        return False
    raise ValueError(f"cannot parse boolean from {text!r}")


def split_dataset(table: Table, seed: int) -> SplitTables:
    """Seeded uniform split into AUX_SIZE auxiliary rows, TEST_SIZE testing
    rows, and the rest for modeling."""
    n = len(table)
    if n < AUX_SIZE + TEST_SIZE:
        raise ValueError(f"table has {n} rows; need at least {AUX_SIZE + TEST_SIZE}")
    perm = np.random.default_rng(seed).permutation(n)
    return SplitTables(
        aux=table.take(perm[:AUX_SIZE]),
        test=table.take(perm[AUX_SIZE : AUX_SIZE + TEST_SIZE]),
        modeling=table.take(perm[AUX_SIZE + TEST_SIZE :]),
    )


def _distinct_rows(size: int, k: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """count x k positions in [0, size), each row k distinct values and
    uniform over the k-subsets of [0, size).

    Every entry is drawn uniformly, then each round redraws the entries
    that repeat a value earlier in their row, until no row repeats one.
    Which entries are redrawn depends only on which values are equal, so
    the law of the result is unchanged by any relabeling of [0, size):
    uniform over ordered k-tuples of distinct values. Past half the pool
    the size - k positions left out are drawn instead, which keeps each
    entry's chance of a repeat under one half; the kept positions come
    out sorted.
    """
    if k > size // 2:
        return _complement_rows(_distinct_rows(size, size - k, count, rng), size)
    if k == 0:
        return np.empty((count, 0), dtype=np.int64)
    rows = rng.integers(size, size=(count, k))
    todo = np.arange(count)  # the rows that may still repeat a value
    while True:
        # an unstable sort finds the rows with a repeat, a stable one the
        # repeats themselves: it keeps a value's first entry before the others.
        # Most rows have no repeat, so the dearer stable sort sees few rows.
        ranked = np.sort(rows[todo], axis=1)
        todo = todo[(ranked[:, 1:] == ranked[:, :-1]).any(axis=1)]
        if not todo.size:
            return rows
        sub = rows[todo]
        order = np.argsort(sub, axis=1, kind="stable")
        ranked = np.take_along_axis(sub, order, axis=1)
        row, col = np.nonzero(ranked[:, 1:] == ranked[:, :-1])
        rows[todo[row], order[row, col + 1]] = rng.integers(size, size=row.size)
        todo = np.unique(todo[row])


def _complement_rows(left_out: np.ndarray, size: int) -> np.ndarray:
    """Each row's positions in [0, size) that are not in that row, ascending.

    With a row's left-out positions sorted as e_0 < e_1 < ..., the i-th kept
    position is i plus the number of t with e_t - t <= i. Offsetting row r's
    values of e_t - t (which lie in [0, k]) by r(k + 1) makes them one
    ascending array, so one searchsorted counts them for every row.
    """
    count, m = left_out.shape
    k = size - m
    offsets = np.arange(count)[:, None] * (k + 1)
    gaps = (np.sort(left_out, axis=1) - np.arange(m) + offsets).ravel()
    below = np.searchsorted(gaps, (np.arange(k) + offsets).ravel(), side="right")
    return np.arange(k) + below.reshape(count, k) - np.arange(count)[:, None] * m


def _query_features(table: Table) -> np.ndarray:
    """5 x rows integer contributions to the query's sums, in query order."""
    return np.stack([table.age, table.education_num, table.never_married,
                     table.female, table.hours_per_week]).astype(np.int64)


def _gather_queries(features: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """The query of each row of indices into the columns of features.

    Sums are exact in int64 and gathered one component at a time, so no
    rows x n x 5 array is built; dividing in float64 rounds as int(sum) / n.
    """
    n = indices.shape[1]
    sums = np.empty((len(indices), len(features)), dtype=np.int64)
    for j, column in enumerate(features):
        sums[:, j] = column[indices].sum(axis=1)
    return sums / np.array([n, n, 1, 1, n], dtype=float)


class SubsetSampler:
    """Stratified subsets of one table by one property, drawn in batches.

    The strata and the table's query features are computed once. A batch
    of subsets takes a number of generator calls that does not grow with
    its size: each stratum draws all its subsets' positions at once (see
    `_distinct_rows`), positives first. The rows of a batch are independent
    and each is uniform over the stratified subsets, but a batch of k rows
    draws other values than k one-row batches from the same generator.
    """

    def __init__(self, table: Table, which: str):
        self.which = which
        mask = table.property_mask(which)
        self.strata = np.flatnonzero(mask), np.flatnonzero(~mask)
        self.features = _query_features(table)

    def draw(self, p: float, n: int, count: int, rng: np.random.Generator):
        """(count x n indices, count x 5 queries) of count subsets of n
        records with exactly round(n*p) positives.

        Rounding is half-to-even. Both strata are drawn uniformly without
        replacement, so the subset proportion is exact, not binomial. A
        stratum too small for its share raises SamplingError before the
        generator is used.
        """
        prop = PropertySpec(self.which, p)
        n_pos = int(round(n * prop.p))
        shares = (n_pos, n - n_pos)
        for pool, k, side in zip(self.strata, shares, ("positive", "negative")):
            if len(pool) < k:
                raise SamplingError(
                    f"table has {len(pool)} records with {self.which} {side}; need {k}")
        indices = np.hstack([pool[_distinct_rows(len(pool), k, count, rng)]
                             for pool, k in zip(self.strata, shares)])
        return indices, _gather_queries(self.features, indices)


def sample_subset_indices(
    table: Table, prop: PropertySpec, n: int, rng: np.random.Generator
) -> np.ndarray:
    """Indices of a subset of size n with exactly round(n*p) positives: a
    one-row `SubsetSampler.draw`, drawing from rng as that does."""
    return SubsetSampler(table, prop.which).draw(prop.p, n, 1, rng)[0][0]


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


def read_json(path, parse=None, data=None):
    """The document in the JSON file at `path`, passed through `parse` if given.

    `data`, if given, is the file's bytes as the caller read them, and is
    parsed in place of the file. Text that is not JSON, and a `parse` that
    finds a key missing or a value of the wrong shape, raise FormatError
    naming the file.
    """
    try:
        if data is None:
            with open(path, "rb") as fh:
                data = fh.read()
        doc = json.loads(data.decode("utf-8"))
        return doc if parse is None else parse(doc)
    except KeyError as exc:
        raise FormatError(f"{path}: missing key {exc}") from exc
    except (IndexError, TypeError, ValueError, OverflowError) as exc:
        raise FormatError(f"{path}: {exc}") from exc


def _query_vector(doc) -> np.ndarray:
    value = np.asarray(doc, dtype=float)
    if (value.ndim != 1 or value.size == 0 or not np.all(np.isfinite(value))
            or any(isinstance(x, bool) for x in doc)):
        raise ValueError("query must be a nonempty JSON array of finite numbers")
    return value


def load_query_json(path) -> np.ndarray:
    """A query vector from a file holding a nonempty JSON array of finite numbers."""
    return read_json(path, _query_vector)


@contextmanager
def output_file(path):
    """Yield a text buffer whose contents become the file at `path`.

    A file that already holds the same bytes is left untouched, so a
    rerun rewrites nothing. Otherwise the bytes go to a temporary file
    beside the target, which is renamed over it, so a crash or a
    concurrent writer never leaves a truncated file under the name. If
    the body raises, nothing is written.
    """
    path = Path(path)
    buf = io.StringIO()
    yield buf
    data = buf.getvalue().encode("utf-8")
    try:
        if path.read_bytes() == data:
            return
    except FileNotFoundError:
        pass
    # A fresh name opened exclusively, not mkstemp, so the file gets the
    # umask's permissions as open(path, "w") would give it, not 0600.
    tmp = path.with_name(f".{path.name}.{secrets.token_hex(8)}.tmp")
    try:
        with open(tmp, "xb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
