import logging
import math
import re
import statistics
import time
from collections import Counter

import numpy as np
import pytest

from distpriv import dataio
from distpriv.cli import ExperimentConfig, load_dataset
from distpriv.dataio import (
    CANONICAL_ROW_COUNT,
    PropertySpec,
    SubsetSampler,
    Table,
    compute_query,
    dataset_sha256,
    load_adult,
    load_query_json,
    load_simple_csv,
    sample_subset_indices,
    split_dataset,
)
from distpriv.errors import ConfigError, FormatError, ParseError, SamplingError
from distpriv.seeding import derive_rng

from helpers import adult_row as make_row
from helpers import synthetic_census_table, write_adult_files, write_simple_csv
from oracles import oracle_load_adult


def write_adult_file(path, rows):
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return path


FIELDS = ("age", "education_num", "never_married", "female",
          "hours_per_week", "income_gt_50k", "private_workclass")


def columns(table):
    return {name: getattr(table, name).tolist() for name in FIELDS}


def sample_subset(table, prop, n, rng):
    return table.take(sample_subset_indices(table, prop, n, rng))


class TestLoadAdult:
    def test_field_mapping(self, tmp_path):
        rows = [make_row()]
        table = load_adult(write_adult_file(tmp_path / "adult.csv", rows))
        assert columns(table) == {
            "age": [39], "education_num": [13], "never_married": [True], "female": [False],
            "hours_per_week": [40], "income_gt_50k": [False], "private_workclass": [False],
        }

    def test_private_female_high_income(self, tmp_path):
        rows = [make_row(workclass="Private", marital="Married-civ-spouse",
                         sex="Female", label=">50K")]
        table = load_adult(write_adult_file(tmp_path / "a.csv", rows))
        assert table.private_workclass[0] and table.female[0] and table.income_gt_50k[0]
        assert not table.never_married[0]

    def test_test_file_label_suffix_normalized(self, tmp_path):
        rows = [make_row(label=">50K."), make_row(label="<=50K.")]
        table = load_adult(write_adult_file(tmp_path / "a.csv", rows))
        assert table.income_gt_50k.tolist() == [True, False]

    def test_missing_marker_dropped(self, tmp_path, caplog):
        rows = [make_row(), make_row(workclass="?")]
        with caplog.at_level(logging.WARNING):
            table = load_adult(write_adult_file(tmp_path / "a.csv", rows))
        assert len(table) == 1
        assert "1 rows with missing" in caplog.text

    def test_out_of_range_dropped_with_warning(self, tmp_path, caplog):
        rows = [make_row(), make_row(age=16), make_row(hours=120)]
        with caplog.at_level(logging.WARNING):
            table = load_adult(write_adult_file(tmp_path / "a.csv", rows))
        assert len(table) == 1
        assert "2 rows with out-of-range" in caplog.text

    def test_comment_and_blank_lines_skipped(self, tmp_path):
        rows = ["|1x3 Cross validator", "", make_row()]
        table = load_adult(write_adult_file(tmp_path / "a.csv", rows))
        assert len(table) == 1

    def test_wrong_column_count(self, tmp_path):
        rows = [make_row(), "1, 2, 3"]
        with pytest.raises(FormatError) as err:
            load_adult(write_adult_file(tmp_path / "a.csv", rows))
        assert err.value.line == 2

    def test_malformed_integer(self, tmp_path):
        rows = [make_row().replace("39", "thirty-nine", 1)]
        with pytest.raises(ParseError) as err:
            load_adult(write_adult_file(tmp_path / "a.csv", rows))
        assert err.value.line == 1

    def test_canonical_count_enforced(self, tmp_path):
        # load_adult reads any count; a sweep config's Adult table must
        # hold the canonical one.
        path = write_adult_file(tmp_path / "a.csv", [make_row()])
        assert len(load_adult(path)) == 1
        cfg = ExperimentConfig.from_dict({
            "dataset": str(path), "dataset_format": "adult", "seed": 7, "property": "income",
            "p_center": 0.5, "delta_p": [0.1], "epsilon": [1.0], "delta": [0.001],
            "mechanisms": ["none"], "n": 100, "modeling_samples": 200, "repetitions": 4,
            "out_dir": str(tmp_path / "out"),
        })
        with pytest.raises(ConfigError, match=f"canonical {CANONICAL_ROW_COUNT}"):
            load_dataset(cfg)

    def test_directory_mode_wants_both_files(self, tmp_path):
        write_adult_file(tmp_path / "adult.data", [make_row()])
        with pytest.raises(FileNotFoundError):
            load_adult(tmp_path)

    def test_missing_path(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_adult(tmp_path / "nope.csv")


def with_fields(replace, **row):
    """An Adult row whose fields at the keys of `replace` hold its values
    verbatim, surrounding spaces included."""
    fields = make_row(**row).split(",")
    for position, text in replace.items():
        fields[position] = text
    return ",".join(fields)


def lines(rows, end="\n"):
    return "".join(row + end for row in rows)


# Rows of every kind the loader keeps or drops, for the larger files below.
MIXED_ROWS = [
    make_row(),
    make_row(workclass="Private", marital="Married-civ-spouse", sex="Female", label=">50K"),
    make_row(workclass="?"),
    make_row(age=16),
    make_row(hours=99, label=">50K."),
    with_fields({12: " 0040", 14: " <=50K."}),
    "",
    "|a comment, with, commas",
]
BIG_ROWS = [MIXED_ROWS[k % len(MIXED_ROWS)] for k in range(6000)]
# A row holding the byte 0xff, which UTF-8 never uses (written as latin-1).
NOT_UTF8 = make_row(workclass="Priv\xffate")


def big_with(replace):
    """BIG_ROWS with the rows at the keys of `replace` (file line numbers)
    replaced; every one of them lies past the first parse block."""
    rows = list(BIG_ROWS)
    for line, row in replace.items():
        assert len(lines(rows[:line - 1]).encode()) > dataio._BLOCK_BYTES
        rows[line - 1] = row
    return lines(rows)


ADULT_PAIR = {
    "adult.data": lines([make_row(), make_row(workclass="?"), make_row(age=91)]),
    "adult.test": lines(["|1x3 Cross validator", make_row(label=">50K."),
                         make_row(label="<=50K.")]),
}

# Files the row loop reads, each as {file name: text}; one name is a
# single-file dataset, two are a directory.
ACCEPTED = {
    "crlf": {"a.csv": lines([make_row(), make_row(label=">50K."), "", make_row(workclass="?")],
                            end="\r\n")},
    "blank-and-comment-lines": {"a.csv": lines([
        "", "   ", "\t \x0c", "|1x3 Cross validator", "  |indented, comment", "|" + make_row(),
        make_row(), "\t", make_row(age=50)])},
    "whole-field-missing-marker": {"a.csv": lines(
        [with_fields({j: " ?"}) for j in range(15)]
        + [with_fields({0: "?"}), with_fields({14: " ?\t"}), with_fields({7: "?  "}),
           with_fields({0: "abc", 1: " ?"}), make_row()])},
    "question-mark-inside-a-field": {"a.csv": lines([
        with_fields({1: " ?x"}), with_fields({3: " x?"}), with_fields({5: " ??"}),
        with_fields({7: " a ? b"}), with_fields({14: " >50K?"}), with_fields({9: " ?Female"})])},
    "labels": {"a.csv": lines([make_row(label=label) for label in (
        ">50K", ">50K.", "<=50K", "<=50K.", ">50K..", ">50K. ", ">50K .", ">50k", ".>50K",
        "50K")])},
    "integers": {"a.csv": lines([
        make_row(age="039"), make_row(age="+39"), make_row(age="-39"), make_row(age="0"),
        make_row(age="-0"), make_row(age="17"), make_row(age="90"), make_row(age="91"),
        make_row(age="+017"), make_row(edu="0013"), make_row(edu="+1"), make_row(edu="16"),
        make_row(edu="17"), make_row(edu="0"), make_row(hours="0040"), make_row(hours="99"),
        make_row(hours="100"), make_row(hours="-1"), make_row(hours="+0099"),
        make_row(age="123456789012345678"), make_row(hours="000000000000000001")])},
    # Out of range, but in range if a digit times its place value wrapped
    # in a byte: 300 as 44, 10030 as 46, 340 as 84, 10040 as 56.
    "integers-past-a-byte": {"a.csv": lines([
        make_row(age="300"), make_row(age="10030"), make_row(hours="340"),
        make_row(hours="10040"), make_row()])},
    "ascii-whitespace-around-fields": {"a.csv": lines([
        with_fields({0: "\t39\x0b", 1: "\x0cPrivate\x1c", 4: " \x1d13\x1e", 9: "\x1fFemale ",
                     14: " >50K.\t"}),
        with_fields({0: "39", 5: "Never-married", 12: "40 "})])},
    "non-ascii-inside-fields": {"a.csv": lines([
        with_fields({13: " C\u00f4te-d'Ivoire"}), with_fields({1: " Privat\u00e9"}),
        with_fields({3: " Bach\u00a0elors"})])},
    "no-trailing-newline": {"a.csv": lines([make_row(), make_row(age=40)]) + make_row(age=41)},
    "empty-file": {"a.csv": ""},
    "no-row-kept": {"a.csv": lines(["|a comment", "", make_row(workclass="?")])},
    "several-blocks": {"a.csv": lines(BIG_ROWS)},
    "directory-pair": ADULT_PAIR,
    "near-miss-words": {"a.csv": lines([
        make_row(workclass="Privatf"), make_row(workclass="Private"), make_row(sex="Femald"),
        make_row(sex="Female"), make_row(label=">50J"), make_row(label=">50J."),
        make_row(label=">50K"), make_row(marital="Never-marrieD"),
        make_row(marital="Never-married"), make_row(workclass="Qrivate"),
        make_row(marital="Never-marriedd"), make_row(sex="Femal")])},
    "whitespace-runs-around-fields": {"a.csv": lines([
        with_fields({0: " \t\x0b39 \x1c", 1: "\x1d\x1e\x1fPrivate\t\t", 4: "  13\x0c\x0b",
                     5: "\t Never-married  ", 9: "\x1c\x1cFemale\x1f\x1f", 12: "\x0b\x0c40\t ",
                     14: "  >50K.\x1e\x1d"}),
        with_fields({3: " \t\x0b\x0c\x1c\x1d\x1e\x1f?\x1f\x1e\x1d\x1c\x0c\x0b\t "}),
        "\x0b\x0c\x1c\x1d" + make_row() + "\x1e\x1f\t  "])},
}

# Files the row loop refuses: the file's text, and the error's type and line.
REFUSED = {
    "too-few-fields": ({"a.csv": lines([make_row(), make_row(), "1, 2, 3", make_row()])},
                       FormatError, 3),
    "too-many-fields": ({"a.csv": lines([make_row(), make_row() + ", extra"])}, FormatError, 2),
    "only-commas": ({"a.csv": lines([make_row(), "," * 14])}, ParseError, 2),
    "empty-integer": ({"a.csv": lines([make_row(), with_fields({12: " "})])}, ParseError, 2),
    "words-for-integers": ({"a.csv": lines(
        [make_row()] + [make_row(edu=text) for text in ("thirty", "3.0", "1e2", "- 5", "+", "0x10",
                                                         "++5", "-+5", "5-")])},
        ParseError, 2),
    "bad-integer-before-bad-count": ({"a.csv": lines([make_row(), make_row(hours="x"), "1,2"])},
                                     ParseError, 2),
    "bad-count-before-bad-integer": ({"a.csv": lines([make_row(), "1,2", make_row(hours="x")])},
                                     FormatError, 2),
    "bad-count-in-a-later-block": ({"a.csv": big_with({5000: "1, 2", 5500: make_row(age="x")})},
                                   FormatError, 5000),
    "bad-integer-in-a-later-block": ({"a.csv": big_with({5000: make_row(age="x"),
                                                         5500: "1, 2"})}, ParseError, 5000),
    "bad-integer-just-before-bad-count": ({"a.csv": big_with({4000: make_row(edu="x"),
                                                              4003: "1, 2"})}, ParseError, 4000),
    "error-in-the-second-file": ({**ADULT_PAIR, "adult.test": ADULT_PAIR["adult.test"] + "1, 2\n"},
                                 FormatError, 4),
}


def write_corpus(tmp_path, files):
    for name, text in files.items():
        (tmp_path / name).write_bytes(text.encode("utf-8"))
    return tmp_path / "a.csv" if len(files) == 1 else tmp_path


def logged_drops(caplog):
    """(missing, out of range) as load_adult logged them."""
    counts = {"missing": 0, "out-of-range": 0}
    for record in caplog.records:
        for kind in counts:
            if f"rows with {kind}" in record.getMessage():
                counts[kind] = record.args[0]
    return counts["missing"], counts["out-of-range"]


# The ASCII whitespace str.strip removes that can stand inside a line. A
# carriage return stands only before a newline: alone, the row loop reads
# it as a line end and load_adult refuses it.
BLANKS = list(" \t\x0b\x0c\x1c\x1d\x1e\x1f")
# Values of the read word fields, by position, each beside near misses.
WORDS = {
    1: ["Private", "Privatf", "Qrivate", "Privat", "Private.", "Self-emp-not-inc", "?x"],
    5: ["Never-married", "Never-marrieD", "Never-marrie", "Never-marriedd", "Married-civ-spouse"],
    9: ["Female", "Femald", "Male", "female", "Female?"],
    14: [">50K", ">50K.", ">50K..", "<=50K", "<=50K.", ">50J", ">50J.", ".>50K", ">50K?"],
}
# The integer fields by position, each with a range of values a little
# wider than the loader keeps.
INTEGER_FIELDS = {0: (10, 95), 4: (0, 18), 12: (0, 101)}


def random_adult_text(rng):
    """The text of a small Adult file of seeded random lines, and the file
    lines of its kept rows that write an integer in more than 18 digits,
    which the row loop reads and load_adult refuses."""
    def blanks():
        return "".join(rng.choice(BLANKS, size=rng.integers(0, 4)))

    def integer(low, high):
        value = rng.integers(low, high + 1) if rng.random() < 0.97 else rng.integers(10**18)
        # Mostly unpadded; now and then zero-padded to up to 18 digits, or to 19.
        width = rng.integers(1, 19) if rng.random() < 0.15 else 19 if rng.random() < 0.003 else 0
        return str(rng.choice(["", "+", "-"], p=[0.8, 0.1, 0.1])) + str(value).zfill(width)

    rows, too_long = [], []
    for line in range(1, rng.integers(1, 40) + 1):
        kind = rng.random()
        if kind < 0.05:
            rows.append(blanks())
            continue
        if kind < 0.1:
            rows.append(blanks() + "|" + make_row())
            continue
        fields = [str(rng.choice(["77516", "Bachelors", "x", "", "?x", "a b"])) for _ in range(15)]
        for j, bounds in INTEGER_FIELDS.items():
            fields[j] = integer(*bounds)
        for j, words in WORDS.items():
            fields[j] = str(rng.choice(words))
        missing = rng.random() < 0.1
        if missing:
            fields[rng.integers(15)] = "?"
        if rng.random() < 0.005:
            fields[rng.choice(list(INTEGER_FIELDS))] = str(rng.choice(["4x", "", "+", "- 5", "1.0"]))
        if rng.random() < 0.005:
            fields = fields[:-1] if rng.random() < 0.5 else fields + ["x"]
        rows.append(",".join(blanks() + field + blanks() for field in fields))
        if (len(fields) == 15 and not missing
                and any(len(fields[j].lstrip("+-")) > 18 for j in INTEGER_FIELDS)):
            too_long.append(line)
    end = "\r\n" if rng.random() < 0.3 else "\n"
    text = end.join(rows) + (end if rng.random() < 0.8 else "")
    return text, too_long


def outcome(load, path, caplog):
    """The columns (dtype and values) and drop counts of the table load reads
    at path, or the type and line of the error it raises."""
    caplog.clear()
    try:
        with caplog.at_level(logging.WARNING, logger="distpriv.dataio"):
            result = load(path)
    except ParseError as exc:
        return type(exc), exc.line
    table, drops = (result[0], result[1:]) if load is oracle_load_adult else (
        result, logged_drops(caplog))
    return ({name: (getattr(table, name).dtype, getattr(table, name).tolist()) for name in FIELDS},
            tuple(drops))


class TestAdultParser:
    """load_adult against the row loop it replaced (`oracle_load_adult`)."""

    @pytest.mark.parametrize("case", sorted(ACCEPTED))
    def test_matches_the_row_loop(self, tmp_path, caplog, case):
        path = write_corpus(tmp_path, ACCEPTED[case])
        expected, missing, out_of_range = oracle_load_adult(path)
        with caplog.at_level(logging.WARNING, logger="distpriv.dataio"):
            table = load_adult(path)
        for name in FIELDS:
            assert getattr(table, name).dtype == getattr(expected, name).dtype
            assert getattr(table, name).tolist() == getattr(expected, name).tolist(), name
        assert logged_drops(caplog) == (missing, out_of_range)

    @pytest.mark.parametrize("seed", range(10))
    def test_random_files_match_the_row_loop(self, tmp_path, caplog, monkeypatch, seed):
        rng = np.random.default_rng([seed, 0xADA17])
        for k in range(20):
            text, too_long = random_adult_text(rng)
            path = tmp_path / f"{k}.csv"
            path.write_bytes(text.encode("utf-8"))
            # Blocks this small cut the file inside lines and at their ends.
            monkeypatch.setattr(dataio, "_BLOCK_BYTES", int(rng.integers(48, 1024)))
            expected = outcome(oracle_load_adult, path, caplog)
            if too_long and (isinstance(expected[0], dict) or too_long[0] < expected[1]):
                expected = ParseError, too_long[0]
            assert outcome(load_adult, path, caplog) == expected, (seed, k, text)

    def test_a_line_across_many_blocks(self, tmp_path, caplog, monkeypatch):
        long_row = with_fields({2: " " * 6000 + "77516", 9: "Female" + "\t" * 6000})
        rows = [make_row(), long_row, make_row(age=50), long_row]
        path = tmp_path / "a.csv"
        path.write_text(lines(rows)[:-1], encoding="utf-8")
        monkeypatch.setattr(dataio, "_BLOCK_BYTES", 64)
        # Every line is longer than a block, so each comes as a block of its
        # own; the last, which has no newline, is given one.
        blocks = [bytes(block)[1:-dataio._PAD] for block in dataio._newline_blocks(path)]
        assert blocks == [lines([row]).encode() for row in rows]
        assert outcome(load_adult, path, caplog) == outcome(oracle_load_adult, path, caplog)

    @pytest.mark.parametrize("case", sorted(REFUSED))
    def test_errors_match_the_row_loop(self, tmp_path, case):
        files, error, line = REFUSED[case]
        path = write_corpus(tmp_path, files)
        for load in (oracle_load_adult, load_adult):
            with pytest.raises(ParseError) as err:
                load(path)
            assert (type(err.value), err.value.line) == (error, line)

    @pytest.mark.parametrize("row, error", [
        (make_row(age="3_9"), ParseError),
        (make_row(age="\uff13\uff19"), ParseError),
        (make_row(hours="\u0664\u0660"), ParseError),
        (make_row(age="0" * 17 + "39"), ParseError),
        (make_row(workclass="Private\u00a0"), FormatError),
        (with_fields({0: "\u300039"}), FormatError),
        (make_row() + "\r" + make_row(), FormatError),
    ], ids=["underscore", "fullwidth-digits", "arabic-indic-digits", "nineteen-digits",
            "no-break-space", "ideographic-space", "bare-carriage-return"])
    def test_forms_the_row_loop_read_now_raise(self, tmp_path, row, error):
        path = write_adult_file(tmp_path / "a.csv", [make_row(), row, make_row()])
        oracle_load_adult(path)
        with pytest.raises(error) as err:
            load_adult(path)
        assert err.value.line == 2

    @pytest.mark.parametrize("replace, error, line", [
        ({3: NOT_UTF8}, FormatError, 3),
        ({5000: NOT_UTF8}, FormatError, 5000),
        ({2: make_row(age="x"), 3: NOT_UTF8}, ParseError, 2),
        ({2: NOT_UTF8, 3: make_row(age="x")}, FormatError, 2),
        ({2: NOT_UTF8, 4: "1, 2"}, FormatError, 2),
    ], ids=["first-block", "later-block", "bad-integer-first", "bad-byte-first",
            "bad-byte-before-bad-count"])
    def test_bytes_that_are_not_utf8(self, tmp_path, replace, error, line):
        # The earliest bad line is named, whatever is wrong with it.
        rows = [make_row()] * (6000 if line > 100 else 5)
        path = tmp_path / "a.csv"
        path.write_bytes(b"".join(
            replace.get(k, row).encode("latin-1") + b"\n" for k, row in enumerate(rows, start=1)))
        with pytest.raises(error, match="a.csv") as err:
            load_adult(path)
        assert type(err.value) is error and err.value.line == line
        if error is FormatError:
            assert "not UTF-8" in str(err.value)

    @pytest.mark.timing
    def test_at_most_three_tenths_of_the_row_loop_time(self, tmp_path):
        table = synthetic_census_table(CANONICAL_ROW_COUNT, seed=17)
        path = write_adult_files(tmp_path / "adult", table, missing=3620, seed=17)
        assert columns(load_adult(path)) == columns(table)
        fast, slow = [], []
        for _ in range(5):
            for load, times in ((load_adult, fast), (oracle_load_adult, slow)):
                start = time.perf_counter()
                load(path)
                times.append(time.perf_counter() - start)
        assert statistics.median(fast) <= 0.3 * statistics.median(slow)


class TestDatasetDigest:
    def test_follows_the_bytes(self, tmp_path):
        path = write_adult_file(tmp_path / "a.csv", [make_row()])
        first = dataset_sha256(path)
        assert dataset_sha256(path) == first
        write_adult_file(path, [make_row(age=40)])
        assert dataset_sha256(path) != first

    def test_directory_covers_both_files(self, tmp_path):
        write_adult_file(tmp_path / "adult.data", [make_row()])
        write_adult_file(tmp_path / "adult.test", [make_row(label=">50K.")])
        first = dataset_sha256(tmp_path)
        write_adult_file(tmp_path / "adult.test", [make_row(label="<=50K.")])
        assert dataset_sha256(tmp_path) != first

    def test_missing_files_raise(self, tmp_path):
        write_adult_file(tmp_path / "adult.data", [make_row()])
        with pytest.raises(FileNotFoundError):
            dataset_sha256(tmp_path)
        with pytest.raises(FileNotFoundError):
            dataset_sha256(tmp_path / "nope.csv", "simple")


class TestSimpleCsv:
    def test_round_trip(self, tmp_path):
        table = synthetic_census_table(200, seed=1)
        path = write_simple_csv(table, tmp_path / "t.csv")
        back = load_simple_csv(path)
        assert columns(back) == columns(table)

    def test_missing_columns_rejected(self, tmp_path):
        (tmp_path / "bad.csv").write_text("age,female\n39,1\n", encoding="utf-8")
        with pytest.raises(FormatError):
            load_simple_csv(tmp_path / "bad.csv")

    def test_bad_boolean_rejected_with_line(self, tmp_path):
        table = synthetic_census_table(2, seed=2)
        path = write_simple_csv(table, tmp_path / "t.csv")
        text = path.read_text().splitlines()
        text[2] = text[2].replace(text[2].split(",")[2], "maybe", 1)
        path.write_text("\n".join(text) + "\n")
        with pytest.raises(ParseError) as err:
            load_simple_csv(path)
        assert err.value.line == 3

    @staticmethod
    def write_with(path, **values):
        """A three-row simple CSV whose last row takes the given column values."""
        cols = columns(synthetic_census_table(3, seed=2))
        for name, value in values.items():
            cols[name][-1] = value
        return write_simple_csv(Table(**cols), path)

    @pytest.mark.parametrize("column,value,bounds", [
        ("age", 91, "[17, 90]"), ("age", 16, "[17, 90]"), ("age", 200, "[17, 90]"),
        ("age", -5, "[17, 90]"), ("education_num", 17, "[1, 16]"), ("education_num", 0, "[1, 16]"),
        ("hours_per_week", 100, "[1, 99]"), ("hours_per_week", 0, "[1, 99]"),
    ])
    def test_values_outside_the_query_bounds_rejected(self, tmp_path, column, value, bounds):
        path = self.write_with(tmp_path / "t.csv", **{column: value})
        message = f"{column} {value} outside its bounds {bounds}"
        with pytest.raises(ParseError, match=re.escape(message)) as err:
            load_simple_csv(path)
        assert err.value.line == 4

    def test_bytes_that_are_not_utf8(self, tmp_path):
        path = write_simple_csv(synthetic_census_table(3, seed=2), tmp_path / "t.csv")
        path.write_bytes(path.read_bytes().replace(b"\n", b"\n\xff", 1))
        with pytest.raises(FormatError, match="t.csv: not UTF-8"):
            load_simple_csv(path)

    def test_query_bounds_are_inclusive(self, tmp_path):
        for ends in ({"age": 17, "education_num": 1, "hours_per_week": 1},
                     {"age": 90, "education_num": 16, "hours_per_week": 99}):
            table = load_simple_csv(self.write_with(tmp_path / "t.csv", **ends))
            assert {name: getattr(table, name)[-1] for name in ends} == ends


class TestQueryJson:
    def test_vector_loads(self, tmp_path):
        path = tmp_path / "q.json"
        path.write_text("[40.0, 10, 30.5]")
        assert load_query_json(path).tolist() == [40.0, 10.0, 30.5]

    @pytest.mark.parametrize("text", [
        "[NaN, 1.0, 2.0]", "[1.0, Infinity]", "[[1.0, 2.0]]", "[[1.0], [2.0, 3.0]]",
        '["x", 1.0]', '{"a": 1.0}', "3.0", "[]", "[1.0,", "[true, 1.0]", "[null]",
        "[1e999999]", "[" + "9" * 400 + "]",
    ], ids=lambda text: text[:24])
    def test_non_vector_rejected(self, tmp_path, text):
        path = tmp_path / "q.json"
        path.write_text(text)
        with pytest.raises(FormatError):
            load_query_json(path)


class TestSplitDataset:
    def test_sizes_partition_the_table(self):
        table = synthetic_census_table(25_000, seed=3)
        splits = split_dataset(table, seed=9)
        assert (len(splits.aux), len(splits.test), len(splits.modeling)) == (10_000, 10_000, 5_000)
        # the split is a permutation, so column sums are conserved
        for col in ("age", "hours_per_week"):
            total = sum(int(getattr(part, col).sum()) for part in
                        (splits.aux, splits.test, splits.modeling))
            assert total == int(getattr(table, col).sum())

    def test_deterministic_per_seed(self):
        table = synthetic_census_table(21_000, seed=4)
        a = split_dataset(table, seed=5)
        b = split_dataset(table, seed=5)
        assert np.array_equal(a.aux.age, b.aux.age)
        assert np.array_equal(a.modeling.hours_per_week, b.modeling.hours_per_week)

    def test_different_seeds_differ(self):
        table = synthetic_census_table(21_000, seed=4)
        a = split_dataset(table, seed=5)
        b = split_dataset(table, seed=6)
        assert not np.array_equal(a.aux.age, b.aux.age)

    def test_too_few_rows(self):
        with pytest.raises(ValueError):
            split_dataset(synthetic_census_table(500, seed=7), seed=0)


class TestSampling:
    def test_exact_stratification(self):
        table = synthetic_census_table(5_000, seed=8)
        rng = derive_rng(0, "strat")
        subset = sample_subset(table, PropertySpec("income", 0.45), 100, rng)
        assert int(subset.income_gt_50k.sum()) == 45

    def test_zero_proportion(self):
        table = synthetic_census_table(5_000, seed=8)
        subset = sample_subset(table, PropertySpec("income", 0.0), 100, derive_rng(1))
        assert int(subset.income_gt_50k.sum()) == 0

    def test_half_proportion_always_exact(self):
        table = synthetic_census_table(5_000, seed=8)
        for rep in range(10):
            subset = sample_subset(table, PropertySpec("income", 0.5), 100, derive_rng(2, rep))
            assert int(subset.income_gt_50k.sum()) == 50

    def test_insufficient_class_named(self):
        table = synthetic_census_table(200, seed=9)
        with pytest.raises(SamplingError) as err:
            sample_subset_indices(table, PropertySpec("income", 1.0), 150, derive_rng(3))
        assert "income" in str(err.value)

    def test_deterministic_per_seed(self):
        table = synthetic_census_table(5_000, seed=8)
        a = sample_subset_indices(table, PropertySpec("workclass", 0.3), 50, derive_rng(4, "x"))
        b = sample_subset_indices(table, PropertySpec("workclass", 0.3), 50, derive_rng(4, "x"))
        assert np.array_equal(a, b)


class TestComputeQuery:
    def test_two_record_example(self):
        table = Table(age=[30, 50], education_num=[10, 12], never_married=[True, False],
                      female=[True, False], hours_per_week=[40, 60],
                      income_gt_50k=[False, True], private_workclass=[True, False])
        assert np.array_equal(compute_query(table), [40.0, 11.0, 1.0, 1.0, 50.0])

    def test_identical_records(self):
        row = (44, 9, False, True, 35, False, True)
        q = compute_query(Table(*([value] * 7 for value in row)))
        assert np.array_equal(q, [44.0, 9.0, 0.0, 7.0, 35.0])

    def test_permutation_invariance(self):
        table = synthetic_census_table(300, seed=10)
        idx = np.arange(100)
        q1 = compute_query(table.take(idx))
        q2 = compute_query(table.take(idx[::-1]))
        assert np.array_equal(q1, q2)

    def test_components_within_bounds(self):
        table = synthetic_census_table(5_000, seed=11)
        q = compute_query(sample_subset(table, PropertySpec("income", 0.45), 100, derive_rng(5)))
        assert 17 <= q[0] <= 90 and 1 <= q[1] <= 16 and 1 <= q[4] <= 99
        assert 0 <= q[2] <= 100 and 0 <= q[3] <= 100
        assert q[2] == int(q[2]) and q[3] == int(q[3])
        assert np.all(np.isfinite(q))

    def test_empty_subset_rejected(self):
        with pytest.raises(ValueError):
            compute_query(synthetic_census_table(5, seed=12).take([]))


class TestSubsetSampler:
    CASES = [("income", 0.45, 100), ("workclass", 0.3, 37)]

    @pytest.mark.parametrize("which,p,n", CASES)
    def test_rows_are_distinct_and_exactly_stratified(self, which, p, n):
        table = synthetic_census_table(5_000, seed=14)
        indices, queries = SubsetSampler(table, which).draw(p, n, 300, derive_rng(9, which))
        assert indices.shape == (300, n) and indices.dtype == np.int64
        assert queries.shape == (300, 5)
        assert all(len(set(row)) == n for row in indices.tolist())
        assert np.all(table.property_mask(which)[indices].sum(axis=1) == round(n * p))

    @pytest.mark.parametrize("which,p,n", CASES)
    def test_same_generator_gives_the_same_bytes(self, which, p, n):
        sampler = SubsetSampler(synthetic_census_table(5_000, seed=14), which)
        first, second = (sampler.draw(p, n, 25, derive_rng(9, which)) for _ in range(2))
        assert first[0].tobytes() == second[0].tobytes()
        assert first[1].tobytes() == second[1].tobytes()

    def test_sample_subset_indices_is_a_one_row_draw(self):
        table = synthetic_census_table(5_000, seed=14)
        single = sample_subset_indices(table, PropertySpec("workclass", 0.3), 37, derive_rng(4))
        indices, _ = SubsetSampler(table, "workclass").draw(0.3, 37, 1, derive_rng(4))
        assert single.tobytes() == indices[0].tobytes()

    # k = 3 redraws repeats; k = 4, past half the pool, draws the 2 left out
    @pytest.mark.parametrize("k", [3, 4])
    def test_every_subset_of_a_small_pool_is_equally_likely(self, k):
        stats = pytest.importorskip("scipy.stats")
        six = Table(age=range(20, 26), education_num=[9] * 6, never_married=[False] * 6,
                    female=[True] * 6, hours_per_week=[40] * 6, income_gt_50k=[True] * 6,
                    private_workclass=[False] * 6)
        indices, _ = SubsetSampler(six, "income").draw(1.0, k, 20_000, derive_rng(15, k))
        counts = Counter(tuple(sorted(row)) for row in indices.tolist())
        assert len(counts) == math.comb(6, k)
        assert stats.chisquare(list(counts.values())).pvalue > 1e-6

    def test_a_whole_stratum_is_taken_without_drawing(self):
        table = synthetic_census_table(5_000, seed=14)
        positives = np.flatnonzero(table.income_gt_50k)
        rng = derive_rng(16)
        state = rng.bit_generator.state
        indices, _ = SubsetSampler(table, "income").draw(1.0, positives.size, 50, rng)
        assert rng.bit_generator.state == state
        assert np.array_equal(indices, np.tile(positives, (50, 1)))

    # 200 records, 91 of them positive: at p = 0.2 the 30 positives fit and the
    # 120 negatives do not, so a check made only after drawing the positives fails
    @pytest.mark.parametrize("p,side", [(1.0, "positive"), (0.2, "negative")])
    def test_a_small_stratum_raises_before_the_generator_is_used(self, p, side):
        sampler = SubsetSampler(synthetic_census_table(200, seed=9), "income")
        rng = derive_rng(3)
        state = rng.bit_generator.state
        with pytest.raises(SamplingError, match=f"income {side}"):
            sampler.draw(p, 150, 10, rng)
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("which,p,n", CASES)
    def test_queries_are_the_integer_arithmetic(self, which, p, n):
        table = synthetic_census_table(5_000, seed=14)
        indices, queries = SubsetSampler(table, which).draw(p, n, 25, derive_rng(9, which))
        for idx, query in zip(indices, queries):
            subset = table.take(idx)
            assert query.tobytes() == compute_query(subset).tobytes()
            # the Python-integer arithmetic the query is defined by
            reference = [int(subset.age.sum()) / n, int(subset.education_num.sum()) / n,
                         float(int(subset.never_married.sum())),
                         float(int(subset.female.sum())), int(subset.hours_per_week.sum()) / n]
            assert query.tobytes() == np.array(reference).tobytes()


class TestTable:
    def test_immutable(self):
        table = synthetic_census_table(5, seed=13)
        for part in (table, table.take([3, 1])):
            with pytest.raises(ValueError):
                part.age[0] = 99
            with pytest.raises(AttributeError):
                part.age = None


@pytest.mark.adult
class TestCanonicalAdult:
    def test_canonical_row_count(self, adult_table):
        assert len(adult_table) == CANONICAL_ROW_COUNT

    def test_split_sizes(self, adult_splits):
        assert len(adult_splits.aux) == 10_000
        assert len(adult_splits.test) == 10_000
        assert len(adult_splits.modeling) == CANONICAL_ROW_COUNT - 20_000
