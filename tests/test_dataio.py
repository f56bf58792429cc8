import logging
import re

import numpy as np
import pytest

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

from helpers import synthetic_census_table, write_simple_csv

ROW_TEMPLATE = (
    "{age}, {workclass}, 77516, Bachelors, {edu}, {marital}, Adm-clerical,"
    " Not-in-family, White, {sex}, 2174, 0, {hours}, United-States, {label}"
)


def make_row(age=39, workclass="State-gov", edu=13, marital="Never-married",
             sex="Male", hours=40, label="<=50K"):
    return ROW_TEMPLATE.format(
        age=age, workclass=workclass, edu=edu, marital=marital,
        sex=sex, hours=hours, label=label,
    )


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
        table = load_adult(write_adult_file(tmp_path / "adult.csv", rows), allow_variant=True)
        assert columns(table) == {
            "age": [39], "education_num": [13], "never_married": [True], "female": [False],
            "hours_per_week": [40], "income_gt_50k": [False], "private_workclass": [False],
        }

    def test_private_female_high_income(self, tmp_path):
        rows = [make_row(workclass="Private", marital="Married-civ-spouse",
                         sex="Female", label=">50K")]
        table = load_adult(write_adult_file(tmp_path / "a.csv", rows), allow_variant=True)
        assert table.private_workclass[0] and table.female[0] and table.income_gt_50k[0]
        assert not table.never_married[0]

    def test_test_file_label_suffix_normalized(self, tmp_path):
        rows = [make_row(label=">50K."), make_row(label="<=50K.")]
        table = load_adult(write_adult_file(tmp_path / "a.csv", rows), allow_variant=True)
        assert table.income_gt_50k.tolist() == [True, False]

    def test_missing_marker_dropped(self, tmp_path, caplog):
        rows = [make_row(), make_row(workclass="?")]
        with caplog.at_level(logging.WARNING):
            table = load_adult(write_adult_file(tmp_path / "a.csv", rows), allow_variant=True)
        assert len(table) == 1
        assert "1 rows with missing" in caplog.text

    def test_out_of_range_dropped_with_warning(self, tmp_path, caplog):
        rows = [make_row(), make_row(age=16), make_row(hours=120)]
        with caplog.at_level(logging.WARNING):
            table = load_adult(write_adult_file(tmp_path / "a.csv", rows), allow_variant=True)
        assert len(table) == 1
        assert "2 rows with out-of-range" in caplog.text

    def test_comment_and_blank_lines_skipped(self, tmp_path):
        rows = ["|1x3 Cross validator", "", make_row()]
        table = load_adult(write_adult_file(tmp_path / "a.csv", rows), allow_variant=True)
        assert len(table) == 1

    def test_wrong_column_count(self, tmp_path):
        rows = [make_row(), "1, 2, 3"]
        with pytest.raises(FormatError) as err:
            load_adult(write_adult_file(tmp_path / "a.csv", rows), allow_variant=True)
        assert err.value.line == 2

    def test_malformed_integer(self, tmp_path):
        rows = [make_row().replace("39", "thirty-nine", 1)]
        with pytest.raises(ParseError) as err:
            load_adult(write_adult_file(tmp_path / "a.csv", rows), allow_variant=True)
        assert err.value.line == 1

    def test_canonical_count_enforced(self, tmp_path):
        rows = [make_row()]
        with pytest.raises(ConfigError):
            load_adult(write_adult_file(tmp_path / "a.csv", rows))

    def test_directory_mode_wants_both_files(self, tmp_path):
        write_adult_file(tmp_path / "adult.data", [make_row()])
        with pytest.raises(FileNotFoundError):
            load_adult(tmp_path)

    def test_missing_path(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_adult(tmp_path / "nope.csv")


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
    @pytest.mark.parametrize("which,p,n", [("income", 0.45, 100), ("workclass", 0.3, 37)])
    def test_batch_equals_repeated_single_draws(self, which, p, n):
        table = synthetic_census_table(5_000, seed=14)
        indices, queries = SubsetSampler(table, which).draw(p, n, 25, derive_rng(9, which))
        rng = derive_rng(9, which)
        singles = [sample_subset_indices(table, PropertySpec(which, p), n, rng) for _ in range(25)]
        assert indices.dtype == singles[0].dtype
        assert indices.tobytes() == np.stack(singles).tobytes()
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
