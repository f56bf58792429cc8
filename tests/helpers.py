"""Shared builders for tests: synthetic tables, worked-example families."""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

from distpriv.dataio import Table
from distpriv.model import GaussianModel, PairFamily, SecretLabel

WORKED_MEAN_1 = np.array([100.0, 101.0])
WORKED_MEAN_2 = np.array([99.0, 102.0])
WORKED_COV = np.array([[22.0, -6.0], [-6.0, 13.0]])


def worked_example_family() -> PairFamily:
    """Two 2-D Gaussians with a shared covariance and a (1, -1) mean gap."""
    a = SecretLabel("income", 0.45)
    b = SecretLabel("income", 0.55)
    return PairFamily(
        catalog={
            a: GaussianModel(WORKED_MEAN_1, WORKED_COV, 1000),
            b: GaussianModel(WORKED_MEAN_2, WORKED_COV, 1000),
        },
        pairs=[(a, b), (b, a)],
    )


def translation_family(rng: np.random.Generator, m: int = 3, gap=None) -> PairFamily:
    """Random shared-covariance pair family; the two means differ by `gap`."""
    a = rng.normal(size=(m, m))
    cov = a @ a.T + 0.5 * np.eye(m)
    mu = rng.normal(size=m) * 5.0
    if gap is None:
        gap = rng.normal(size=m)
    gap = np.asarray(gap, dtype=float)
    lab_a = SecretLabel("p", 0.45)
    lab_b = SecretLabel("p", 0.55)
    return PairFamily(
        catalog={
            lab_a: GaussianModel(mu, cov, 1000),
            lab_b: GaussianModel(mu - gap, cov, 1000),
        },
        pairs=[(lab_a, lab_b), (lab_b, lab_a)],
    )


def synthetic_census_table(n: int, seed: int) -> Table:
    """Census-shaped table whose income property correlates with the query.

    The correlations are deliberately strong so an undefended property
    inference attack succeeds clearly; the numbers are not meant to
    mimic any real dataset.
    """
    rng = np.random.default_rng(seed)
    income = rng.random(n) < 0.5
    age = np.clip((rng.normal(38, 12, n) + 14 * income).round(), 17, 90).astype(int)
    edu = np.clip((rng.normal(9, 2.5, n) + 3.0 * income).round(), 1, 16).astype(int)
    hours = np.clip((rng.normal(38, 11, n) + 9 * income).round(), 1, 99).astype(int)
    never_married = rng.random(n) < np.where(income, 0.15, 0.45)
    female = rng.random(n) < np.where(income, 0.2, 0.45)
    private = rng.random(n) < 0.7
    return Table(age, edu, never_married, female, hours, income, private)


def write_simple_csv(table: Table, path: Path) -> Path:
    names = (
        "age", "education_num", "never_married", "female",
        "hours_per_week", "income_gt_50k", "private_workclass",
    )
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(names)
        for row in zip(*(getattr(table, name).tolist() for name in names)):
            writer.writerow([int(value) for value in row])
    return path
