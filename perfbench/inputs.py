"""Seeded inputs for the benchmark workloads.

Everything here is generated by the benchmark itself from `--seed`; the
program under test only ever sees the files and objects built from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import List

import numpy as np

ADULT_ROWS = 45222        # rows the Adult loader keeps
ADULT_MISSING = 3620      # rows with a '?' field, dropped by the loader
ADULT_DATA_SHARE = 32561 / 48842  # adult.data / (adult.data + adult.test)

# Income-linked shifts give the release a real signal about the property,
# so the undefended attack wins and the mechanisms have something to hide.
_HIGH_EARNER_SHARE = 0.248


@dataclass(frozen=True)
class AdultColumns:
    """The kept rows of a generated table, column by column, in file order."""

    age: np.ndarray
    education_num: np.ndarray
    never_married: np.ndarray
    female: np.ndarray
    hours_per_week: np.ndarray
    income_gt_50k: np.ndarray
    private_workclass: np.ndarray

    def __len__(self) -> int:
        return len(self.age)


def write_adult(directory: Path, seed: int) -> AdultColumns:
    """Write adult.data and adult.test in the UCI Adult format.

    48,842 rows, of which 3,620 carry a '?' workclass and are dropped by
    the loader, leaving the canonical 45,222. adult.test starts with the
    UCI header line and ends its labels with '.', as the real file does.
    Returns the columns the loader must produce.
    """
    rng = np.random.default_rng([seed, 0xADA17])
    total = ADULT_ROWS + ADULT_MISSING
    income = rng.random(total) < _HIGH_EARNER_SHARE
    age = np.clip(np.round(rng.normal(37.0, 12.0, total) + 8.0 * income), 17, 90).astype(int)
    edu = np.clip(np.round(rng.normal(9.6, 2.4, total) + 2.0 * income), 1, 16).astype(int)
    never_married = rng.random(total) < np.where(income, 0.08, 0.40)
    female = rng.random(total) < np.where(income, 0.15, 0.38)
    hours = np.clip(np.round(rng.normal(39.0, 12.0, total) + 6.0 * income), 1, 99).astype(int)
    private = rng.random(total) < 0.74
    missing = np.zeros(total, dtype=bool)
    missing[rng.choice(total, size=ADULT_MISSING, replace=False)] = True

    lines = []
    for k in range(total):
        workclass = "?" if missing[k] else ("Private" if private[k] else "Self-emp-not-inc")
        marital = "Never-married" if never_married[k] else "Married-civ-spouse"
        sex = "Female" if female[k] else "Male"
        label = ">50K" if income[k] else "<=50K"
        lines.append(
            f"{age[k]}, {workclass}, 77516, Bachelors, {edu[k]}, {marital}, Adm-clerical, "
            f"Not-in-family, White, {sex}, 0, 0, {hours[k]}, United-States, {label}"
        )
    cut = int(round(total * ADULT_DATA_SHARE))
    directory.mkdir(parents=True, exist_ok=True)
    (directory / "adult.data").write_text("\n".join(lines[:cut]) + "\n", encoding="utf-8")
    (directory / "adult.test").write_text(
        "|1x3 Cross validator\n" + "\n".join(line + "." for line in lines[cut:]) + "\n",
        encoding="utf-8",
    )
    keep = ~missing
    return AdultColumns(
        age=age[keep],
        education_num=edu[keep],
        never_married=never_married[keep],
        female=female[keep],
        hours_per_week=hours[keep],
        income_gt_50k=income[keep],
        private_workclass=private[keep],
    )


@dataclass(frozen=True)
class RawInstance:
    """One transport instance before it is handed to the program."""

    name: str
    points_mu: np.ndarray
    mass_mu: List[int]
    points_nu: np.ndarray
    mass_nu: List[int]
    den: int


TRANSPORT_DEN = 10**6
TRANSPORT_DELTA = 0.05
# (dimension, support size per side, instances per seed)
TRANSPORT_SHAPES = ((1, 200, 4), (2, 200, 4), (3, 200, 4), (5, 200, 4))


def _random_masses(rng: np.random.Generator, k: int, den: int) -> List[int]:
    cuts = np.sort(rng.choice(np.arange(1, den), size=k - 1, replace=False))
    return [int(x) for x in np.diff(np.concatenate([[0], cuts, [den]]))]


def budget_test_instance() -> RawInstance:
    """The fixed 200-point 3-D instance of the transport budget test."""
    rng = np.random.default_rng(71)

    def make():
        pts = rng.normal(size=(200, 3)) * 10
        return pts, _random_masses(rng, 200, TRANSPORT_DEN)

    p_mu, m_mu = make()
    p_nu, m_nu = make()
    return RawInstance("budget-3d-200", p_mu, m_mu, p_nu, m_nu, TRANSPORT_DEN)


def transport_instances(seed: int) -> List[RawInstance]:
    """The fixed budget-test instance plus 16 more, laid out by the seed.

    Each of the 16 is a point cloud and a jittered copy of it with
    independent masses, as two neighbouring query distributions would be.
    Their geometry and masses are drawn once, from a constant seed; `seed`
    draws each instance's point order and the sign of each axis, which keep
    every L1 distance bit-identical. Fresh geometry per seed changed the
    solvers' work (flow-network edges built) by a spread of 0.10 between
    seeds, which on top of this host's drift took round_s past its bound.
    Independent clouds, not copies, would also let the covering-radius
    floor end about one solve in eight after a single probe.
    """
    geometry = np.random.default_rng(0x7A5)
    layout = np.random.default_rng([seed, 0x7A5])
    out = [budget_test_instance()]
    for dim, k, count in TRANSPORT_SHAPES:
        for rep in range(count):
            pts = geometry.normal(size=(k, dim)) * 10
            jittered = pts + geometry.normal(size=(k, dim))
            mass_mu = _random_masses(geometry, k, TRANSPORT_DEN)
            mass_nu = _random_masses(geometry, k, TRANSPORT_DEN)
            signs = layout.choice([-1.0, 1.0], size=dim)
            order_mu, order_nu = layout.permutation(k), layout.permutation(k)
            out.append(RawInstance(
                f"{dim}d-{k}-{rep}",
                (pts * signs)[order_mu],
                [mass_mu[i] for i in order_mu],
                (jittered * signs)[order_nu],
                [mass_nu[i] for i in order_nu],
                TRANSPORT_DEN,
            ))
    return out
