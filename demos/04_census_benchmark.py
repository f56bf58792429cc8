#!/usr/bin/env python3
"""End-to-end benchmark on a synthetic census-style table.

Generates a table whose income flag is strongly correlated with the
released statistics, models the query distribution at two protected
income proportions, then measures for each mechanism (a) the utility
cost as mean L2 noise norm and (b) the accuracy of a shadow-dataset
property inference attack against the release.

Swap the synthetic table for the real census files to reproduce the
full benchmark; see the README for where to place them.
"""

import csv
import tempfile
from pathlib import Path

import numpy as np

from distpriv.cli import ExperimentConfig, cmd_attack, cmd_model, cmd_utility

rng = np.random.default_rng(20260808)
n_rows = 30_000
income = rng.random(n_rows) < 0.5
table = {
    "age": np.clip((rng.normal(38, 12, n_rows) + 14 * income).round(), 17, 90).astype(int),
    "education_num": np.clip((rng.normal(9, 2.5, n_rows) + 3 * income).round(), 1, 16).astype(int),
    "never_married": (rng.random(n_rows) < np.where(income, 0.15, 0.45)).astype(int),
    "female": (rng.random(n_rows) < np.where(income, 0.2, 0.45)).astype(int),
    "hours_per_week": np.clip((rng.normal(38, 11, n_rows) + 9 * income).round(), 1, 99).astype(int),
    "income_gt_50k": income.astype(int),
    "private_workclass": (rng.random(n_rows) < 0.7).astype(int),
}


def mean_table(path):
    means = {}
    for line in Path(path).read_text().splitlines()[1:]:
        parts = line.split(",")
        if parts[5] == "mean":
            means[(parts[0], float(parts[1]))] = float(parts[6])
    return means


# The table and the sweep's outputs live in a temporary directory that is
# removed when the sweep is done; only the mean rows are kept.
with tempfile.TemporaryDirectory(prefix="distpriv-demo-") as work:
    workdir = Path(work)
    csv_path = workdir / "synthetic_census.csv"
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(table.keys())
        writer.writerows(zip(*table.values()))
    print(f"Synthetic census table with {n_rows} rows")

    config = ExperimentConfig.from_dict({
        "dataset": str(csv_path),
        "dataset_format": "simple",
        "seed": 7,
        "property": "income",
        "p_center": 0.5,
        "delta_p": [0.1],
        "epsilon": [0.2, 1.0, 5.0],
        "delta": [0.001],
        "mechanisms": ["none", "expm-l", "expm-g", "dir-g", "eig", "dau", "gdp-g"],
        "n": 100,
        "modeling_samples": 500,
        "repetitions": 20,
        "attack": {"repetitions": 5},
        "out_dir": str(workdir / "out"),
    })

    print("\nEstimating query models at income proportions 0.45 and 0.55 ...")
    cmd_model(config)
    print("Running the privacy-utility sweep ...")
    utility = mean_table(cmd_utility(config))
    print("Running the property inference attack ...")
    attack = mean_table(cmd_attack(config))

mechs = ["none", "expm-l", "expm-g", "dir-g", "eig", "dau", "gdp-g"]
print("\nmean L2 noise norm (lower is better utility)")
print(f"{'mechanism':<10}" + "".join(f"  eps={e:<6}" for e in (0.2, 1.0, 5.0)))
for mech in mechs:
    row = "".join(f"  {utility[(mech, e)]:8.2f}" for e in (0.2, 1.0, 5.0))
    print(f"{mech:<10}{row}")

print("\nattack accuracy (0.5 means the property is hidden)")
print(f"{'mechanism':<10}" + "".join(f"  eps={e:<6}" for e in (0.2, 1.0, 5.0)))
for mech in mechs:
    row = "".join(f"  {attack[(mech, e)]:8.3f}" for e in (0.2, 1.0, 5.0))
    print(f"{mech:<10}{row}")

print("\nReading the tables: the direction-aware variants keep utility close to")
print("the unprotected release while pinning the attack near coin-flipping,")
print("and the group-DP baseline pays an order of magnitude more noise.")
