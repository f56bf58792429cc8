"""paper-sweep: model, utility and attack at paper sizes, then a resume."""

from __future__ import annotations

import json
import math
import shutil
import time
from collections import defaultdict
from pathlib import Path
from typing import Dict, List

import numpy as np

import oracles
from common import (
    ATTACK_REPETITIONS, DELTA, EPSILONS, GROUP_SIZE, MECHANISMS, MODELING_SAMPLES,
    P_HIGH, P_LOW, SUBSET_SIZE, TEST_COUNT, UTILITY_REPETITIONS, RoundResult,
    run_cli, sweep_config, write_json,
)
from inputs import write_adult

UTILITY_HEADER = "mechanism,epsilon,delta,property,delta_p,repetition,l2_error"
ATTACK_HEADER = "mechanism,epsilon,delta,property,delta_p,repetition,accuracy"
AUX_SIZE = TEST_SIZE = 10000

CELLS = len(MECHANISMS) * len(EPSILONS)
# operations: one model per protected value, then the cells of each stage
STAGE_OPS = {"model_s": 2, "utility_s": CELLS, "attack_s": CELLS, "resume_s": 2 * CELLS}


class PaperSweep:
    setup_repeats = 5

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.dataset = workdir / "adult"
        self.columns = write_adult(self.dataset, seed)
        self.config = write_json(workdir / "sweep.json", sweep_config(self.dataset, seed))
        self.first_outputs = None

    def setup(self) -> None:
        """What every sweep stage does first: read the table and split it."""
        from distpriv.dataio import load_adult, split_dataset

        self.table = load_adult(self.dataset)
        self.splits = split_dataset(self.table, self.seed)

    def run_round(self, index: int) -> RoundResult:
        out = self.workdir / f"round-{index}"
        result = RoundResult(attempted=sum(STAGE_OPS.values()))
        stages = [("model_s", ("model",)), ("utility_s", ("utility",)),
                  ("attack_s", ("attack",)), ("resume_s", ("utility", "attack"))]
        fresh = None
        for stage, commands in stages:
            if stage == "resume_s":
                fresh = _snapshot(out)
            start = time.perf_counter()
            try:
                for command in commands:
                    run_cli(command, "--config", str(self.config), "--out", str(out))
            except Exception as exc:  # a failed stage fails its cells and the rest
                failed_from = [s for s, _ in stages].index(stage)
                result.failed = sum(STAGE_OPS[s] for s, _ in stages[failed_from:])
                result.problems.append(f"{stage[:-2]} stage raised {exc!r}")
                break
            result.stages[stage] = time.perf_counter() - start
        if not result.problems:
            result.problems = self.check(out, fresh, index)
        shutil.rmtree(out, ignore_errors=True)
        return result

    # --- output checks ------------------------------------------------------

    def check(self, out: Path, fresh: dict, index: int) -> List[str]:
        problems = []
        resumed = _snapshot(out)
        if resumed["csv"] != fresh["csv"]:
            problems.append("resumed CSVs differ from the fresh ones")
        if resumed["cells"] != fresh["cells"]:
            problems.append("the resume rewrote cells")
        if self.first_outputs is None:
            self.first_outputs = fresh["csv"]
            problems += self.check_ingestion()
        elif fresh["csv"] != self.first_outputs:
            problems.append(f"round {index} CSVs differ from round 0 on the same config")
        catalog = json.loads((out / "catalog.json").read_text(encoding="utf-8"))
        problems += self.check_catalog(catalog)
        models = {float(doc["value"]): doc for doc in catalog}
        problems += check_utility(fresh["csv"]["results_utility.csv"], models)
        problems += check_attack(fresh["csv"]["results_attack.csv"])
        return problems

    def modeling_rows(self) -> np.ndarray:
        """Row numbers of the modeling split: the seeded permutation's tail."""
        perm = np.random.default_rng(self.seed).permutation(len(self.columns))
        return perm[AUX_SIZE + TEST_SIZE:]

    def check_ingestion(self) -> List[str]:
        problems = []
        rows = self.modeling_rows()
        for name in ("age", "education_num", "never_married", "female",
                     "hours_per_week", "income_gt_50k", "private_workclass"):
            if not np.array_equal(getattr(self.table, name), getattr(self.columns, name)):
                problems.append(f"load_adult column {name} differs from the written table")
            if not np.array_equal(getattr(self.splits.modeling, name),
                                  getattr(self.columns, name)[rows]):
                problems.append(f"modeling split column {name} differs from the seeded split")
        return problems

    def check_catalog(self, catalog: List[dict]) -> List[str]:
        rows = self.modeling_rows()
        c = self.columns
        features = oracles.query_matrix(c.age[rows], c.education_num[rows], c.never_married[rows],
                                        c.female[rows], c.hours_per_week[rows])
        positive = c.income_gt_50k[rows]
        values = sorted(float(doc["value"]) for doc in catalog)
        if values != [P_LOW, P_HIGH]:
            return [f"catalog holds values {values}, expected {[P_LOW, P_HIGH]}"]
        problems = []
        for doc in catalog:
            mean, cov = oracles.stratified_query_moments(
                features, positive, SUBSET_SIZE, float(doc["value"]))
            problems += oracles.check_model_moments(doc, mean, cov, MODELING_SAMPLES)
        return problems


def _snapshot(out: Path) -> dict:
    """CSV bytes and the (size, mtime, bytes) of every cell file."""
    return {
        "csv": {name: (out / name).read_bytes()
                for name in ("results_utility.csv", "results_attack.csv")
                if (out / name).exists()},
        "cells": {p.name: (p.stat().st_size, p.stat().st_mtime_ns, p.read_bytes())
                  for p in sorted((out / "cells").glob("*.json"))}
        if (out / "cells").exists() else {},
    }


def _parse(csv_bytes: bytes, header: str, what: str):
    """{(mechanism, epsilon): (per-repetition values, mean row value)}."""
    lines = csv_bytes.decode("utf-8").splitlines()
    if not lines or lines[0] != header:
        raise ValueError(f"{what} header {lines[:1]} != {header!r}")
    reps: Dict[tuple, List[float]] = defaultdict(list)
    means: Dict[tuple, float] = {}
    for line in lines[1:]:
        mech, eps, delta, prop, dp, rep, value = line.split(",")
        key = (mech, float(eps))
        if float(delta) != DELTA or prop != "income" or not math.isclose(float(dp), P_HIGH - P_LOW):
            raise ValueError(f"{what}: unexpected cell {line}")
        if rep == "mean":
            means[key] = float(value)
        else:
            if int(rep) != len(reps[key]):
                raise ValueError(f"{what}: repetition {rep} out of order in {key}")
            reps[key].append(float(value))
    want = {(m, e) for m in MECHANISMS for e in EPSILONS}
    if set(reps) != want or set(means) != want:
        raise ValueError(f"{what}: cells {sorted(set(reps) ^ want)} missing or extra")
    return {key: (reps[key], means[key]) for key in want}


def check_utility(csv_bytes: bytes, models: Dict[float, dict]) -> List[str]:
    try:
        cells = _parse(csv_bytes, UTILITY_HEADER, "utility")
    except ValueError as exc:
        return [str(exc)]
    problems = []
    for (mech, eps), (errors, mean) in sorted(cells.items()):
        where = f"utility {mech} eps={eps}"
        if len(errors) != UTILITY_REPETITIONS:
            problems.append(f"{where}: {len(errors)} repetitions")
        if not math.isclose(mean, math.fsum(errors) / len(errors), rel_tol=1e-12, abs_tol=1e-300):
            problems.append(f"{where}: mean row {mean!r} != mean of repetitions")
        if mech == "none":
            if any(e != 0.0 for e in errors):
                problems.append(f"{where}: nonzero error without noise")
            continue
        if mech == "awass":
            continue  # radius is a Monte Carlo estimate; checked by ordering below
        plan = oracles.expected_plans(models, (P_LOW, P_HIGH), eps, DELTA, SUBSET_SIZE,
                                      GROUP_SIZE)[mech]
        problems += oracles.check_square_sum(math.fsum(e * e for e in errors), plan,
                                             len(errors), where)
    for eps in EPSILONS:
        mean = {m: cells[(m, eps)][1] for m in MECHANISMS}
        if mean["awass"] < mean["wass"]:
            problems.append(f"utility eps={eps}: awass {mean['awass']:.4g} < wass {mean['wass']:.4g}")
        top_two = sorted(mean, key=mean.get)[-2:]
        if set(top_two) != {"gdp-l", "gdp-g"}:
            problems.append(f"utility eps={eps}: largest errors are {top_two}, not the gdp baselines")
    for mech in MECHANISMS[1:]:
        series = [cells[(mech, eps)][1] for eps in EPSILONS]
        if any(a <= b for a, b in zip(series, series[1:])):
            problems.append(f"utility {mech}: error does not fall as epsilon grows: {series}")
    return problems


def check_attack(csv_bytes: bytes) -> List[str]:
    try:
        cells = _parse(csv_bytes, ATTACK_HEADER, "attack")
    except ValueError as exc:
        return [str(exc)]
    # every test prediction is an independent draw given the trained classifier
    radius = oracles.hoeffding_radius(TEST_COUNT * ATTACK_REPETITIONS)
    problems = []
    for (mech, eps), (accs, mean) in sorted(cells.items()):
        where = f"attack {mech} eps={eps}"
        if len(accs) != ATTACK_REPETITIONS:
            problems.append(f"{where}: {len(accs)} repetitions")
        if any(abs(a * TEST_COUNT - round(a * TEST_COUNT)) > 1e-9 for a in accs):
            problems.append(f"{where}: accuracy not a multiple of 1/{TEST_COUNT}: {accs}")
        if not math.isclose(mean, math.fsum(accs) / len(accs), rel_tol=1e-12):
            problems.append(f"{where}: mean row {mean!r} != mean of repetitions")
        if mech == "none":
            if mean - 0.5 <= radius:
                problems.append(f"{where}: undefended attack {mean:.3f} within {radius:.3f} of chance")
        elif mean > oracles.accuracy_bound(eps, DELTA) + radius:
            problems.append(f"{where}: accuracy {mean:.3f} above the "
                            f"(eps, delta) bound {oracles.accuracy_bound(eps, DELTA):.3f} + {radius:.3f}")
    return problems
