"""release-audit: calibrate every mechanism, release one vector at a time, audit."""

from __future__ import annotations

import json
import math
import time
from pathlib import Path
from typing import List

import numpy as np

import oracles
from common import (
    DELTA, EPSILONS, GROUP_SIZE, MECHANISMS, P_HIGH, P_LOW, SUBSET_SIZE, RoundResult,
    run_cli, sweep_config, write_json,
)
from inputs import write_adult

RELEASES_PER_PLAN = 300
AUDIT_TRIALS = 20_000
# The auditor already subtracts 3 standard deviations per event, yet a plan
# whose true violation is about 0 (dir-l at eps = 0.2) read above 0 in 1 of
# 200 audits. Two more standard deviations of the widest event,
# sqrt(0.25 / trials) (1 + e^eps), put a tight event 5 deviations away.
AUDIT_EXTRA_SDS = 2.0

PLANS = [(mech, eps) for mech in MECHANISMS for eps in EPSILONS]


class ReleaseAudit:
    setup_repeats = 3

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        dataset = workdir / "adult"
        write_adult(dataset, seed)
        self.config = write_json(workdir / "sweep.json", sweep_config(dataset, seed))
        self.first = None

    def setup(self) -> None:
        """The model stage builds the catalog the calibrations read."""
        from distpriv.model import family_from_catalog, load_catalog

        out = self.workdir / "catalog"
        run_cli("model", "--config", str(self.config), "--out", str(out))
        self.catalog = load_catalog(out / "catalog.json")
        self.family = family_from_catalog(self.catalog, [(P_LOW, P_HIGH)], "income")
        self.catalog_docs = json.loads((out / "catalog.json").read_text(encoding="utf-8"))

    def queries(self) -> np.ndarray:
        """Release inputs: draws from the low-value model of the catalog."""
        doc = next(d for d in self.catalog_docs if float(d["value"]) == P_LOW)
        rng = np.random.default_rng([self.seed, 0x9E1])
        return rng.multivariate_normal(doc["mean"], doc["cov"], size=RELEASES_PER_PLAN)

    def run_round(self, index: int) -> RoundResult:
        from distpriv.cli import ExperimentConfig, build_plan
        from distpriv.mechanisms import apply, audit
        from distpriv.model import PrivacyParams

        cfg = ExperimentConfig.from_json(self.config)
        queries = self.queries()
        per_plan = 1 + RELEASES_PER_PLAN + len(self.family.pairs)
        result = RoundResult(stages={"calibrate_s": 0.0, "release_s": 0.0, "audit_s": 0.0},
                             attempted=len(PLANS) * per_plan)
        clock = time.perf_counter

        plans = {}
        start = clock()
        for mech, eps in PLANS:
            family = None if mech in ("none", "gdp-l", "gdp-g") else self.family
            try:
                plans[(mech, eps)] = build_plan(mech, family, PrivacyParams(eps, DELTA), cfg)
            except Exception as exc:
                result.failed += per_plan
                result.problems.append(f"calibrate {mech} eps={eps} raised {exc!r}")
        result.stages["calibrate_s"] = clock() - start

        released = {}
        rng = np.random.default_rng([self.seed, 0x5E1])
        start = clock()
        for key, plan in plans.items():
            rows = []
            for q in queries:
                try:
                    rows.append(apply(plan, q, rng))
                except Exception as exc:
                    result.failed += 1
                    result.problems.append(f"release {key} raised {exc!r}")
            released[key] = np.array(rows)
        result.stages["release_s"] = clock() - start
        result.counts["release_s"] = sum(len(r) for r in released.values())

        audits = {}
        rng = np.random.default_rng([self.seed, 0xA0D])
        start = clock()
        for (mech, eps), plan in plans.items():
            for a, b in self.family.pairs:
                try:
                    report = audit(plan, self.catalog[a], self.catalog[b],
                                   PrivacyParams(eps, DELTA), AUDIT_TRIALS, rng)
                    audits[(mech, eps, a.value, b.value)] = report.estimated_violation
                except Exception as exc:
                    result.failed += 1
                    result.problems.append(f"audit {mech} eps={eps} raised {exc!r}")
        result.stages["audit_s"] = clock() - start

        result.problems += self.check(plans, queries, released, audits)
        summary = (sorted(audits.items()), {k: v.tobytes() for k, v in released.items()})
        if self.first is None:
            self.first = summary
        elif summary != self.first:
            result.problems.append(f"round {index} releases or audits differ from round 0")
        return result

    def check(self, plans, queries, released, audits) -> List[str]:
        models = {float(d["value"]): d for d in self.catalog_docs}
        problems = []
        for (mech, eps), plan in plans.items():
            where = f"{mech} eps={eps}"
            doc = plan.to_json()
            want = oracles.expected_plans(models, (P_LOW, P_HIGH), eps, DELTA,
                                          SUBSET_SIZE, GROUP_SIZE)
            if mech == "awass":
                # radius is a Monte Carlo estimate: only its form and ordering
                if doc["kind"] != "laplace_iid" or doc["scale"] < want["wass"]["scale"]:
                    problems.append(f"{where}: plan {doc['kind']} scale {doc.get('scale')} "
                                    f"below the wass scale {want['wass']['scale']}")
            else:
                problems += [f"{where}: {p}" for p in oracles.compare_plan(doc, want[mech])]
            noise = released[(mech, eps)] - queries[: len(released[(mech, eps)])]
            problems += _check_noise(doc, noise, queries, f"release {where}")
        for (mech, eps, a, b), violation in audits.items():
            where = f"audit {mech} eps={eps} ({a} vs {b})"
            if mech == "none":
                if eps == min(EPSILONS) and violation <= 0.0:
                    problems.append(f"{where}: no noise yet no violation found ({violation:.4g})")
                continue
            margin = AUDIT_EXTRA_SDS * math.sqrt(0.25 / AUDIT_TRIALS) * (1.0 + math.exp(eps))
            if violation > margin:
                problems.append(f"{where}: violation {violation:.4g} > {margin:.4g}")
        return problems


def _check_noise(doc: dict, noise: np.ndarray, queries: np.ndarray, where: str) -> List[str]:
    if doc["kind"] == "none":
        return [] if not np.any(noise) else [f"{where}: no-noise plan changed the query"]
    problems = []
    if doc["kind"] == "scalar_along_direction":
        v = np.asarray(doc["direction"])
        off_axis = noise - np.outer(noise @ v, v)
        if np.max(np.abs(off_axis)) > 1e-9 * max(1.0, float(np.max(np.abs(queries)))):
            problems.append(f"{where}: noise leaves the plan's direction")
    problems += oracles.check_square_sum(float(np.sum(noise * noise)), doc, len(noise), where)
    return problems
