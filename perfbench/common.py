"""Pieces the workloads share: the round record, the sweep config, CLI calls."""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List

MECHANISMS = ("none", "wass", "awass", "expm-l", "expm-g",
              "dir-l", "dir-g", "eig", "dau", "gdp-l", "gdp-g")
EPSILONS = (0.2, 1.0, 5.0)
DELTA = 0.001
P_LOW, P_HIGH = 0.45, 0.55
SUBSET_SIZE = 100
GROUP_SIZE = 100
MODELING_SAMPLES = 1000
UTILITY_REPETITIONS = 50
SHADOW_COUNT = TEST_COUNT = 200
# The paper averages 50 attack repetitions, about 80 s of attack stage on
# 2 cores; 5 keep a whole sweep plus resume near 10 s there, while every
# attack check still has a bound that holds at that size.
ATTACK_REPETITIONS = 5


@dataclass
class RoundResult:
    """One round of a workload.

    `stages` are the seconds spent inside the program's calls, by stage;
    their sum is the round's time. `counts` are operations per stage, used
    for rates. `problems` are failed output checks.
    """

    stages: Dict[str, float] = field(default_factory=dict)
    counts: Dict[str, int] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)


def sweep_config(dataset: Path, seed: int) -> dict:
    """The paper-size sweep over a table in the Adult format."""
    return {
        "dataset": str(dataset),
        "dataset_format": "adult",
        "seed": seed,
        "property": "income",
        "p_center": 0.5,
        "delta_p": [0.1],
        "epsilon": list(EPSILONS),
        "delta": [DELTA],
        "mechanisms": list(MECHANISMS),
        "n": SUBSET_SIZE,
        "group_size": GROUP_SIZE,
        "modeling_samples": MODELING_SAMPLES,
        "repetitions": UTILITY_REPETITIONS,
        "workers": 1,
        "attack": {
            "shadow_count": SHADOW_COUNT,
            "test_count": TEST_COUNT,
            "repetitions": ATTACK_REPETITIONS,
        },
        "out_dir": "out",
    }


def write_json(path: Path, doc) -> Path:
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path


def run_cli(*argv: str) -> None:
    """Run one distpriv subcommand in this process, its printout discarded."""
    from distpriv.cli import main

    with contextlib.redirect_stdout(io.StringIO()):
        code = main(list(argv))
    if code != 0:
        raise RuntimeError(f"distpriv {argv[0]} exited with {code}")
