"""Golden outputs of a small seeded sweep, compared with files kept in tests/golden/.

One run of every mechanism through `model`, `utility`, `attack` and
`release` on a synthetic simple-format table. Its `catalog.json`,
`pairs.json`, both result CSVs and the `release` JSON of each mechanism
must match the expected files:

* on the toolchain recorded in `golden/toolchain.json` (Python, numpy and
  machine), byte for byte;
* elsewhere, where another numpy or BLAS may round differently, every
  string and integer exactly and every float within a relative 1e-6
  (absolute 1e-9 near zero), except attack accuracies, which move in steps
  of 1/test_count and may differ by at most two steps.

An intended change of outputs regenerates the files with
`PYTHONPATH=src python tests/test_golden.py` and records the before and
after values with the change.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import platform
import sys
from pathlib import Path

import numpy as np

from distpriv import cli
from distpriv.cli import ExperimentConfig, cmd_attack, cmd_model, cmd_utility, main

sys.path.insert(0, str(Path(__file__).resolve().parent))
from helpers import synthetic_census_table, write_simple_csv  # noqa: E402

GOLDEN = Path(__file__).resolve().parent / "golden"
SWEEP_FILES = ("catalog.json", "pairs.json", "results_utility.csv", "results_attack.csv")
TEST_COUNT = 60
REL_TOL, ABS_TOL = 1e-6, 1e-9
ACCURACY_STEPS = 2
QUERY = [40.0, 10.0, 30.0, 35.0, 41.0]


def toolchain() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__,
            "machine": platform.machine()}


def golden_run(work: Path) -> dict:
    """Every compared output of the run, by file name, as bytes."""
    data = write_simple_csv(synthetic_census_table(30_000, seed=11), work / "synth.csv")
    out = work / "out"
    cfg = ExperimentConfig.from_dict({
        "dataset": str(data),
        "dataset_format": "simple",
        "seed": 7,
        "property": "income",
        "p_center": 0.5,
        "delta_p": [0.1],
        "epsilon": [0.5, 2.0],
        "delta": [0.001],
        "mechanisms": list(cli.MECHANISMS),
        "n": 100,
        "modeling_samples": 200,
        "repetitions": 2,
        "attack": {"repetitions": 2, "shadow_count": 60, "test_count": TEST_COUNT},
        "out_dir": str(out),
    })
    cmd_model(cfg)
    cmd_utility(cfg)
    cmd_attack(cfg)
    outputs = {name: (out / name).read_bytes() for name in SWEEP_FILES}
    query = work / "query.json"
    query.write_text(json.dumps(QUERY), encoding="utf-8")
    for mech in cli.MECHANISMS:
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            main(["release", "--mechanism", mech, "--epsilon", "1", "--delta", "0.001",
                  "--models", str(out / "catalog.json"), "--pairs", str(out / "pairs.json"),
                  "--query", str(query), "--seed", "3"])
        outputs[f"release-{mech}.json"] = printed.getvalue().encode("utf-8")
    return outputs


def _close(got, want, where: str, problems: list) -> None:
    if isinstance(want, float) and isinstance(got, (int, float)) and not isinstance(got, bool):
        if not math.isclose(got, want, rel_tol=REL_TOL, abs_tol=ABS_TOL):
            problems.append(f"{where}: {got!r} != {want!r}")
    elif isinstance(want, dict) and isinstance(got, dict):
        if set(got) != set(want):
            problems.append(f"{where}: keys {sorted(got)} != {sorted(want)}")
        for key in set(got) & set(want):
            _close(got[key], want[key], f"{where}.{key}", problems)
    elif isinstance(want, list) and isinstance(got, list):
        if len(got) != len(want):
            problems.append(f"{where}: length {len(got)} != {len(want)}")
        for i, (g, w) in enumerate(zip(got, want)):
            _close(g, w, f"{where}[{i}]", problems)
    elif type(got) is not type(want) or got != want:
        problems.append(f"{where}: {got!r} != {want!r}")


def _csv_close(name: str, got: str, want: str, problems: list) -> None:
    got_rows, want_rows = got.splitlines(), want.splitlines()
    if len(got_rows) != len(want_rows) or got_rows[:1] != want_rows[:1]:
        problems.append(f"{name}: header or row count differs")
        return
    for i, (g, w) in enumerate(zip(got_rows[1:], want_rows[1:]), start=2):
        g_key, g_value = g.rsplit(",", 1)
        w_key, w_value = w.rsplit(",", 1)
        g_value, w_value = float(g_value), float(w_value)
        if name == "results_attack.csv":
            ok = abs(g_value - w_value) <= ACCURACY_STEPS / TEST_COUNT + 1e-12
        else:
            ok = math.isclose(g_value, w_value, rel_tol=REL_TOL, abs_tol=ABS_TOL)
        if g_key != w_key or not ok:
            problems.append(f"{name} line {i}: {g!r} != {w!r}")


def test_outputs_match_the_golden_files(tmp_path):
    got = golden_run(tmp_path)
    want = {name: (GOLDEN / name).read_bytes() for name in got}
    assert sorted(p.name for p in GOLDEN.iterdir()) == sorted(list(want) + ["toolchain.json"])
    recorded = json.loads((GOLDEN / "toolchain.json").read_text(encoding="utf-8"))
    if recorded == toolchain():
        differ = [name for name in want if got[name] != want[name]]
        assert not differ, f"not byte-identical on the recorded toolchain: {differ}"
        return
    problems = []
    for name in want:
        if name.endswith(".csv"):
            _csv_close(name, got[name].decode(), want[name].decode(), problems)
        else:
            _close(json.loads(got[name]), json.loads(want[name]), name, problems)
    assert not problems, "\n".join(problems[:20])


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as work:
        outputs = golden_run(Path(work))
    GOLDEN.mkdir(exist_ok=True)
    for name, blob in outputs.items():
        (GOLDEN / name).write_bytes(blob)
    (GOLDEN / "toolchain.json").write_text(json.dumps(toolchain(), indent=2, sort_keys=True)
                                           + "\n", encoding="utf-8")
    print(f"wrote {len(outputs) + 1} files to {GOLDEN}")
