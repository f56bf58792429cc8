#!/usr/bin/env python3
"""distpriv benchmark: one workload per run, in one process.

    python3 perfbench/run.py --workload paper-sweep --seed 1 --seconds 20 --trace 0

Runs rounds of the workload until the next round would end past
--seconds (at least one round), checks every round's outputs, and prints
the stage figures by name and unit, then, as its last line, a JSON
object with `correct`, `attempted`, `failed` and `metrics`. --trace 0
reports the end-to-end metrics; --trace 1 wraps the program's layer
functions and reports per-layer metrics instead (per round, median over
rounds). Every run leaves its record in perfbench/out/.
"""

from __future__ import annotations

import argparse
import gc
import json
import logging
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# One process on the cores this process may use; BLAS must not oversubscribe them.
CORES = len(os.sched_getaffinity(0))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, str(CORES))

WORKLOADS = ("paper-sweep", "transport-certify", "release-audit")


def _workload(name: str):
    if name == "paper-sweep":
        from paper_sweep import PaperSweep
        return PaperSweep
    if name == "transport-certify":
        from transport_certify import TransportCertify
        return TransportCertify
    from release_audit import ReleaseAudit
    return ReleaseAudit


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "distpriv" / "__init__.py").is_file():
        print(f"distpriv sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    logging.getLogger("distpriv").setLevel(logging.ERROR)  # the loader's drop counts

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT))
    try:
        record = measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    report_stages(record, args.trace)
    if args.trace:
        untraced = OUT / f"{args.workload}-seed{args.seed}-trace0.json"
        if untraced.exists():
            base = json.loads(untraced.read_text(encoding="utf-8"))["round_s"]
            record["tracing_overhead"] = record["round_s"] / base - 1.0
            print(f"tracing overhead vs the untraced run of this seed: "
                  f"{100 * record['tracing_overhead']:+.1f}% of round_s")
    for problem in record["problems"]:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    spans = record.pop("spans", None)
    (OUT / f"{name}.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    if spans is not None:
        (OUT / f"{name}-spans.json").write_text(json.dumps(spans) + "\n", encoding="utf-8")
    print(json.dumps({
        "correct": not record["problems"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["per_layer"] if args.trace else record["end_to_end"],
    }))
    return 0


def measure(args, workdir: Path) -> dict:
    workload = _workload(args.workload)(args.seed, workdir)
    setup_times = []
    for _ in range(workload.setup_repeats):
        gc.collect()  # start each timing from the same heap state
        start = time.perf_counter()
        workload.setup()
        setup_times.append(time.perf_counter() - start)

    tracer = None
    if args.trace:
        from tracing import PER_LAYER, Tracer

        tracer = Tracer()
        tracer.instrument()
    rounds, layers, problems = [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    try:
        while True:
            gc.collect()
            round_start = time.perf_counter()
            before = tracer.snapshot() if tracer else None
            result = workload.run_round(len(rounds))
            if tracer:
                layers.append(tracer.per_layer(before, tracer.snapshot()))
                tracer.keep_depth = 0  # keep whole spans of the first round only
            rounds.append(result)
            attempted += result.attempted
            failed += result.failed
            problems += [f"round {len(rounds) - 1}: {p}" for p in result.problems]
            took = time.perf_counter() - round_start
            if result.failed or time.perf_counter() - start + took > args.seconds:
                break
    finally:
        if tracer:
            tracer.restore()

    stages = {s: statistics.median(r.stages[s] for r in rounds) for s in rounds[0].stages}
    if "release_s" in stages:
        stages["releases_per_s"] = statistics.median(
            r.counts["release_s"] / r.stages["release_s"] for r in rounds)
    round_s = statistics.median(sum(r.stages.values()) for r in rounds)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "rounds": len(rounds),
        "cores": CORES,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "setup_runs_s": setup_times,
        "round_runs_s": [sum(r.stages.values()) for r in rounds],
        "stages": stages,
        "round_s": round_s,
        "end_to_end": {
            "setup_s": _metric(statistics.median(setup_times), "s"),
            "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "round_s": _metric(round_s, "s"),
        },
    }
    if tracer:
        record["per_layer"] = {
            name: _metric(statistics.median(layer[name] for layer in layers), unit)
            for name, (unit, _, _) in PER_LAYER.items()
        }
        record["spans"] = {"fields": ["layer", "start_s", "end_s", "parent"],
                           "spans": tracer.spans}
    return record


def report_stages(record: dict, trace: int) -> None:
    """Human-readable figures, printed before the JSON result line."""
    mode = "traced" if trace else "untraced"
    print(f"{record['workload']} seed={record['seed']} {mode}: {record['rounds']} round(s), "
          f"{record['cores']} core(s), setup runs {[round(t, 4) for t in record['setup_runs_s']]}")
    for name, value in record["stages"].items():
        unit = "1/s" if name.endswith("_per_s") else "s"
        print(f"  {name:<16} {value:.6g} {unit}")
    print(f"  {'round_s':<16} {record['round_s']:.6g} s")


if __name__ == "__main__":
    sys.exit(main())
