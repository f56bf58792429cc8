"""Config-driven experiment orchestration and the command-line interface.

Subcommands:
  model      estimate Gaussian query models per property value, write a catalog
  utility    privacy-utility sweep: L2 noise norm per (mechanism, eps, delta, delta_p);
             reads the catalog, not the dataset
  attack     property-inference attack accuracy per (mechanism, eps, delta); each
             repetition's subsets are drawn once and shared by every cell
  transport  exact transport report for two discrete distributions
  release    noise one query vector under a chosen mechanism and budget
  audit      empirical indistinguishability check for a calibrated plan

Every command but `transport` reads one config (`--config`, `--out`);
`release` and `audit` build, from its catalog, the plan a sweep cell of
that config builds at their budget.

A run is a pure function of (config, dataset bytes): the root seed fans
out to (stage, parameter tuple, repetition) derived generators, and
outputs are written deterministically. Both sweeps run through one
cell loop, `_sweep`: each cell is stored under, and checked on load
against, the config hash and the sha256 of the dataset files, and a
stage reads its inputs only when some cell is missing: the catalog,
and for `attack` the table, from which it draws every repetition's
shadow and test subsets once for all cells. No noise plan depends on
the seed: `awass` takes its L1 radius from a closed-form union bound over
each model's sign vectors (`mechanisms.gaussian_l1_radius`). Outputs go
through `dataio.output_file`, which leaves a file holding the same bytes
alone.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import platform
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import __version__
from .attack import ShadowConfig, draw_attack_queries, run_attack_trial
from .dataio import (
    QUERY_COMPONENTS,
    PropertySpec,
    SplitTables,
    SubsetSampler,
    Table,
    dataset_sha256,
    load_adult,
    load_query_json,
    load_simple_csv,
    output_file,
    read_json,
    split_dataset,
)
from .errors import ConfigError, FormatError
from .mechanisms import (
    MIN_AUDIT_TRIALS,
    NoisePlan,
    apply,
    audit,
    calibrate_approx_wasserstein,
    calibrate_directional,
    calibrate_expm,
    calibrate_wasserstein,
    dau_plan,
    eig_plan,
    gaussian_l1_radius,
    group_dp_calibrate,
    per_record_sensitivity,
)
from .model import (
    PairFamily,
    PrivacyParams,
    SecretLabel,
    delta_E,
    estimate_gaussian,
    family_from_catalog,
    load_catalog,
    save_catalog,
)
from .seeding import derive_rng, derive_seed_sequence
from .transport import (
    DiscreteDistribution,
    closeness_from_bounds,
    is_w_delta_close,
    min_w_for_delta,
    winf_distance,
)

UTILITY_CSV_HEADER = "mechanism,epsilon,delta,property,delta_p,repetition,l2_error"
ATTACK_CSV_HEADER = "mechanism,epsilon,delta,property,delta_p,repetition,accuracy"
ATTACK_KEYS = ("shadow_count", "test_count", "repetitions")


def _round_p(value: float) -> float:
    # Property values are labels; pin them to 10 decimals so values computed
    # as p_center +/- dp/2 and values typed in config compare equal. Adding
    # 0.0 turns a -0.0 (rounded from just below zero) into 0.0.
    return round(float(value), 10) + 0.0


@dataclass
class ExperimentConfig:
    dataset: str
    seed: int
    delta_p: List[float]
    epsilon: List[float]
    delta: List[float]
    mechanisms: List[str]
    property_name: str = "income"
    p_center: float = 0.5
    n: int = 100
    modeling_samples: int = 1000
    repetitions: int = 50
    dataset_format: str = "adult"
    out_dir: str = "out"
    group_size: int = 100
    workers: int = 1  # only 1 is accepted: cells are computed in one thread
    attack: Dict = field(default_factory=dict)

    def __post_init__(self):
        if self.dataset_format not in ("adult", "simple"):
            raise ConfigError(f"dataset_format must be 'adult' or 'simple', got {self.dataset_format!r}")
        for name in ("delta_p", "epsilon", "delta", "mechanisms"):
            if not getattr(self, name):
                raise ConfigError(f"config list {name} must be nonempty")
        numbers = {"epsilon": self.epsilon, "delta": self.delta, "delta_p": self.delta_p,
                   "p_center": [self.p_center]}
        for name, values in numbers.items():
            if any(isinstance(value, bool) for value in values):
                raise ConfigError(f"{name} must hold numbers, not bools, got {getattr(self, name)!r}")
        for dp in self.delta_p:
            if not dp > 0.0:
                raise ConfigError(f"delta_p entries must be positive, got {dp}")
        # Each budget and property value is checked by the type that holds it.
        try:
            for eps, delta in itertools.product(self.epsilon, self.delta):
                PrivacyParams(eps, delta)
            for p in self.required_p_values():
                PropertySpec(self.property_name, p)
        except ValueError as exc:
            raise ConfigError(f"config: {exc}") from exc
        for mech, delta in itertools.product(self.mechanisms, self.delta):
            _mechanism_entry(mech, delta)
        # A repeated grid value would compute and write the same cells twice;
        # two delta_p values repeat when they give the same rounded pair.
        grids = {"epsilon": self.epsilon, "delta": self.delta, "mechanisms": self.mechanisms,
                 "delta_p": [self.pair(dp) for dp in self.delta_p]}
        for name, keys in grids.items():
            for index, key in enumerate(keys):
                if key in keys[:index]:
                    pair = f", the pair {key}" if name == "delta_p" else ""
                    raise ConfigError(
                        f"config list {name} repeats {getattr(self, name)[index]!r}{pair}")
        for name in ("seed", "n", "modeling_samples", "repetitions", "group_size", "workers"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        if not 0 <= self.seed < 2**64:  # derive_rng keeps the low 64 bits
            raise ConfigError(f"seed must lie in [0, 2**64), got {self.seed}")
        if self.n <= 0 or self.modeling_samples < 2 or self.repetitions <= 0:
            raise ConfigError("n, modeling_samples, repetitions must be positive (samples >= 2)")
        if self.group_size < 1:
            raise ConfigError("group_size must be >= 1")
        if self.workers != 1:
            raise ConfigError(f"workers must be 1, got {self.workers}")
        self.shadow_config()

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        doc = read_json(path)
        if not isinstance(doc, dict):
            raise ConfigError(f"{path}: a config must be a JSON object, got {type(doc).__name__}")
        return cls.from_dict(doc)

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        """The config a JSON object describes; the property is keyed `property`."""
        doc = dict(doc)
        known = (set(cls.__dataclass_fields__) - {"property_name"}) | {"property"}
        unknown = set(doc) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        if "property" in doc:
            doc["property_name"] = doc.pop("property")
        try:
            return cls(**doc)
        except TypeError as exc:  # a required key missing, or a value of the wrong type
            raise ConfigError(f"config: {exc}") from exc

    def pair(self, dp: float) -> Tuple[float, float]:
        """The (low, high) property values that dp separates around p_center."""
        return _round_p(self.p_center - dp / 2.0), _round_p(self.p_center + dp / 2.0)

    def shadow_config(self) -> ShadowConfig:
        """The attack on the pair of the first delta_p, with subsets of n records:
        the `attack` keys (ATTACK_KEYS) over ShadowConfig's defaults, and
        repetitions defaulting to the experiment's."""
        unknown = set(self.attack) - set(ATTACK_KEYS)
        if unknown:
            raise ConfigError(f"unknown attack config keys: {sorted(unknown)}")
        try:
            return ShadowConfig(*self.pair(self.delta_p[0]), n=self.n,
                                **{"repetitions": self.repetitions, **self.attack})
        except ValueError as exc:
            raise ConfigError(f"attack config: {exc}") from exc

    def required_p_values(self) -> List[float]:
        return sorted({p for dp in self.delta_p for p in self.pair(dp)})

    def canonical_dict(self) -> dict:
        doc = {name: getattr(self, name) for name in self.__dataclass_fields__}
        doc.pop("out_dir")
        doc.pop("workers")
        return doc

    def config_hash(self) -> str:
        blob = json.dumps(self.canonical_dict(), sort_keys=True).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()


def load_dataset(cfg: ExperimentConfig) -> Table:
    if cfg.dataset_format == "adult":
        return load_adult(cfg.dataset)
    return load_simple_csv(cfg.dataset)


def load_splits(cfg: ExperimentConfig) -> SplitTables:
    return split_dataset(load_dataset(cfg), cfg.seed)


def _catalog_family(cfg: ExperimentConfig, delta_ps: Sequence[float], catalog=None) -> PairFamily:
    """The family of the pairs `cfg.pair(dp)`, dp in `delta_ps`, from
    `catalog` or else from the catalog `model` wrote to the output directory."""
    if catalog is None:
        catalog = load_catalog(Path(cfg.out_dir) / "catalog.json")
    return family_from_catalog(catalog, [cfg.pair(dp) for dp in delta_ps], cfg.property_name)


# --- plan construction ----------------------------------------------------


def _approx_wasserstein(family: PairFamily, params: PrivacyParams) -> NoisePlan:
    """Laplace scaled to the L1 mean gap plus twice a certified L1 radius.

    The radius is the largest `gaussian_l1_radius` at delta over the
    family's models: each model holds at least 1 - delta/2 of its mass
    within it of its mean, so every protected pair is (gap + 2 radius,
    delta)-close. The provenance records the radius and how it was bounded.
    """
    radius = max(gaussian_l1_radius(family.catalog[label], params.delta)
                 for label in family.sorted_labels())
    plan = calibrate_approx_wasserstein(closeness_from_bounds(delta_E(family, 1), radius), params)
    plan.provenance.update(l1_radius=radius, l1_radius_method="gaussian_union_bound")
    return plan


# Mechanism name -> (needs a model catalog, spends delta, builder(family,
# params, cfg)). A plan spends delta when it adds Gaussian noise or, for
# awass, when its L1 radius may leave delta/2 of each model's mass outside
# (a union bound over sign vectors, `gaussian_l1_radius`); it needs
# delta > 0. Builders look the calibrations up by name at call time, so
# rebinding this module's names (as a tracer does) reaches every plan.
MECHANISMS = {
    "none": (False, False, lambda fam, params, cfg: NoisePlan(
        kind="none", provenance={"mechanism": "none"})),
    # Translation pairs make the worst-case transport distance equal the
    # worst-case L1 mean gap, which is what the Gaussian catalog encodes.
    "wass": (True, False, lambda fam, params, cfg: calibrate_wasserstein(
        delta_E(fam, 1), params)),
    "awass": (True, True, lambda fam, params, cfg: _approx_wasserstein(fam, params)),
    "expm-l": (True, False, lambda fam, params, cfg: calibrate_expm(fam, params, "laplace")),
    "expm-g": (True, True, lambda fam, params, cfg: calibrate_expm(fam, params, "gaussian")),
    "dir-l": (True, False, lambda fam, params, cfg: calibrate_directional(fam, params, "laplace")),
    "dir-g": (True, True, lambda fam, params, cfg: calibrate_directional(fam, params, "gaussian")),
    "eig": (True, True, lambda fam, params, cfg: eig_plan(fam, params)),
    "dau": (True, True, lambda fam, params, cfg: dau_plan(fam, params)),
    "gdp-l": (False, False, lambda fam, params, cfg: group_dp_calibrate(
        per_record_sensitivity(QUERY_COMPONENTS, cfg.n, 1), cfg.group_size, params,
        "laplace")),
    "gdp-g": (False, True, lambda fam, params, cfg: group_dp_calibrate(
        per_record_sensitivity(QUERY_COMPONENTS, cfg.n, 2), cfg.group_size, params,
        "gaussian")),
}


def _mechanism_entry(name: str, delta: float):
    """The MECHANISMS entry of a known mechanism that may run at delta: one
    that spends delta requires delta > 0. Raises ConfigError otherwise."""
    if name not in MECHANISMS:
        raise ConfigError(f"unknown mechanism {name!r}; choose from {tuple(MECHANISMS)}")
    entry = MECHANISMS[name]
    if entry[1] and not delta > 0.0:
        raise ConfigError(f"mechanism {name!r} spends delta and requires delta > 0, got {delta}")
    return entry


def build_plan(
    mechanism: str,
    family: Optional[PairFamily],
    params: PrivacyParams,
    cfg: ExperimentConfig,
) -> NoisePlan:
    """Resolve a mechanism name from the sweep grid into a noise plan."""
    needs_family, _, build = _mechanism_entry(mechanism, params.delta)
    if needs_family and family is None:
        raise ConfigError(f"mechanism {mechanism!r} requires a model catalog")
    return build(family, params, cfg)


# --- model stage ----------------------------------------------------------


def cmd_model(cfg: ExperimentConfig) -> Path:
    """Estimate one Gaussian model per required property value."""
    splits = load_splits(cfg)
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    catalog = {}
    sampler = SubsetSampler(splits.modeling, cfg.property_name)
    for p in cfg.required_p_values():
        rng = derive_rng(cfg.seed, "model", cfg.property_name, p)
        _, queries = sampler.draw(p, cfg.n, cfg.modeling_samples, rng)
        catalog[SecretLabel(cfg.property_name, p)] = estimate_gaussian(queries)

    catalog_path = out_dir / "catalog.json"
    save_catalog(catalog, catalog_path)
    _write_run_manifest(cfg, out_dir)
    return catalog_path


# --- sweep machinery -------------------------------------------------------


def _cell_path(out_dir: Path, stage: str, cfg_hash: str, *parts) -> Path:
    key = hashlib.sha256("|".join(map(str, (cfg_hash,) + parts)).encode("utf-8")).hexdigest()[:20]
    cells = out_dir / "cells"
    cells.mkdir(parents=True, exist_ok=True)
    return cells / f"{stage}-{key}.json"


def _load_cell(path: Path, stamp: dict):
    if not path.exists():
        return None
    try:
        doc = read_json(path)
    except (OSError, FormatError):
        return None
    if not isinstance(doc, dict) or any(doc.get(name) != value for name, value in stamp.items()):
        return None
    return doc["values"]


def _store_cell(path: Path, stamp: dict, values) -> None:
    with output_file(path) as fh:
        json.dump({**stamp, "values": values}, fh)
        fh.write("\n")


def _sweep(cfg: ExperimentConfig, stage: str, header: str, grid, inputs, compute) -> Path:
    """Run one sweep stage and write its CSV and the run manifest.

    `grid` lists the cells' (mechanism, epsilon, delta, delta_p) rows in
    CSV order; `compute(staged, *row)` returns a row's cell values, one
    per repetition, where `staged = inputs()` is read once and only when
    some cell is missing. Cells are stored under the config hash and the
    dataset's sha256, and a stored cell is reused only when both match.
    """
    out_dir = Path(cfg.out_dir)
    stamp = {"config_hash": cfg.config_hash(),
             "dataset_sha256": dataset_sha256(cfg.dataset, cfg.dataset_format)}
    paths = [_cell_path(out_dir, stage, stamp["config_hash"], stamp["dataset_sha256"], *row)
             for row in grid]
    values = [_load_cell(path, stamp) for path in paths]
    missing = [i for i, cell in enumerate(values) if cell is None]
    staged = inputs() if missing else None
    for i in missing:
        values[i] = compute(staged, *grid[i])
        _store_cell(paths[i], stamp, values[i])

    lines = [header]
    for (mech, eps, delta, dp), cell in zip(grid, values):
        prefix = f"{mech},{eps},{delta},{cfg.property_name},{dp}"
        lines += [f"{prefix},{rep},{value!r}" for rep, value in enumerate(cell)]
        lines.append(f"{prefix},mean,{float(np.mean(cell))!r}")
    out_path = out_dir / f"results_{stage}.csv"
    with output_file(out_path) as fh:
        fh.write("\n".join(lines) + "\n")
    _write_run_manifest(cfg, out_dir)
    return out_path


def cmd_utility(cfg: ExperimentConfig) -> Path:
    """L2 error of the release per (mechanism, epsilon, delta, delta_p) cell and repetition.

    Every plan adds noise that does not depend on the query, so a
    release's error is the norm of its noise: each repetition noises the
    zero vector of the catalog's dimension, and the stage reads the
    catalog but no dataset. The generator is keyed by everything except
    the mechanism, so one repetition confronts every mechanism with the
    same underlying noise draws: mechanism comparisons are paired rather
    than smeared by independent streams.
    """
    def inputs():
        catalog = load_catalog(Path(cfg.out_dir) / "catalog.json")
        families = {dp: _catalog_family(cfg, [dp], catalog) for dp in cfg.delta_p}
        return families, np.zeros(next(iter(catalog.values())).mean.size), {}

    def compute(staged, mech, eps, delta, dp):
        families, zero, seeds = staged
        # Every mechanism replays the same streams, so each is derived once.
        if (eps, delta, dp) not in seeds:
            seeds[eps, delta, dp] = [derive_seed_sequence(cfg.seed, "utility", eps, delta, dp, rep)
                                     for rep in range(cfg.repetitions)]
        plan = build_plan(mech, families[dp], PrivacyParams(eps, delta), cfg)
        return [float(np.linalg.norm(apply(plan, zero, np.random.default_rng(seq))))
                for seq in seeds[eps, delta, dp]]

    grid = list(itertools.product(cfg.mechanisms, cfg.epsilon, cfg.delta, cfg.delta_p))
    return _sweep(cfg, "utility", UTILITY_CSV_HEADER, grid, inputs, compute)


def cmd_attack(cfg: ExperimentConfig) -> Path:
    """Attack accuracy per (mechanism, epsilon, delta) cell and repetition.

    The subsets do not depend on the mechanism or the budget, so each
    repetition's shadow and test query matrices are drawn once, from a
    generator keyed by (seed, repetition), and every cell noises those
    same matrices. The noise generator is keyed by (epsilon, delta,
    repetition) and not by the mechanism, so one repetition confronts
    every mechanism with the same subsets and the same underlying noise
    draws, as in `cmd_utility`: mechanism comparisons are paired.
    """
    shadow = cfg.shadow_config()
    grid = list(itertools.product(cfg.mechanisms, cfg.epsilon, cfg.delta, cfg.delta_p[:1]))

    def inputs():
        family = _catalog_family(cfg, cfg.delta_p[:1])
        splits = load_splits(cfg)
        aux = SubsetSampler(splits.aux, cfg.property_name)
        test = SubsetSampler(splits.test, cfg.property_name)
        queries = [draw_attack_queries(aux, test, shadow,
                                       derive_rng(cfg.seed, "attack-subsets", rep))
                   for rep in range(shadow.repetitions)]
        return family, queries, {}

    def compute(staged, mech, eps, delta, _dp):
        family, queries, seeds = staged
        # Every mechanism replays the same streams, so each is derived once.
        if (eps, delta) not in seeds:
            seeds[eps, delta] = [derive_seed_sequence(cfg.seed, "attack", eps, delta, rep)
                                 for rep in range(len(queries))]
        plan = build_plan(mech, family, PrivacyParams(eps, delta), cfg)
        return [
            run_attack_trial(shadow_x, test_x, shadow, plan, np.random.default_rng(seq))
            for (shadow_x, test_x), seq in zip(queries, seeds[eps, delta])
        ]

    return _sweep(cfg, "attack", ATTACK_CSV_HEADER, grid, inputs, compute)


def _write_run_manifest(cfg: ExperimentConfig, out_dir: Path) -> None:
    doc = {
        "config_hash": cfg.config_hash(),
        "seed": cfg.seed,
        "schema": {"utility": UTILITY_CSV_HEADER, "attack": ATTACK_CSV_HEADER},
        "versions": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "distpriv": __version__,
        },
    }
    with output_file(out_dir / "run_manifest.json") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


# --- single-shot commands ---------------------------------------------------


def _certificate_json(cert) -> dict:
    return {
        "coupling_edges": [
            [i, j, mass.numerator, mass.denominator] for i, j, mass in cert.coupling_edges
        ],
        "retained_mass": [cert.retained_mass.numerator, cert.retained_mass.denominator],
        "max_retained_distance": cert.max_retained_distance,
    }


def transport_report(file_mu, file_nu, delta: float) -> dict:
    if not 0.0 <= delta <= 1.0:
        raise ConfigError(f"--delta must lie in [0, 1], got {delta}")
    mu = read_json(file_mu, DiscreteDistribution.from_json)
    nu = read_json(file_nu, DiscreteDistribution.from_json)
    if mu.dim != nu.dim:
        raise FormatError(f"{file_mu} holds {mu.dim}-D points but {file_nu} holds {nu.dim}-D points")
    winf = winf_distance(mu, nu)
    w = min_w_for_delta(mu, nu, delta)
    ok, cert = is_w_delta_close(mu, nu, w, delta)
    report = {
        "winf": winf,
        "delta": delta,
        "min_w_for_delta": w,
        "close": ok,
        "certificate": _certificate_json(cert) if cert is not None else None,
    }
    return report


def _one_shot_plan(args: argparse.Namespace, with_family: bool):
    """The (family, params, plan) of a `release` or `audit`: the plan a sweep
    cell of the `--config` builds for `--mechanism` at this budget, and the
    family of every protected pair of the config, read from its catalog
    when `with_family` (else None). A bad budget, or a mechanism that
    spends delta at delta = 0, raises ConfigError before the catalog is read."""
    try:
        params = PrivacyParams(epsilon=args.epsilon, delta=args.delta)
    except ValueError as exc:
        raise ConfigError(f"budget: {exc}") from exc
    _mechanism_entry(args.mechanism, args.delta)
    cfg = _config_from_args(args)
    family = _catalog_family(cfg, cfg.delta_p) if with_family else None
    return family, params, build_plan(args.mechanism, family, params, cfg)


def release_report(args: argparse.Namespace) -> dict:
    family, _, plan = _one_shot_plan(args, with_family=MECHANISMS[args.mechanism][0])
    query = load_query_json(args.query)
    dim = family.dim if family is not None else len(QUERY_COMPONENTS)
    if query.size != dim:
        expected = "the catalog's dimension" if family is not None else "one per query component"
        raise FormatError(f"{args.query}: query has {query.size} values, expected {dim} ({expected})")
    noised = apply(plan, query, derive_rng(args.seed, "release", args.mechanism))
    return {"noised_value": [float(x) for x in noised], "plan": plan.to_json()}


def audit_report_json(args: argparse.Namespace) -> dict:
    if args.trials < MIN_AUDIT_TRIALS:
        raise ConfigError(f"audit needs at least {MIN_AUDIT_TRIALS} trials, got {args.trials}")
    family, params, plan = _one_shot_plan(args, with_family=True)
    rng = derive_rng(args.seed, "audit", args.mechanism)
    per_pair = []
    for a, b in family.pairs:
        report = audit(plan, family.catalog[a], family.catalog[b], params, args.trials, rng)
        per_pair.append({
            "pair": [[a.property_id, a.value], [b.property_id, b.value]],
            "estimated_violation": report.estimated_violation,
        })
    worst = max(per_pair, key=lambda entry: entry["estimated_violation"])
    return {
        "estimated_violation": worst["estimated_violation"],
        "trials": report.trials,
        "event_family": report.event_family,
        "pair": worst["pair"],
        "per_pair": per_pair,
        "plan": plan.to_json(),
    }


# --- argparse wiring --------------------------------------------------------


def _add_config_command(sub, name, help_text):
    cmd = sub.add_parser(name, help=help_text)
    cmd.add_argument("--config", required=True, help="experiment config JSON")
    cmd.add_argument("--out", default=None, help="override the config output directory")
    return cmd


def _add_one_shot_command(sub, name, help_text):
    cmd = _add_config_command(sub, name, help_text)
    cmd.add_argument("--mechanism", required=True, choices=tuple(MECHANISMS))
    cmd.add_argument("--epsilon", type=float, required=True)
    cmd.add_argument("--delta", type=float, default=0.0)
    cmd.add_argument("--seed", type=int, default=0)
    return cmd


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="distpriv",
        description="Distribution-privacy mechanisms for global dataset properties",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    _add_config_command(sub, "model", "estimate Gaussian query models, write catalog.json")
    _add_config_command(sub, "utility", "privacy-utility sweep to results_utility.csv")
    _add_config_command(sub, "attack", "attack-accuracy sweep to results_attack.csv")

    tr = sub.add_parser("transport", help="exact transport report for two distributions")
    tr.add_argument("file_mu", help="first DiscreteDistribution JSON file")
    tr.add_argument("file_nu", help="second DiscreteDistribution JSON file")
    tr.add_argument("--delta", type=float, default=0.0)

    rel = _add_one_shot_command(sub, "release", "noise one query vector")
    rel.add_argument("--query", required=True, help="query vector JSON file")

    aud = _add_one_shot_command(sub, "audit", "empirical indistinguishability check")
    aud.add_argument("--trials", type=int, default=100_000)

    return parser


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    cfg = ExperimentConfig.from_json(args.config)
    return cfg if args.out is None else replace(cfg, out_dir=args.out)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "transport":
        print(json.dumps(transport_report(args.file_mu, args.file_nu, args.delta), indent=2))
    elif args.command == "release":
        print(json.dumps(release_report(args), indent=2))
    elif args.command == "audit":
        print(json.dumps(audit_report_json(args), indent=2))
    else:  # a sweep stage, looked up at call time so that a rebound stage runs
        stage = {"model": cmd_model, "utility": cmd_utility, "attack": cmd_attack}[args.command]
        print(stage(_config_from_args(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
