import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from distpriv import cli
from distpriv.attack import ShadowConfig
from distpriv.cli import (
    ATTACK_CSV_HEADER,
    UTILITY_CSV_HEADER,
    ExperimentConfig,
    build_plan,
    cmd_attack,
    cmd_model,
    cmd_utility,
    main,
    transport_report,
)
from distpriv.dataio import QUERY_COMPONENTS
from distpriv.errors import ConfigError, FormatError
from distpriv.mechanisms import apply, per_record_sensitivity
from distpriv.model import (
    GaussianModel,
    PrivacyParams,
    SecretLabel,
    family_from_catalog,
    load_catalog,
    save_catalog,
)
from distpriv.seeding import derive_rng

from helpers import synthetic_census_table, write_simple_csv


@pytest.fixture(scope="module")
def synth_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "synth.csv"
    write_simple_csv(synthetic_census_table(30_000, seed=11), path)
    return path


def config_doc(synth_csv, out_dir, **overrides) -> dict:
    doc = {
        "dataset": str(synth_csv),
        "dataset_format": "simple",
        "seed": 7,
        "property": "income",
        "p_center": 0.5,
        "delta_p": [0.1],
        "epsilon": [1.0],
        "delta": [0.001],
        "mechanisms": ["none", "expm-g"],
        "n": 100,
        "modeling_samples": 200,
        "repetitions": 4,
        "attack": {"repetitions": 2, "shadow_count": 60, "test_count": 60},
        "out_dir": str(out_dir),
    }
    doc.update(overrides)
    return doc


def base_config(synth_csv, out_dir, **overrides) -> ExperimentConfig:
    return ExperimentConfig.from_dict(config_doc(synth_csv, out_dir, **overrides))


def write_config(path, synth_csv, out_dir, **overrides) -> Path:
    path.write_text(json.dumps(config_doc(synth_csv, out_dir, **overrides)))
    return path


def fig1_files(tmp_path):
    points = [[1.0], [2.0], [3.0], [100.0]]
    mu = {"points": points, "mass_num": [6, 2, 0, 2], "mass_den": 10}
    nu = {"points": points, "mass_num": [4, 3, 2, 1], "mass_den": 10}
    mu_path, nu_path = tmp_path / "mu.json", tmp_path / "nu.json"
    mu_path.write_text(json.dumps(mu))
    nu_path.write_text(json.dumps(nu))
    return mu_path, nu_path


class TestConfig:
    def test_empty_delta_p_rejected(self, synth_csv, tmp_path):
        with pytest.raises(ConfigError):
            base_config(synth_csv, tmp_path, delta_p=[])

    def test_unknown_mechanism_rejected(self, synth_csv, tmp_path):
        with pytest.raises(ConfigError):
            base_config(synth_csv, tmp_path, mechanisms=["privacy-magic"])

    @pytest.mark.parametrize("key,value", [
        ("dataset", 5), ("out_dir", 7), ("property", 5), ("epsilon", 1.0), ("delta", 0.001),
        ("delta_p", 0.1), ("mechanisms", "wass"),
    ])
    def test_values_of_the_wrong_json_type_rejected(self, synth_csv, tmp_path, key, value):
        with pytest.raises(ConfigError, match=key):
            ExperimentConfig.from_dict({**config_doc(synth_csv, tmp_path), key: value})

    def test_infinite_epsilon_rejected_before_reading_the_table(
        self, synth_csv, tmp_path, monkeypatch
    ):
        def no_table(cfg):
            raise AssertionError("a rejected config read the table")

        monkeypatch.setattr(cli, "load_dataset", no_table)
        path = write_config(tmp_path / "config.json", synth_csv, tmp_path / "out",
                            epsilon=[math.inf])
        assert '"epsilon": [Infinity]' in path.read_text()
        with pytest.raises(ConfigError, match="epsilon must be positive and finite"):
            main(["model", "--config", str(path)])

    def test_unknown_keys_rejected(self, synth_csv, tmp_path):
        # all but the first were fields or spellings once; a config that still
        # sets one is refused
        for key, value in (("typo_key", 1), ("angle_tol", 1e-6),
                           ("awass_quantile_draws", 200_000), ("attribute_bounds", {}),
                           ("cov_tol", 0.5), ("eigenbasis_tol", 0.5),
                           ("allow_variant_dataset", False), ("property_name", "income")):
            with pytest.raises(ConfigError, match="unknown config keys"):
                base_config(synth_csv, tmp_path, **{key: value})

    def test_readme_config_example_loads(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
        blocks = readme.split("```json\n")[1:]
        assert len(blocks) == 1
        cfg = ExperimentConfig.from_dict(json.loads(blocks[0].split("```", 1)[0]))
        assert cfg.shadow_config() == ShadowConfig(0.45, 0.55, n=100, shadow_count=200,
                                                   test_count=200, repetitions=50)

    def test_hash_ignores_out_dir_and_workers(self, synth_csv, tmp_path):
        a = base_config(synth_csv, tmp_path / "a")
        b = base_config(synth_csv, tmp_path / "b")
        assert a.config_hash() == b.config_hash()
        # workers stays a key for configs that name it, but only 1 is accepted
        assert "workers" not in a.canonical_dict()
        with pytest.raises(ConfigError, match="workers"):
            base_config(synth_csv, tmp_path / "c", workers=4)

    def test_attack_pair_defaults_from_delta_p(self, synth_csv, tmp_path):
        cfg = base_config(synth_csv, tmp_path)
        shadow = cfg.shadow_config()
        assert (shadow.p_low, shadow.p_high) == (0.45, 0.55)

    def test_attack_keys_override_shadow_defaults(self, synth_csv, tmp_path):
        cfg = base_config(synth_csv, tmp_path, n=80, repetitions=7, attack={"test_count": 40})
        shadow = cfg.shadow_config()
        assert (shadow.n, shadow.repetitions, shadow.test_count) == (80, 7, 40)
        assert shadow == ShadowConfig(0.45, 0.55, n=80, repetitions=7, test_count=40)

    @pytest.mark.parametrize("attack", [{"seed": 1}, {"shadow_cnt": 10}, {"n": 100},
                                        {"p_low": 0.45}])
    def test_unknown_attack_keys_rejected(self, synth_csv, tmp_path, attack):
        with pytest.raises(ConfigError, match="unknown attack config keys"):
            base_config(synth_csv, tmp_path, attack=attack).shadow_config()


    @pytest.mark.parametrize("attack", [{"shadow_count": 199}, {"test_count": 0},
                                        {"p_low": 0.6, "p_high": 0.4}])
    def test_bad_attack_sizes_rejected_before_reading_the_table(
        self, synth_csv, tmp_path, monkeypatch, attack
    ):
        def no_table(cfg):
            raise AssertionError("a rejected config read the table")

        monkeypatch.setattr(cli, "load_splits", no_table)
        monkeypatch.setattr(cli, "load_dataset", no_table)
        with pytest.raises(ConfigError, match="attack config"):
            base_config(synth_csv, tmp_path, attack=attack)
        doc = base_config(synth_csv, tmp_path / "out").__dict__.copy()
        doc.update(property=doc.pop("property_name"), attack=attack)
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match="attack config"):
            main(["model", "--config", str(cfg_path)])

    @pytest.mark.parametrize("overrides", [
        {"p_center": 0.8, "delta_p": [0.1, 0.6]},  # the second pair needs the value 1.1
        {"delta_p": [1.5]},
        {"p_center": 1.0},
        {"p_center": float("nan")},
        {"property": "age"},
    ])
    def test_property_values_outside_the_unit_interval_rejected_before_reading_the_table(
        self, synth_csv, tmp_path, monkeypatch, overrides
    ):
        def no_table(cfg):
            raise AssertionError("a rejected config read the table")

        monkeypatch.setattr(cli, "load_splits", no_table)
        monkeypatch.setattr(cli, "load_dataset", no_table)
        doc = base_config(synth_csv, tmp_path / "out").__dict__.copy()
        doc["property"] = doc.pop("property_name")
        doc.update(overrides)
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(doc)
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError):
            main(["model", "--config", str(cfg_path)])

    @pytest.mark.parametrize("field,value", [
        ("seed", 1.5), ("seed", True), ("seed", -1), ("seed", 2**64), ("n", 2.5),
        ("modeling_samples", 200.0), ("repetitions", True), ("group_size", 1.5), ("workers", True),
    ])
    def test_integer_fields_and_seed_range(self, synth_csv, tmp_path, field, value):
        with pytest.raises(ConfigError, match=field):
            base_config(synth_csv, tmp_path, **{field: value})

    @pytest.mark.parametrize("attack", [{"shadow_count": 60.0}, {"test_count": 60.0},
                                        {"repetitions": True}])
    def test_integer_attack_sizes(self, synth_csv, tmp_path, attack):
        with pytest.raises(ConfigError, match="must be an integer"):
            base_config(synth_csv, tmp_path, attack=attack)

    @pytest.mark.parametrize("field,value", [
        ("epsilon", [True]), ("epsilon", [1.0, False]), ("delta", [False]),
        ("delta_p", [True]), ("p_center", True),
    ], ids=["epsilon-true", "epsilon-false", "delta-false", "delta_p-true", "p_center-true"])
    def test_number_fields_refuse_bools(self, synth_csv, tmp_path, field, value):
        with pytest.raises(ConfigError, match=f"{field} must hold numbers"):
            base_config(synth_csv, tmp_path, **{field: value})

    @pytest.mark.parametrize("field,value,message", [
        ("epsilon", [1.0, 0.5, 1], "epsilon repeats 1"),
        ("delta", [0.001, 0.001], "delta repeats 0.001"),
        ("mechanisms", ["expm-g", "none", "expm-g"], "mechanisms repeats 'expm-g'"),
        ("delta_p", [0.1, 0.2, 0.1], "delta_p repeats 0.1, the pair (0.45, 0.55)"),
        ("delta_p", [0.1, 0.1 + 1e-12], "delta_p repeats 0.10000000000100001, the pair (0.45, 0.55)"),
    ], ids=["epsilon", "delta", "mechanisms", "delta_p", "delta_p-after-rounding"])
    def test_repeated_grid_values_refused(self, synth_csv, tmp_path, field, value, message):
        # Each copy of a repeated value would compute and write the same cells again.
        with pytest.raises(ConfigError, match=re.escape(message)):
            base_config(synth_csv, tmp_path, **{field: value})

    def test_seed_flag_is_refused_on_config_commands(
        self, synth_csv, tmp_path, monkeypatch, capsys
    ):
        # The seed is set in the config, where its range is checked.
        def no_table(cfg):
            raise AssertionError("a refused command read the table")

        monkeypatch.setattr(cli, "load_splits", no_table)
        doc = base_config(synth_csv, tmp_path / "out").__dict__.copy()
        doc.update(property=doc.pop("property_name"))
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(doc))
        for command in ("model", "utility", "attack"):
            with pytest.raises(SystemExit) as exc:
                main([command, "--config", str(cfg_path), "--seed", "99"])
            assert exc.value.code == 2
            assert "unrecognized arguments: --seed 99" in capsys.readouterr().err


class TestCmdModel:
    def test_catalog_holds_required_values(self, synth_csv, tmp_path):
        cfg = base_config(synth_csv, tmp_path / "out")
        path = cmd_model(cfg)
        catalog = load_catalog(path)
        assert SecretLabel("income", 0.45) in catalog
        assert SecretLabel("income", 0.55) in catalog
        assert sorted(p.name for p in path.parent.iterdir()) == ["catalog.json",
                                                                 "run_manifest.json"]

    def test_a_value_rounded_to_zero_is_a_positive_zero(self, synth_csv, tmp_path):
        # 0.5 - (1 + 1e-11)/2 rounds to zero from below.
        cfg = base_config(synth_csv, tmp_path / "out", delta_p=[1 + 1e-11])
        assert cfg.required_p_values() == [0.0, 1.0]
        values = cfg.required_p_values() + list(cfg.pair(cfg.delta_p[0]))
        assert all(math.copysign(1.0, p) == 1.0 for p in values)
        written = [entry["value"] for entry in json.loads(cmd_model(cfg).read_text())]
        assert sorted(written) == [0.0, 1.0]
        assert all(math.copysign(1.0, p) == 1.0 for p in written)

    def test_byte_identical_reruns(self, synth_csv, tmp_path):
        cfg = base_config(synth_csv, tmp_path / "out")
        first = cmd_model(cfg).read_bytes()
        second = cmd_model(cfg).read_bytes()
        assert first == second


@pytest.fixture(scope="module")
def run(synth_csv, tmp_path_factory):
    out = tmp_path_factory.mktemp("util")
    cfg = base_config(
        synth_csv, out,
        mechanisms=["none", "expm-l", "expm-g", "eig", "dau", "gdp-g"],
    )
    cmd_model(cfg)
    path = cmd_utility(cfg)
    return cfg, path


@pytest.fixture(scope="module")
def catalog_dir(synth_csv, tmp_path_factory):
    out = tmp_path_factory.mktemp("rel")
    cmd_model(ExperimentConfig.from_json(write_config(out / "config.json", synth_csv, out)))
    query = out / "query.json"
    query.write_text(json.dumps([40.0, 10.0, 30.0, 35.0, 41.0]))
    return out


class TestCmdUtility:
    def test_header_pinned(self, run):
        _, path = run
        assert path.read_text().splitlines()[0] == UTILITY_CSV_HEADER

    def test_mechanism_none_has_zero_error(self, run):
        _, path = run
        rows = [l for l in path.read_text().splitlines() if l.startswith("none,")]
        assert rows
        assert all(float(r.rsplit(",", 1)[1]) == 0.0 for r in rows)

    def test_mean_rows_present(self, run):
        cfg, path = run
        mean_rows = [l for l in path.read_text().splitlines() if ",mean," in l]
        assert len(mean_rows) == len(cfg.mechanisms)

    def test_uncertainty_credit_ordering(self, run):
        _, path = run
        means = {}
        for line in path.read_text().splitlines()[1:]:
            parts = line.split(",")
            if parts[5] == "mean":
                means[parts[0]] = float(parts[6])
        # repetitions share noise draws across mechanisms, so the shaped
        # plan never reports more error than the isotropic one
        assert means["dau"] <= means["eig"] <= means["expm-g"]

    def test_deterministic_rerun(self, run):
        cfg, path = run
        before = path.read_bytes()
        path.unlink()
        cmd_utility(cfg)
        assert path.read_bytes() == before

    def test_resume_reuses_cells(self, run, synth_csv):
        cfg, path = run
        cells = sorted((path.parent / "cells").glob("utility-*.json"))
        assert cells
        doc = json.loads(cells[0].read_text())
        doc["values"] = [123.5 for _ in doc["values"]]
        cells[0].write_text(json.dumps(doc))
        path.unlink()
        text = cmd_utility(cfg).read_text()
        assert ",123.5" in text  # tampered cell was trusted, proving reuse

    def test_stale_hash_recomputes(self, synth_csv, tmp_path):
        cfg = base_config(synth_csv, tmp_path / "out", mechanisms=["expm-g"])
        cmd_model(cfg)
        path = cmd_utility(cfg)
        cells = sorted((path.parent / "cells").glob("utility-*.json"))
        doc = json.loads(cells[0].read_text())
        doc["config_hash"] = "stale"
        doc["values"] = [999.0 for _ in doc["values"]]
        cells[0].write_text(json.dumps(doc))
        path.unlink()
        text = cmd_utility(cfg).read_text()
        assert ",999.0" not in text

    def test_configs_sharing_a_directory_keep_their_cells(
        self, synth_csv, tmp_path, monkeypatch
    ):
        stored = []
        store = cli._store_cell

        def counting_store(path, cfg_hash, values):
            stored.append(path)
            store(path, cfg_hash, values)

        monkeypatch.setattr(cli, "_store_cell", counting_store)
        out = tmp_path / "out"
        cmd_model(base_config(synth_csv, out))
        outputs = []
        for reps in (5, 6, 5):
            path = cmd_utility(base_config(synth_csv, out, repetitions=reps))
            outputs.append(path.read_bytes())
        assert len(stored) == 4  # two cells per config; the second 5 reused both
        assert outputs[2] == outputs[0]

    def test_non_object_cell_recomputes(self, synth_csv, tmp_path):
        cfg = base_config(synth_csv, tmp_path / "out", mechanisms=["expm-g"])
        cmd_model(cfg)
        path = cmd_utility(cfg)
        fresh = path.read_bytes()
        cell = next((path.parent / "cells").glob("utility-*.json"))
        cell.write_text("[]")
        assert cmd_utility(cfg).read_bytes() == fresh
        assert isinstance(json.loads(cell.read_text()), dict)

    def test_failed_cell_write_leaves_no_file(self, tmp_path, monkeypatch):
        def broken_dump(doc, fh):
            fh.write('{"config_hash": "h", "values": [1.0, ')
            raise OSError("disk full")

        monkeypatch.setattr(cli.json, "dump", broken_dump)
        path = cli._cell_path(tmp_path, "utility", "h", "expm-g", 1.0)
        with pytest.raises(OSError):
            cli._store_cell(path, {"config_hash": "h"}, [1.0, 2.0])
        assert list(path.parent.iterdir()) == []


class TestSweepResume:
    def test_full_resume_reads_no_table(self, synth_csv, tmp_path, monkeypatch):
        cfg = base_config(synth_csv, tmp_path / "out")
        cmd_model(cfg)
        fresh = [cmd_utility(cfg).read_bytes(), cmd_attack(cfg).read_bytes()]

        def no_table(cfg):
            raise AssertionError("a full resume read the table")

        monkeypatch.setattr(cli, "load_splits", no_table)
        assert [cmd_utility(cfg).read_bytes(), cmd_attack(cfg).read_bytes()] == fresh

    def test_rewritten_dataset_recomputes_cells(self, tmp_path, monkeypatch):
        data = write_simple_csv(synthetic_census_table(30_000, seed=11), tmp_path / "d.csv")
        cfg = base_config(data, tmp_path / "out")
        cmd_model(cfg)
        old = cmd_attack(cfg).read_bytes()

        write_simple_csv(synthetic_census_table(30_000, seed=12), data)
        stored = []
        store = cli._store_cell

        def counting_store(path, stamp, values):
            stored.append(path)
            store(path, stamp, values)

        monkeypatch.setattr(cli, "_store_cell", counting_store)
        cmd_model(cfg)
        rerun = cmd_attack(cfg).read_bytes()
        assert len(stored) == len(cfg.mechanisms)  # every cell recomputed

        fresh_cfg = base_config(data, tmp_path / "fresh")
        cmd_model(fresh_cfg)
        assert rerun == cmd_attack(fresh_cfg).read_bytes()
        assert rerun != old

    def test_each_stage_recomputes_when_what_it_reads_changes(self, tmp_path, monkeypatch):
        data = write_simple_csv(synthetic_census_table(30_000, seed=11), tmp_path / "d.csv")
        cfg = base_config(data, tmp_path / "out", mechanisms=["expm-l", "expm-g"])
        cmd_model(cfg)
        cmd_utility(cfg)
        cmd_attack(cfg)
        stored = []
        store = cli._store_cell

        def counting_store(path, stamp, values):
            stored.append(path.name.split("-")[0])
            store(path, stamp, values)

        monkeypatch.setattr(cli, "_store_cell", counting_store)

        # A changed dataset under an unchanged catalog: utility reads no table.
        write_simple_csv(synthetic_census_table(30_000, seed=12), data)
        cmd_utility(cfg)
        cmd_attack(cfg)
        assert stored == ["attack"] * 2

        # A changed catalog, the dataset as it stands: both stages recompute.
        catalog = Path(cfg.out_dir) / "catalog.json"
        docs = json.loads(catalog.read_text())
        docs[0]["mean"][0] += 1.0
        catalog.write_text(json.dumps(docs))
        stored.clear()
        cmd_utility(cfg)
        cmd_attack(cfg)
        assert stored == ["utility"] * 2 + ["attack"] * 2

    def test_cells_carry_the_digest_of_the_catalog_they_were_computed_from(
            self, synth_csv, tmp_path, monkeypatch):
        # Another config's `model` may replace a shared catalog while a stage
        # runs. Here every load swaps the file for the other catalog just
        # before it reads, the latest moment such a write can land.
        import hashlib

        cfg = base_config(synth_csv, tmp_path / "out", mechanisms=["expm-l", "expm-g"])
        cmd_model(cfg)
        cmd_model(base_config(synth_csv, tmp_path / "other", seed=8))
        catalog = Path(cfg.out_dir) / "catalog.json"
        versions = [catalog.read_bytes(), (tmp_path / "other" / "catalog.json").read_bytes()]
        assert versions[0] != versions[1]

        load = cli.load_catalog
        computed_from = []  # the digest of the catalog each load returned

        def swapping_load(*args):
            held = catalog.read_bytes()
            catalog.write_bytes(versions[1] if held == versions[0] else versions[0])
            loaded = load(*args)
            save_catalog(loaded, tmp_path / "loaded.json")
            computed_from.append(hashlib.sha256((tmp_path / "loaded.json").read_bytes()).hexdigest())
            return loaded

        stamped = []
        store = cli._store_cell

        def recording_store(path, stamp, values):
            stamped.append(stamp["catalog_sha256"])
            store(path, stamp, values)

        monkeypatch.setattr(cli, "load_catalog", swapping_load)
        monkeypatch.setattr(cli, "_store_cell", recording_store)
        for stage in (cmd_utility, cmd_attack):
            computed_from.clear()
            stamped.clear()
            stage(cfg)
            assert len(computed_from) == 1
            assert stamped == computed_from * len(cfg.mechanisms)

    @staticmethod
    def files_under(out):
        """(mtime_ns, bytes) of every file under out, by relative path."""
        return {str(p.relative_to(out)): (p.stat().st_mtime_ns, p.read_bytes())
                for p in sorted(out.rglob("*")) if p.is_file()}

    def test_resume_writes_nothing(self, synth_csv, tmp_path):
        cfg = base_config(synth_csv, tmp_path / "out", mechanisms=["none", "awass"])
        cmd_model(cfg)
        cmd_utility(cfg)
        cmd_attack(cfg)
        out = Path(cfg.out_dir)
        for path in out.rglob("*"):  # an old mtime shows any rewrite, however quick
            if path.is_file():
                os.utime(path, ns=(10**9, 10**9))
        before = self.files_under(out)
        assert "run_manifest.json" in before and "results_attack.csv" in before
        cmd_utility(cfg)
        cmd_attack(cfg)
        assert self.files_under(out) == before
        assert not list(out.rglob("*.tmp"))

    def test_changed_config_rewrites_the_manifest(self, synth_csv, tmp_path):
        cfg = base_config(synth_csv, tmp_path / "out")
        cmd_model(cfg)
        cmd_utility(cfg)
        manifest = Path(cfg.out_dir) / "run_manifest.json"
        assert json.loads(manifest.read_text())["config_hash"] == cfg.config_hash()
        wider = base_config(synth_csv, tmp_path / "out", epsilon=[1.0, 2.0])
        cmd_utility(wider)
        assert json.loads(manifest.read_text())["config_hash"] == wider.config_hash()
        assert not list(Path(cfg.out_dir).rglob("*.tmp"))

    @staticmethod
    def rejects_manifest_flag(command, capsys):
        with pytest.raises(SystemExit):
            main([command, "--config", "c.json", "--emit-manifest"])
        assert "unrecognized arguments: --emit-manifest" in capsys.readouterr().err

    def test_model_takes_no_manifest_flag(self, capsys):
        self.rejects_manifest_flag("model", capsys)

    def test_attack_takes_no_manifest_flag(self, capsys):
        self.rejects_manifest_flag("attack", capsys)

    def test_utility_takes_no_manifest_flag(self, capsys):
        self.rejects_manifest_flag("utility", capsys)


class TestUtilityNoise:
    def test_fresh_utility_reads_no_dataset(self, synth_csv, tmp_path, monkeypatch):
        cfg = base_config(synth_csv, tmp_path / "out")
        cmd_model(cfg)

        def no_table(cfg):
            raise AssertionError("the utility stage read the table")

        monkeypatch.setattr(cli, "load_splits", no_table)
        monkeypatch.setattr(cli, "load_dataset", no_table)
        path = cmd_utility(cfg)
        assert len(path.read_text().splitlines()) == 1 + len(cfg.mechanisms) * (
            cfg.repetitions + 1)

    def test_values_are_noise_norms_of_the_zero_query(self, synth_csv, tmp_path):
        cfg = base_config(synth_csv, tmp_path / "out", mechanisms=list(cli.MECHANISMS),
                          epsilon=[0.5, 2.0], repetitions=3)
        cmd_model(cfg)
        text = cmd_utility(cfg).read_text()
        family = family_from_catalog(load_catalog(tmp_path / "out" / "catalog.json"),
                                     [cfg.pair(0.1)], "income")
        zeros = np.zeros(5)
        rows = [line.split(",") for line in text.splitlines()[1:]]
        checked = 0
        for mech, eps, delta, _, dp, rep, value in rows:
            if rep == "mean":
                continue
            eps, delta, dp, rep = float(eps), float(delta), float(dp), int(rep)
            plan = build_plan(mech, family, PrivacyParams(eps, delta), cfg)
            rng = derive_rng(cfg.seed, "utility", eps, delta, dp, rep)
            assert float(value) == float(np.linalg.norm(apply(plan, zeros, rng))), (mech, eps, rep)
            assert (float(value) == 0.0) == (mech == "none")
            checked += 1
        assert checked == len(cli.MECHANISMS) * 2 * 3

    def test_cells_of_the_subset_stream_are_not_reused(self, synth_csv, tmp_path):
        import hashlib

        cfg = base_config(synth_csv, tmp_path / "out", mechanisms=["expm-g"])
        cmd_model(cfg)
        sha = hashlib.sha256((tmp_path / "out" / "catalog.json").read_bytes()).hexdigest()
        # Every older config hash covered fields since deleted, so a cell of
        # the older streams (a subset drawn before the noise) carries a hash
        # the current config cannot produce.
        older = {**cfg.canonical_dict(), "angle_tol": 1e-6, "awass_quantile_draws": 200_000,
                 "attribute_bounds": {}, "allow_variant_dataset": False, "cov_tol": 0.5,
                 "eigenbasis_tol": 0.5}
        older_hash = hashlib.sha256(json.dumps(older, sort_keys=True).encode()).hexdigest()
        assert older_hash != cfg.config_hash()
        path = cli._cell_path(tmp_path / "out", "utility", cfg.config_hash(), sha,
                              "expm-g", 1.0, 0.001, 0.1)
        cli._store_cell(path, {"config_hash": older_hash, "catalog_sha256": sha},
                        [123.5] * cfg.repetitions)
        text = cmd_utility(cfg).read_text()
        assert ",123.5" not in text
        assert json.loads(path.read_text())["config_hash"] == cfg.config_hash()
        assert list(path.parent.glob("utility-*.json")) == [path]


class TestSweepVariants:
    def test_multiple_delta_p_sweep(self, synth_csv, tmp_path):
        cfg = base_config(
            synth_csv, tmp_path / "out",
            delta_p=[0.1, 0.3], mechanisms=["expm-g"], repetitions=3,
            modeling_samples=100,
        )
        cmd_model(cfg)
        catalog = load_catalog(tmp_path / "out" / "catalog.json")
        assert {lab.value for lab in catalog} == {0.35, 0.45, 0.55, 0.65}
        path = cmd_utility(cfg)
        means = {}
        for line in path.read_text().splitlines()[1:]:
            parts = line.split(",")
            if parts[5] == "mean":
                means[float(parts[4])] = float(parts[6])
        # wider protected gaps force more noise
        assert means[0.3] > means[0.1]

    def test_main_out_override(self, synth_csv, tmp_path, capsys):
        cfg_path = tmp_path / "config.json"
        doc = base_config(synth_csv, tmp_path / "ignored").__dict__.copy()
        doc["property"] = doc.pop("property_name")
        cfg_path.write_text(json.dumps(doc))
        out = tmp_path / "override"
        assert main(["model", "--config", str(cfg_path), "--out", str(out)]) == 0
        capsys.readouterr()
        assert (out / "catalog.json").exists()
        assert not (tmp_path / "ignored").exists()
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["seed"] == doc["seed"]


class TestCmdAttack:
    def test_sweep_and_header(self, synth_csv, tmp_path):
        cfg = base_config(synth_csv, tmp_path / "out", epsilon=[0.2, 5.0])
        cmd_model(cfg)
        path = cmd_attack(cfg)
        lines = path.read_text().splitlines()
        assert lines[0] == ATTACK_CSV_HEADER
        means = {}
        for line in lines[1:]:
            parts = line.split(",")
            if parts[5] == "mean":
                means[(parts[0], float(parts[1]))] = float(parts[6])
        assert means[("none", 0.2)] > 0.65
        assert abs(means[("expm-g", 0.2)] - 0.5) < 0.12
        assert all(0.0 <= v <= 1.0 for v in means.values())


    def test_subsets_are_drawn_once_for_every_mechanism(self, synth_csv, tmp_path, monkeypatch):
        from distpriv import dataio

        draws = []  # the row count of each SubsetSampler.draw call
        draw = dataio.SubsetSampler.draw

        def counting_draw(self, p, n, count, rng):
            draws.append(count)
            return draw(self, p, n, count, rng)

        monkeypatch.setattr(dataio.SubsetSampler, "draw", counting_draw)
        counts = []
        for name, mechanisms in (("one", ["none"]), ("three", ["none", "expm-l", "expm-g"])):
            cfg = base_config(synth_csv, tmp_path / name, mechanisms=mechanisms,
                              epsilon=[0.5, 2.0])
            cmd_model(cfg)
            draws.clear()
            cmd_attack(cfg)
            counts.append((len(draws), sum(draws)))
        shadow = cfg.shadow_config()
        # one batch per (shadow or test, p_low or p_high) per repetition
        assert counts == [(4 * shadow.repetitions,
                           shadow.repetitions * (shadow.shadow_count + shadow.test_count))] * 2

    def test_rows_join_the_utility_rows_on_delta_p(self, synth_csv, tmp_path):
        # The attack's cells are labelled with the config's delta_p, not with
        # p_high - p_low, which rounds it to 10 decimals.
        cfg = base_config(synth_csv, tmp_path / "out", delta_p=[0.123456789012])
        cmd_model(cfg)
        keys = [{tuple(row.split(",")[:5]) for row in stage(cfg).read_text().splitlines()[1:]}
                for stage in (cmd_utility, cmd_attack)]
        assert keys[0] == keys[1]
        assert {key[4] for key in keys[1]} == {"0.123456789012"}

    def test_cells_are_paired(self, synth_csv, tmp_path):
        cfg = base_config(synth_csv, tmp_path / "out", mechanisms=["none", "wass", "expm-l"],
                          epsilon=[0.2, 1.0, 5.0])
        cmd_model(cfg)
        cells = {}  # (mechanism, epsilon) -> per-repetition accuracies
        for line in cmd_attack(cfg).read_text().splitlines()[1:]:
            mech, eps, _, _, _, rep, value = line.split(",")
            if rep != "mean":
                cells.setdefault((mech, float(eps)), []).append(float(value))
        # no noise: every budget scores the same subsets alike
        assert cells[("none", 0.2)] == cells[("none", 1.0)] == cells[("none", 5.0)]
        family = family_from_catalog(load_catalog(tmp_path / "out" / "catalog.json"),
                                     [cfg.pair(0.1)], "income")
        for eps in cfg.epsilon:
            wass, expm_l = (build_plan(mech, family, PrivacyParams(eps, 0.001), cfg)
                            for mech in ("wass", "expm-l"))
            assert (wass.kind, wass.scale) == (expm_l.kind, expm_l.scale)
            assert cells[("wass", eps)] == cells[("expm-l", eps)]

    def test_cells_of_the_per_mechanism_streams_are_not_reused(self, synth_csv, tmp_path):
        import hashlib

        from distpriv.dataio import dataset_sha256

        cfg = base_config(synth_csv, tmp_path / "out", mechanisms=["expm-g"])
        cmd_model(cfg)
        catalog = (tmp_path / "out" / "catalog.json").read_bytes()
        stamp = {"config_hash": cfg.config_hash(),
                 "dataset_sha256": dataset_sha256(cfg.dataset, cfg.dataset_format),
                 "catalog_sha256": hashlib.sha256(catalog).hexdigest()}
        # where an attack cell was stored when each mechanism drew its own subsets
        old = cli._cell_path(tmp_path / "out", "attack", stamp["config_hash"],
                             stamp["dataset_sha256"], stamp["catalog_sha256"],
                             "expm-g", 1.0, 0.001)
        cli._store_cell(old, stamp, [0.125] * cfg.shadow_config().repetitions)
        text = cmd_attack(cfg).read_text()
        assert ",0.125" not in text
        assert len(list(old.parent.glob("attack-*.json"))) == 2


class TestTransportCommand:
    def test_fig1_report(self, tmp_path):
        mu_path, nu_path = fig1_files(tmp_path)
        report = transport_report(mu_path, nu_path, 0.1)
        assert report["winf"] == 97.0
        assert report["min_w_for_delta"] == 1.0
        assert report["close"] is True
        assert report["certificate"]["retained_mass"] == [9, 10]

    def test_identical_files(self, tmp_path):
        mu_path, _ = fig1_files(tmp_path)
        report = transport_report(mu_path, mu_path, 0.0)
        assert report["winf"] == 0.0
        assert report["min_w_for_delta"] == 0.0

    def test_delta_one(self, tmp_path):
        mu_path, nu_path = fig1_files(tmp_path)
        assert transport_report(mu_path, nu_path, 1.0)["min_w_for_delta"] == 0.0

    def test_dimension_mismatch_names_both_files_before_any_solve(
        self, tmp_path, capsys, monkeypatch
    ):
        def no_solve(*args):
            raise AssertionError("a mismatched pair reached the solver")

        monkeypatch.setattr(cli, "winf_distance", no_solve)
        mu_path, _ = fig1_files(tmp_path)
        flat = tmp_path / "flat.json"
        flat.write_text(json.dumps({"points": [[0.0, 0.0]], "mass_num": [1], "mass_den": 1}))
        with pytest.raises(FormatError) as err:
            main(["transport", str(mu_path), str(flat)])
        assert "mu.json" in str(err.value) and "flat.json" in str(err.value)
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("delta", ["1.5", "nan", "-0.1"])
    def test_delta_outside_unit_interval_is_a_config_error(self, tmp_path, capsys, delta):
        mu_path, nu_path = fig1_files(tmp_path)
        with pytest.raises(ConfigError, match="--delta"):
            main(["transport", str(mu_path), str(nu_path), "--delta", delta])
        assert capsys.readouterr().out == ""


class TestReleaseAndAudit:
    def release_args(self, catalog_dir, mechanism="expm-g", seed="3", query=None):
        return [
            "release", "--config", str(catalog_dir / "config.json"),
            "--mechanism", mechanism, "--epsilon", "1.0", "--delta", "0.001",
            "--query", str(query or catalog_dir / "query.json"),
            *(["--seed", seed] if seed else []),
        ]

    def test_release_outputs_plan_and_vector(self, catalog_dir, capsys):
        assert main(self.release_args(catalog_dir)) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["noised_value"]) == 5
        assert doc["plan"]["kind"] == "gaussian_iid"
        assert doc["plan"]["provenance"]["mechanism"] == "expected_value_gaussian"

    def test_release_deterministic(self, catalog_dir, capsys):
        main(self.release_args(catalog_dir))
        first = capsys.readouterr().out
        main(self.release_args(catalog_dir))
        assert capsys.readouterr().out == first

    def test_seedless_releases_draw_fresh_noise(self, catalog_dir, tmp_path, capsys):
        # A seed fixes the noise whatever the query, so the difference of two
        # releases under one seed is exactly the difference of their queries.
        other = tmp_path / "other.json"
        other.write_text(json.dumps([41.0, 10.0, 30.0, 35.0, 41.0]))
        gaps = {}
        for seed in ("3", None):
            noised = []
            for query in (None, other):
                main(self.release_args(catalog_dir, seed=seed, query=query))
                noised.append(np.array(json.loads(capsys.readouterr().out)["noised_value"]))
            gaps[seed] = noised[1] - noised[0]
        assert np.array_equal(gaps["3"], [1.0, 0.0, 0.0, 0.0, 0.0])
        assert not np.array_equal(gaps[None], [1.0, 0.0, 0.0, 0.0, 0.0])

    def test_release_none_is_identity(self, catalog_dir, capsys):
        main(self.release_args(catalog_dir, mechanism="none"))
        doc = json.loads(capsys.readouterr().out)
        assert doc["noised_value"] == [40.0, 10.0, 30.0, 35.0, 41.0]

    @pytest.mark.parametrize("mechanism", list(cli.MECHANISMS))
    def test_release_builds_the_plan_of_a_sweep_cell(self, catalog_dir, capsys, mechanism):
        main(self.release_args(catalog_dir, mechanism=mechanism))
        printed = json.loads(capsys.readouterr().out)["plan"]
        cfg = ExperimentConfig.from_json(catalog_dir / "config.json")
        assert len(cfg.delta_p) == 1
        family = family_from_catalog(load_catalog(catalog_dir / "catalog.json"),
                                     [cfg.pair(cfg.delta_p[0])], cfg.property_name)
        plan = build_plan(mechanism, family, PrivacyParams(1.0, 0.001), cfg)
        assert printed == json.loads(json.dumps(plan.to_json()))

    @pytest.mark.parametrize("mechanism,norm", [("gdp-l", 1), ("gdp-g", 2)])
    def test_group_dp_takes_n_and_group_size_from_the_config(
        self, synth_csv, catalog_dir, tmp_path, capsys, mechanism, norm
    ):
        # The output directory holds no catalog: the group-DP plans read none.
        config = write_config(tmp_path / "config.json", synth_csv, tmp_path, n=50, group_size=7)
        args = self.release_args(catalog_dir, mechanism=mechanism)
        args[args.index("--config") + 1] = str(config)
        main(args)
        provenance = json.loads(capsys.readouterr().out)["plan"]["provenance"]
        assert provenance["k"] == 7
        assert provenance["per_record_sensitivity"] == per_record_sensitivity(
            QUERY_COMPONENTS, 50, norm)
        assert provenance["per_record_sensitivity"] > per_record_sensitivity(
            QUERY_COMPONENTS, 100, norm)

    def test_out_overrides_the_config_output_directory(self, synth_csv, catalog_dir, tmp_path,
                                                       capsys):
        config = write_config(tmp_path / "config.json", synth_csv, tmp_path / "absent")
        args = self.release_args(catalog_dir)
        args[args.index("--config") + 1] = str(config)
        main(args + ["--out", str(catalog_dir)])
        overridden = capsys.readouterr().out
        main(self.release_args(catalog_dir))
        assert capsys.readouterr().out == overridden

    @pytest.mark.parametrize("mechanism", ["expm-g", "gdp-l"])
    def test_release_rejects_nan_query(self, catalog_dir, tmp_path, capsys, mechanism):
        args = self.release_args(catalog_dir, mechanism=mechanism)
        query = tmp_path / "nan.json"
        query.write_text("[NaN, 1.0, 2.0, 3.0, 4.0]")
        args[args.index("--query") + 1] = str(query)
        with pytest.raises(FormatError):
            main(args)
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("mechanism", ["wass", "expm-g", "gdp-l", "gdp-g", "none", "eig",
                                           "dir-l"])
    def test_release_refuses_a_query_of_the_wrong_length(self, catalog_dir, tmp_path, capsys,
                                                          mechanism):
        args = self.release_args(catalog_dir, mechanism=mechanism)
        query = tmp_path / "short-query.json"
        query.write_text("[1.0, 2.0, 3.0]")  # the catalog and the query components are 5-D
        args[args.index("--query") + 1] = str(query)
        with pytest.raises(FormatError, match="short-query.json.*3 values, expected 5"):
            main(args)
        assert capsys.readouterr().out == ""

    def test_awass_plan_does_not_depend_on_the_seed(self, catalog_dir, capsys):
        plans = []
        for seed in ("0", "5"):
            main(self.release_args(catalog_dir, mechanism="awass", seed=seed))
            plans.append(json.loads(capsys.readouterr().out)["plan"])
        assert plans[0] == plans[1]

    @pytest.mark.parametrize("command", ["release", "audit"])
    def test_awass_refuses_a_catalog_too_wide_for_its_radius(self, tmp_path, capsys, command):
        # 2^23 sign vectors of a 24-D model would take about 1.6 GB to enumerate.
        low, high = SecretLabel("income", 0.45), SecretLabel("income", 0.55)
        save_catalog({low: GaussianModel(np.zeros(24), np.eye(24), 100),
                      high: GaussianModel(np.ones(24), np.eye(24), 100)},
                     tmp_path / "catalog.json")
        (tmp_path / "query.json").write_text(json.dumps([0.0] * 24))
        config = write_config(tmp_path / "config.json", tmp_path / "unread.csv", tmp_path)
        args = [command, "--config", str(config), "--mechanism", "awass", "--epsilon", "1",
                "--delta", "0.001"]
        if command == "release":
            args += ["--query", str(tmp_path / "query.json")]
        with pytest.raises(ConfigError, match="has 24"):
            main(args)
        assert capsys.readouterr().out == ""

    def test_audit_command(self, catalog_dir, capsys):
        args = [
            "audit", "--config", str(catalog_dir / "config.json"),
            "--mechanism", "expm-g", "--epsilon", "0.5", "--delta", "0.001",
            "--trials", "20000", "--seed", "1",
        ]
        assert main(args) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["trials"] == 20000
        assert doc["estimated_violation"] <= 0.0

    def test_audit_covers_every_pair(self, catalog_dir, capsys):
        args = [
            "audit", "--config", str(catalog_dir / "config.json"),
            "--mechanism", "none", "--epsilon", "0.2", "--delta", "0.001",
            "--trials", "10000", "--seed", "1",
        ]
        assert main(args) == 0
        doc = json.loads(capsys.readouterr().out)
        audited = [entry["pair"] for entry in doc["per_pair"]]
        assert [["income", 0.45], ["income", 0.55]] in audited
        assert [["income", 0.55], ["income", 0.45]] in audited
        worst = max(doc["per_pair"], key=lambda entry: entry["estimated_violation"])
        assert (doc["pair"], doc["estimated_violation"]) == (
            worst["pair"], worst["estimated_violation"])

    # The flags that once named the catalog, the pairs, the property, the
    # subset and group sizes and the assumption tolerances are refused: the
    # config and its catalog fix them all.
    @pytest.mark.parametrize("flag,value,error", [
        ("--pairs", json.dumps([[0.45, 0.55]]), SystemExit),
        ("--property", "income", SystemExit),
        ("--cov-tol", "0.5", SystemExit),
        ("--eigenbasis-tol", "0.5", SystemExit),
        ("--models", "catalog.json", SystemExit),
        ("--n", "50", SystemExit),
        ("--group-size", "10", SystemExit),
    ])
    def test_removed_pair_and_tolerance_inputs_refused(self, catalog_dir, capsys, flag, value,
                                                       error):
        with pytest.raises(error):
            main(self.release_args(catalog_dir) + [flag, value])
        assert capsys.readouterr().out == ""


class TestMalformedInputs:
    """A malformed JSON input fails with a typed error that names the file."""

    @staticmethod
    def argv(case, tmp_path, catalog_dir):
        """The command line of `case` and the file its error must name."""
        bad = tmp_path / f"{case}.json"
        if case == "config-list":
            bad.write_text("[1, 2]")
            return ["model", "--config", str(bad)], bad
        if case == "config-not-json":
            bad.write_text('{"seed": ')
            return ["model", "--config", str(bad)], bad
        if case == "config-without-dataset":
            bad.write_text(json.dumps({"seed": 1, "delta_p": [0.1], "epsilon": [1.0],
                                       "delta": [0.001], "mechanisms": ["none"]}))
            return ["model", "--config", str(bad)], bad
        if case == "transport-without-mass_num":
            bad.write_text(json.dumps({"points": [[1.0]], "mass_den": 1}))
            return ["transport", str(bad), str(bad)], bad
        out = tmp_path / case
        out.mkdir()
        one_shot = ["--config", str(catalog_dir / "config.json"), "--out", str(out),
                    "--mechanism", "expm-g", "--epsilon", "1", "--delta", "0.001"]
        if case == "audit-trials-below-minimum":  # out holds no catalog: reading it would raise
            return ["audit", *one_shot, "--trials", "5"], None
        docs = json.loads((catalog_dir / "catalog.json").read_text())
        del docs[0]["mean"]
        (out / "catalog.json").write_text(json.dumps(docs))
        return ["release", *one_shot, "--query", str(catalog_dir / "query.json")], \
            out / "catalog.json"

    @pytest.mark.parametrize("case,error,named", [
        ("config-list", ConfigError, "config-list.json"),
        ("config-not-json", FormatError, "config-not-json.json"),
        ("config-without-dataset", ConfigError, "'dataset'"),
        ("transport-without-mass_num", FormatError, "missing key 'mass_num'"),
        ("catalog-entry-without-mean", FormatError, "missing key 'mean'"),
        ("audit-trials-below-minimum", ConfigError, "at least 10000 trials"),
    ])
    def test_typed_error(self, tmp_path, catalog_dir, capsys, case, error, named):
        argv, path = self.argv(case, tmp_path, catalog_dir)
        with pytest.raises(error) as err:
            main(argv)
        assert named in str(err.value)
        if error is FormatError:
            assert str(path) in str(err.value)
        assert capsys.readouterr().out == ""


class TestBudgetErrors:
    SPEND_DELTA = ("awass", "expm-g", "dir-g", "eig", "dau", "gdp-g")

    def args(self, catalog_dir, mechanism, *budget):
        return [
            "release", "--config", str(catalog_dir / "config.json"),
            "--mechanism", mechanism, *budget,
            "--query", str(catalog_dir / "query.json"),
        ]

    @pytest.mark.parametrize("mechanism,budget", [
        ("expm-g", ("--epsilon", "1")),
        ("expm-l", ("--epsilon", "0")),
        ("expm-l", ("--epsilon", "1", "--delta", "1.5")),
        ("awass", ("--epsilon", "1", "--delta", "0")),
        ("expm-l", ("--epsilon", "inf")),
    ])
    def test_release_rejects_bad_budget(self, catalog_dir, tmp_path, capsys, mechanism, budget):
        # The output directory holds no catalog: the budget is refused before it is read.
        args = self.args(catalog_dir, mechanism, *budget) + ["--out", str(tmp_path)]
        with pytest.raises(ConfigError):
            main(args)
        assert capsys.readouterr().out == ""

    def test_audit_rejects_gaussian_without_delta(self, catalog_dir, tmp_path, capsys):
        args = ["audit", "--config", str(catalog_dir / "config.json"), "--out", str(tmp_path),
                "--mechanism", "dir-g", "--epsilon", "1", "--trials", "100"]
        with pytest.raises(ConfigError):
            main(args)
        capsys.readouterr()

    def test_release_without_delta_for_laplace(self, catalog_dir, capsys):
        assert main(self.args(catalog_dir, "expm-l", "--epsilon", "1")) == 0
        assert json.loads(capsys.readouterr().out)["plan"]["kind"] == "laplace_iid"

    def test_sweep_rejects_zero_delta_before_reading_the_table(
        self, synth_csv, tmp_path, monkeypatch
    ):
        def no_table(cfg):
            raise AssertionError("a rejected config read the table")

        monkeypatch.setattr(cli, "load_splits", no_table)
        doc = base_config(synth_csv, tmp_path / "out").__dict__.copy()
        doc.update(property=doc.pop("property_name"), delta=[0.0, 0.001])
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(doc))
        for command in ("model", "utility", "attack"):
            with pytest.raises(ConfigError, match="expm-g"):
                main([command, "--config", str(cfg_path)])

    def test_sweep_accepts_zero_delta_without_delta_spenders(self, synth_csv, tmp_path):
        laplace = [m for m in cli.MECHANISMS if m not in self.SPEND_DELTA]
        base_config(synth_csv, tmp_path, mechanisms=laplace, delta=[0.0])
        for mech in self.SPEND_DELTA:
            with pytest.raises(ConfigError):
                base_config(synth_csv, tmp_path, mechanisms=["none", mech], delta=[0.0])

    @pytest.mark.parametrize("mechanism", SPEND_DELTA)
    def test_build_plan_rejects_zero_delta(self, synth_csv, tmp_path, mechanism):
        from helpers import worked_example_family

        cfg = base_config(synth_csv, tmp_path)
        with pytest.raises(ConfigError, match="delta"):
            build_plan(mechanism, worked_example_family(), PrivacyParams(1.0, 0.0), cfg)


class TestBuildPlan:
    def test_gdp_needs_no_catalog(self, synth_csv, tmp_path):
        cfg = base_config(synth_csv, tmp_path)
        plan = build_plan("gdp-g", None, PrivacyParams(1.0, 0.001), cfg)
        assert plan.provenance["k"] == 100

    def test_family_required_for_model_mechanisms(self, synth_csv, tmp_path):
        cfg = base_config(synth_csv, tmp_path)
        with pytest.raises(ConfigError):
            build_plan("expm-g", None, PrivacyParams(1.0, 0.001), cfg)

    def test_wass_matches_expm_laplace_on_translation_catalog(self, synth_csv, tmp_path):
        from helpers import worked_example_family

        cfg = base_config(synth_csv, tmp_path)
        fam = worked_example_family()
        wass = build_plan("wass", fam, PrivacyParams(1.0), cfg)
        expm = build_plan("expm-l", fam, PrivacyParams(1.0), cfg)
        assert wass.scale == expm.scale == pytest.approx(2.0)

    def test_awass_radius_exceeds_mean_gap(self, synth_csv, tmp_path):
        from helpers import worked_example_family

        cfg = base_config(synth_csv, tmp_path)
        plan = build_plan("awass", worked_example_family(), PrivacyParams(1.0, 0.1), cfg)
        assert plan.scale > 2.0  # mean gap plus a positive radius
        prov = plan.provenance
        assert prov["l1_radius_method"] == "gaussian_union_bound"
        assert "l1_radius_draws" not in prov
        assert plan.scale == pytest.approx(2.0 + 2.0 * prov["l1_radius"])


class TestSubprocessEntry:
    def test_module_invocation(self, tmp_path):
        mu_path, nu_path = fig1_files(tmp_path)
        proc = subprocess.run(
            [sys.executable, "-m", "distpriv.cli", "transport",
             str(mu_path), str(nu_path), "--delta", "0.1"],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert doc["winf"] == 97.0 and doc["min_w_for_delta"] == 1.0
