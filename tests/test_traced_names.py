"""Every function the benchmark's tracer wraps still exists in distpriv, each
catalog plan makes one counted calibration call, and each computed attack
cell one counted trial and one counted training.

`perfbench/tracing.py` replaces functions and methods by name; a rename or
removal in the package, a builder that calls a calibration twice or not
at all, or an attack that bypasses the traced names, would otherwise surface
only when the benchmark runs. The tracer
module imports only the standard library, so it loads here without the
benchmark's own dependencies.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from distpriv import cli
from distpriv.model import PrivacyParams

from helpers import synthetic_census_table, worked_example_family, write_simple_csv

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracer_targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def _targets():
    return [(module_name, attr) for module_name, attr, _, _ in _tracer_targets()]


@pytest.mark.parametrize("module_name,attr", _targets(), ids=lambda name: name)
def test_traced_name_resolves(module_name, attr):
    home = importlib.import_module(module_name)
    if "." in attr:  # Class.method, which the tracer looks up in the class's own dict
        cls_name, method = attr.split(".")
        target = vars(getattr(home, cls_name))[method]
    else:
        target = getattr(home, attr)
    assert callable(target)


def _count_traced_calls(monkeypatch, keys):
    """Rebind every tracer target of the given layer keys with a counter,
    wherever a distpriv module holds it, as the tracer rebinds them; returns
    the list each counted call appends its target's name to."""
    calls = []
    modules = [module for name, module in sys.modules.items()
               if name == "distpriv" or name.startswith("distpriv.")]
    for module_name, attr, key, _ in _tracer_targets():
        if key not in keys:
            continue
        original = getattr(importlib.import_module(module_name), attr)

        def counted(*args, _attr=attr, _original=original, **kwargs):
            calls.append(_attr)
            return _original(*args, **kwargs)

        for module in modules:
            for name, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, name, counted)
    return calls


def test_each_catalog_plan_is_one_traced_calibration(monkeypatch):
    """Every `cli.MECHANISMS` plan but `none` makes exactly one call the
    tracer counts as `mechanisms.plan`, so the benchmark's plan count is the
    number of plans built."""
    calls = _count_traced_calls(monkeypatch, {"mechanisms.plan"})
    cfg = cli.ExperimentConfig(dataset="", seed=1, delta_p=[0.1], epsilon=[1.0], delta=[1e-3],
                               mechanisms=["none"])
    family = worked_example_family()
    for mechanism in cli.MECHANISMS:
        calls.clear()
        cli.build_plan(mechanism, family, PrivacyParams(1.0, 1e-3), cfg)
        assert len(calls) == (mechanism != "none"), (mechanism, calls)


def test_each_computed_attack_cell_is_one_traced_trial_and_training(monkeypatch, tmp_path):
    """A computed attack cell makes one `run_attack_trial` and one
    `train_meta_classifier` call, whatever its repetitions, and a resumed
    cell makes neither, so the benchmark's `attack.*` figures count cells."""
    calls = _count_traced_calls(monkeypatch, {"attack.trial", "attack.train"})
    data = write_simple_csv(synthetic_census_table(30_000, seed=11), tmp_path / "synth.csv")
    cfg = cli.ExperimentConfig.from_dict({
        "dataset": str(data), "dataset_format": "simple", "seed": 7, "property": "income",
        "p_center": 0.5, "delta_p": [0.1], "epsilon": [0.5, 2.0], "delta": [1e-3],
        "mechanisms": ["none", "expm-l", "expm-g"], "n": 100, "modeling_samples": 200,
        "repetitions": 2, "attack": {"repetitions": 3, "shadow_count": 40, "test_count": 40},
        "out_dir": str(tmp_path / "out"),
    })
    cli.cmd_model(cfg)
    cli.cmd_attack(cfg)
    cells = len(cfg.mechanisms) * len(cfg.epsilon)
    assert sorted(calls) == ["run_attack_trial"] * cells + ["train_meta_classifier"] * cells
    calls.clear()
    cli.cmd_attack(cfg)
    assert calls == []
