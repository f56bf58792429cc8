"""Every function the benchmark's tracer wraps still exists in distpriv.

`perfbench/tracing.py` replaces functions and methods by name; a rename or
removal in the package would otherwise surface only when the benchmark
runs. The tracer module imports only the standard library, so it loads here
without the benchmark's own dependencies.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [(module_name, attr) for module_name, attr, _, _ in module.TARGETS]


@pytest.mark.parametrize("module_name,attr", _targets(), ids=lambda name: name)
def test_traced_name_resolves(module_name, attr):
    home = importlib.import_module(module_name)
    if "." in attr:  # Class.method, which the tracer looks up in the class's own dict
        cls_name, method = attr.split(".")
        target = vars(getattr(home, cls_name))[method]
    else:
        target = getattr(home, attr)
    assert callable(target)
