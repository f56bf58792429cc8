"""README's quick start runs as written and gives the values its comments state."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"
# An expression line whose comment starts with the value it evaluates to.
COMMENTED_VALUE = re.compile(r"^(?P<expr>[^=#]+?)\s*#\s*(?P<value>-?\d+\.\d+)\b")


def quick_start() -> str:
    blocks = README.read_text(encoding="utf-8").split("```python\n")[1:]
    assert len(blocks) == 1
    return blocks[0].split("```", 1)[0]


def test_quick_start_runs_and_gives_its_commented_values():
    code = quick_start()
    namespace = {}
    exec(compile(code, str(README), "exec"), namespace)
    checked = {}
    for line in code.splitlines():
        match = COMMENTED_VALUE.match(line)
        if match:
            checked[match["expr"]] = eval(match["expr"], namespace)
            assert checked[match["expr"]] == float(match["value"]), line
    assert checked == {"winf_distance(mu, nu)": 97.0, "min_w_for_delta(mu, nu, 0.1)": 1.0}
    assert namespace["release"].shape == (2,)
