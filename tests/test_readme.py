"""README's quick start runs as written and gives the values its comments state."""

import json
import re
import shlex
from pathlib import Path

from distpriv import cli
from helpers import synthetic_census_table, write_simple_csv

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


def command_line_example() -> list:
    """The command lines of README's console block that starts with `distpriv`."""
    for block in README.read_text(encoding="utf-8").split("```console\n")[1:]:
        text = block.split("```", 1)[0].replace("\\\n", " ")
        if text.startswith("distpriv "):
            return [shlex.split(line, comments=True) for line in text.splitlines()]
    raise AssertionError("README has no console block of distpriv commands")


def test_command_line_example_runs(tmp_path, monkeypatch, capsys):
    """Each command of the example runs through `cli.main`, top to bottom, in
    a directory holding a small synthetic config, a query and demo 01's two
    distributions."""
    write_simple_csv(synthetic_census_table(30_000, seed=11), tmp_path / "synth.csv")
    (tmp_path / "config.json").write_text(json.dumps({
        "dataset": "synth.csv", "dataset_format": "simple", "seed": 7, "delta_p": [0.1],
        "epsilon": [1.0], "delta": [0.001], "mechanisms": ["none", "eig", "expm-g"],
        "modeling_samples": 200, "repetitions": 2, "out_dir": "out",
    }))
    (tmp_path / "query.json").write_text(json.dumps([40.0, 10.0, 30.0, 35.0, 41.0]))
    points = [[1.0], [2.0], [3.0], [100.0]]
    for name, mass_num in (("demo_mu.json", [6, 2, 0, 2]), ("demo_nu.json", [4, 3, 2, 1])):
        (tmp_path / name).write_text(
            json.dumps({"points": points, "mass_num": mass_num, "mass_den": 10}))
    monkeypatch.chdir(tmp_path)

    printed = {}
    for argv in command_line_example():
        assert argv[0] == "distpriv"
        assert cli.main(argv[1:]) == 0
        printed[argv[1]] = capsys.readouterr().out
    assert list(printed) == ["model", "transport", "release", "audit"]
    assert printed["model"] == str(Path("out") / "catalog.json") + "\n"
    transport = json.loads(printed["transport"])
    assert (transport["winf"], transport["min_w_for_delta"]) == (97.0, 1.0)
    assert json.loads(printed["release"])["plan"]["kind"] == "gaussian_cov"
    audit = json.loads(printed["audit"])
    assert audit["trials"] == 100_000 and len(audit["per_pair"]) == 2
