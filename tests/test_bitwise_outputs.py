"""The comparison form of ``scripts/bitwise_outputs.py``: one line per output,
``same`` or ``differs`` with both values, and exit code 0 either way."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bitwise_outputs.py"


def load_script():
    spec = importlib.util.spec_from_file_location("bitwise_outputs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_compare_two_trees(monkeypatch, capsys):
    script = load_script()
    trees = {
        "base/src": {"a": "1", "b": "2.0", "gone": "x"},
        "head/src": {"a": "1", "b": "2.0000000000000004", "new": "y"},
    }
    monkeypatch.setattr(script, "run_tree", trees.__getitem__)
    assert script.main(["base/src", "head/src"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "a: same",
        "b: differs",
        "  base: 2.0",
        "  head: 2.0000000000000004",
        "gone: differs",
        "  base: x",
        "  head: None",
        "new: differs",
        "  base: None",
        "  head: y",
    ]

