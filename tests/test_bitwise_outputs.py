"""The comparison form of ``scripts/bitwise_outputs.py``: one line per output,
``same`` or ``differs`` with both values, a count of the geometry CSV's
fields that differ where its hash does, and exit code 0 either way."""

import importlib.util
from pathlib import Path

import pytest

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
        "csv_fields(0.3, 0.5): same",
    ]



CSV_BASE = "family,bid,tau,x,y\r\nbarrier,0,0,1.5,0.25\r\nequivocal,0,0.1,1.23456789,-0.5\r\n"


def test_differing_csv_hashes_count_the_fields(monkeypatch, capsys):
    script = load_script()
    name = f"csv_sha256({script.REF_MU1}, {script.REF_L})"
    trees = {"base/src": {name: "aa"}, "head/src": {name: "bb"}}
    csvs = {"base/src": CSV_BASE, "head/src": CSV_BASE.replace("1.23456789", "1.23456788")}
    monkeypatch.setattr(script, "run_tree", trees.__getitem__)
    monkeypatch.setattr(script, "tree_csv", csvs.__getitem__)
    assert script.main(["base/src", "head/src"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == (
        "csv_fields(0.3, 0.5): differs: 1 of 15 fields, largest |difference| 1e-08"
    )


def test_equal_csv_hashes_write_no_csv(monkeypatch, capsys):
    script = load_script()
    name = f"csv_sha256({script.REF_MU1}, {script.REF_L})"
    monkeypatch.setattr(script, "run_tree", lambda src: {name: "aa"})
    monkeypatch.setattr(script, "tree_csv", None)
    assert script.main(["base/src", "head/src"]) == 0
    assert capsys.readouterr().out.splitlines() == [f"{name}: same", "csv_fields(0.3, 0.5): same"]


@pytest.mark.parametrize(
    "head, line",
    [
        (CSV_BASE, "same"),
        (
            CSV_BASE.replace("equivocal", "secondary"),
            "differs: 1 of 15 fields, largest |difference| 0; "
            "1 mismatches, the first: row 2 text 'equivocal' against 'secondary'",
        ),
        (
            CSV_BASE + "secondary,0,0,1,1\r\n",
            "differs: 0 of 15 fields, largest |difference| 0; 1 mismatches, the first: 3 rows against 4",
        ),
    ],
    ids=["same", "text", "rows"],
)
def test_csv_fields(head, line):
    assert load_script().csv_fields(CSV_BASE, head) == line
