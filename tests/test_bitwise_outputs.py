"""The comparison form of ``scripts/bitwise_outputs.py``: one line per output,
``same`` or ``differs`` with both values, a count of the geometry CSV's
fields that differ where its hash does, and exit code 0 either way; and
the lookup digest over a geometry's query structures."""

import copy
import dataclasses
import importlib.util
import math
from pathlib import Path

import numpy as np
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



def _nudged(values):
    """A copy of ``values`` (a list, tuple or array) with its first float one
    ulp up."""
    out = list(values) if not isinstance(values, np.ndarray) else values.copy()
    out[0] = math.nextafter(float(out[0]), math.inf)
    return tuple(out) if isinstance(values, tuple) else out


def test_lookup_digest_reads_every_query_structure(geom_03):
    # Each structure that the geometry digest leaves out moves the lookup
    # digest: an index array's bits or only its dtype, the keys and starts,
    # a polygon's ys, edges or one slab's row, the equivocal band's lists.
    digest = load_script().lookup_digest
    g = geom_03
    idx, pocket, petal, band = g._secondary_index, g._pocket, g._petal, g._equivocal_band

    def index(**arrays):
        changed = copy.copy(idx)
        vars(changed).update(arrays)
        return dataclasses.replace(g, _secondary_index=changed)

    slabs = [[_nudged(pocket.slabs[0][0]), *pocket.slabs[0][1:]], *pocket.slabs[1:]]
    variants = [
        index(sx=_nudged(idx.sx)),
        index(sy=_nudged(idx.sy)),
        index(owner=idx.owner.view(np.float64)),
        index(local=idx.local.astype(np.int32)),
        index(keys=idx.keys[:-1]),
        index(starts=[*idx.starts[:-1], idx.starts[-1] + 1]),
        dataclasses.replace(g, _pocket=dataclasses.replace(pocket, ys=_nudged(pocket.ys))),
        dataclasses.replace(g, _pocket=dataclasses.replace(pocket, slabs=slabs)),
        dataclasses.replace(g, _petal=dataclasses.replace(petal, edges=[_nudged(petal.edges[0]), *petal.edges[1:]])),
        dataclasses.replace(g, _equivocal_band=dataclasses.replace(band, xs=_nudged(band.xs))),
        dataclasses.replace(g, _equivocal_band=dataclasses.replace(band, ys=_nudged(band.ys))),
    ]
    base = digest(g)
    assert digest(g) == base
    assert len({base, *map(digest, variants)}) == len(variants) + 1
