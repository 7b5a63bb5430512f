"""Print the outputs a bit-for-bit change must leave as they are, or compare
them between two source trees.

    PYTHONPATH=src python scripts/bitwise_outputs.py
    python scripts/bitwise_outputs.py BASE_SRC HEAD_SRC

The first form prints one ``name = value`` line per output of the
``chauffeur`` package on the path:

* the sha256 geometry digest of seven parameter pairs,
* the sha256 lookup digest of the (0.3, 0.5) and (0.2, 0.5) geometries:
  the query structures built from the curves and fans, which the geometry
  digest leaves out (:func:`lookup_digest`),
* the pickled size in bytes of the (0.3, 0.5) and (0.2, 0.5) geometries,
  what a sweep worker receives per geometry; it is taken after the digest
  has read every sample, and holds no primary-fan samples, which the
  geometry keeps in closed form,
* the sha256 of the (0.3, 0.5) geometry CSV,
* the reference ``deception_gain`` report and the four value probes, in
  ``repr``,
* how many of 400 seeded Secondary points of (0.3, 0.5), drawn with
  ``random.Random(1)`` over the pocket's bounding box, take the rear or
  junction preimage and how many the secondary dive.

The digest and CSV helpers are the benchmark's own, imported read-only from
``perfbench/workloads.py``.  The second form runs the first once against
each ``src`` directory, each in a fresh interpreter, and prints ``same`` or
``differs`` per output, with both values where they differ.  Since the CSV
hash can flip on a drift in the 15th digit that reaches a 9th printed one,
it then adds one ``csv_fields`` line: where the two hashes differ, each
tree writes its CSV from a fresh interpreter and the line counts the fields
that differ, numeric ones compared as floats, with the largest difference,
and names a row-count or text-field mismatch.  It reports; it never fails
on a difference.  Given the same ``src`` twice with
``PYTHONHASHSEED`` unset, each interpreter draws its own hash seed, so a
``differs`` names an output that depends on it.
"""

from __future__ import annotations

import csv
import hashlib
import os
import pickle
import random
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
from workloads import PAIRS, REF_L, REF_MU1, REF_MU2, REF_START, VALUE_PROBES, csv_sha256, geometry_digest  # noqa: E402

DIGEST_PAIRS = ((0.3, 0.5), (0.2, 0.5), (0.4, 0.5), (0.25, 0.6), (0.1, 0.3), (0.35, 0.7), (0.2, 0.7))
POCKET_POINTS = 400


def lookup_digest(g) -> str:
    """sha256 over the query structures of a built geometry: the sample
    index's arrays (dtypes included), ``keys`` and ``starts``, the pocket's
    and petal's ``bbox``, ``ys``, ``edges`` and ``slabs``, and the equivocal
    band's lists and ``bbox``.  Lists are hashed through their ``repr``, which keeps every
    float's bits and every item's type."""
    h = hashlib.sha256()
    idx = g._secondary_index
    for a in (idx.sx, idx.sy, idx.owner, idx.local):
        h.update(a.dtype.str.encode())
        h.update(a.tobytes())
    h.update(repr((idx.keys, idx.starts)).encode())
    for poly in (g._pocket, g._petal):
        h.update(repr((poly.bbox, poly.ys, poly.edges, poly.slabs)).encode())
    band = g._equivocal_band
    h.update(repr((band.xs, band.ys, band.bbox)).encode())
    return h.hexdigest()


def outputs() -> list[tuple[str, str]]:
    """(name, value) of every compared output, in print order."""
    from chauffeur.core import RelState, validate_params
    from chauffeur.deception import deception_gain
    from chauffeur.solution import SECONDARY, get_geometry

    out = []
    for mu, l in DIGEST_PAIRS:
        out.append((f"geometry_digest({mu}, {l})", geometry_digest(get_geometry(validate_params(mu, l)))))
    for mu, l in PAIRS:
        out.append((f"lookup_digest({mu}, {l})", lookup_digest(get_geometry(validate_params(mu, l)))))
    for mu, l in PAIRS:
        out.append((f"pickle_bytes({mu}, {l})", str(len(pickle.dumps(get_geometry(validate_params(mu, l)))))))
    g = get_geometry(validate_params(REF_MU1, REF_L))
    with tempfile.TemporaryDirectory() as tmp:
        out.append((f"csv_sha256({REF_MU1}, {REF_L})", csv_sha256(g, Path(tmp))))
    report = deception_gain(REF_MU1, REF_MU2, REF_L, RelState(*REF_START))
    out.append(("deception_gain report", repr(report)))
    for x, y in VALUE_PROBES:
        out.append((f"value({x}, {y})", repr(g.value(RelState(x, y)))))
    rng = random.Random(1)
    x0, x1, y0, y1 = g._pocket_bbox
    paths = Counter()
    while paths.total() < POCKET_POINTS:
        x, y = rng.uniform(x0, x1), rng.uniform(y0, y1)
        if g.classify(RelState(x, y)).tag == SECONDARY:
            pre = g._preimages(abs(x), y)
            paths[pre[0][0] if pre else "dive"] += 1
    out.append((f"pocket_paths({REF_MU1}, {REF_L})", str(sorted(paths.items()))))
    return out


def run_tree(src: str) -> dict[str, str]:
    """The outputs of the package under ``src``, from a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(Path(src).resolve()))
    text = subprocess.run(
        [sys.executable, __file__], env=env, check=True, capture_output=True, text=True
    ).stdout
    return dict(line.split(" = ", 1) for line in text.splitlines())


def tree_csv(src: str) -> str:
    """The (REF_MU1, REF_L) geometry CSV of the package under ``src``,
    written by a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(Path(src).resolve()))
    code = (
        "import sys; from chauffeur.core import validate_params; from chauffeur.solution import get_geometry; "
        f"get_geometry(validate_params({REF_MU1}, {REF_L})).to_csv(sys.argv[1])"
    )
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "geometry.csv"
        subprocess.run([sys.executable, "-c", code, str(path)], env=env, check=True)
        return path.read_text()


def csv_fields(base: str, head: str) -> str:
    """``same``, or how many fields of two CSV texts differ and the largest
    difference of a numeric one, with the count of row-count and text
    mismatches and the first of them."""
    rows_a, rows_b = list(csv.reader(base.splitlines())), list(csv.reader(head.splitlines()))
    fields = changed = 0
    largest = 0.0
    mismatches = []
    if len(rows_a) != len(rows_b):
        mismatches.append(f"{len(rows_a)} rows against {len(rows_b)}")
    for i, (ra, rb) in enumerate(zip(rows_a, rows_b)):
        if len(ra) != len(rb):
            mismatches.append(f"row {i} has {len(ra)} fields against {len(rb)}")
        for a, b in zip(ra, rb):
            fields += 1
            if a == b:
                continue
            changed += 1
            try:
                largest = max(largest, abs(float(a) - float(b)))
            except ValueError:
                mismatches.append(f"row {i} text {a!r} against {b!r}")
    if not changed and not mismatches:
        return "same"
    line = f"differs: {changed} of {fields} fields, largest |difference| {largest:.3g}"
    if mismatches:
        line += f"; {len(mismatches)} mismatches, the first: {mismatches[0]}"
    return line


def main(argv: list[str]) -> int:
    if not argv:
        for name, value in outputs():
            print(f"{name} = {value}")
        return 0
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, head = (run_tree(src) for src in argv)
    for name in dict.fromkeys([*base, *head]):
        a, b = base.get(name), head.get(name)
        if a == b:
            print(f"{name}: same")
        else:
            print(f"{name}: differs\n  base: {a}\n  head: {b}")
    csv_name = f"csv_sha256({REF_MU1}, {REF_L})"
    same = base.get(csv_name) == head.get(csv_name)
    print(f"csv_fields({REF_MU1}, {REF_L}): " + ("same" if same else csv_fields(*map(tree_csv, argv))))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
