"""Print the outputs a bit-for-bit change must leave as they are, or compare
them between two source trees.

    PYTHONPATH=src python scripts/bitwise_outputs.py
    python scripts/bitwise_outputs.py BASE_SRC HEAD_SRC

The first form prints one ``name = value`` line per output of the
``chauffeur`` package on the path: the sha256 geometry digest of seven
parameter pairs, the sha256 of the (0.3, 0.5) geometry CSV, the reference
``deception_gain`` report and the four value probes, the last two in
``repr``.  The digest and CSV helpers are the benchmark's own, imported
read-only from ``perfbench/workloads.py``.  The second form runs the first
once against each ``src`` directory and prints ``same`` or ``differs`` per
output, with both values where they differ.  It reports; it never fails on
a difference.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DIGEST_PAIRS = ((0.3, 0.5), (0.2, 0.5), (0.4, 0.5), (0.25, 0.6), (0.1, 0.3), (0.35, 0.7), (0.2, 0.7))


def outputs() -> list[tuple[str, str]]:
    """(name, value) of every compared output, in print order."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import REF_L, REF_MU1, REF_MU2, REF_START, VALUE_PROBES, csv_sha256, geometry_digest

    from chauffeur.core import RelState, validate_params
    from chauffeur.deception import deception_gain
    from chauffeur.solution import get_geometry

    out = []
    for mu, l in DIGEST_PAIRS:
        out.append((f"geometry_digest({mu}, {l})", geometry_digest(get_geometry(validate_params(mu, l)))))
    g = get_geometry(validate_params(REF_MU1, REF_L))
    with tempfile.TemporaryDirectory() as tmp:
        out.append((f"csv_sha256({REF_MU1}, {REF_L})", csv_sha256(g, Path(tmp))))
    report = deception_gain(REF_MU1, REF_MU2, REF_L, RelState(*REF_START))
    out.append(("deception_gain report", repr(report)))
    for x, y in VALUE_PROBES:
        out.append((f"value({x}, {y})", repr(g.value(RelState(x, y)))))
    return out


def run_tree(src: str) -> dict[str, str]:
    """The outputs of the package under ``src``, from a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(Path(src).resolve()))
    text = subprocess.run(
        [sys.executable, __file__], env=env, check=True, capture_output=True, text=True
    ).stdout
    return dict(line.split(" = ", 1) for line in text.splitlines())


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
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
