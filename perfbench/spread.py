"""Run the benchmark over several seeds and report each metric's spread.

Usage, from the root of a checkout::

    python3 perfbench/spread.py --workloads build,value_map --seeds 1-10 [--trace] [--record PATH]

For every workload it runs ``BENCHMARK.json``'s command once per seed with
``--trace 0`` and prints, per end-to-end metric, the median and the distance
between the first and third quartiles as a share of the median, next to the
metric's bound.  ``--trace`` adds one traced run per workload (the first
seed).  ``--record`` writes every run's result and detail line to a JSON
file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def run_once(spec: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = list(spec["command"]) + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]),
        "--trace", str(trace),
    ]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    detail = next(
        (json.loads(line[len("detail: "):]) for line in lines if line.startswith("detail: ")), {}
    )
    return {"wall_s": wall, "result": json.loads(lines[-1]), "detail": detail}


def spread(values: list[float]) -> tuple[float, float]:
    """(median, interquartile distance over the median)."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else float("inf")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", required=True, help="comma-separated names")
    ap.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 1,4,7")
    ap.add_argument("--trace", action="store_true", help="add one traced run per workload")
    ap.add_argument("--record", type=Path, help="write all runs to this JSON file")
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seed_list = seeds(args.seeds)

    record = {"run_seconds": spec["run_seconds"], "seeds": seed_list, "workloads": {}}
    ok = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in seed_list:
            r = run_once(spec, workload, seed, 0)
            runs.append(r)
            res = r["result"]
            vals = " ".join(f"{k}={v['value']:.6g}" for k, v in res["metrics"].items())
            print(
                f"{workload} seed={seed} wall={r['wall_s']:.1f}s correct={res['correct']} "
                f"{res['failed']}/{res['attempted']} {vals}",
                flush=True,
            )
            ok &= res["correct"]
        summary = {}
        for m in spec["end_to_end"]:
            values = [r["result"]["metrics"][m["name"]]["value"] for r in runs]
            med, iqr = spread(values)
            within = iqr <= m["bound"]
            ok &= within
            summary[m["name"]] = {"median": med, "iqr_share": iqr, "bound": m["bound"]}
            print(
                f"  {workload} {m['name']}: median {med:.6g} {m['unit']}, "
                f"spread {iqr:.4f} (bound {m['bound']}, a third {m['bound'] / 3:.4f})"
                + ("" if within else "  OUT OF BOUND"),
                flush=True,
            )
        entry = {"summary": summary, "runs": runs}
        if args.trace:
            entry["traced"] = run_once(spec, workload, seed_list[0], 1)
            print(f"  {workload} traced: {json.dumps(entry['traced']['result']['metrics'])}")
        record["workloads"][workload] = entry
    if args.record:
        args.record.parent.mkdir(parents=True, exist_ok=True)
        args.record.write_text(json.dumps(record, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
