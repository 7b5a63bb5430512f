"""Benchmark of the chauffeur package: geometry builds, closed-loop games
and value queries.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see ``workloads.py``):

* ``build``: cold ``solve()`` of (0.3, 0.5) and (0.2, 0.5).
* ``reference_game``: ``deception_gain`` at the reference start (2.152, -0.214).
* ``value_map``: ``SolutionGeometry.value`` at seeded points around the
  (0.3, 0.5) pocket, about 40% of them inside it.

With ``--trace 0`` the run prints the end-to-end metrics; they are the same
on every workload so that each can be compared between commits.  Every time
in them is scaled to the host's reference speed by ``calibration.py``, which
times a fixed kernel before and after each unit of work; the wall-clock
figures and the host's speed are in the notes and the detail line.

* ``setup_s``: import time (median of this process and six fresh
  interpreters) plus the median of repeated cold builds of the geometries
  the workload needs before its timed part.
* ``op_latency_ms``: time of one operation (a solve, a ``deception_gain``
  call, a value query).  It is the 95th percentile when the run
  has at least 200 operations, so ten or more lie beyond it, and the median
  otherwise.  This is ``build_s`` on ``build`` (each sample the time per
  solve over one solve of each pair), ``game_s`` on
  ``reference_game`` and ``value_query_p95_ms`` on ``value_map``.
* ``ops_per_s``: operations finished per second of timed work; this is
  ``value_queries_per_s`` on ``value_map``.

The timed part repeats units of work for ``--seconds`` and then up to the
end of a round (the whole input once; see ``workloads.py``).  Failed
operations are reported as ``attempted``/``failed`` (``fail_share``).

With ``--trace 1`` the run sets up with tracing on, then alternates
untraced and traced rounds of the same work (up to nine pairs), runs the
output check untraced, and prints the per-layer metrics of ``tracing.py``
over the set-up and the first traced round, plus ``bench.trace_overhead``:
the median over the pairs of the traced round's time over the untraced
round's, minus one.  The work is fixed, so the counts repeat exactly for a
given seed.  The traced ``build`` run also hashes the (0.3, 0.5) geometry CSV
for the fingerprint.

The last line of output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The line before it, ``detail: {...}``, holds the
region shares, fingerprint drift and machine description.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

sys.path.insert(0, str(HERE))
import calibration  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# Most untraced/traced round pairs the traced run times for its overhead.
OVERHEAD_PAIRS = 9
# Fresh interpreters whose import time joins this process's.
FRESH_IMPORTS = 6

IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t0 = time.perf_counter()\n"
    "import chauffeur\n"
    "print(time.perf_counter() - t0)\n"
)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument(
        "--tiny", action="store_true", help="smallest inputs and one set-up (smoke test)"
    )
    args = ap.parse_args(argv)
    if args.seconds <= 0.0:
        ap.error("--seconds must be positive")
    return args


def import_chauffeur(src: Path):
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import chauffeur

    if not Path(chauffeur.__file__).resolve().is_relative_to(src.resolve()):
        raise ImportError(f"chauffeur imported from {chauffeur.__file__}, not from {src}")
    return chauffeur


def fresh_import_seconds(src: Path) -> float:
    """Import time of the package in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(src)],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
        cwd=ROOT,
    )
    return float(out.stdout.strip().splitlines()[-1])


def machine() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": sys.modules["numpy"].__version__,
        "commit": git_commit(),
    }


def git_commit() -> str:
    """HEAD of the checkout when it is a git work tree, read from .git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def latency_seconds(times: list[float]) -> tuple[float, str]:
    if len(times) >= 200:
        return statistics.quantiles(times, n=20)[-1], f"p95 of {len(times)}"
    return statistics.median(times), f"median of {len(times)}"


def timed_unit(wl) -> float:
    t0 = time.perf_counter()
    wl.unit()
    return time.perf_counter() - t0


def timed_round(wl) -> float:
    seconds = timed_unit(wl)
    while not wl.round_done():
        seconds += timed_unit(wl)
    return seconds


def overhead_pairs(chauffeur, wl, tracer, seconds: float) -> float:
    """Alternate untraced and traced rounds of the same work; return the
    median of traced over untraced time, minus one.

    Only the first traced round reports to ``tracer``, so the per-layer
    figures cover the set-up and exactly one round and their counts repeat.
    Later traced rounds time into throwaway tracers.  Pairs continue until
    ``OVERHEAD_PAIRS`` are done or they have taken ``2 * seconds``.
    """
    ratios = []
    spent = 0.0
    while len(ratios) < OVERHEAD_PAIRS and (not ratios or spent < 2.0 * seconds):
        plain = timed_round(wl)
        wl.restart()
        timer = tracer if not ratios else tracing.Tracer(chauffeur)
        with timer:
            traced = timed_round(wl)
        wl.restart()
        ratios.append(traced / plain)
        spent += plain + traced
    return statistics.median(ratios) - 1.0


def timed_part(wl, run, cal, seconds: float) -> None:
    """Repeat units for ``seconds`` and up to a round's end, scaling each
    unit's samples by the calibrator."""
    start = time.perf_counter()
    while True:
        run.settle(cal.scale(timed_unit(wl)))
        if wl.round_done() and time.perf_counter() - start >= seconds:
            return


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "chauffeur" / "__init__.py").is_file():
        print(f"perfbench: package source {src / 'chauffeur'} not found", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    cal = calibration.Calibrator()
    t0 = time.perf_counter()
    chauffeur = import_chauffeur(src)
    seconds = time.perf_counter() - t0
    import_samples = [seconds * cal.scale(seconds)]
    for _ in range(FRESH_IMPORTS):
        seconds = fresh_import_seconds(src)
        import_samples.append(seconds * cal.scale(seconds))
    import_s = statistics.median(import_samples)

    fingerprint = json.loads((HERE / "fingerprint.json").read_text())
    run = workloads.Run(
        chauffeur, args.seed, args.tiny, bool(args.trace), fingerprint, HERE / ".work"
    )
    run.cal = cal
    wl = workloads.WORKLOADS[args.workload](run)

    tracer = None
    if args.trace:
        tracer = tracing.Tracer(chauffeur)
        with tracer:
            build_s = wl.setup()
        overhead = overhead_pairs(chauffeur, wl, tracer, args.seconds)
        run.settle(1.0)
    else:
        build_s = wl.setup()
        timed_part(wl, run, cal, args.seconds)
    wl.check()

    if tracer is None:
        latency, how = latency_seconds(run.op_times) if run.op_times else (0.0, "no samples")
        metrics = {
            "setup_s": import_s + build_s,
            "op_latency_ms": latency * 1e3,
            "ops_per_s": run.ops / run.busy if run.busy > 0.0 else 0.0,
        }
        wanted = spec["end_to_end"]
        wall_latency = latency_seconds(run.wall_op_times)[0] if run.wall_op_times else 0.0
        notes = {
            "setup_s": f"import {import_s:.4f} s + median set-up build {build_s:.4f} s",
            "op_latency_ms": f"{how}; wall {wall_latency * 1e3:.6g} ms",
            "ops_per_s": f"{run.ops} operations in {run.busy:.3f} s; wall {run.wall_busy:.3f} s",
        }
        run.details["wall"] = {
            "op_latency_ms": wall_latency * 1e3,
            "ops_per_s": run.ops / run.wall_busy if run.wall_busy > 0.0 else 0.0,
        }
    else:
        metrics = tracer.layer_metrics()
        metrics["bench.trace_overhead"] = overhead
        run.details["closed_loop_step_tag_shares"] = workloads.shares(tracer.step_tags)
        wanted = spec["per_layer"]
        notes = {}
    if set(metrics) != {m["name"] for m in wanted}:
        raise RuntimeError("computed metrics do not match BENCHMARK.json")

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    for m in wanted:
        note = notes.get(m["name"])
        print(f"  {m['name']} = {metrics[m['name']]:.6g} {m['unit']}" + (f"  ({note})" if note else ""))
    share = run.failed / run.attempted if run.attempted else 1.0
    print(f"  fail_share = {run.failed}/{run.attempted} = {share:.4g}")
    for err in run.errors:
        print(f"  failed: {err}")
    print(f"  fingerprint: {'match' if not run.drift else 'DRIFT'}")
    for d in run.drift:
        print(f"    {d}")
    detail = dict(
        run.details,
        workload=args.workload,
        seed=args.seed,
        trace=args.trace,
        fail_share=share,
        speed=cal.speed(),
        fingerprint_drift=run.drift,
        machine=machine(),
    )
    print("detail: " + json.dumps(detail))
    result = {
        "correct": run.attempted > 0 and run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
