"""The benchmark's workloads, their inputs and their output checks.

Each workload has a set-up (the geometry builds it needs before its timed
part), a unit of timed work that the runner repeats, and an output check run
after the timed part on what the workload itself produced.  Units make
rounds, each the whole input once: a round is one unit, except on ``build``,
whose unit is one solve and whose round solves both pairs.  A run ends on a
round's end.  ``reference_game`` checks every call's capture times against
the acceptance tolerances; ``build`` and ``value_map`` check their
geometries' scalars and ``value_map`` a few fixed value probes against
``fingerprint.json`` within ``CHECK_RTOL``.  A failed check counts all of the run's operations as failed.
Any bitwise difference from the fingerprint is reported as drift.

Inputs come from ``--seed`` only: the value map's query points.  ``build``
and ``reference_game`` have fixed inputs, so their seeds change nothing; their
spread across seeds is the machine's.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import statistics
import time
from collections import Counter
from pathlib import Path

from calibration import Calibrator

REF_MU1, REF_MU2, REF_L = 0.3, 0.2, 0.5
REF_START = (2.152, -0.214)
PAIRS = ((REF_MU1, REF_L), (REF_MU2, REF_L))

# Cold solves per set-up, split into repetitions of the workload's pairs
# (two of both pairs, three of one); set-up time is the repetitions' median.
SETUP_SOLVES = {1: 3, 2: 4}
# Value-map points: a box around the (0.3, 0.5) pocket with this margin on
# its open sides puts about 40% of the points in the pocket.
VALUE_MARGIN = 0.7
VALUE_POINTS = 4000
VALUE_BATCH = 100

# Criterion 1 of tests/test_acceptance.py: capture-time ordering, and the gain
# and absolute times either in reference units (17, 20) or after one common
# scale factor.
T_REF_TRUTHFUL = 17.0
T_REF_DECEPTIVE = 20.0

# Relative tolerance of the geometry and value checks: loose enough for a
# different integrator or root solver, tight enough to catch a broken build.
CHECK_RTOL = 1e-2
# Fixed value-map probes on the (0.3, 0.5) geometry: two tributary points and
# two in the pocket.
VALUE_PROBES = ((3.0, 2.0), (1.0, -2.5), (1.2, 0.3), (1.6, -0.6))


def reference_times_ok(t1: float | None, t2: float | None) -> bool:
    """Criterion 1's tolerances on the truthful and deceptive capture times."""
    if t1 is None or t2 is None or t1 <= 0.0 or t2 <= 0.0:
        return False
    gain = t2 - t1
    k1 = T_REF_TRUTHFUL / t1
    k2 = T_REF_DECEPTIVE / t2
    scale_confirmed = abs(k1 - k2) / k1 < 0.10
    k = 0.5 * (k1 + k2)
    gain_ok = 2.0 <= gain <= 4.0 or (scale_confirmed and 2.0 <= gain * k <= 4.0)
    absolute_ok = (
        abs(t1 - T_REF_TRUTHFUL) <= 1.5 and abs(t2 - T_REF_DECEPTIVE) <= 1.5
    ) or scale_confirmed
    return t2 > t1 and gain_ok and absolute_ok


def shares(counter: Counter) -> dict[str, float]:
    n = sum(counter.values())
    return {k: v / n for k, v in sorted(counter.items())} if n else {}


# ---------------------------------------------------------------------------
# fingerprint fields: compared bitwise against fingerprint.json
# ---------------------------------------------------------------------------


def pair_key(pair) -> str:
    return f"{pair[0]},{pair[1]}"


def geometry_fields(g) -> dict:
    return {"y_es": g.y_es, "tau_focal": g.tau_focal, "value_at_contact": g.value_at_contact}


def report_fields(rep) -> dict:
    return {
        "t_truthful": rep.t_truthful,
        "t_deceptive": rep.t_deceptive,
        "t_truthful_estimating": rep.t_truthful_estimating,
        "switch_point": list(rep.switch_point) if rep.switch_point else None,
        "region_mu1": rep.region_mu1,
        "region_mu2": rep.region_mu2,
    }


def geometry_digest(g) -> str:
    """sha256 over every array and scalar of a built geometry."""
    h = hashlib.sha256()
    for curve in (g.barrier, g.equivocal):
        h.update(curve.points.tobytes())
        h.update(curve.tau.tobytes())
    h.update(g.equivocal.u.tobytes())
    for fan in (g.primary_fan, g.secondary_fan):
        for ch in fan.trajectories:
            h.update(ch.points.tobytes())
            h.update(ch.tau.tobytes())
            h.update(repr((ch.terminal, ch.anchor_value, ch.phi, ch.anchor)).encode())
    h.update(repr((g.phi_bar, g.y_es, g.value_at_contact, g.tau_focal)).encode())
    return h.hexdigest()


class Run:
    """State of one benchmark run: counts, timings, details for the report."""

    def __init__(
        self, chauffeur, seed: int, tiny: bool, trace: bool, fingerprint: dict, work_dir: Path
    ):
        self.ch = chauffeur
        self.seed = seed
        self.tiny = tiny
        self.trace = trace
        self.fingerprint = fingerprint
        self.work_dir = work_dir
        self.attempted = 0
        self.failed = 0
        self.cal: Calibrator | None = None
        self.pending: list[tuple[float, int]] = []
        self.open = [0.0, 0.0]  # wall and scaled seconds of a sample in parts
        self.op_times: list[float] = []
        self.wall_op_times: list[float] = []
        self.ops = 0
        self.busy = 0.0
        self.wall_busy = 0.0
        self.errors: list[str] = []
        self.drift: list[str] = []
        self.details: dict = {}

    def fail(self, why: str, n: int = 1) -> None:
        self.failed += n
        if len(self.errors) < 10:
            self.errors.append(why)

    def record(self, seconds: float, ops: int = 1) -> None:
        """One timing sample covering ``ops`` operations, held until the unit
        it belongs to is scaled by ``settle``.  ``ops=0`` records a part of
        a sample that a later record closes, possibly in a later unit."""
        self.pending.append((seconds, ops))

    def settle(self, factor: float) -> None:
        """Scale the samples of the unit that just ended to reference seconds."""
        for seconds, ops in self.pending:
            self.open[0] += seconds
            self.open[1] += seconds * factor
            if ops:
                wall, scaled = self.open
                self.wall_op_times.append(wall / ops)
                self.op_times.append(scaled / ops)
                self.ops += ops
                self.wall_busy += wall
                self.busy += scaled
                self.open = [0.0, 0.0]
        self.pending.clear()

    def compare(self, label: str, expected: dict | None, got: dict) -> None:
        """Bitwise comparison with the fingerprint; a difference is drift,
        reported but not failed."""
        if expected is None:
            return
        for key, want in expected.items():
            if json.dumps(got.get(key)) != json.dumps(want):
                self.drift.append(f"{label}.{key}: {got.get(key)!r} != {want!r}")

    def fail_all(self, why: str) -> None:
        """A failed output check: every operation of the run failed."""
        self.fail(why, n=self.attempted - self.failed)

    def check_close(self, label: str, expected: dict, got: dict) -> None:
        """Report bitwise drift from the fingerprint; fail the run when a
        value is off by more than ``CHECK_RTOL``."""
        self.compare(label, expected, got)
        for key, want in expected.items():
            have = got.get(key)
            if have is None or not math.isclose(have, want, rel_tol=CHECK_RTOL):
                self.fail_all(f"{label}.{key} = {have!r}, expected {want!r}")

    def check_geometries(self, geoms: dict) -> None:
        for pair, g in geoms.items():
            key = pair_key(pair)
            self.check_close(
                f"geometry[{key}]", self.fingerprint["geometry"][key], geometry_fields(g)
            )

    def build_pairs(self, pairs) -> tuple[dict, float]:
        """Cold-build the pairs repeatedly; (last geometries, median seconds),
        each repetition scaled by the calibrator.

        The last repetition goes through ``get_geometry`` so that code which
        reads the module cache finds the geometries there; the cache is empty
        at process start, so that build is cold too.
        """
        solution, validate = self.ch.solution, self.ch.core.validate_params
        times = []
        geoms = {}
        reps = 1 if self.tiny else SETUP_SOLVES[len(pairs)] // len(pairs)
        for rep in range(reps):
            build = solution.get_geometry if rep == reps - 1 else solution.solve
            t0 = time.perf_counter()
            geoms = {pair: build(validate(*pair)) for pair in pairs}
            seconds = time.perf_counter() - t0
            times.append(seconds * self.cal.scale(seconds))
        return geoms, statistics.median(times)


class Workload:
    def __init__(self, run: Run):
        self.run = run
        self.ch = run.ch

    def setup(self) -> float:
        """Build what the timed part needs; return the median build seconds."""
        return 0.0

    def unit(self) -> None:
        raise NotImplementedError

    def round_done(self) -> bool:
        """Whether the last unit ended a round."""
        return True

    def restart(self) -> None:
        """Make the next unit repeat the inputs of the first one."""

    def check(self) -> None:
        raise NotImplementedError


class Build(Workload):
    """Cold solve() of the reference pairs in turn; the closed loop does
    nothing.  One solve per unit, so that the calibrator samples the host
    between solves; one timing sample per round, so that its time per solve
    averages both pairs, whose solves differ by about 5%."""

    def __init__(self, run):
        super().__init__(run)
        self.next = 0
        self.geoms: dict = {}
        self.digests: dict = {}

    def round_done(self) -> bool:
        return self.next == 0

    def restart(self) -> None:
        self.next = 0

    def unit(self) -> None:
        run, solution = self.run, self.ch.solution
        pair = PAIRS[self.next]
        self.next = (self.next + 1) % len(PAIRS)
        run.attempted += 1
        p = self.ch.core.validate_params(*pair)
        t0 = time.perf_counter()
        try:
            g = solution.solve(p)
        except Exception as exc:  # a failed build is a counted failure
            run.fail(f"solve{pair}: {type(exc).__name__}: {exc}")
            return
        run.record(time.perf_counter() - t0, ops=len(PAIRS) if self.round_done() else 0)
        digest = geometry_digest(g)
        if self.digests.setdefault(pair, digest) != digest:
            run.fail(f"solve{pair} differs from its first build")
        self.geoms[pair] = g

    def check(self) -> None:
        run = self.run
        if len(self.geoms) < len(PAIRS):
            run.fail_all("no geometry to check")
            return
        run.check_geometries(self.geoms)
        g = self.geoms[PAIRS[0]]
        if run.trace:
            # Writing the CSV takes as long as a build; once per traced run
            # is enough to show drift.
            sha = {pair_key(PAIRS[0]): csv_sha256(g, run.work_dir)}
            run.details["geometry_csv_sha256"] = sha
            run.compare("geometry_csv_sha256", run.fingerprint.get("geometry_csv_sha256"), sha)


def csv_sha256(g, work_dir: Path) -> str:
    """sha256 of the documented geometry CSV, written by the package."""
    work_dir.mkdir(parents=True, exist_ok=True)
    path = work_dir / f"geometry-{os.getpid()}.csv"
    try:
        g.to_csv(str(path))
        h = hashlib.sha256()
        with open(path, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                h.update(block)
        return h.hexdigest()
    finally:
        path.unlink(missing_ok=True)
        try:
            work_dir.rmdir()
        except OSError:
            pass  # another run still uses it


class ReferenceGame(Workload):
    """deception_gain at the reference start, estimating baseline included."""

    def __init__(self, run):
        super().__init__(run)
        self.first = None

    def setup(self) -> float:
        self.geoms, seconds = self.run.build_pairs(PAIRS)
        return seconds

    def unit(self) -> None:
        run, ch = self.run, self.ch
        g1, g2 = self.geoms[PAIRS[0]], self.geoms[PAIRS[1]]
        run.attempted += 1
        t0 = time.perf_counter()
        rep = ch.deception.deception_gain(
            REF_MU1, REF_MU2, REF_L, ch.core.RelState(*REF_START), geom1=g1, geom2=g2
        )
        run.record(time.perf_counter() - t0)
        fields = report_fields(rep)
        if self.first is None:
            self.first = fields
        if rep.incomplete:
            run.fail("reference game incomplete")
        elif not reference_times_ok(rep.t_truthful, rep.t_deceptive):
            run.fail(f"reference times {rep.t_truthful!r}, {rep.t_deceptive!r} out of tolerance")
        elif json.dumps(fields) != json.dumps(self.first):
            run.fail("reference game differs from its first call")

    def check(self) -> None:
        run = self.run
        run.check_geometries(self.geoms)
        run.details["reference"] = self.first
        run.compare("reference", run.fingerprint.get("reference"), self.first)


class ValueMap(Workload):
    """SolutionGeometry.value at seeded points around the (0.3, 0.5) pocket."""

    def __init__(self, run):
        super().__init__(run)
        self.next = 0
        self.queried = 0  # points queried at least once; restart() keeps it

    def setup(self) -> float:
        run = self.run
        geoms, seconds = run.build_pairs(PAIRS[:1])
        self.geom = geoms[PAIRS[0]]
        self.points = self._points(self.geom, run.seed, 40 if run.tiny else VALUE_POINTS)
        return seconds

    def _points(self, g, seed: int, n: int):
        """Uniform points in the pocket's bounding box, widened by the margin
        on every side but the y axis, outside the capture circle."""
        walls = (g.barrier.points, g.equivocal.points)
        x_max = max(float(w[:, 0].max()) for w in walls) + VALUE_MARGIN
        y_min = min(float(w[:, 1].min()) for w in walls) - VALUE_MARGIN
        y_max = max(float(w[:, 1].max()) for w in walls) + VALUE_MARGIN
        rng = random.Random(seed)
        l2 = g.params.l ** 2
        RelState = self.ch.core.RelState
        out = []
        while len(out) < n:
            x, y = rng.uniform(0.0, x_max), rng.uniform(y_min, y_max)
            if x * x + y * y > l2:
                out.append(RelState(x, y))
        return out

    def restart(self) -> None:
        self.next = 0

    def unit(self) -> None:
        run, g, pts = self.run, self.geom, self.points
        for _ in range(10 if run.tiny else VALUE_BATCH):
            s = pts[self.next % len(pts)]
            self.next += 1
            self.queried = max(self.queried, self.next)
            run.attempted += 1
            t0 = time.perf_counter()
            try:
                v = g.value(s)
            except Exception as exc:  # a failed query is a counted failure
                run.fail(f"value({s.x:.4f}, {s.y:.4f}): {type(exc).__name__}: {exc}")
                continue
            run.record(time.perf_counter() - t0)
            if not (math.isfinite(v) and v >= 0.0):
                run.fail(f"value({s.x:.4f}, {s.y:.4f}) = {v!r}")

    def check(self) -> None:
        run, ch = self.run, self.ch
        queried = self.points[: min(self.queried, len(self.points))]
        run.details["query_tag_shares"] = shares(Counter(self.geom.classify(s).tag for s in queried))
        run.check_geometries({PAIRS[0]: self.geom})
        probes = {f"{x},{y}": self.geom.value(ch.core.RelState(x, y)) for x, y in VALUE_PROBES}
        run.check_close("value_probes", run.fingerprint["value_probes"], probes)


WORKLOADS = {
    "build": Build,
    "reference_game": ReferenceGame,
    "value_map": ValueMap,
}
