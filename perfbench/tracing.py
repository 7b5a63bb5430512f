"""Span tracing for the benchmark's traced run.

The traced run replaces the module attributes and ``SolutionGeometry``
methods that the package resolves at call time (for example
``chauffeur.sim.feedback_pair`` or ``SolutionGeometry.pocket_contains``) with
timing wrappers, and puts the originals back afterwards.  The package itself
carries no instrumentation.

Each wrapper opens a span.  A span's self time is its duration minus the
time covered by the spans opened inside it, so nested layers are not counted
twice.  Spans are aggregated as they close (calls, total and self seconds per
name) rather than stored one by one: a reference game opens a few hundred
thousand of them.

``core`` has no wrapper: ``rel_rhs`` is a two-line function, so a wrapper
around it would mostly time itself.  Its cost is inside ``sim.step_raw``.
"""

from __future__ import annotations

import time
from collections import Counter

# Span names.
SOLVE = "solution.solve"
BARRIER = "solution.barrier"
PRIMARY_FAN = "solution.primary_fan"
SECONDARY_FAN = "solution.secondary_fan"
MARCH = "solution.equivocal_march"
CLASSIFY = "solution.classify"
POCKET = "solution.pocket_contains"
SECONDARY_DATA = "solution.secondary_data"
VALUE = "solution.value"
FEEDBACK = "strategy.feedback"
RUN = "sim.run_closed_loop"
STEP_RAW = "sim.step_raw"
DETECT = "sim.detect_events"
FLIP = "sim.pocket_flip"
GAIN = "deception.gain"

# Plain counters.
MARCH_STEPS = "march_steps"
RESIDUALS = "march_residual_calls"
WALL_DISTANCE = "wall_distance_calls"
RUN_STEPS = "run_steps"
RUN_STEP_RAW = "run_step_raw_calls"
RUN_POCKET = "run_pocket_tests"


def targets(chauffeur) -> list[tuple[object, str]]:
    """Every (owner, attribute) the traced run may replace."""
    solution, sim, deception = chauffeur.solution, chauffeur.sim, chauffeur.deception
    geom = solution.SolutionGeometry
    return [
        (solution, "solve"),
        (solution, "compute_barrier"),
        (solution, "compute_primary_fan"),
        (solution, "compute_secondary_fan_and_equivocal"),
        (solution, "_march_equivocal"),
        (solution, "_tributary_value_raw"),
        (geom, "classify"),
        (geom, "pocket_contains"),
        (geom, "secondary_data"),
        (geom, "wall_distance"),
        (geom, "value"),
        (sim, "feedback_pair"),
        (sim, "deceptive_policy"),
        (sim, "_step_raw"),
        (sim, "detect_events"),
        (sim, "_pocket_flip"),
        (deception, "run_closed_loop"),
        (deception, "deception_gain"),
    ]


class Tracer:
    """Aggregated spans and counters; install() swaps the wrappers in."""

    def __init__(self, chauffeur):
        self.chauffeur = chauffeur
        self.calls: Counter = Counter()
        self.total: Counter = Counter()
        self.self_time: Counter = Counter()
        self.counts: Counter = Counter()
        self.active: Counter = Counter()
        self.step_tags: Counter = Counter()
        self._stack: list[list[float]] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- wrappers -------------------------------------------------------------

    def _span(self, name, fn, inside=None, on_result=None):
        """Wrap ``fn`` in a span; ``inside=(span, counter)`` counts calls
        made while ``span`` is open."""
        stack, active, counts = self._stack, self.active, self.counts
        calls, total, self_time = self.calls, self.total, self.self_time
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            if inside is not None and active[inside[0]]:
                counts[inside[1]] += 1
            frame = [0.0]
            stack.append(frame)
            active[name] += 1
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                stack.pop()
                active[name] -= 1
                calls[name] += 1
                total[name] += dt
                self_time[name] += dt - frame[0]
                if stack:
                    stack[-1][0] += dt
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def _counter(self, key, fn, inside=None):
        active, counts = self.active, self.counts

        def wrapper(*args, **kwargs):
            if inside is None or active[inside]:
                counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _on_march(self, result):
        points = result[0]
        self.counts[MARCH_STEPS] += len(points) - 1

    def _on_run(self, traj):
        # One sample per step, plus the capture sample when there is one.
        steps = len(traj.t) - 1
        self.counts[RUN_STEPS] += steps
        self.step_tags.update(traj.region[:steps])

    def _wrappers(self):
        span, counter = self._span, self._counter
        return {
            "solve": lambda f: span(SOLVE, f),
            "compute_barrier": lambda f: span(BARRIER, f),
            "compute_primary_fan": lambda f: span(PRIMARY_FAN, f),
            "compute_secondary_fan_and_equivocal": lambda f: span(SECONDARY_FAN, f),
            "_march_equivocal": lambda f: span(MARCH, f, on_result=self._on_march),
            # Residual evaluations: the calls made inside the march only.
            "_tributary_value_raw": lambda f: counter(RESIDUALS, f, inside=MARCH),
            "classify": lambda f: span(CLASSIFY, f),
            "pocket_contains": lambda f: span(POCKET, f, inside=(RUN, RUN_POCKET)),
            "secondary_data": lambda f: span(SECONDARY_DATA, f),
            "wall_distance": lambda f: counter(WALL_DISTANCE, f),
            "value": lambda f: span(VALUE, f),
            "feedback_pair": lambda f: span(FEEDBACK, f),
            "deceptive_policy": lambda f: span(FEEDBACK, f),
            "_step_raw": lambda f: span(STEP_RAW, f, inside=(RUN, RUN_STEP_RAW)),
            "detect_events": lambda f: span(DETECT, f),
            "_pocket_flip": lambda f: span(FLIP, f),
            "run_closed_loop": lambda f: span(RUN, f, on_result=self._on_run),
            "deception_gain": lambda f: span(GAIN, f),
        }

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        wrappers = self._wrappers()
        for owner, attr in targets(self.chauffeur):
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, wrappers[attr](original))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- per-layer metrics ------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer figures: build stages per solve, per-call self times,
        and counts over the whole traced run."""
        calls, counts = self.calls, self.counts

        def per(num, den):
            return num / den if den else 0.0

        def self_per_call(name, scale):
            return per(self.self_time[name], calls[name]) * scale

        solves = calls[SOLVE]
        steps = counts[RUN_STEPS]
        march_steps = per(counts[MARCH_STEPS], solves)
        residuals = per(counts[RESIDUALS], solves)
        return {
            "solution.barrier_s": per(self.self_time[BARRIER], solves),
            "solution.primary_fan_s": per(self.self_time[PRIMARY_FAN], solves),
            "solution.equivocal_march_s": per(self.self_time[MARCH], solves),
            "solution.secondary_fan_s": per(self.self_time[SECONDARY_FAN], solves),
            "solution.index_s": per(self.self_time[SOLVE], solves),
            "solution.equivocal_steps": march_steps,
            "solution.equivocal_residual_calls": residuals,
            "solution.residuals_per_step": per(residuals, march_steps),
            "solution.classify_calls": calls[CLASSIFY],
            "solution.classify_us": self_per_call(CLASSIFY, 1e6),
            "solution.pocket_contains_calls": calls[POCKET],
            "solution.pocket_contains_us": self_per_call(POCKET, 1e6),
            "solution.secondary_data_calls": calls[SECONDARY_DATA],
            "solution.secondary_data_us": self_per_call(SECONDARY_DATA, 1e6),
            "solution.wall_distance_calls": counts[WALL_DISTANCE],
            "solution.value_calls": calls[VALUE],
            "solution.value_ms": self_per_call(VALUE, 1e3),
            "strategy.feedback_calls": calls[FEEDBACK],
            "strategy.feedback_us": self_per_call(FEEDBACK, 1e6),
            "sim.steps": steps,
            # A step split at a wall crossing integrates twice.
            "sim.split_steps": counts[RUN_STEP_RAW] - steps,
            "sim.step_raw_us": self_per_call(STEP_RAW, 1e6),
            "sim.detect_events_us": self_per_call(DETECT, 1e6),
            "sim.pocket_flip_us": self_per_call(FLIP, 1e6),
            "sim.pocket_tests_per_step": per(counts[RUN_POCKET], steps),
            "deception.runs_per_call": per(calls[RUN], calls[GAIN]),
            "deception.run_s": per(self.total[RUN], calls[RUN]),
        }
