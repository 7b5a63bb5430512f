"""Truthful-vs-deceptive comparisons and advantage-region sweeps.

Case 1 ("truthful"): the pursuer knows the evader's true speed bound from the
start and both play the fast game's equilibrium.  Case 2 ("deceptive"): the
pursuer estimates the bound from observed motion while the evader mimics the
slow game's equilibrium at the low speed, switching to the full speed at the
first crossing of the fast game's barrier (the barrier section of its pocket
wall; the equivocal section does not trigger it).  The gain is the capture-time
difference; positive gain means the deception paid.

An estimating-pursuer truthful baseline is reported, not played: it is the
informed baseline, step for step.  Against a truthful evader the estimate
starts at the true bound and the sup rule never lowers it, and since float
subtraction is monotone, an estimate at or above the true bound is never
nearer the low bound than the true one (``mu1 >= mu2``).  So the estimating
pursuer plays the true game at every step, its estimator releases the same
observations as the informed pursuer's, and both runs give the same controls,
steps, events and estimates.  A comparison therefore plays two closed-loop
runs.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .core import RelState, validate_params
from .sim import Scenario, run_closed_loop
from .solution import SolutionGeometry, get_geometry
from .strategy import EvaderPolicy

ADVANTAGE_CSV_HEADER = "x0,y0,region_mu1,region_mu2,t_truthful,t_deceptive,gain,switch_x,switch_y"


@dataclass(frozen=True)
class DeceptionReport:
    initial_rel: RelState
    t_truthful: float | None
    t_deceptive: float | None
    gain: float | None
    region_mu1: str
    region_mu2: str
    switch_point: tuple[float, float] | None
    t_truthful_estimating: float | None = None
    incomplete: bool = False


@dataclass
class AdvantageMap:
    mu1: float
    mu2: float
    l: float
    window: tuple[float, float, float, float]
    spacing: float
    xs: np.ndarray
    ys: np.ndarray
    cells: list[DeceptionReport]
    failures: list[tuple[float, float, str]] = field(default_factory=list)

    def max_gain(self) -> float | None:
        gains = [c.gain for c in self.cells if c.gain is not None]
        return max(gains) if gains else None

    def advantageous_cells(self, threshold: float = 0.0) -> int:
        return sum(1 for c in self.cells if c.gain is not None and c.gain > threshold)

    def to_csv(self, path: str) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(ADVANTAGE_CSV_HEADER.split(","))
            for c in self.cells:
                sx = f"{c.switch_point[0]:.9g}" if c.switch_point else ""
                sy = f"{c.switch_point[1]:.9g}" if c.switch_point else ""
                w.writerow(
                    [
                        f"{c.initial_rel.x:.9g}",
                        f"{c.initial_rel.y:.9g}",
                        c.region_mu1,
                        c.region_mu2,
                        "" if c.t_truthful is None else f"{c.t_truthful:.9g}",
                        "" if c.t_deceptive is None else f"{c.t_deceptive:.9g}",
                        "" if c.gain is None else f"{c.gain:.9g}",
                        sx,
                        sy,
                    ]
                )


def _default_horizon(geom1: SolutionGeometry, s0: RelState) -> float:
    try:
        v = geom1.value(s0)
    except RuntimeError:  # how value() reports a failed query
        v = 10.0
    return max(20.0, 10.0 * v)


def deception_gain(
    mu1: float,
    mu2: float,
    l: float,
    s0: RelState,
    dt: float = 1e-3,
    t_max: float | None = None,
    geom1: SolutionGeometry | None = None,
    geom2: SolutionGeometry | None = None,
    with_estimating_baseline: bool = True,
) -> DeceptionReport:
    """Run the truthful and deceptive cases from ``s0`` and compare.

    Both parameter pairs must be legal and ``mu1 > mu2`` (equal speeds are
    allowed and degenerate to zero gain).  Runs share ``dt``; a run that hits
    the horizon leaves its time as None and flags the report incomplete.

    ``with_estimating_baseline`` fills ``t_truthful_estimating``, the capture
    time of a truthful evader against the estimating pursuer; otherwise it
    stays None.  That run equals the informed one (see the module
    docstring), so the report takes the informed capture time and plays
    no third run.
    """
    if mu1 < mu2:
        raise ValueError(f"mu1={mu1} must not be below mu2={mu2}")
    p1 = validate_params(mu1, l)
    p2 = validate_params(mu2, l)
    if geom1 is None:
        geom1 = get_geometry(p1)
    if geom2 is None:
        geom2 = geom1 if p2 == p1 else get_geometry(p2)
    if t_max is None:
        t_max = _default_horizon(geom1, s0)

    def play(policy: EvaderPolicy, mode: str):
        sc = Scenario(p1, p2, s0, policy, pursuer_mode=mode, dt=dt, t_max=t_max)
        return run_closed_loop(sc, geom1, geom2)

    tr1 = play(EvaderPolicy(kind="truthful"), "informed")
    tr2 = play(EvaderPolicy(kind="deceptive", mu_low=p2.mu, mu_high=p1.mu), "estimating")
    t_est = tr1.capture_time if with_estimating_baseline else None

    switch = None
    for e in tr2.events:
        if e.kind == "switch":
            switch = e.location
            break
    t1, t2 = tr1.capture_time, tr2.capture_time
    return DeceptionReport(
        initial_rel=s0,
        t_truthful=t1,
        t_deceptive=t2,
        gain=None if (t1 is None or t2 is None) else t2 - t1,
        region_mu1=geom1.classify(s0).tag,
        region_mu2=geom2.classify(s0).tag,
        switch_point=switch,
        t_truthful_estimating=t_est,
        incomplete=(t1 is None or t2 is None),
    )


# A pool worker's two geometries, set once by the pool initializer; the
# parent process never sets it.
_worker_geoms: tuple[SolutionGeometry, SolutionGeometry] | None = None


def _init_worker(geom1: SolutionGeometry, geom2: SolutionGeometry) -> None:
    global _worker_geoms
    _worker_geoms = (geom1, geom2)


def _cell_worker(job, geoms=None) -> tuple[DeceptionReport | None, str | None]:
    """(report, None) for one sweep cell, or (None, error) if it failed; a
    pool worker plays on the geometries its initializer stored."""
    mu1, mu2, l, x0, y0, dt, t_max = job
    geom1, geom2 = geoms or _worker_geoms
    try:
        rep = deception_gain(
            mu1, mu2, l, RelState(x0, y0), dt=dt, t_max=t_max,
            geom1=geom1, geom2=geom2, with_estimating_baseline=False,
        )
        return rep, None
    except Exception as exc:  # per-cell failures recorded, sweep continues
        return None, f"{type(exc).__name__}: {exc}"


def default_window(geom1: SolutionGeometry, geom2: SolutionGeometry) -> tuple[float, float, float, float]:
    """Bounding box of both games' pocket walls, padded by one turn radius."""
    walls = np.concatenate(
        [geom1.barrier.points, geom1.equivocal.points, geom2.barrier.points, geom2.equivocal.points]
    )
    return (
        -(float(walls[:, 0].max()) + 1.0),
        float(walls[:, 0].max()) + 1.0,
        float(walls[:, 1].min()) - 1.0,
        float(walls[:, 1].max()) + 1.0,
    )


def sweep(
    mu1: float,
    mu2: float,
    l: float,
    window: tuple[float, float, float, float] | None = None,
    spacing: float = 0.25,
    dt: float = 1e-3,
    t_max: float | None = None,
    workers: int = 1,
) -> AdvantageMap:
    """Evaluate :func:`deception_gain` over a lattice of initial conditions.

    ``window`` is (x_min, x_max, y_min, y_max); the default covers the two
    games' pocket walls padded by one turn radius (the interesting
    superposition region lies there).  Lattice points inside the capture
    circle are skipped.  Cells come back in lattice order with any worker
    count.  When ``min(workers, cells, os.cpu_count())`` exceeds one, a
    process pool of that size plays the cells; it hands its workers the two
    geometries once, through its initializer, so no worker rebuilds them
    under any process start method.  Every argument is checked before
    either geometry is built; a window with x_min > x_max or y_min > y_max
    raises ValueError.
    """
    if not 0.0 < spacing < math.inf:
        raise ValueError(f"spacing={spacing!r} must be finite and positive")
    if window is not None and not all(map(math.isfinite, window)):
        raise ValueError(f"window={window!r} must be finite")
    if window is not None and (window[0] > window[1] or window[2] > window[3]):
        raise ValueError(f"window={window!r} must have x_min <= x_max and y_min <= y_max")
    if not 0.0 < dt < math.inf:
        raise ValueError(f"dt={dt!r} must be finite and positive")
    if t_max is not None and not 0.0 < t_max < math.inf:
        raise ValueError(f"t_max={t_max!r} must be finite and positive")
    if workers < 1:
        raise ValueError(f"workers={workers!r} must be at least 1")
    p1 = validate_params(mu1, l)
    p2 = validate_params(mu2, l)
    geom1 = get_geometry(p1)
    geom2 = geom1 if p2 == p1 else get_geometry(p2)
    if window is None:
        window = default_window(geom1, geom2)
    x_min, x_max, y_min, y_max = window
    xs = np.arange(x_min, x_max + spacing * 0.5, spacing)
    ys = np.arange(y_min, y_max + spacing * 0.5, spacing)
    if t_max is None:
        far = max(abs(x_max), abs(x_min)) + abs(y_min) + abs(y_max)
        t_max = max(40.0, 4.0 * (2.0 * math.pi + far / (1.0 - mu1)))

    lattice = [
        (float(x), float(y))
        for x in xs
        for y in ys
        if x * x + y * y > l * l
    ]
    jobs = [(mu1, mu2, l, x, y, dt, t_max) for x, y in lattice]
    pool_size = min(workers, len(jobs), os.cpu_count() or 1)
    if pool_size > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(
            max_workers=pool_size, initializer=_init_worker, initargs=(geom1, geom2)
        ) as pool:
            results = list(pool.map(_cell_worker, jobs, chunksize=8))
    else:
        results = [_cell_worker(job, (geom1, geom2)) for job in jobs]

    cells: list[DeceptionReport] = []
    failures: list[tuple[float, float, str]] = []
    for (x, y), (rep, err) in zip(lattice, results):
        if rep is None:
            failures.append((x, y, err or "unknown failure"))
        else:
            cells.append(rep)
    return AdvantageMap(
        mu1=mu1,
        mu2=mu2,
        l=l,
        window=window,
        spacing=spacing,
        xs=xs,
        ys=ys,
        cells=cells,
        failures=failures,
    )
