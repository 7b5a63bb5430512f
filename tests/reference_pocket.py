"""A frozen copy of the pocket lookup path, kept as the reference that
``tests/test_reference_pocket.py`` compares the package's against.

The copy scans a ring's row slices through a list comprehension over
``_slices`` and ``_d2`` calls, reads distances and sample ids through numpy
scalars, and has ``_project`` slice and ``tolist()`` each series.
``ReferencePocketGeometry`` runs ``secondary_data``, ``equivocal_data``
and the pocket value on that copy.  The package must reproduce its values
and closed-loop trajectories bit for bit.  Do not edit this file to follow
changes of the package's lookup: it is the old lookup, not the old output.
"""

from __future__ import annotations

import dataclasses
import math
from bisect import bisect_left, bisect_right

import numpy as np

from chauffeur.core import held_step
from chauffeur.solution import (
    _DIVE_STEP,
    NearestSampleError,
    SolutionGeometry,
    _tributary_value_raw,
    secondary_heading,
)


class ReferenceIndex:
    """``_CurveIndex``'s lookups as they were, over an index's sorted arrays."""

    def __init__(self, idx):
        self.curves, self.cell = idx.curves, idx.cell
        self.j_lo, self.span = idx.j_lo, idx.span
        self.sx, self.sy, self.owner, self.local = idx.sx, idx.sy, idx.owner, idx.local
        self.keys, self.starts = idx.keys, idx.starts
        self.rings: list[int] = []  # accepted ring of every scan

    def _slices(self, x: float, y: float, ring: int) -> list[tuple[int, int]]:
        ci = math.floor(x / self.cell)
        cj = math.floor(y / self.cell)
        j0 = max(cj - ring + 1 - self.j_lo, 0)
        j1 = min(cj + ring - 1 - self.j_lo, self.span - 1)
        keys, starts, out = self.keys, self.starts, []
        for i in range(ci - ring + 1, ci + ring):
            lo = bisect_left(keys, i * self.span + j0)
            hi = bisect_right(keys, i * self.span + j1, lo)
            if lo < hi:
                out.append((starts[lo], starts[hi]))
        return out

    def _d2(self, a: int, b: int, x: float, y: float) -> np.ndarray:
        return (self.sx[a:b] - x) ** 2 + (self.sy[a:b] - y) ** 2

    def _scan(self, x: float, y: float) -> tuple[list, int, float]:
        for ring in range(1, 40):
            parts = [(a, self._d2(a, b, x, y)) for a, b in self._slices(x, y, ring)]
            k, best = -1, math.inf
            for a, d2 in parts:
                m = int(d2.argmin())
                if d2[m] < best:
                    k, best = a + m, float(d2[m])
            if k >= 0 and math.sqrt(best) <= (ring - 0.5) * self.cell:
                self.rings.append(ring)
                return parts, k, best
        raise NearestSampleError(f"no sample within the ring-39 box of ({x}, {y})")

    def nearest(self, x: float, y: float) -> tuple[int, int]:
        _, k, _ = self._scan(x, y)
        return int(self.owner[k]), int(self.local[k])

    def nearest_two(self, x: float, y: float) -> list[tuple[int, int, float]]:
        parts, k, best = self._scan(x, y)
        own = self.owner[k]
        out = [(int(own), int(self.local[k]), math.sqrt(best))]
        k2, best2 = -1, math.inf
        for a, d2 in parts:
            d2 = np.where(self.owner[a : a + len(d2)] != own, d2, np.inf)
            m = int(d2.argmin())
            if d2[m] < best2:
                k2, best2 = a + m, float(d2[m])
        if k2 >= 0:
            out.append((int(self.owner[k2]), int(self.local[k2]), math.sqrt(best2)))
        return out


def project_reference(points: np.ndarray, j: int, x: float, y: float, *series: np.ndarray):
    """``_project`` as it was: the window and every series sliced and read
    with ``tolist()``."""
    x, y = float(x), float(y)
    lo = max(j - 1, 0)
    win = points[lo : j + 2].tolist()
    px, py = win[j - lo]
    best_d2 = (px - x) ** 2 + (py - y) ** 2
    best = None
    for a in range(len(win) - 1):
        (px, py), (qx, qy) = win[a], win[a + 1]
        vx, vy = qx - px, qy - py
        vv = vx * vx + vy * vy
        if vv <= 0.0:
            continue
        t = ((x - px) * vx + (y - py) * vy) / vv
        t = 0.0 if t < 0.0 else 1.0 if t > 1.0 else t
        d2 = (px + t * vx - x) ** 2 + (py + t * vy - y) ** 2
        if d2 < best_d2:
            best_d2 = d2
            best = (a, t)
    vals = [s[lo : j + 2].tolist() for s in series]
    if best is None:
        return (math.sqrt(best_d2), *(v[j - lo] for v in vals))
    a, t = best
    return (math.sqrt(best_d2), *(v[a] + t * (v[a + 1] - v[a]) for v in vals))


class ReferencePocketGeometry(SolutionGeometry):
    """A geometry whose pocket lookups take the frozen path above.

    Build it with :meth:`of`; ``_secondary_index`` is then a
    :class:`ReferenceIndex` over the original index's arrays, which records
    the ring each scan accepted."""

    @classmethod
    def of(cls, geom: SolutionGeometry) -> "ReferencePocketGeometry":
        kw = {f.name: getattr(geom, f.name) for f in dataclasses.fields(geom)}
        kw["_secondary_index"] = ReferenceIndex(geom._secondary_index)
        return cls(**kw)

    def secondary_data(self, x, y):
        ci, j = self._secondary_index.nearest(x, y)
        ch = self.secondary_fan.trajectories[ci]
        _, tau = project_reference(ch.points, j, x, y, ch.tau)
        return ch, tau

    def equivocal_data(self, x, y):
        pts = self.equivocal.points
        d2 = (pts[:, 0] - x) ** 2 + (pts[:, 1] - y) ** 2
        j = int(np.argmin(d2))
        _, v, u = project_reference(pts, j, x, y, self.equivocal.tau, self.equivocal.u)
        return v, u

    def _secondary_chain_value(self, x, y):
        pairs = self._secondary_index.nearest_two(x, y)
        num = 0.0
        den = 0.0
        for ci, j, _ in pairs:
            ch = self.secondary_fan.trajectories[ci]
            d, tau = project_reference(ch.points, j, x, y, ch.tau)
            w = 1.0 / max(d, 1e-12)
            num += w * (ch.anchor_value + tau)
            den += w
        return num / den

    def _secondary_value(self, x, y):
        p = self.params
        mu = p.mu
        t = 0.0
        for _ in range(int(10.0 / _DIVE_STEP)):
            if x <= 1e-9:
                break
            psi = secondary_heading(*self.secondary_data(x, y))
            xn, yn = held_step(x, y, -1.0, psi, mu, _DIVE_STEP)
            if not self.pocket_contains(xn, yn):
                w, cx, cy, _ = self.wall_crossing(x, y, xn, yn)
                dep = _tributary_value_raw(p, max(cx, 0.0), cy)
                if dep is None:
                    return self._secondary_chain_value(x, y)
                return t + w * _DIVE_STEP + dep
            x, y = xn, yn
            t += _DIVE_STEP
        if y > self.y_es:
            return t + self.value_at_contact + (y - self.y_es) / (1.0 - mu)
        dep = _tributary_value_raw(p, 0.0, y)
        return t + dep if dep is not None else self._secondary_chain_value(x, y)
