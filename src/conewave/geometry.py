"""Spacetime geometry: light-ray tubes and cubes.

A tube is a cylinder of radius r around the ray x = x0 + omega (t - t0) with
|omega| = 1 and omega within pi/8 of e1 (plus tolerance for dilated covers).
Finite tubes additionally satisfy |t - t0| <= half_length; window-spanning
tubes (half_length None) run the whole time window.  Cross-sections are
measured in the torus metric.

On a grid of step h, a tube's cross-section disk of centre c and radius r
holds the grid points p with |p h - c|^2 <= r^2 + 1e-12.  ``disk_spans``
alone decides this, for many disks at once; every grid consumer (masks
outside tubes and tube maxima per time slice, the tube search's stencils, which
the dual witness reads too, the greedy cover's grid engine) reads it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

SECTOR_HALF_ANGLE = math.pi / 8.0


def unit_dir(theta: float) -> np.ndarray:
    """Unit vector at angle theta from e1."""
    return np.array([math.cos(theta), math.sin(theta)])


def dir_angle(omega) -> float:
    """Angle of a direction vector measured from e1, signed."""
    return math.atan2(omega[1], omega[0])


def wrap_delta(delta, box: float):
    return delta - box * np.round(np.asarray(delta) / box)


def disk_spans(centers, radii, h: float):
    """Row spans of m disks on the grid of step h, all disks at once.

    The grid point p = (row, col) lies in the disk of centre c and radius r
    when |p h - c|^2 <= r^2 + 1e-12; this is the only place that decides it.
    Returns flat arrays (disk, rows, lo, hi), disk by disk and row by row:
    for every row within reach of a disk its unwrapped index and the
    inclusive unwrapped column bounds of its points, with hi < lo on a row
    that holds none.  On each row the test holds on one interval of columns;
    its ends are estimated from a square root and then moved in until the
    test itself holds."""
    c = np.asarray(centers, dtype=float).reshape(-1, 2)
    r = np.broadcast_to(np.asarray(radii, dtype=float), len(c))
    reach = np.ceil(r / h).astype(np.int64) + 1
    count = 2 * reach + 1
    disk = np.repeat(np.arange(len(c)), count)
    # rows round(c1 / h) - reach .. + reach of each disk, laid end to end
    first = np.round(c[:, 0] / h).astype(np.int64) - reach - (np.cumsum(count) - count)
    rows = first[disk] + np.arange(len(disk))
    d1 = rows * h - c[disk, 0]
    d1 *= d1
    limit = (r * r + 1e-12)[disk]
    c2 = c[disk, 1]
    mid = c2 / h
    half = np.sqrt(np.maximum(limit - d1, 0.0)) / h
    # one column beyond the estimate on each side: the true ends lie within
    lo = np.ceil(mid - half).astype(np.int64) - 1
    hi = np.floor(mid + half).astype(np.int64) + 1

    def inside(cols):
        d2 = cols * h - c2
        return d1 + d2 * d2 <= limit

    while (step := (hi >= lo) & ~inside(hi)).any():
        hi -= step
    while (step := (lo <= hi) & ~inside(lo)).any():
        lo += step
    return disk, rows, lo, hi


def span_pixels(disk, rows, lo, hi):
    """The grid points (rows, cols, disk) of ``disk_spans``' spans,
    unwrapped, disk by disk and row-major within each disk."""
    length = np.maximum(hi - lo + 1, 0)
    span = np.repeat(np.arange(len(rows)), length)
    cols = np.arange(len(span)) + (lo - (np.cumsum(length) - length))[span]
    return rows[span], cols, disk[span]


@dataclass(frozen=True)
class Tube:
    t0: float
    x0: tuple
    omega: tuple
    half_length: Optional[float]   # None = spans the time window
    radius: float = 1.0
    lam: float = 1.0               # dilation factor

    def __post_init__(self):
        x0 = tuple(float(v) for v in self.x0)
        om = tuple(float(v) for v in self.omega)
        if len(x0) != 2 or len(om) != 2:
            raise ValueError("tube anchor and direction need two entries each")
        if not (math.isfinite(self.t0) and all(map(math.isfinite, x0))):
            raise ValueError("tube anchor must be finite")
        if self.half_length is not None and not 0.0 < self.half_length < math.inf:
            raise ValueError("tube half length must be None or positive and finite")
        if not abs(math.hypot(*om) - 1.0) <= 1e-9:
            raise ValueError("tube direction must be a unit vector")
        if abs(dir_angle(om)) > SECTOR_HALF_ANGLE + 1e-3:
            raise ValueError("tube direction outside the e1 cone")
        if not self.radius >= 1.0 - 1e-12:
            raise ValueError("tube radius must be >= 1")
        if not self.lam >= 1.0 - 1e-12:
            raise ValueError("dilation must be >= 1")
        object.__setattr__(self, "x0", x0)
        object.__setattr__(self, "omega", om)

    @property
    def eff_radius(self) -> float:
        return self.lam * self.radius

    @property
    def eff_half_length(self) -> Optional[float]:
        # dilation stretches finite tubes in time; window-spanning tubes only widen
        if self.half_length is None:
            return None
        return self.lam * self.half_length

    def axis_at(self, t):
        t = np.asarray(t, dtype=float)
        ox, oy = self.omega
        return np.stack([self.x0[0] + ox * (t - self.t0),
                         self.x0[1] + oy * (t - self.t0)], axis=-1)

    def time_active(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        if self.half_length is None:
            return np.ones(t.shape, dtype=bool)
        return np.abs(t - self.t0) <= self.eff_half_length + 1e-12

    def contains(self, t, x, box: float) -> np.ndarray:
        """Membership for points (t, x); x has shape (..., 2)."""
        t = np.asarray(t, dtype=float)
        x = np.asarray(x, dtype=float)
        c = self.axis_at(t)
        d = wrap_delta(x - c, box)
        inside = np.sqrt((d * d).sum(axis=-1)) <= self.eff_radius + 1e-12
        return inside & self.time_active(t)

    def dilate(self, lam: float) -> "Tube":
        if lam < 1.0 - 1e-12:
            raise ValueError("dilation must be >= 1")
        return replace(self, lam=self.lam * lam)


@dataclass(frozen=True)
class Cube:
    """The unit spacetime cube of the given centre."""
    center: tuple      # (t, x1, x2)

    def __post_init__(self):
        object.__setattr__(self, "center", tuple(float(v) for v in self.center))


def cube_touches_tube(cube: Cube, tube: Tube, box: float, dilation: float = 1.0) -> bool:
    """Sampled intersection test between a unit cube and a (dilated) tube, on
    5 samples per axis."""
    probe = tube.dilate(dilation) if dilation > 1.0 else tube
    g = np.linspace(-0.5, 0.5, 5)
    tt, x1, x2 = np.meshgrid(g + cube.center[0], g + cube.center[1], g + cube.center[2],
                             indexing="ij")
    pts = np.stack([x1.ravel(), x2.ravel()], axis=-1)
    return bool(probe.contains(tt.ravel(), pts, box).any())


def axis_unit_cubes(tube: Tube) -> list:
    """Unit cubes centered on the tube axis at unit spacing (the cube-train
    sites; one per unit of tube length)."""
    if tube.half_length is None:
        raise ValueError("only finite tubes have an axis cube sequence")
    half = tube.eff_half_length
    n = int(math.floor(half + 0.5))
    cubes = []
    for j in range(-n, n + 1):
        t = tube.t0 + j
        x = tube.axis_at(t)
        cubes.append(Cube((t, x[0], x[1])))
    return cubes
