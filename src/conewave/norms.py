"""Quadrature norms over spacetime regions, tubes and cubes.

Every norm here is *defined* as a Riemann sum: left-endpoint nodes in time
(weight dt) and the full lattice grid in space (weight h^2).  The L^inf_x part
of mixed norms is the max over grid points, a lower bound of the true sup that
is adequate for the band-limited fields produced by this package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .config import RunConfig
from .geometry import Region, Tube
from .lattice import FrequencyLattice
from .waves import SpectralWave


@dataclass(frozen=True)
class Quadrature:
    config: RunConfig
    lattice: FrequencyLattice
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        if abs(self.lattice.box - self.config.box) > 1e-12:
            raise ValueError("lattice and config disagree on the torus size")

    @property
    def dt(self) -> float:
        return self.config.dt

    @property
    def h(self) -> float:
        return self.lattice.spacing

    @property
    def times(self) -> np.ndarray:
        if "times" not in self._cache:
            self._cache["times"] = self.config.time_samples()
        return self._cache["times"]

    def cell_weight(self) -> float:
        return self.h ** 2


# ---------------------------------------------------------------------------
# region masks on the lattice grid

def _paint_disk(mask: np.ndarray, center, radius: float, lattice: FrequencyLattice,
                value: bool = True) -> None:
    """Set mask pixels within torus distance `radius` of `center`."""
    n = lattice.size
    h = lattice.spacing
    reach = int(math.ceil(radius / h)) + 1
    if 2 * reach + 1 >= n:
        # radius comparable to the torus: exact wrapped distances everywhere
        d1 = lattice.wrap(lattice.x_axis() - center[0])
        d2 = lattice.wrap(lattice.x_axis() - center[1])
        local = (d1 * d1)[:, None] + (d2 * d2)[None, :] <= radius * radius + 1e-12
        mask[local] = value
        return
    b1 = int(math.floor(center[0] / h))
    b2 = int(math.floor(center[1] / h))
    i1 = np.arange(b1 - reach, b1 + reach + 1)
    i2 = np.arange(b2 - reach, b2 + reach + 1)
    d1 = i1 * h - center[0]
    d2 = i2 * h - center[1]
    local = (d1 * d1)[:, None] + (d2 * d2)[None, :] <= radius * radius + 1e-12
    rows = i1 % n
    cols = i2 % n
    sub = mask[np.ix_(rows, cols)]
    sub[local] = value
    mask[np.ix_(rows, cols)] = sub


def _interval_mask(axis: np.ndarray, center: float, half: float, box: float) -> np.ndarray:
    d = axis - center
    d -= box * np.round(d / box)
    return np.abs(d) <= half + 1e-12


def region_slice_mask(region: Optional[Region], t: float,
                      lattice: FrequencyLattice) -> Optional[np.ndarray]:
    """Boolean spatial mask of the region at time t; None means all-inside.
    Returns False (scalar) when the slice is empty."""
    if region is None:
        return None
    if not (region.t_lo - 1e-12 <= t < region.t_hi - 1e-12):
        return False
    base = None
    if region.cube is not None:
        tc, c1, c2 = region.cube.center
        half = 0.5 * region.cube.side
        if abs(t - tc) > half + 1e-12:
            return False
        ax = lattice.x_axis()
        base = np.outer(_interval_mask(ax, c1, half, lattice.box),
                        _interval_mask(ax, c2, half, lattice.box))
    excl = None
    for tube in region.excluded:
        if not tube.time_active(t):
            continue
        if excl is None:
            excl = np.zeros((lattice.size, lattice.size), dtype=bool)
        c = tube.axis_at(t)
        _paint_disk(excl, c, tube.eff_radius, lattice)
    if base is None and excl is None:
        return None
    if base is None:
        return ~excl
    if excl is not None:
        base &= ~excl
    return base


class RegionMasks:
    """Per-time-slice masks of a fixed region, bit-packed for reuse."""

    def __init__(self, region: Region, quad: Quadrature):
        self.region = region
        self.quad = quad
        self._packed = {}

    def mask(self, i: int):
        t = self.quad.times[i]
        if i not in self._packed:
            m = region_slice_mask(self.region, t, self.quad.lattice)
            if m is None or m is False:
                self._packed[i] = m
            else:
                self._packed[i] = np.packbits(m)
        stored = self._packed[i]
        if stored is None or stored is False:
            return stored
        n = self.quad.lattice.size
        return np.unpackbits(stored, count=n * n).astype(bool).reshape(n, n)


# ---------------------------------------------------------------------------
# bilinear norms

def product_slice_sums(phi: SpectralWave, psi: SpectralWave, quad: Quadrature,
                       region: Optional[Region] = None,
                       masks: Optional[RegionMasks] = None) -> np.ndarray:
    """Per-time-slice values of sum_x h^2 |phi psi|^2, zero outside the region."""
    times = quad.times
    out = np.zeros(len(times))
    w = quad.cell_weight()
    lat = quad.lattice
    for i, t in enumerate(times):
        if region is not None and not (region.t_lo - 1e-12 <= t < region.t_hi - 1e-12):
            continue
        if masks is not None:
            m = masks.mask(i)
        else:
            m = region_slice_mask(region, t, lat)
        if m is False:
            continue
        f = phi.evaluate(t, lat)
        g = psi.evaluate(t, lat)
        dens = np.square(f.real) + np.square(f.imag)
        dens *= np.square(g.real) + np.square(g.imag)
        if m is None:
            out[i] = w * float(dens.sum())
        else:
            out[i] = w * float(dens[m].sum())
    return out


def product_l2(phi: SpectralWave, psi: SpectralWave, region: Optional[Region] = None,
               quad: Optional[Quadrature] = None,
               masks: Optional[RegionMasks] = None) -> float:
    """Riemann-sum approximation of the spacetime L^2 norm of phi * psi."""
    sums = product_slice_sums(phi, psi, quad, region, masks)
    return math.sqrt(quad.dt * float(sums.sum()))


def lp_product(phi: SpectralWave, psi: SpectralWave, p: float,
               quad: Optional[Quadrature] = None) -> float:
    """Quadrature L^p norm of phi * psi over the full window."""
    if p < 1.0:
        raise ValueError("p must be >= 1")
    if p == 2.0:
        return product_l2(phi, psi, None, quad)
    lat = quad.lattice
    w = quad.cell_weight()
    total = 0.0
    for t in quad.times:
        f = phi.evaluate(t, lat)
        g = psi.evaluate(t, lat)
        dens = np.square(f.real) + np.square(f.imag)
        dens *= np.square(g.real) + np.square(g.imag)
        total += w * float(np.power(dens, 0.5 * p).sum())
    return (quad.dt * total) ** (1.0 / p)


# ---------------------------------------------------------------------------
# tube norms

_DISK_OFFSETS_CACHE: dict = {}


def _disk_offsets(radius: float, h: float):
    key = (round(radius / h * 16), round(1.0 / h))
    if key not in _DISK_OFFSETS_CACHE:
        reach = int(math.ceil(radius / h)) + 1
        r = np.arange(-reach, reach + 1)
        o1, o2 = np.meshgrid(r, r, indexing="ij")
        keep = o1 * o1 + o2 * o2 <= (radius / h + 1.0) ** 2
        _DISK_OFFSETS_CACHE[key] = (o1[keep], o2[keep])
    return _DISK_OFFSETS_CACHE[key]


def disk_pixel_indices(lattice: FrequencyLattice, center, radius: float):
    """Grid indices (rows, cols) of pixels within torus distance radius."""
    h = lattice.spacing
    n = lattice.size
    o1, o2 = _disk_offsets(radius, h)
    b1 = int(round(center[0] / h))
    b2 = int(round(center[1] / h))
    d1 = (b1 + o1) * h - center[0]
    d2 = (b2 + o2) * h - center[1]
    keep = d1 * d1 + d2 * d2 <= radius * radius + 1e-12
    return (b1 + o1[keep]) % n, (b2 + o2[keep]) % n


def l2t_linf_on_tube(phi: SpectralWave, tube: Tube, quad: Quadrature,
                     region: Optional[Region] = None,
                     slices: Optional[list] = None) -> float:
    """( sum_t dt * (max over grid x with (t,x) in tube (and region) |phi|)^2 )^1/2.

    Empty slices contribute zero.  `slices` may carry precomputed |phi(t)|
    magnitude arrays aligned with quad.times."""
    lat = quad.lattice
    total = 0.0
    for i, t in enumerate(quad.times):
        if not tube.time_active(t):
            continue
        rmask = region_slice_mask(region, t, lat) if region is not None else None
        if rmask is False:
            continue
        rows, cols = disk_pixel_indices(lat, tube.axis_at(t), tube.eff_radius)
        if len(rows) == 0:
            continue
        a = slices[i] if slices is not None else np.abs(phi.evaluate(t, lat))
        vals = a[rows, cols]
        if rmask is not None:
            sel = rmask[rows, cols]
            if not sel.any():
                continue
            vals = vals[sel]
        m = float(vals.max())
        total += m * m
    return math.sqrt(quad.dt * total)

