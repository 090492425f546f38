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
        excl[disk_pixel_indices(lattice, tube.axis_at(t), tube.eff_radius)] = True
    if base is None and excl is None:
        return None
    if base is None:
        return ~excl
    if excl is not None:
        base &= ~excl
    return base


_DISK_OFFSETS_CACHE: dict = {}


def _disk_offsets(radius: float, h: float):
    """Pixel offsets (o1, o2) reaching every pixel within `radius` of a point
    whose nearest pixel has offset (0, 0)."""
    key = (round(radius / h * 16), round(1.0 / h))
    if key not in _DISK_OFFSETS_CACHE:
        reach = int(math.ceil(radius / h)) + 1
        r = np.arange(-reach, reach + 1)
        o1, o2 = np.meshgrid(r, r, indexing="ij")
        keep = o1 * o1 + o2 * o2 <= (radius / h + 1.0) ** 2
        _DISK_OFFSETS_CACHE[key] = (o1[keep], o2[keep])
    return _DISK_OFFSETS_CACHE[key]


def disk_pixel_indices(lattice: FrequencyLattice, center, radius: float):
    """Grid indices (rows, cols) of pixels within torus distance radius; a
    pixel appears more than once when the disk wraps onto itself."""
    h = lattice.spacing
    n = lattice.size
    o1, o2 = _disk_offsets(radius, h)
    b1 = int(round(center[0] / h))
    b2 = int(round(center[1] / h))
    d1 = (b1 + o1) * h - center[0]
    d2 = (b2 + o2) * h - center[1]
    d1 *= d1                   # in place: this runs once per tube and slice
    d2 *= d2
    d1 += d2
    keep = d1 <= radius * radius + 1e-12
    rows = b1 + o1[keep]
    rows %= n
    cols = b2 + o2[keep]
    cols %= n
    return rows, cols


# ---------------------------------------------------------------------------
# bilinear norms

def product_densities(phi: SpectralWave, partners, quad: Quadrature,
                      region: Optional[Region] = None):
    """The |phi psi|^2 density of phi with each partner psi, slice by slice.

    phi and every partner are synthesized once per time slice and the region
    mask is built once per slice; a slice outside the region is skipped
    before synthesis.  Yields (i, j, mask, density) for time slice i and
    partner j, with mask as region_slice_mask returns it (None: whole grid)."""
    lat = quad.lattice
    for i, t in enumerate(quad.times):
        mask = region_slice_mask(region, t, lat)
        if mask is False:
            continue
        f = phi.evaluate(t, lat)
        for j, psi in enumerate(partners):
            g = psi.evaluate(t, lat)
            dens = np.square(f.real) + np.square(f.imag)
            dens *= np.square(g.real) + np.square(g.imag)
            yield i, j, mask, dens
            # Release g and dens before the next synthesis, and keep no
            # |phi|^2 across partners: one more N x N array at the peak cost
            # 12 MB and, at N = 1280, page faults that slowed the sums by 10 %.
            del g, dens
        del f


def product_slice_sums(phi: SpectralWave, psi: SpectralWave, quad: Quadrature,
                       region: Optional[Region] = None) -> np.ndarray:
    """Per-time-slice values of sum_x h^2 |phi psi|^2, zero outside the region."""
    out = np.zeros(len(quad.times))
    w = quad.cell_weight()
    for i, _, mask, dens in product_densities(phi, (psi,), quad, region):
        out[i] = w * float(dens.sum() if mask is None else dens[mask].sum())
    return out


def product_l2(phi: SpectralWave, psi: SpectralWave, region: Optional[Region] = None,
               quad: Optional[Quadrature] = None) -> float:
    """Riemann-sum approximation of the spacetime L^2 norm of phi * psi."""
    sums = product_slice_sums(phi, psi, quad, region)
    return math.sqrt(quad.dt * float(sums.sum()))


def lp_product(phi: SpectralWave, psi: SpectralWave, p: float,
               quad: Optional[Quadrature] = None) -> float:
    """Quadrature L^p norm of phi * psi over the full window."""
    if p < 1.0:
        raise ValueError("p must be >= 1")
    if p == 2.0:
        return product_l2(phi, psi, None, quad)
    w = quad.cell_weight()
    total = 0.0
    for _, _, _, dens in product_densities(phi, (psi,), quad):
        total += w * float(np.power(dens, 0.5 * p).sum())
    return (quad.dt * total) ** (1.0 / p)


# ---------------------------------------------------------------------------
# tube norms

def l2t_linf_on_tube(phi: SpectralWave, tube: Tube, quad: Quadrature,
                     region: Optional[Region] = None) -> float:
    """( sum_t dt * (max over grid x with (t,x) in tube (and region) |phi|)^2 )^1/2.

    Empty slices contribute zero."""
    lat = quad.lattice
    total = 0.0
    for t in quad.times:
        if not tube.time_active(t):
            continue
        rmask = region_slice_mask(region, t, lat)
        if rmask is False:
            continue
        rows, cols = disk_pixel_indices(lat, tube.axis_at(t), tube.eff_radius)
        if len(rows) == 0:
            continue
        vals = np.abs(phi.evaluate(t, lat))[rows, cols]
        if rmask is not None:
            sel = rmask[rows, cols]
            if not sel.any():
                continue
            vals = vals[sel]
        m = float(vals.max())
        total += m * m
    return math.sqrt(quad.dt * total)
