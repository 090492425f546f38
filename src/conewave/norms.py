"""Quadrature norms over spacetime regions and tubes.

Every norm here is *defined* as a Riemann sum: left-endpoint nodes in time
(weight dt) and the full lattice grid in space (weight h^2).  The L^inf_x part
of mixed norms is the max over grid points, a lower bound of the true sup that
is adequate for the band-limited fields produced by this package.

Full-window product sums (region None) are evaluated on the coarsest halving
of the lattice grid that exceeds spread(phi) + spread(psi) points per axis
(``exact_product_quadrature``), which is the same value up to round-off: phi
psi is a trigonometric polynomial of that per-axis mode spread, so every
nonzero frequency of |phi psi|^2 is below the grid size, sums to zero over
the grid, and the Riemann sum on any such grid is the exact integral.
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

def region_slice_mask(region: Optional[Region], t: float,
                      lattice: FrequencyLattice) -> Optional[np.ndarray]:
    """Boolean spatial mask of the region at time t; None means all-inside.
    Returns False (scalar) when the slice is empty."""
    if region is None:
        return None
    if not (region.t_lo - 1e-12 <= t < region.t_hi - 1e-12):
        return False
    spans = [_disk_row_spans(lattice, tube.axis_at(t), tube.eff_radius)
             for tube in region.excluded if tube.time_active(t)]
    return ~_paint_spans(lattice.size, spans) if spans else None


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


def _disk_row_spans(lattice: FrequencyLattice, center, radius: float):
    """The pixels of ``disk_pixel_indices`` as row spans: unwrapped grid rows
    and inclusive unwrapped column bounds (lo, hi), with hi < lo on a row
    that holds none.  On each row the inside test holds on one interval of
    columns; its ends are estimated from a square root and then moved in
    until the test itself holds, so the spans hold exactly the same pixels."""
    h = lattice.spacing
    reach = int(math.ceil(radius / h)) + 1
    rows = int(round(center[0] / h)) + np.arange(-reach, reach + 1)
    d1 = rows * h - center[0]
    d1 *= d1
    limit = radius * radius + 1e-12
    mid = center[1] / h
    half = np.sqrt(np.maximum(limit - d1, 0.0)) / h
    # one column beyond the estimate on each side: the true ends lie within
    lo = np.ceil(mid - half).astype(np.int64) - 1
    hi = np.floor(mid + half).astype(np.int64) + 1

    def inside(cols):
        d2 = cols * h - center[1]
        return d1 + d2 * d2 <= limit

    while (step := (hi >= lo) & ~inside(hi)).any():
        hi -= step
    while (step := (lo <= hi) & ~inside(lo)).any():
        lo += step
    return rows, lo, hi


def _paint_spans(n: int, spans) -> np.ndarray:
    """Boolean n x n mask of the union of (rows, lo, hi) spans, wrapped onto
    the torus: +1 at each span's first column and -1 past its last in a
    difference array, summed along the rows."""
    rows, lo, hi = (np.concatenate(a) for a in zip(*spans))
    length = np.minimum(hi - lo + 1, n)            # n: the whole row
    keep = length > 0
    rows, lo, length = rows[keep] % n, lo[keep] % n, length[keep]
    lo[length == n] = 0
    end = lo + length
    over = end > n                                 # wraps past the last column
    base = rows * (n + 1)
    idx = np.concatenate([base + lo, base + np.minimum(end, n),
                          base[over], base[over] + end[over] - n])
    weight = np.concatenate([np.ones(len(lo)), -np.ones(len(lo)),
                             np.ones(int(over.sum())), -np.ones(int(over.sum()))])
    diff = np.bincount(idx, weights=weight, minlength=n * (n + 1)).reshape(n, n + 1)
    return np.cumsum(diff[:, :n], axis=1) > 0.5


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


def exact_product_quadrature(quad: Quadrature, phi: SpectralWave,
                             partners) -> Quadrature:
    """The quadrature on the coarsest halving N / 2^j of quad's lattice that
    is still a lattice and has more points per axis than spread(phi) plus the
    largest spread of the partners; quad itself when no halving qualifies.

    On such a grid each wave's modes are distinct mod N, so ``evaluate``
    gives its exact point values, and the full-grid Riemann sum of
    |phi psi|^2 equals the one on quad's grid to round-off."""
    spread = phi.spread() + np.max([psi.spread() for psi in partners], axis=0)
    lat = quad.lattice
    while lat.size // 2 > spread.max():
        try:
            lat = FrequencyLattice(lat.dimension, lat.size // 2, lat.box)
        except ValueError:          # odd, too small, or h above 1/4
            break
    return quad if lat is quad.lattice else Quadrature(quad.config, lat)


def product_slice_sums(phi: SpectralWave, psi: SpectralWave, quad: Quadrature,
                       region: Optional[Region] = None) -> np.ndarray:
    """Per-time-slice values of sum_x h^2 |phi psi|^2, zero outside the region.

    Without a region the sums run on ``exact_product_quadrature``'s grid,
    which gives the same values as quad's grid to round-off; a region's mask
    is built on quad's grid and keeps it."""
    out = np.zeros(len(quad.times))
    if region is None:
        quad = exact_product_quadrature(quad, phi, (psi,))
    w = quad.cell_weight()
    for i, _, mask, dens in product_densities(phi, (psi,), quad, region):
        out[i] = w * float(dens.sum() if mask is None else dens[mask].sum())
    return out


def product_l2(phi: SpectralWave, psi: SpectralWave, region: Optional[Region],
               quad: Quadrature) -> float:
    """Riemann-sum approximation of the spacetime L^2 norm of phi * psi."""
    sums = product_slice_sums(phi, psi, quad, region)
    return math.sqrt(quad.dt * float(sums.sum()))


def lp_product(phi: SpectralWave, psi: SpectralWave, p: float,
               quad: Quadrature) -> float:
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

def l2t_linf_on_tube(phi: SpectralWave, tube: Tube, quad: Quadrature) -> float:
    """( sum_t dt * (max over grid x with (t,x) in tube |phi|)^2 )^1/2.

    Empty slices contribute zero."""
    lat = quad.lattice
    total = 0.0
    for t in quad.times:
        if not tube.time_active(t):
            continue
        rows, cols = disk_pixel_indices(lat, tube.axis_at(t), tube.eff_radius)
        if len(rows) == 0:
            continue
        m = float(np.abs(phi.evaluate(t, lat))[rows, cols].max())
        total += m * m
    return math.sqrt(quad.dt * total)
