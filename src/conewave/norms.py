"""Quadrature norms over the time window, outside tubes and on tubes.

Every norm here is *defined* as a Riemann sum: left-endpoint nodes in time
(weight dt) and the full lattice grid in space (weight h^2).  The L^inf_x part
of mixed norms is the max over grid points, a lower bound of the true sup that
is adequate for the band-limited fields produced by this package.

The bilinear sums run over the window outside excluded tubes.  Full-window
sums run on the coarsest halving of the lattice grid that exceeds spread(phi)
+ spread(psi) points per axis (``exact_product_quadrature``): phi psi is a
trigonometric polynomial of that per-axis mode spread, so every nonzero
frequency of |phi psi|^2 is below the grid size, sums to zero over the grid,
and the Riemann sum on any such grid is the exact integral.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .config import RunConfig
from .geometry import Tube, disk_spans, span_pixels
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

def _active_disk_spans(tubes, t: float, h: float):
    """The indices of the tubes active at time t and, when there are any,
    ``disk_spans`` of their cross-section disks on the grid of step h."""
    active = [j for j, tube in enumerate(tubes) if tube.time_active(t)]
    return active, (disk_spans([tubes[j].axis_at(t) for j in active],
                               [tubes[j].eff_radius for j in active], h) if active else None)


def region_slice_mask(tubes, t: float, lattice: FrequencyLattice) -> Optional[np.ndarray]:
    """Boolean mask of the lattice grid outside the disks of the tubes active
    at time t; None when no tube is active (the whole grid)."""
    active, spans = _active_disk_spans(tubes, t, lattice.spacing)
    return ~_paint_spans(lattice.size, *spans[1:]) if active else None


def _paint_spans(n: int, rows, lo, hi) -> np.ndarray:
    """Boolean n x n mask of the union of (rows, lo, hi) spans, wrapped onto
    the torus: +1 at each span's first column and -1 past its last in a
    difference array, summed along the rows."""
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

def product_densities(phi: SpectralWave, partners, quad: Quadrature, excluded=()):
    """The |phi psi|^2 density of phi with each partner psi, slice by slice.

    phi and every partner are synthesized on quad's grid once per time slice,
    and the mask outside the excluded tubes is built once per slice.  Yields
    (i, j, mask, density) for time slice i and partner j, with mask as
    region_slice_mask returns it (None: whole grid)."""
    lat = quad.lattice
    for i, t in enumerate(quad.times):
        mask = region_slice_mask(excluded, t, lat)
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
            lat = FrequencyLattice(lat.size // 2, lat.box)
        except ValueError:          # odd, too small, or h above 1/4
            break
    return quad if lat is quad.lattice else Quadrature(quad.config, lat)


def product_slice_sums(phi: SpectralWave, psi: SpectralWave, quad: Quadrature) -> np.ndarray:
    """Per-time-slice values of sum_x h^2 |phi psi|^2 over the whole grid, on
    ``exact_product_quadrature``'s grid: quad's values to round-off."""
    quad = exact_product_quadrature(quad, phi, (psi,))
    w = quad.cell_weight()
    return np.array([w * float(dens.sum())
                     for _, _, _, dens in product_densities(phi, (psi,), quad)])


def product_l2(phi: SpectralWave, psi: SpectralWave, quad: Quadrature) -> float:
    """Riemann-sum approximation of the window's L^2 norm of phi * psi."""
    return math.sqrt(quad.dt * float(product_slice_sums(phi, psi, quad).sum()))


def lp_product(phi: SpectralWave, psi: SpectralWave, p: float,
               quad: Quadrature) -> float:
    """Quadrature L^p norm of phi * psi over the full window, on quad's grid."""
    if p < 1.0:
        raise ValueError("p must be >= 1")
    w = quad.cell_weight()
    total = 0.0
    for _, _, _, dens in product_densities(phi, (psi,), quad):
        total += w * float(np.power(dens, 0.5 * p).sum())
    return (quad.dt * total) ** (1.0 / p)


# ---------------------------------------------------------------------------
# tube norms

def tube_slice_maxima(phi: SpectralWave, tubes, quad: Quadrature) -> np.ndarray:
    """(T, m) array: the max of |phi| at each time slice over each tube's
    cross-section disk, zero where the tube is inactive.  One synthesis and
    one ``disk_spans`` call per slice that has an active tube."""
    n = quad.lattice.size
    out = np.zeros((len(quad.times), len(tubes)))
    for i, t in enumerate(quad.times):
        active, spans = _active_disk_spans(tubes, t, quad.h)
        if active:
            # every disk holds a grid point: its radius is at least 1 > h
            rows, cols, disk = span_pixels(*spans)
            a = np.abs(phi.evaluate(t, quad.lattice))
            out[i, active] = np.maximum.reduceat(
                a[rows % n, cols % n], np.searchsorted(disk, np.arange(len(active))))
    return out


def l2t_linf_on_tube(phi: SpectralWave, tube: Tube, quad: Quadrature) -> float:
    """( sum_t dt * (max over grid x with (t,x) in tube |phi|)^2 )^1/2.

    Empty slices contribute zero.  The squares are summed in time order,
    as the tube search's exact norms sum them."""
    total = 0.0
    for m in tube_slice_maxima(phi, (tube,), quad)[:, 0]:
        total += m * m
    return math.sqrt(quad.dt * total)
