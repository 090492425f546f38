"""Iterative ray extraction: locate the light-ray tube where a forward-cone
wave concentrates, synthesize a matched extractor wave from a dual witness on
that tube, subtract the optimal multiple, repeat.

One round, for a red wave phi of mass at most 1:

1. ``find_concentrating_tube`` maximizes the L^2_t L^inf_x norm over
   window-spanning tubes with directions on a 1/16-spaced angular grid inside
   the pi/8 cone and offsets on a half-unit spatial grid.  The search is a
   two-stage argmax: a cell-max upper bound over all candidates, then exact
   evaluation in decreasing bound order until the bound drops below the best
   exact value, so the returned tube is the exact argmax over the grid.
2. ``dual_witness`` realizes the tube norm as a pairing: x(t) is the grid
   argmax of |phi(t, .)| over the tube cross-section and f the normalized
   trace of phi along (t, x(t)).
3. ``build_extractor`` synthesizes the red wave whose t=0 pairing with phi
   reproduces that tube norm exactly: coefficients are the windowed exponential
   sums of the witness, cut off to the sector sub-region of prescribed margin.
   The default cutoff is the sharp indicator of the margin region, which keeps
   every iterate's support inside the region where the cutoff equals one and
   makes the pairing identity exact along the whole iteration.
4. ``optimal_multiple`` picks the step size mu in (0, 1] minimizing the mass
   of phi - mu F; the mass drop is 2 mu Re<phi,F> - mu^2 M(F) >= 0.

The iteration stops when no tube on the search grid reaches the absolute
threshold delta * M(phi_0)^(1/2), so the remainder's tube concentration is
below delta on the grid by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import constants as C
from .errors import NoDecrementError
from .geometry import SECTOR_HALF_ANGLE, Tube
from .lattice import FrequencyLattice
from .norms import Quadrature, _disk_offsets, disk_pixel_indices
from .waves import SpectralWave, _sector_modes, inner_product, make_wave, smoothstep

DIRECTION_SPACING = 1.0 / 16.0
OFFSET_SPACING = 0.5
PRUNE_MASS_FRACTION = 1e-6


def search_directions(spacing: float = DIRECTION_SPACING) -> np.ndarray:
    """Angles at the given spacing covering the pi/8 cone around e1."""
    m = int(math.floor(SECTOR_HALF_ANGLE / spacing))
    return spacing * np.arange(-m, m + 1)


@dataclass(frozen=True)
class DualWitness:
    tube: Tube
    times: np.ndarray          # quadrature times with a nonempty cross-section
    points: np.ndarray         # (n, 2) trajectory x(t) inside the tube
    values: np.ndarray         # phi(t, x(t))
    f: np.ndarray              # normalized coefficients, ||f||_{L^2_t} = 1
    dt: float
    norm_value: float          # the realized tube norm

    def pairing_time_domain(self) -> complex:
        """sum_i dt * phi(t_i, x(t_i)) * conj(f(t_i)); equals norm_value."""
        return complex(np.sum(self.dt * self.values * np.conj(self.f)))


@dataclass
class TraceStep:
    tube: Tube
    value: float               # tube concentration found
    pairing: float             # Re <phi(0), F(0)>
    mass_extractor: float
    mu: float
    mass_before: float
    mass_after: float
    clamped: bool

    @property
    def decrement(self) -> float:
        return self.mass_before - self.mass_after


@dataclass
class ExtractionTrace:
    steps: list = field(default_factory=list)
    threshold: float = 0.0
    margin_target: float = 0.0
    completed: bool = True

    def __len__(self):
        return len(self.steps)


# ---------------------------------------------------------------------------
# concentration search

class _TubeSearch:
    """Shared machinery: magnitude slices, cell-max bounds, exact disk norms."""

    def __init__(self, phi: SpectralWave, quad: Quadrature):
        self.quad = quad
        self.lat = quad.lattice
        self.box = quad.config.box
        self.slices = np.stack([np.abs(phi.evaluate(t, self.lat)) for t in quad.times])
        n = self.lat.size
        cell = int(round(OFFSET_SPACING / self.lat.spacing))  # pixels per half-unit cell
        self.nc = n // cell
        self.cellmax = self.slices.reshape(len(quad.times), self.nc, cell,
                                           self.nc, cell).max(axis=(2, 4))
        self._off1, self._off2 = _disk_offsets(1.0, self.lat.spacing)

    def upper_bounds(self, thetas: np.ndarray, radius: float) -> np.ndarray:
        """Upper bound of the tube norm for every (direction, half-unit
        offset).  A pixel within `radius` of the axis point lies in a
        half-unit cell whose index differs from the axis cell by at most
        2*radius + sqrt(2), so a dilated cell-max dominates the exact disk
        max; for candidates on the cell grid the axis cell is a pure shift.
        Shape (n_dirs, 2*box, 2*box)."""
        times = self.quad.times
        dt = self.quad.dt
        nc = self.nc
        reach = 2.0 * radius + 1.5
        r = int(math.ceil(reach))
        offs = [(d1, d2) for d1 in range(-r, r + 1) for d2 in range(-r, r + 1)
                if d1 * d1 + d2 * d2 <= reach * reach]
        bounds = np.zeros((len(thetas), nc, nc))
        dirs = np.stack([np.cos(thetas), np.sin(thetas)], axis=1)
        inv = 1.0 / OFFSET_SPACING
        for i, t in enumerate(times):
            cm = self.cellmax[i]
            dil = cm.copy()
            for d1, d2 in offs:
                if d1 == 0 and d2 == 0:
                    continue
                np.maximum(dil, np.roll(cm, shift=(-d1, -d2), axis=(0, 1)), out=dil)
            for di, w in enumerate(dirs):
                s1 = int(math.floor(w[0] * t * inv))
                s2 = int(math.floor(w[1] * t * inv))
                v = np.roll(dil, shift=(-s1, -s2), axis=(0, 1))
                bounds[di] += dt * v * v
        return np.sqrt(bounds)

    def exact_norms(self, thetas: np.ndarray, x0s: np.ndarray) -> np.ndarray:
        """Exact grid tube norms for a batch of window-spanning unit tubes;
        loops over time slices so the per-slice batch stays cache-sized."""
        t = self.quad.times
        h = self.lat.spacing
        n = self.lat.size
        w1 = np.cos(thetas)
        w2 = np.sin(thetas)
        o1 = self._off1[None, :]
        o2 = self._off2[None, :]
        acc = np.zeros(len(thetas))
        for i, ti in enumerate(t):
            c1 = x0s[:, 0] + w1 * ti
            c2 = x0s[:, 1] + w2 * ti
            b1 = np.round(c1 / h).astype(np.int64)[:, None]
            b2 = np.round(c2 / h).astype(np.int64)[:, None]
            d1 = (b1 + o1) * h - c1[:, None]
            d2 = (b2 + o2) * h - c2[:, None]
            inside = d1 * d1 + d2 * d2 <= 1.0 + 1e-12
            vals = self.slices[i][(b1 + o1) % n, (b2 + o2) % n]
            m = np.where(inside, vals, 0.0).max(axis=1)
            acc += m * m
        return np.sqrt(self.quad.dt * acc)

    def exact_norm(self, theta: float, x0) -> float:
        return float(self.exact_norms(np.array([theta]),
                                      np.array([x0], dtype=float))[0])


def find_concentrating_tube(phi: SpectralWave, delta: float, quad: Quadrature,
                            threshold: Optional[float] = None,
                            search: Optional[_TubeSearch] = None):
    """Exact argmax of the window-tube concentration over the search grid.

    Returns (tube, value) when the best value reaches the threshold
    (default delta * mass(phi)^(1/2)), else (None, best value)."""
    if threshold is None:
        threshold = delta * math.sqrt(phi.mass())
    if phi.num_modes == 0:
        return None, 0.0
    search = search or _TubeSearch(phi, quad)
    thetas = search_directions()
    bounds = search.upper_bounds(thetas, 1.0)
    nc = bounds.shape[1]
    flat = bounds.ravel()
    order = np.argsort(-flat, kind="stable")
    best_val = -1.0
    best_tube = None
    chunk = 512
    for lo in range(0, len(order), chunk):
        cut = max(best_val, threshold * (1.0 - 1e-12))
        take = [int(i) for i in order[lo:lo + chunk] if flat[i] > cut]
        if not take:
            break
        ths = np.empty(len(take))
        xs = np.empty((len(take), 2))
        for j, idx in enumerate(take):
            di, rem = divmod(idx, nc * nc)
            a, b = divmod(rem, nc)
            ths[j] = thetas[di]
            xs[j] = (a * OFFSET_SPACING, b * OFFSET_SPACING)
        vals = search.exact_norms(ths, xs)
        for j, v in enumerate(vals):
            if v > best_val + 1e-15:
                best_val = float(v)
                best_tube = Tube(0.0, tuple(xs[j]),
                                 (math.cos(ths[j]), math.sin(ths[j])),
                                 half_length=None)
    if best_tube is not None and best_val >= threshold:
        return best_tube, best_val
    return None, max(best_val, 0.0)


# ---------------------------------------------------------------------------
# witness, extractor, step size

def dual_witness(phi: SpectralWave, tube: Tube, quad: Quadrature,
                 search: Optional[_TubeSearch] = None) -> DualWitness:
    """Trajectory/coefficient pair realizing the tube norm as a pairing.

    x(t) is the argmax pixel of the search's magnitude slice over the tube
    cross-section (a search of phi is built when none is given); the values
    phi(t, x(t)) are summed from the spectrum at those pixels."""
    search = search or _TubeSearch(phi, quad)
    lat = quad.lattice
    idx, rows, cols = [], [], []
    for i, t in enumerate(quad.times):
        if not tube.time_active(t):
            continue
        r, c = disk_pixel_indices(lat, tube.axis_at(t), tube.eff_radius)
        if len(r) == 0:
            continue
        j = int(np.argmax(search.slices[i][r, c]))
        idx.append(i)
        rows.append(r[j])
        cols.append(c[j])
    times = quad.times[idx]
    pts = np.stack([rows, cols], axis=1) * lat.spacing
    vals = phi.point_values(times, rows, cols, lat)
    norm = math.sqrt(quad.dt * float(np.sum(np.abs(vals) ** 2)))
    if norm == 0.0:
        raise NoDecrementError("zero tube norm: no witness")
    return DualWitness(tube, times, pts, vals, vals / norm, quad.dt, norm)


def build_extractor(lattice: FrequencyLattice, witness: DualWitness,
                    margin_target: float, margin_full: Optional[float] = None) -> SpectralWave:
    """Red wave whose t=0 pairing with the witnessed wave equals the tube norm.

    Coefficients: eta(xi) * sum_i dt f(t_i) e^{-2 pi i (t_i |xi| + x(t_i).xi)}
    on the sector modes of margin >= margin_target.  With margin_full given,
    eta ramps smoothly from 0 at margin_target to 1 at margin_full; by default
    eta is the sharp indicator (exact pairing for every iterate whose support
    already lies in the margin region)."""
    modes, d = _sector_modes(lattice, 0, margin_target)
    if margin_full is not None and margin_full > margin_target + 1e-15:
        eta = smoothstep((d - margin_target) / (margin_full - margin_target))
    else:
        eta = np.ones(len(modes))
    xi = modes / lattice.box
    rho = np.sqrt((xi * xi).sum(axis=1))
    phase = rho[:, None] * witness.times[None, :] \
        + xi[:, 0][:, None] * witness.points[None, :, 0] \
        + xi[:, 1][:, None] * witness.points[None, :, 1]
    vals = (np.exp(-2j * np.pi * phase) @ (witness.dt * witness.f)) * eta
    return make_wave(lattice, modes, vals, [], [], color="red", k=0)


@dataclass(frozen=True)
class StepChoice:
    mu: float
    decrement: float
    clamped: bool
    pairing: float
    mass_extractor: float


def optimal_multiple(phi: SpectralWave, extractor: SpectralWave) -> StepChoice:
    """Step size mu in (0,1] minimizing M(phi - mu F), with the mass drop
    2 mu Re<phi,F> - mu^2 M(F); inner products are spectral."""
    re = inner_product(phi, extractor, t=0.0).real
    if re <= 0.0:
        raise NoDecrementError(f"non-positive pairing {re:.3e}")
    m_f = extractor.mass()
    mu = re / m_f
    clamped = mu > 1.0
    if clamped:
        mu = 1.0
    decrement = 2.0 * mu * re - mu * mu * m_f
    return StepChoice(mu, decrement, clamped, re, m_f)


# ---------------------------------------------------------------------------
# the iteration

def extract_profile(phi: SpectralWave, delta: float, quad: Quadrature,
                    max_iter: int = 400, c_dilate: float = 2.0,
                    dilation_cap: float = C.LAMBDA_CAP,
                    margin_step: Optional[float] = None):
    """Repeatedly extract concentrating rays until the remainder's tube
    concentration drops below delta * mass(phi)^(1/2) on the search grid.

    Returns (tubes, remainder, trace); tubes are the found tubes dilated by
    min(delta^-c_dilate, dilation_cap)."""
    mass0 = phi.mass()
    trace = ExtractionTrace()
    if mass0 == 0.0:
        return [], phi, trace
    threshold = delta * math.sqrt(mass0)
    trace.threshold = threshold
    if margin_step is None:
        margin_step = max(delta ** 10, 1.0 / quad.config.box)
    margin_target = phi.margin() - margin_step
    if margin_target <= 0.0:
        raise ValueError("wave margin too small for the extractor cutoff")
    trace.margin_target = margin_target
    lam = min(delta ** (-c_dilate), dilation_cap)

    current = phi
    tubes = []
    for _ in range(max_iter):
        search = _TubeSearch(current, quad)
        tube, value = find_concentrating_tube(current, delta, quad,
                                              threshold=threshold, search=search)
        if tube is None:
            return tubes, current, trace
        witness = dual_witness(current, tube, quad, search)
        extractor = build_extractor(current.lattice, witness, margin_target)
        step = optimal_multiple(current, extractor)
        mass_before = current.mass()
        current = current.sub(extractor, coeff=step.mu)
        mass_after = current.mass()
        dilated = tube.dilate(lam)
        trace.steps.append(TraceStep(
            tube=dilated, value=value, pairing=step.pairing,
            mass_extractor=step.mass_extractor, mu=step.mu,
            mass_before=mass_before, mass_after=mass_after,
            clamped=step.clamped))
        tubes.append(dilated)
        if mass_after > mass_before - step.decrement + 1e-9:
            raise NoDecrementError("mass failed to drop by the computed decrement")
    trace.completed = False
    return tubes, current, trace
