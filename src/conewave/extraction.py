"""Iterative ray extraction: locate the light-ray tube where a forward-cone
wave concentrates, synthesize a matched extractor wave from a dual witness on
that tube, subtract the optimal multiple, repeat.

One round, for a red wave phi of mass at most 1:

1. ``find_concentrating_tube`` maximizes the L^2_t L^inf_x norm over
   window-spanning tubes with directions on a 1/16-spaced angular grid inside
   the pi/8 cone and offsets on a half-unit spatial grid.  The half-unit
   offset grid lies on the pixel grid, so for each (direction, time) pair
   the axis pixel's shift and the set of pixels within distance 1 of the
   axis point are the same for every candidate.  These disk stencils are
   built once per quadrature.  The search is a two-stage argmax.  First
   every candidate gets an upper bound: per time slice the max of the
   half-unit cell maxima over the window of cells that the stencils reach
   around the axis pixel's cell.  Then the candidates whose bound reaches
   the threshold are evaluated exactly in decreasing bound order, in
   chunks of 64 growing to 512, until the bound drops below the best exact
   value, so the returned tube is the exact argmax over the grid.  An
   exact norm is one flat gather per time slice from a wrap-padded
   magnitude stack; candidates off the grid are rejected, since the
   stencils are exact only there.
2. ``dual_witness`` realizes the tube norm as a pairing: x(t) is the grid
   argmax of |phi(t, .)| over the tube cross-section, gathered through the
   exact norm's stencils, and f the normalized trace of phi along (t, x(t)).
3. ``build_extractor`` synthesizes the red wave whose t=0 pairing with phi
   reproduces that tube norm exactly: coefficients are the windowed exponential
   sums of the witness, cut off to the sector sub-region of prescribed margin.
   The cutoff is the sharp indicator of the margin region, which keeps
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
from .geometry import SECTOR_HALF_ANGLE, Tube, disk_spans, span_pixels, unit_dir
from .lattice import FrequencyLattice
from .norms import Quadrature
from .waves import SpectralWave, _sector_modes, inner_product, make_wave

DIRECTION_SPACING = 1.0 / 16.0
OFFSET_SPACING = 0.5


def search_directions() -> np.ndarray:
    """Angles at DIRECTION_SPACING covering the pi/8 cone around e1."""
    m = int(math.floor(SECTOR_HALF_ANGLE / DIRECTION_SPACING))
    return DIRECTION_SPACING * np.arange(-m, m + 1)


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

def search_cell(lattice: FrequencyLattice) -> int:
    """Pixels per half-unit offset cell; a ValueError when the offset grid
    does not lie on the pixel grid, where neither the cell-max bound nor
    the disk stencils hold."""
    cell = int(round(OFFSET_SPACING / lattice.spacing))
    if lattice.size % cell or abs(cell * lattice.spacing - OFFSET_SPACING) > 1e-12:
        raise ValueError("the tube search needs the half-unit offset grid on the pixels, "
                         f"but h = {lattice.spacing:g} does not divide 1/2")
    return cell


@dataclass(frozen=True)
class _DiskStencils:
    """Unit-disk cross-sections of the search's window tubes, one per
    (time slice, search direction), for tubes anchored on the pixel grid.

    For an anchor on the pixel grid the axis point at time t is the anchor
    pixel plus omega t, so the nearest-pixel shift round(omega t / h) and
    the set of pixel offsets within distance 1 of the axis point do not
    depend on the anchor.  ``flat`` holds those offsets as flat indices into
    one slice wrap-padded by ``pad`` pixels, each row padded to a common
    length by repeating its first offset (a repeat leaves a max unchanged).

    For the bound: with ``cell`` pixels per half-unit cell, the axis pixel
    of an anchor in cell a lies in cell a + ``cell_shift``, and on each axis
    every disk pixel lies ``window[0]`` to ``window[1]`` cells from that
    cell."""
    thetas: np.ndarray      # (D,) search directions
    pad: int                # wrap padding of a magnitude slice, in pixels
    shift: np.ndarray       # (2, T, D) axis pixel of the anchor-0 tube
    flat: np.ndarray        # (T, D, K) flat disk offsets in a padded slice
    cell_shift: np.ndarray  # (2, T, D) shift // cell
    window: np.ndarray      # (2, 2) per axis: lowest and highest cell offset


def _disk_stencils(quad: Quadrature) -> _DiskStencils:
    """The search's disk stencils on this quadrature, built once per
    quadrature from one ``disk_spans`` call over every (time, direction)."""
    if "disk_stencils" not in quad._cache:
        h = quad.h
        cell = search_cell(quad.lattice)
        pad = int(math.ceil(1.0 / h)) + 1
        width = quad.lattice.size + 2 * pad
        thetas = search_directions()
        c1 = np.cos(thetas)[None, :] * quad.times[:, None]     # (T, D)
        c2 = np.sin(thetas)[None, :] * quad.times[:, None]
        shift = np.round(np.stack([c1, c2]) / h).astype(np.int64)
        spans = disk_spans(np.stack([c1, c2], axis=-1), 1.0, h)
        rows, cols, disk = span_pixels(*spans)
        offsets = (rows - shift[0].ravel()[disk]) * width + cols - shift[1].ravel()[disk]
        # the cells of each span's ends relative to the axis pixel's cell
        d, r, lo, hi = spans
        held = hi >= lo
        cell_shift = shift // cell
        q = cell_shift.reshape(2, -1)[:, d[held]]
        near = np.stack([r[held], lo[held]]) // cell - q
        far = np.stack([r[held], hi[held]]) // cell - q
        window = np.stack([near.min(axis=1), far.max(axis=1)], axis=1)
        count = np.bincount(disk, minlength=c1.size)
        kmax = int(count.max())
        k = np.arange(kmax)
        take = (np.cumsum(count) - count)[:, None] + np.where(k < count[:, None], k, 0)
        flat = offsets[take].reshape(*c1.shape, kmax)
        quad._cache["disk_stencils"] = _DiskStencils(thetas, pad, shift, flat,
                                                     cell_shift, window)
    return quad._cache["disk_stencils"]


class _TubeSearch:
    """Shared machinery of one wave's search: magnitude slices, cell-max
    bounds, and exact disk norms and witness pixels of search-grid tubes.

    The magnitude slices are held as one stack wrap-padded by the stencils'
    padding, so every disk of an on-grid tube lies inside one padded slice
    and needs no index wrapping; ``slices`` is a view of the stack's interior."""

    def __init__(self, phi: SpectralWave, quad: Quadrature):
        self.quad = quad
        self.lat = quad.lattice
        self.stencils = _disk_stencils(quad)
        n = self.lat.size
        self.cell = cell = search_cell(self.lat)
        self.nc = n // cell
        pad = self.stencils.pad
        self.padded = np.empty((len(quad.times), n + 2 * pad, n + 2 * pad))
        self.slices = self.padded[:, pad:pad + n, pad:pad + n]
        for i, t in enumerate(quad.times):
            np.abs(phi.evaluate(t, self.lat), out=self.slices[i])
        # wrap the border: columns of the interior rows, then whole rows
        edge = np.r_[0:pad, n + pad:n + 2 * pad]
        src = (edge - pad) % n + pad
        self.padded[:, pad:pad + n, edge] = self.padded[:, pad:pad + n][:, :, src]
        self.padded[:, edge] = self.padded[:, src]
        self.cellmax = self.slices[:, ::cell, ::cell].copy()
        for a in range(cell):
            for b in range(cell):
                np.maximum(self.cellmax, self.slices[:, a::cell, b::cell], out=self.cellmax)

    def _directions(self, thetas) -> np.ndarray:
        """Stencil indices of directions on the search grid; ValueError for
        any other direction."""
        st = self.stencils
        thetas = np.asarray(thetas, dtype=float)
        dirs = np.minimum(np.searchsorted(st.thetas, thetas), len(st.thetas) - 1)
        if not np.array_equal(st.thetas[dirs], thetas):
            raise ValueError("tube directions must lie on the search grid")
        return dirs

    def upper_bounds(self, thetas: np.ndarray) -> np.ndarray:
        """Upper bound of the tube norm for every (direction, half-unit
        offset), shape (n_dirs, 2*box, 2*box).

        The disk of a candidate anchored at pixel a * cell holds the pixels
        a * cell + p, p a pixel of the anchor-0 disk, and a * cell + p lies
        in cell a + p // cell.  The stencils' window holds p // cell -
        cell_shift for every pixel p of every anchor-0 disk, so the max of
        the cell max over the window around cell a + cell_shift dominates
        the disk max at every time, and the squares, summed over the times
        in the order of exact_norms, dominate its sum in floating point too.
        Per slice the window max is two running maxima over one wrapped
        copy of the cell max, squared once; each direction adds one shifted
        view of it."""
        st = self.stencils
        dirs = self._directions(thetas)
        nc = self.nc
        (lo1, hi1), (lo2, hi2) = st.window
        bounds = np.zeros((len(dirs), nc, nc))
        for i in range(len(self.cellmax)):
            q1, q2 = st.cell_shift[0, i, dirs], st.cell_shift[1, i, dirs]
            b1, b2 = q1.min(), q2.min()
            m1 = nc + q1.max() - b1
            m2 = nc + q2.max() - b2
            ext = self.cellmax[i][np.ix_(np.arange(b1 + lo1, b1 + hi1 + m1) % nc,
                                         np.arange(b2 + lo2, b2 + hi2 + m2) % nc)]
            rows = ext[:m1].copy()
            for d in range(1, hi1 - lo1 + 1):
                np.maximum(rows, ext[d:d + m1], out=rows)
            win = rows[:, :m2].copy()
            for d in range(1, hi2 - lo2 + 1):
                np.maximum(win, rows[:, d:d + m2], out=win)
            np.square(win, out=win)
            for j in range(len(dirs)):
                a, b = q1[j] - b1, q2[j] - b2
                bounds[j] += win[a:a + nc, b:b + nc]
        bounds *= self.quad.dt
        return np.sqrt(bounds, out=bounds)

    def _disk_index(self, thetas, x0s):
        """(dirs, base): tube j's disk at time slice i is the flat indices
        base[i, j] + stencils.flat[i, dirs[j]] into ``padded``.  For window
        unit tubes on the search grid only, where the stencils are exact;
        anything else is a ValueError."""
        st = self.stencils
        dirs = self._directions(thetas)
        cells = np.asarray(x0s, dtype=float).reshape(-1, 2) / OFFSET_SPACING
        if not np.array_equal(cells, np.round(cells)):
            raise ValueError("tube anchors must lie on the half-unit grid")
        pix = cells.astype(np.int64) * self.cell
        n = self.lat.size
        width = self.padded.shape[-1]
        rows = (pix[:, 0] + st.shift[0][:, dirs]) % n + st.pad    # (T, batch)
        cols = (pix[:, 1] + st.shift[1][:, dirs]) % n + st.pad
        return dirs, (np.arange(len(rows))[:, None] * width + rows) * width + cols

    def exact_norms(self, thetas: np.ndarray, x0s: np.ndarray) -> np.ndarray:
        """Exact grid tube norms for a batch of window unit tubes on the
        search grid.  Per time slice the disk maxima of the whole batch are
        one flat gather from the padded stack and a row max."""
        st = self.stencils
        dirs, base = self._disk_index(thetas, x0s)
        flat = self.padded.ravel()
        acc = np.zeros(len(dirs))
        for i in range(len(base)):
            m = flat[st.flat[i, dirs] + base[i][:, None]].max(axis=1)
            acc += m * m
        return np.sqrt(self.quad.dt * acc)


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
    bounds = search.upper_bounds(thetas)
    flat = bounds.ravel()
    # candidates whose bound reaches the threshold, by decreasing bound
    # (ties in index order, as a stable sort of every candidate would give)
    floor = threshold * (1.0 - 1e-12)
    order = np.flatnonzero(flat > floor)
    order = order[np.argsort(-flat[order], kind="stable")]
    best_val = -1.0
    best_tube = None
    lo, chunk = 0, 64
    while lo < len(order):
        cut = max(best_val, floor)
        take = order[lo:lo + chunk]
        take = take[flat[take] > cut]
        if not len(take):
            break
        lo, chunk = lo + chunk, min(2 * chunk, 512)
        di, a, b = np.unravel_index(take, bounds.shape)
        ths = thetas[di]
        xs = np.stack([a, b], axis=1) * OFFSET_SPACING
        vals = search.exact_norms(ths, xs)
        # only a value above the best at the chunk's start can raise the best
        for j in np.flatnonzero(vals > best_val + 1e-15):
            if vals[j] > best_val + 1e-15:
                best_val = float(vals[j])
                best_tube = Tube(0.0, tuple(xs[j]), tuple(unit_dir(ths[j])), half_length=None)
    if best_tube is not None and best_val >= threshold:
        return best_tube, best_val
    return None, max(best_val, 0.0)


# ---------------------------------------------------------------------------
# witness, extractor, step size

def dual_witness(phi: SpectralWave, tube: Tube, quad: Quadrature,
                 search: Optional[_TubeSearch] = None) -> DualWitness:
    """Trajectory/coefficient pair realizing the tube norm as a pairing.

    For window unit tubes on the search grid only (a ValueError otherwise).
    x(t) is the first argmax pixel in row-major order of the search's
    magnitude slice over the tube cross-section, all slices in one stencil
    gather (a search of phi is built when none is given); the values
    phi(t, x(t)) are summed from the spectrum at those pixels."""
    if tube.half_length is not None or tube.t0 != 0.0 or tube.eff_radius != 1.0:
        raise ValueError("the dual witness needs a window tube of radius 1 at t0 = 0")
    # match unit vectors: atan2 of (cos theta, sin theta) need not give theta
    thetas = [th for th in search_directions() if tuple(unit_dir(th)) == tube.omega]
    if not thetas:
        raise ValueError("tube directions must lie on the search grid")
    search = search or _TubeSearch(phi, quad)
    dirs, base = search._disk_index(thetas, [tube.x0])
    disk = search.stencils.flat[:, dirs[0]] + base                 # (T, K)
    best = disk[np.arange(len(disk)), search.padded.ravel()[disk].argmax(axis=1)]
    _, rows, cols = np.unravel_index(best, search.padded.shape)
    pix = (np.stack([rows, cols], axis=1) - search.stencils.pad) % quad.lattice.size
    times = quad.times.copy()
    vals = phi.point_values(times, pix[:, 0], pix[:, 1], quad.lattice)
    norm = math.sqrt(quad.dt * float(np.sum(np.abs(vals) ** 2)))
    if norm == 0.0:
        raise NoDecrementError("zero tube norm: no witness")
    return DualWitness(tube, times, pix * quad.h, vals, vals / norm, quad.dt, norm)


def build_extractor(lattice: FrequencyLattice, witness: DualWitness,
                    margin_target: float) -> SpectralWave:
    """Red wave whose t=0 pairing with the witnessed wave equals the tube norm.

    Coefficients: sum_i dt f(t_i) e^{-2 pi i (t_i |xi| + x(t_i).xi)} on the
    sector modes of margin >= margin_target, a sharp cutoff (exact pairing
    for every iterate whose support already lies in the margin region)."""
    modes, _ = _sector_modes(lattice, 0, margin_target)
    xi = modes / lattice.box
    rho = np.sqrt((xi * xi).sum(axis=1))
    phase = rho[:, None] * witness.times[None, :] \
        + xi[:, 0][:, None] * witness.points[None, :, 0] \
        + xi[:, 1][:, None] * witness.points[None, :, 1]
    vals = np.exp(-2j * np.pi * phase) @ (witness.dt * witness.f)
    return make_wave(lattice, modes, vals, "red")


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
    re = inner_product(phi, extractor).real
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
                    max_iter: int = 400):
    """Repeatedly extract concentrating rays until the remainder's tube
    concentration drops below delta * mass(phi)^(1/2) on the search grid.

    Returns (tubes, remainder, trace); tubes are the found tubes dilated by
    min(delta^-2, LAMBDA_CAP), the paper's delta^-C at C = 2."""
    mass0 = phi.mass()
    trace = ExtractionTrace()
    if mass0 == 0.0:
        return [], phi, trace
    threshold = delta * math.sqrt(mass0)
    trace.threshold = threshold
    margin_target = phi.margin() - max(delta ** 10, 1.0 / quad.config.box)
    if margin_target <= 0.0:
        raise ValueError("wave margin too small for the extractor cutoff")
    trace.margin_target = margin_target
    lam = min(delta ** -2.0, C.LAMBDA_CAP)

    current = phi
    tubes = []
    for _ in range(max_iter):
        search = _TubeSearch(current, quad)
        tube, value = find_concentrating_tube(current, delta, quad,
                                              threshold=threshold, search=search)
        if tube is None:
            return tubes, current, trace
        witness = dual_witness(current, tube, quad, search)
        # free the magnitude stack: held until the next search is built, two
        # stacks would be alive at once
        del search
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
