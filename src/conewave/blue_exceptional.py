"""Exceptional tubes of a blue wave: where can its local mass concentrate?

``find_bad_cubes`` is the brute-force oracle: scan every unit spacetime cube
of the window and report those holding more than delta^2 of the (normalized)
mass.  ``exceptional_tubes_for_blue`` finds a small tube family covering all
such cubes without scanning: split the frequency support into unit cells by a
partition of unity, ride each cell's packet along its group velocity, convert
the packet's cross-section mass profile into weights on a separated family of
unit tubes tiling each length-2^k time slab, and hand the family to the greedy
cover with threshold c * delta^2.

Both steps spend their time in independent unit-cell sums: one per time slice
of the scan (``unit_cube_masses``) and one per frequency cell of each slab
(``sector_weights``).  Each step maps them over ``waves._FFT_WORKERS``
(two) threads, the calling thread and the helper of a pool that lives for
one call only, and every sum runs its transforms on one thread.  The results
are added up in input order, the order of a serial loop, so every mass,
weight and tube is bit-identical to a serial run.  Mapped code calls no
function or method that ``bench/tracing.py`` wraps, because the tracer keeps
one span stack that is not thread-aware, and it writes no wave cache:
``frequency_cells``, ``sector_weights`` and ``greedy_tube_cover`` run
outside the map, and the wave's ``rho`` cache is filled before it starts.
"""

from __future__ import annotations

import functools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import scipy.fft as _fft

from .geometry import SECTOR_HALF_ANGLE, Cube, disk_spans, span_pixels, unit_dir
from .lattice import FrequencyLattice
from .norms import Quadrature
from .tube_cover import WeightedTubeFamily, greedy_tube_cover
from .waves import _FFT_WORKERS, SpectralWave, smoothstep

PROFILE_POWER = 3.0          # cross-section weight profile (1 + d^2)^-power
PROFILE_RADIUS = 8.0         # truncation radius of the profile
# greedy threshold = factor * delta^2; calibrated so the stop level sits above
# the ambient residual of mass-spread waves (<= 0.007) and far below the
# residual at any concentration cube (>= 0.6 for packet waves)
BLUE_THRESHOLD_FACTOR = 2.0


def unit_cell_sums(lattice: FrequencyLattice, modes: np.ndarray,
                   coeffs: np.ndarray) -> np.ndarray:
    """Riemann sums h^2 sum |u|^2 over the lattice grid points of every unit
    cell [a, a+1) x [b, b+1), for u(x) = L^-2 sum_j coeffs_j e^{2 pi i x.modes_j / L};
    repeated modes add up.  Returns a (box, box) array.

    |u|^2 is a trigonometric polynomial whose modes are the differences of
    u's modes, so a grid of M >= 2 * spread + 1 points per axis holds its
    exact spectrum D (trapezoid-rule aliasing).  A cell sum is then
    sum_d D(d) G(d) e^{2 pi i a.d / L} with the per-axis Dirichlet factor
    G(d) = sum_{i < N/L} e^{2 pi i d i / N}; with M a multiple of L, folding
    d mod L is a reshape and one L x L transform finishes.  This is exact for
    every spread, also when M exceeds N.  The transforms run on one thread:
    the callers in this module run two of these at once."""
    return _cell_sums(lattice, _cell_layout(lattice, modes), coeffs)


def unit_cell_pixels(lattice: FrequencyLattice) -> int:
    """Pixels per unit cell along an axis; a ValueError when the unit cells
    do not lie on the pixel grid."""
    box = int(round(lattice.box))
    if lattice.size % box:
        raise ValueError("unit cells need a lattice size divisible by the box side")
    return lattice.size // box


def _cell_layout(lattice: FrequencyLattice, modes: np.ndarray):
    """What unit_cell_sums needs of the modes alone, checked once for every
    coefficient set on them: (shape, width, flat), the alias-exact grid, the
    number of its leading columns that hold modes, and each mode's flat index
    once every mode is shifted by the lowest (shifting leaves |u|^2
    unchanged).  None for no modes."""
    box = int(round(lattice.box))
    n = lattice.size
    unit_cell_pixels(lattice)
    modes = np.asarray(modes, dtype=np.int64).reshape(-1, 2)
    if len(modes) == 0:
        return None
    if np.any(np.abs(modes) > n // 2 - 1):
        raise ValueError("wave modes not representable on this lattice")
    lo = modes.min(axis=0)
    spread = modes.max(axis=0) - lo
    shape = tuple(box * -(-(2 * int(s) + 1) // box) for s in spread)
    flat = (modes[:, 0] - lo[0]) * shape[1] + (modes[:, 1] - lo[1])
    return shape, int(spread[1]) + 1, flat


def _cell_sums(lattice: FrequencyLattice, layout, coeffs: np.ndarray) -> np.ndarray:
    """unit_cell_sums for the modes of a _cell_layout."""
    box = int(round(lattice.box))
    if layout is None:
        return np.zeros((box, box))
    shape, width, flat = layout
    n = lattice.size
    # one buffer holds the spectrum, the field and |u|^2 in turn, and is
    # freed once |u|^2 is transformed: two sums run at once, and the largest
    # grids set the peak memory of a blue-wave scan.  np.add.at adds
    # repeated modes in input order.
    field = np.zeros(shape, dtype=np.complex128)
    np.add.at(field.reshape(-1), flat, np.asarray(coeffs, dtype=np.complex128).ravel())
    # ifft2 in place, along axis 0 only over the leading columns that hold
    # modes: the bits of ifft2, for the reason SpectralWave.evaluate gives
    _fft.ifft(field[:, :width], axis=0, norm="forward", overwrite_x=True, workers=1)
    _fft.ifft(field, axis=1, norm="forward", overwrite_x=True, workers=1)
    dens, im = field.real, field.imag
    np.square(dens, out=dens)
    np.square(im, out=im)
    np.add(dens, im, out=dens)
    spectrum = _fft.fft2(dens, norm="forward", workers=1)
    del field, dens, im
    spectrum *= _dirichlet(shape[0], n, n // box)[:, None]
    spectrum *= _dirichlet(shape[1], n, n // box)[None, :]
    folded = spectrum.reshape(shape[0] // box, box, shape[1] // box, box).sum(axis=(0, 2))
    weight = lattice.spacing ** 2 / lattice.box ** 4
    return weight * _fft.ifft2(folded, norm="forward").real


def _ordered_map(fn, items) -> list:
    """[fn(item) for item in items], computed by the calling thread and the
    _FFT_WORKERS - 1 helper threads of a pool that lives for this call only.
    Each thread claims the next unclaimed item, and the results come back in
    input order, so adding them up in that order gives the serial loop's
    bits.  An exception in fn is raised here once every thread has stopped.
    fn may call no function that bench/tracing.py wraps (its span stack is
    not thread-aware) and may fill no cache on a wave.

    The calling thread works too because its temporaries then stay in the
    main malloc arena, which the rest of the program reuses: with two pool
    threads and an idle caller the blue peak RSS read 3 to 4 % higher."""
    items = list(items)
    out = [None] * len(items)
    todo = enumerate(items)         # shared: next() is atomic under the GIL

    def work():
        for i, item in todo:
            out[i] = fn(item)

    with ThreadPoolExecutor(max_workers=_FFT_WORKERS - 1) as pool:
        helpers = [pool.submit(work) for _ in range(_FFT_WORKERS - 1)]
        try:
            work()
        except BaseException:
            for _ in todo:          # leave the helpers nothing more to claim
                pass
            raise
        for helper in helpers:
            helper.result()
    return out


@functools.lru_cache(maxsize=None)
def _dirichlet(m: int, n: int, cell: int) -> np.ndarray:
    """sum_{i < cell} e^{2 pi i d i / n} for the signed frequencies d of an
    m-point transform."""
    d = np.fft.fftfreq(m, 1.0 / m)
    out = np.exp(2j * np.pi * np.outer(d, np.arange(cell)) / n).sum(axis=1)
    out.flags.writeable = False
    return out


def unit_cube_masses(psi: SpectralWave, quad: Quadrature):
    """Quadrature mass of psi in every unit spacetime cube of the window.

    Returns (t_corners, masses) with masses shaped (num t-cubes, box, box);
    cube (i, a, b) is [t_i, t_i + 1) x [a, a+1) x [b, b+1)."""
    lat = quad.lattice
    if abs(lat.box - psi.lattice.box) > 1e-12:
        raise ValueError("quadrature lattice must share the torus size")
    nb = int(round(lat.box))
    t_corners = np.arange(-quad.config.half_window, quad.config.half_window)
    masses = np.zeros((len(t_corners), nb, nb))
    layout = _cell_layout(lat, psi.modes)
    psi.rho()                           # fill the cache here: workers only read it

    def sums_at(t):
        return _cell_sums(lat, layout, psi.phased(t))

    for t, sums in zip(quad.times, _ordered_map(sums_at, quad.times)):
        i = int(math.floor(t + quad.config.half_window))
        masses[i] += quad.dt * sums
    return t_corners, masses


def find_bad_cubes(psi: SpectralWave, delta: float, quad: Quadrature) -> list:
    """Exhaustive scan for unit cubes q with ||psi||_{L^2(q)} > delta M^(1/2)."""
    t_corners, masses = unit_cube_masses(psi, quad)
    cut = delta * delta * psi.mass()
    out = []
    for i, a, b in zip(*np.where(masses > cut)):
        out.append(Cube((t_corners[i] + 0.5, a + 0.5, b + 0.5)))
    return out


# ---------------------------------------------------------------------------
# frequency partition of unity on unit cells

def _cell_window(u):
    """p(u) >= 0, supported on |u| <= 1, with sum_j p(u - j) = 1."""
    u = np.abs(np.asarray(u, dtype=float))
    return np.where(u >= 1.0, 0.0, smoothstep(1.0 - u))


def frequency_cells(psi: SpectralWave):
    """Integer cell centers alpha with nonzero partition weight on supp(psi),
    and per-mode square-root partition values.

    Returns list of (alpha, mode_sel, chi) where chi are the sqrt-partition
    coefficients for psi's modes selected by mode_sel."""
    modes = psi.modes
    if len(modes) == 0:
        return []
    xi = modes / psi.lattice.box
    base = np.round(xi).astype(np.int64)
    alphas, weights, mode_ids = [], [], []
    ids = np.arange(len(modes))
    for da in (-1, 0, 1):
        for db in (-1, 0, 1):
            alpha = base + np.array([da, db])
            p = _cell_window(xi[:, 0] - alpha[:, 0]) * _cell_window(xi[:, 1] - alpha[:, 1])
            nz = p > 0.0
            alphas.append(alpha[nz])
            weights.append(p[nz])
            mode_ids.append(ids[nz])
    alphas = np.concatenate(alphas)
    weights = np.concatenate(weights)
    mode_ids = np.concatenate(mode_ids)
    uniq, inv = np.unique(alphas, axis=0, return_inverse=True)
    inv = inv.ravel()
    order = np.argsort(inv, kind="stable")
    splits = np.searchsorted(inv[order], np.arange(1, len(uniq)))
    out = []
    for g, chunk in enumerate(np.split(order, splits)):
        out.append(((int(uniq[g, 0]), int(uniq[g, 1])),
                    mode_ids[chunk], np.sqrt(weights[chunk])))
    return out


def _snapped_direction(alpha, k: int) -> float:
    """Cell direction snapped to the angular grid of spacing 2^-k inside the
    cone (keeps distinct snapped directions separated by ~2^-k)."""
    theta = math.atan2(alpha[1], alpha[0])
    spacing = 2.0 ** (-k)
    i_max = int(math.floor(SECTOR_HALF_ANGLE / spacing))
    i = int(round(theta / spacing))
    i = max(-i_max, min(i_max, i))
    return i * spacing


@functools.lru_cache(maxsize=None)
def _profile_kernel(box_i: int) -> np.ndarray:
    """The cross-section profile on the integer grid of the side-box_i
    torus, read-only: one kernel per box."""
    k = np.zeros((box_i, box_i))
    rows, cols, _ = span_pixels(*disk_spans((0.0, 0.0), PROFILE_RADIUS, 1.0))
    for d1, d2 in zip(rows.tolist(), cols.tolist()):
        d = math.sqrt(d1 * d1 + d2 * d2)
        k[d1 % box_i, d2 % box_i] = (1.0 + d * d) ** (-PROFILE_POWER)
    k.flags.writeable = False
    return k


def sector_weights(psi: SpectralWave, t_center: float = 0.0) -> WeightedTubeFamily:
    """Weighted separated tube family dominating the local mass of psi near
    time t_center: unit cells of the frequency support become packet waves,
    each packet's unit-cell mass field (smoothed by the cross-section profile)
    becomes the weights of radius-1 tubes anchored at every point of the
    integer grid in the packet's snapped travel direction, so the family is a
    full grid.  Weights are normalized by the profile mass and the total mass
    so they sum to at most 1.

    The frequency cells and each slab's per-direction grids do not depend on
    delta; they are kept on the wave, so a second delta reuses them."""
    if psi.color != "blue":
        raise ValueError("sector weights need a blue wave")
    lat = psi.lattice
    if "frequency_cells" not in psi._cache:
        psi._cache["frequency_cells"] = frequency_cells(psi)
    cells = psi._cache["frequency_cells"]
    if not cells:
        return WeightedTubeFamily.from_arrays(np.zeros((0, 2)), np.zeros((0, 2)),
                                              np.zeros(0), psi.k, lat.box)
    key = ("sector_grids", float(t_center))
    if key not in psi._cache:
        psi._cache[key] = _direction_grids(psi, cells, t_center)
    box_i = int(round(lat.box))
    total = psi.mass() * float(_profile_kernel(box_i).sum()) * (1.0 + 1e-9)
    grids = sorted(psi._cache[key].items())
    # tube order: directions by angle, then every anchor of the grid row-major
    anchors = np.tile(np.indices((box_i, box_i)).reshape(2, -1).T, (len(grids), 1))
    directions = np.repeat([unit_dir(theta) for theta, _ in grids], box_i * box_i, axis=0)
    # the smoothing's round-off may dip just below zero
    weights = np.concatenate([np.maximum(smoothed / total, 0.0).ravel() for _, smoothed in grids])
    return WeightedTubeFamily.from_arrays(anchors, directions, weights, psi.k, lat.box)


def _direction_grids(psi: SpectralWave, cells: list, t_center: float) -> dict:
    """Per snapped direction: the unit-cell masses of the cell packets at
    t_center travelling that way, smoothed by the cross-section profile."""
    lat = psi.lattice
    box_i = int(round(lat.box))
    phased = psi.phased(t_center)

    def cell_sums(cell):
        _, sel, chi = cell
        return unit_cell_sums(lat, psi.modes[sel], phased[sel] * chi)

    raw: dict = {}
    for (alpha, _, _), sums in zip(cells, _ordered_map(cell_sums, cells)):
        theta = _snapped_direction(alpha, psi.k)
        raw[theta] = raw.get(theta, 0.0) + sums
    kernel_f = np.fft.rfft2(_profile_kernel(box_i))
    return {theta: np.fft.irfft2(np.fft.rfft2(m) * kernel_f, s=(box_i, box_i))
            for theta, m in raw.items()}


def exceptional_tubes_for_blue(psi: SpectralWave, delta: float, quad: Quadrature) -> list:
    """Tubes whose 3-dilations cover every bad unit cube of the blue wave.

    The window splits into time slabs of length 2^k; each slab's sector-weight
    family goes through the greedy cover at threshold c * delta^2 and the
    resulting tubes are shifted back to absolute time; ValueError for a
    wave that is not blue."""
    half_len = 2.0 ** psi.k
    t0 = -quad.config.half_window
    out = []
    threshold = min(1.0, BLUE_THRESHOLD_FACTOR * delta * delta)
    while t0 < quad.config.half_window - 1e-9:
        t_center = t0 + 0.5 * half_len
        family = sector_weights(psi, t_center)
        tubes = greedy_tube_cover(family, threshold)
        out.extend(replace(t, t0=t.t0 + t_center) for t in tubes)
        t0 += half_len
    return out
