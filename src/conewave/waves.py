"""Cone-supported waves on the torus: synthesis, propagation, mass, margin.

A wave is stored by its nonzero Fourier coefficients on the two halves of the
light cone.  With mode integers m (frequency xi = m / L) and coefficient
values c, the field at time t is

    phi(t, x) = L^-2 * sum_m [ c+(m) e^{2 pi i t |xi|} + c-(m) e^{-2 pi i t |xi|} ] e^{2 pi i x . xi}

computed by scattering the phased coefficients onto the lattice and applying
one inverse FFT, so propagation is exactly unitary mode by mode.  Mass is the
plain weighted coefficient sum L^-2 * sum (|c+|^2 + |c-|^2); for a red or a
blue wave it equals the spatial L^2 quadrature of the field at every time (a
mode held on both cone sides adds cross terms that oscillate in time).

Colors: a red wave propagates coefficients with phase +|xi| (packets travel
along -xi/|xi|), a blue wave with phase -|xi| (packets travel along +xi/|xi|).
Both colors have frequency support in the annular sector
S_k = { 2^k <= |xi| <= 2^(k+1), angle(xi, e1) <= pi/8 }, and the margin of a
wave is the Euclidean distance of its rescaled support 2^-k xi to the boundary
of S_0.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy.fft as _fft

from .errors import InfeasibleMarginError, MarginUndefinedError, SectorResolutionError
from .geometry import SECTOR_HALF_ANGLE, Tube, axis_unit_cubes, dir_angle
from .lattice import FrequencyLattice

_FFT_WORKERS = 2

# default construction parameters for cube bumps / packet waves
BUMP_CENTER_RADIUS = 1.45
BUMP_SIGMA = 0.16
BUMP_MARGIN = 1.0 / 18.0
PACKET_SIGMA_RADIAL = 0.22


def smoothstep(u):
    """C^inf step: 0 for u <= 0, 1 for u >= 1, and s(u) + s(1-u) = 1."""
    u = np.asarray(u, dtype=float)
    lo = u <= 0.0
    hi = u >= 1.0
    mid = ~(lo | hi)
    out = np.where(hi, 1.0, 0.0)
    if np.any(mid):
        v = u[mid]
        a = np.exp(-1.0 / v)
        b = np.exp(-1.0 / (1.0 - v))
        out = out.astype(float)
        out[mid] = a / (a + b)
    return out


def sector_margin_distance(z1, z2):
    """Signed distance of rescaled frequencies to the boundary of the unit
    annular sector {1 <= |z| <= 2, angle(z, e1) <= pi/8}; positive inside."""
    z1 = np.asarray(z1, dtype=float)
    z2 = np.asarray(z2, dtype=float)
    r = np.sqrt(z1 * z1 + z2 * z2)
    radial = np.minimum(r - 1.0, 2.0 - r)
    # distance to the two boundary rays; exact for interior points
    theta = np.arctan2(np.abs(z2), z1)
    angular = r * np.sin(SECTOR_HALF_ANGLE - theta)
    return np.minimum(radial, angular)


@dataclass(frozen=True)
class SpectralWave:
    """Sparse two-sided cone wave.  Mode arrays are int64 with distinct rows
    in lexicographic order; vals are complex128.  Treat instances as
    immutable."""
    lattice: FrequencyLattice
    modes_plus: np.ndarray     # (n+, 2) mode integers
    vals_plus: np.ndarray      # (n+,)
    modes_minus: np.ndarray
    vals_minus: np.ndarray
    color: str = "none"
    k: int = 0
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        if self.color not in ("red", "blue", "none"):
            raise ValueError(f"unknown color {self.color!r}")
        if self.k < 0:
            raise ValueError("frequency exponent k must be >= 0")

    # -- basic quantities ---------------------------------------------------

    def rho(self, side: str) -> np.ndarray:
        key = "rho_" + side
        if key not in self._cache:
            modes = self.modes_plus if side == "plus" else self.modes_minus
            xi = modes / self.lattice.box
            self._cache[key] = np.sqrt((xi * xi).sum(axis=1))
        return self._cache[key]

    @property
    def num_modes(self) -> int:
        return len(self.vals_plus) + len(self.vals_minus)

    def mass(self) -> float:
        s = np.sum(np.abs(self.vals_plus) ** 2) + np.sum(np.abs(self.vals_minus) ** 2)
        return float(s) / self.lattice.box ** 2

    def normalize_mass(self, target: float = 1.0) -> "SpectralWave":
        m = self.mass()
        if m == 0.0:
            raise ValueError("cannot normalize the zero wave")
        scale = math.sqrt(target / m)
        return self._replace_vals(self.vals_plus * scale, self.vals_minus * scale)

    def margin(self) -> float:
        if self.color == "none":
            raise MarginUndefinedError("margin needs a red or blue wave")
        scale = 2.0 ** (-self.k) / self.lattice.box
        best = math.inf
        for modes in (self.modes_plus, self.modes_minus):
            if len(modes):
                d = sector_margin_distance(modes[:, 0] * scale, modes[:, 1] * scale)
                best = min(best, float(d.min()))
        if best is math.inf:
            return best          # vacuous: empty support
        return max(0.0, best)

    def validate_support(self) -> None:
        """Check the color/support invariant coefficient by coefficient."""
        if self.color == "red" and len(self.modes_minus):
            raise ValueError("red wave with backward-cone coefficients")
        if self.color == "blue" and len(self.modes_plus):
            raise ValueError("blue wave with forward-cone coefficients")
        if self.color == "none":
            return
        modes = self.modes_plus if self.color == "red" else self.modes_minus
        if not len(modes):
            return
        xi = modes / self.lattice.box
        r = np.sqrt((xi * xi).sum(axis=1))
        lo, hi = 2.0 ** self.k, 2.0 ** (self.k + 1)
        if np.any(r < lo - 1e-9) or np.any(r > hi + 1e-9):
            raise ValueError("support outside the frequency annulus")
        theta = np.arctan2(np.abs(xi[:, 1]), xi[:, 0])
        if np.any(theta > SECTOR_HALF_ANGLE + 1e-9):
            raise ValueError("support outside the e1 sector")

    # -- synthesis ----------------------------------------------------------

    def spread(self) -> np.ndarray:
        """Per-axis spread of the mode integers over both cone sides: max - min
        on each axis, zeros for the zero wave."""
        if "spread" not in self._cache:
            modes = np.concatenate([self.modes_plus, self.modes_minus])
            self._cache["spread"] = np.ptp(modes, axis=0) if len(modes) \
                else np.zeros(2, dtype=np.int64)
        return self._cache["spread"]

    def _indices(self, side: str, lattice: FrequencyLattice):
        """Grid indices of one side's modes: the mode integers folded mod N."""
        key = ("idx", side, lattice.size)
        if key not in self._cache:
            modes = self.modes_plus if side == "plus" else self.modes_minus
            self._cache[key] = (modes[:, 0] % lattice.size, modes[:, 1] % lattice.size)
        return self._cache[key]

    def phased(self, side: str, t: float, scale: float = 1.0) -> np.ndarray:
        """Coefficients of one cone side propagated to time t, times scale."""
        vals, sign = (self.vals_plus, 1) if side == "plus" else (self.vals_minus, -1)
        return scale * vals * np.exp(sign * 2j * np.pi * t * self.rho(side))

    def _eval_lattice(self, lattice: Optional[FrequencyLattice]) -> FrequencyLattice:
        lat = lattice or self.lattice
        if abs(lat.box - self.lattice.box) > 1e-12:
            raise ValueError("evaluation lattice must share the torus size")
        return lat

    def evaluate(self, t: float, lattice: Optional[FrequencyLattice] = None) -> np.ndarray:
        """Spatial field at time t on the lattice grid (complex N x N).

        The lattice may be coarser than the wave's band: on the grid x = j h,
        h = L / N, the mode m and the mode m mod N take the same values, so
        folding the mode integers mod N gives the exact point values as long
        as no two modes share a residue.  That holds when the modes spread
        over fewer than N integers on each axis; ValueError otherwise.

        The transform skips the columns that hold no modes: each run of
        columns that hold modes is transformed along axis 0 in place and
        multiplied by 1/N^2, then the whole array along axis 1.  This gives
        the bits of ifft2, because pocketfft transforms axis 0 first and
        multiplies each entry of that pass's output by its factor 1/N^2
        (the double 1.0 / N**2 for every even N below 5000), while a column
        without modes only adds zeros to the rows of the second pass."""
        lat = self._eval_lattice(lattice)
        if np.any(self.spread() >= lat.size):
            raise ValueError(f"wave modes spread over {tuple(self.spread())} integers: "
                             f"two may share a residue mod N = {lat.size}")
        # a fresh coefficient array per call, transformed in place
        buf = self._scatter(t, lat, (lat.size / lat.box) ** 2)
        fct = 1.0 / lat.size ** 2
        for a, b in self._column_runs(lat):
            cols = buf[:, a:b]
            out = _fft.ifft(cols, axis=0, norm="forward", overwrite_x=True,
                            workers=_FFT_WORKERS)
            np.multiply(out.view(np.float64), fct, out=cols.view(np.float64))
        return _fft.ifft(buf, axis=1, norm="forward", overwrite_x=True, workers=_FFT_WORKERS)

    def _column_runs(self, lattice: FrequencyLattice) -> list:
        """[start, stop) runs of the grid columns that hold modes."""
        key = ("runs", lattice.size)
        if key not in self._cache:
            cols = np.unique(np.concatenate([self._indices(side, lattice)[1]
                                             for side in ("plus", "minus")]))
            runs = np.split(cols, np.flatnonzero(np.diff(cols) != 1) + 1)
            self._cache[key] = [(int(r[0]), int(r[-1]) + 1) for r in runs if len(r)]
        return self._cache[key]

    def point_values(self, times, rows, cols,
                     lattice: Optional[FrequencyLattice] = None) -> np.ndarray:
        """Field values at (times[i], h * (rows[i], cols[i])): the entries
        evaluate(times[i])[rows[i], cols[i]], summed over the modes directly.

        Any lattice of the torus will do, also one too coarse for evaluate:
        at a grid point the kernel e^{2 pi i (r m1 + c m2) / N} depends on
        the mode integers through their residues mod N alone."""
        lat = self._eval_lattice(lattice)
        n = lat.size
        out = np.zeros(len(times), dtype=np.complex128)
        roots = _roots_of_unity(n)
        for side, vals in (("plus", self.vals_plus), ("minus", self.vals_minus)):
            if not len(vals):
                continue
            i1, i2 = self._indices(side, lat)
            for j, (t, r, c) in enumerate(zip(times, rows, cols)):
                kernel = roots[(r * i1 + c * i2) % n]
                out[j] += self.phased(side, t, lat.box ** -2) @ kernel
        return out

    def _scatter(self, t: float, lat: FrequencyLattice, scale: float) -> np.ndarray:
        """Phased coefficients scattered onto the lattice's index grid."""
        buf = lat.zeros()
        for side, vals in (("plus", self.vals_plus), ("minus", self.vals_minus)):
            if len(vals):
                i1, i2 = self._indices(side, lat)
                buf[i1, i2] += self.phased(side, t, scale)
        return buf

    # -- algebra ------------------------------------------------------------

    def _replace_vals(self, vp, vm) -> "SpectralWave":
        return SpectralWave(self.lattice, self.modes_plus, vp, self.modes_minus, vm,
                            self.color, self.k)

    def sub(self, other: "SpectralWave", coeff: complex = 1.0) -> "SpectralWave":
        """self - coeff * other, merging supports; keeps self's color if the
        result stays a valid one-sided wave."""
        if abs(self.lattice.box - other.lattice.box) > 1e-12:
            raise ValueError("waves live on different tori")
        mp, vp = _merge(self.modes_plus, self.vals_plus,
                        other.modes_plus, -coeff * other.vals_plus)
        mm, vm = _merge(self.modes_minus, self.vals_minus,
                        other.modes_minus, -coeff * other.vals_minus)
        color = self.color if self.color == other.color else "none"
        k = self.k if self.k == other.k else 0
        lat = self.lattice if self.lattice.size >= other.lattice.size else other.lattice
        return SpectralWave(lat, mp, vp, mm, vm, color, k)

    def embed(self, lattice: FrequencyLattice) -> "SpectralWave":
        """Reinterpret on a finer lattice with identical frequencies."""
        if abs(lattice.box - self.lattice.box) > 1e-12:
            raise ValueError("embedding must preserve the torus size")
        return SpectralWave(lattice, self.modes_plus, self.vals_plus,
                            self.modes_minus, self.vals_minus, self.color, self.k)


@functools.lru_cache(maxsize=None)
def _roots_of_unity(n: int) -> np.ndarray:
    """e^{2 pi i j / n} for j < n, read-only: the kernels of point_values."""
    out = np.exp((2j * np.pi / n) * np.arange(n))
    out.flags.writeable = False
    return out


def _mode_keys(modes: np.ndarray) -> np.ndarray:
    """One integer per mode row, (m1 - lo1) * span + (m2 - lo2) over a box
    that holds every row and the origin: the keys sort as the rows do
    lexicographically, and an empty array needs no special case."""
    m1, m2 = modes[:, 0], modes[:, 1]
    lo1, lo2 = m1.min(initial=0), m2.min(initial=0)
    return (m1 - lo1) * (m2.max(initial=0) - lo2 + 1) + (m2 - lo2)


def _merge(m1, v1, m2, v2):
    """The coefficients of both mode sets added up: rows in lexicographic
    order, the values of a repeated row added in input order, exact zeros
    dropped."""
    modes = np.concatenate([m1, m2])
    _, first, inv = np.unique(_mode_keys(modes), return_index=True, return_inverse=True)
    merged = np.zeros(len(first), dtype=np.complex128)
    np.add.at(merged, inv, np.concatenate([v1, v2]))
    keep = np.abs(merged) > 0.0
    # np.take: indexing an (n, 2) array with an index array is several
    # times slower
    return np.take(modes, first[keep], axis=0), merged[keep]


def make_wave(lattice: FrequencyLattice, modes_plus, vals_plus, modes_minus, vals_minus,
              color: str = "none", k: int = 0) -> SpectralWave:
    """A wave from mode rows in any order, merged as sub merges them: the
    values of a repeated row add up and exact zeros are dropped."""
    sides = []
    for modes, vals in ((modes_plus, vals_plus), (modes_minus, vals_minus)):
        modes = np.asarray(modes, dtype=np.int64).reshape(-1, 2)
        vals = np.asarray(vals, dtype=np.complex128)
        sides.append(_merge(modes, vals, modes[:0], vals[:0]))
    (mp, vp), (mm, vm) = sides
    return SpectralWave(lattice, mp, vp, mm, vm, color, k)


def zero_wave(lattice: FrequencyLattice, color: str = "none", k: int = 0) -> SpectralWave:
    return make_wave(lattice, [], [], [], [], color, k)


def plane_wave(lattice: FrequencyLattice, mode, amplitude: complex, side: str = "plus") -> SpectralWave:
    m = [list(mode)]
    if side == "plus":
        return make_wave(lattice, m, [amplitude], [], [])
    return make_wave(lattice, [], [], m, [amplitude])


def inner_product(w1: SpectralWave, w2: SpectralWave) -> complex:
    """Pairing of two waves on one torus, cone side by cone side: L^-2 times
    the sum of c1(m) conj(c2(m)) over the modes m that both waves hold on
    that side.  inner_product(w, w) is w.mass(); when no mode lies on one
    side of w1 and the other side of w2 (two red waves, two blue waves), it
    is the L^2_x pairing <w1(t), w2(t)>, the same at every t by exact
    propagation."""
    if abs(w1.lattice.box - w2.lattice.box) > 1e-12:
        raise ValueError("waves live on different tori")
    total = 0j
    for m1, v1, m2, v2 in ((w1.modes_plus, w1.vals_plus, w2.modes_plus, w2.vals_plus),
                           (w1.modes_minus, w1.vals_minus, w2.modes_minus, w2.vals_minus)):
        keys = _mode_keys(np.concatenate([m1, m2]))
        _, i1, i2 = np.intersect1d(keys[:len(m1)], keys[len(m1):], assume_unique=True,
                                   return_indices=True)
        total += np.vdot(v2[i2], v1[i1])
    return complex(total) / w1.lattice.box ** 2


# ---------------------------------------------------------------------------
# sector mode selection

def _sector_mode_grid(lattice: FrequencyLattice, lo: float, hi: float):
    """Mode integer grids (m1, m2; "ij" order) of the box holding the sector
    piece lo <= |xi| <= hi, clipped to the lattice."""
    half = lattice.size // 2
    box = lattice.box
    a1 = max(-half, math.floor(lo * math.cos(SECTOR_HALF_ANGLE) * box) - 1)
    b1 = min(half - 1, math.ceil(hi * box) + 1)
    b2 = min(half - 1, math.ceil(hi * math.sin(SECTOR_HALF_ANGLE) * box) + 1)
    return np.meshgrid(np.arange(a1, b1 + 1), np.arange(-b2, b2 + 1), indexing="ij")


def _sector_modes(lattice: FrequencyLattice, k: int, min_margin: float):
    """Mode integers whose rescaled frequency keeps the given sector margin,
    in lexicographic order, with their margins."""
    if min_margin < 0.0:
        raise ValueError(f"sector margin must be >= 0, got {min_margin}")
    m1, m2 = _sector_mode_grid(lattice, 2.0 ** k, 2.0 ** (k + 1))
    scale = 2.0 ** (-k) / lattice.box
    d = sector_margin_distance(m1 * scale, m2 * scale)
    sel = d >= min_margin - 1e-12
    return np.stack([m1[sel], m2[sel]], axis=1), d[sel]


def _modulate(modes: np.ndarray, vals: np.ndarray, box: float, sign: int,
              t0: float, x0) -> np.ndarray:
    """Apply the phase that moves the synthesis center to (t0, x0)."""
    xi = modes / box
    rho = np.sqrt((xi * xi).sum(axis=1))
    phase = -2.0 * np.pi * (sign * t0 * rho + x0[0] * xi[:, 0] + x0[1] * xi[:, 1])
    return vals * np.exp(1j * phase)


def _bump_envelope(lattice: FrequencyLattice, min_margin: float):
    """(modes, env): the k=0 sector modes of margin >= min_margin and the
    cube bumps' Gaussian envelope on them, well inside the sector."""
    modes, _ = _sector_modes(lattice, 0, min_margin)
    if len(modes) == 0:
        raise InfeasibleMarginError(f"margin {min_margin} leaves no lattice modes")
    xi = modes / lattice.box
    env = np.exp(-((xi[:, 0] - BUMP_CENTER_RADIUS) ** 2 + xi[:, 1] ** 2)
                 / (2.0 * BUMP_SIGMA ** 2))
    return modes, env


def make_red_cube_bump(lattice: FrequencyLattice, center,
                       min_margin: float = BUMP_MARGIN) -> SpectralWave:
    """Unit-mass red wave concentrated on the unit cube at the given spacetime
    center, with the envelope of ``_bump_envelope``."""
    if min_margin < 1.0 / 20.0 - 1e-12:
        raise ValueError("bump margin must be at least 1/20")
    modes, env = _bump_envelope(lattice, min_margin)
    t0, x1, x2 = center
    vals = _modulate(modes, env.astype(np.complex128), lattice.box, +1, t0, (x1, x2))
    return make_wave(lattice, modes, vals, [], [], color="red", k=0).normalize_mass(1.0)


def make_blue_tube_wave(lattice: FrequencyLattice, t0: float, x0, omega,
                        k: int) -> SpectralWave:
    """Unit-mass blue wave of frequency 2^k concentrated along the ray
    x = x0 + omega (t - t0): support in the sector of angular width 2^-k about
    omega and radial width 1 above 2^k, so the packet stays coherent for times
    of order 2^k."""
    omega = np.asarray(omega, dtype=float)
    omega = omega / np.linalg.norm(omega)
    theta0 = dir_angle(omega)
    ang_half = 2.0 ** (-k)
    if abs(theta0) > SECTOR_HALF_ANGLE + 1e-12:
        raise ValueError("packet direction outside the e1 cone")
    lo = 2.0 ** k
    m1, m2 = _sector_mode_grid(lattice, lo, lo + 1.0)
    xi1 = m1 / lattice.box
    xi2 = m2 / lattice.box
    r = np.sqrt(xi1 * xi1 + xi2 * xi2)
    theta = np.arctan2(xi2, xi1)
    dth = np.abs(theta - theta0)
    sel = (r >= lo) & (r <= lo + 1.0) & (dth <= ang_half) \
        & (np.abs(theta) <= SECTOR_HALF_ANGLE)
    if not np.any(sel):
        raise SectorResolutionError("packet sector contains no lattice modes")
    modes = np.stack([m1[sel], m2[sel]], axis=1)
    sig_th = ang_half / 3.0
    env = np.exp(-((r[sel] - (lo + 0.5)) ** 2) / (2.0 * PACKET_SIGMA_RADIAL ** 2)
                 - (theta[sel] - theta0) ** 2 / (2.0 * sig_th ** 2))
    vals = _modulate(modes, env.astype(np.complex128), lattice.box, -1, t0, x0)
    w = make_wave(lattice, [], [], modes, vals, color="blue", k=k)
    return w.normalize_mass(1.0)


def make_red_cube_train(lattice: FrequencyLattice, tube: Tube, coeffs, seed: int,
                        half_window: Optional[float] = None) -> SpectralWave:
    """Signed sum of unit cube bumps along the unit-cube cover of a tube, on
    the envelope of ``make_red_cube_bump`` at its default margin BUMP_MARGIN.

    coeffs are indexed by the cover cubes (pass None for the uniform unit-sum
    profile); signs are iid +-1 drawn from the seed.  The result is a k=0 red
    wave of mass close to sum |c_Q|^2 (near-orthogonality of unit-spaced bumps)."""
    if half_window is not None and tube.eff_half_length is not None \
            and tube.eff_half_length > half_window + 1e-9:
        raise ValueError("tube does not fit in the time window")
    cubes = axis_unit_cubes(tube)
    if coeffs is None:
        coeffs = np.full(len(cubes), 1.0 / math.sqrt(len(cubes)))
    coeffs = np.asarray(coeffs, dtype=np.complex128)
    if len(coeffs) != len(cubes):
        raise ValueError(f"need one coefficient per cover cube ({len(cubes)})")
    rng = np.random.default_rng(seed)
    signs = rng.integers(0, 2, size=len(cubes)) * 2 - 1

    modes, env = _bump_envelope(lattice, BUMP_MARGIN)
    norm = math.sqrt(float(np.sum(env * env)) / lattice.box ** 2)
    env = env / norm                      # each bump has unit mass
    vals = np.zeros(len(modes), dtype=np.complex128)
    for cube, c, s in zip(cubes, coeffs, signs):
        t0, x1, x2 = cube.center
        vals += s * c * _modulate(modes, env.astype(np.complex128), lattice.box,
                                  +1, t0, (x1, x2))
    return make_wave(lattice, modes, vals, [], [], color="red", k=0)


def random_colored_wave(lattice: FrequencyLattice, color: str, k: int,
                        min_margin: float, seed: int) -> SpectralWave:
    """Mass-1 wave with iid complex Gaussian coefficients filling the whole
    margin-min_margin sub-sector; bit-deterministic per seed."""
    if color not in ("red", "blue"):
        raise ValueError("random waves must be red or blue")
    modes, _ = _sector_modes(lattice, k, min_margin)
    if len(modes) == 0:
        raise InfeasibleMarginError(f"margin {min_margin} infeasible at k={k}")
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal(len(modes)) + 1j * rng.standard_normal(len(modes))
    if color == "red":
        w = make_wave(lattice, modes, vals, [], [], color="red", k=k)
    else:
        w = make_wave(lattice, [], [], modes, vals, color="blue", k=k)
    return w.normalize_mass(1.0)
