"""Cone-supported waves on the torus: synthesis, propagation, mass, margin.

A wave lives on one half of the light cone and is stored by its nonzero
Fourier coefficients there.  With mode integers m (frequency xi = m / L),
coefficient values c and the sign s of the wave's color, the field at time t
is

    phi(t, x) = L^-2 * sum_m c(m) e^{2 pi i s t |xi|} e^{2 pi i x . xi}

computed by scattering the phased coefficients onto the lattice and applying
one inverse FFT, so propagation is exactly unitary mode by mode.  Mass is the
plain weighted coefficient sum L^-2 * sum |c|^2; for every wave it equals
the spatial L^2 quadrature of the field at every time, on every lattice that
evaluate accepts (Parseval).

Colors: a red wave lies on the forward cone and propagates coefficients with
phase +|xi| (s = +1; packets travel along -xi/|xi|), a blue wave on the
backward cone with phase -|xi| (s = -1; packets travel along +xi/|xi|).
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

from .errors import InfeasibleMarginError, SectorResolutionError
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


_SIGNS = {"red": 1, "blue": -1}
# the cone side a wave does not hold, as the side views return it
_NO_MODES = np.zeros((0, 2), dtype=np.int64)
_NO_VALS = np.zeros(0, dtype=np.complex128)
_NO_MODES.flags.writeable = False
_NO_VALS.flags.writeable = False


@dataclass(frozen=True)
class SpectralWave:
    """Sparse cone wave on one side of the light cone: the forward side for
    a red wave, the backward side for a blue one.  modes is int64 with
    distinct rows in lexicographic order; vals is complex128.  Treat
    instances as immutable."""
    lattice: FrequencyLattice
    modes: np.ndarray          # (n, 2) mode integers
    vals: np.ndarray           # (n,)
    color: str
    k: int = 0
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        if self.color not in _SIGNS:
            raise ValueError(f"unknown color {self.color!r}: a wave is red or blue")
        if self.k < 0:
            raise ValueError("frequency exponent k must be >= 0")

    @property
    def sign(self) -> int:
        """The sign of the time phase: +1 for red, -1 for blue."""
        return _SIGNS[self.color]

    # -- read-only views by cone side, which bench/checks.py, bench/tracing.py
    # and the CWAV1 writer read; the side a wave does not hold is empty

    @property
    def modes_plus(self) -> np.ndarray:
        return self.modes if self.sign > 0 else _NO_MODES

    @property
    def vals_plus(self) -> np.ndarray:
        return self.vals if self.sign > 0 else _NO_VALS

    @property
    def modes_minus(self) -> np.ndarray:
        return self.modes if self.sign < 0 else _NO_MODES

    @property
    def vals_minus(self) -> np.ndarray:
        return self.vals if self.sign < 0 else _NO_VALS

    # -- basic quantities ---------------------------------------------------

    def rho(self) -> np.ndarray:
        if "rho" not in self._cache:
            xi = self.modes / self.lattice.box
            self._cache["rho"] = np.sqrt((xi * xi).sum(axis=1))
        return self._cache["rho"]

    @property
    def num_modes(self) -> int:
        return len(self.vals)

    def mass(self) -> float:
        return float(np.sum(np.abs(self.vals) ** 2)) / self.lattice.box ** 2

    def normalize_mass(self, target: float = 1.0) -> "SpectralWave":
        m = self.mass()
        if m == 0.0:
            raise ValueError("cannot normalize the zero wave")
        return self._replace_vals(self.vals * math.sqrt(target / m))

    def margin(self) -> float:
        if not len(self.modes):
            return math.inf          # vacuous: empty support
        scale = 2.0 ** (-self.k) / self.lattice.box
        d = sector_margin_distance(self.modes[:, 0] * scale, self.modes[:, 1] * scale)
        return max(0.0, float(d.min()))

    def validate_support(self) -> None:
        """Check that every mode lies in the sector of scale k."""
        if not len(self.modes):
            return
        xi = self.modes / self.lattice.box
        r = np.sqrt((xi * xi).sum(axis=1))
        lo, hi = 2.0 ** self.k, 2.0 ** (self.k + 1)
        if np.any(r < lo - 1e-9) or np.any(r > hi + 1e-9):
            raise ValueError("support outside the frequency annulus")
        theta = np.arctan2(np.abs(xi[:, 1]), xi[:, 0])
        if np.any(theta > SECTOR_HALF_ANGLE + 1e-9):
            raise ValueError("support outside the e1 sector")

    # -- synthesis ----------------------------------------------------------

    def spread(self) -> np.ndarray:
        """Per-axis spread of the mode integers: max - min on each axis,
        zeros for the zero wave."""
        if "spread" not in self._cache:
            self._cache["spread"] = np.ptp(self.modes, axis=0) if len(self.modes) \
                else np.zeros(2, dtype=np.int64)
        return self._cache["spread"]

    def _indices(self, lattice: FrequencyLattice):
        """Grid indices of the modes: the mode integers folded mod N."""
        key = ("idx", lattice.size)
        if key not in self._cache:
            self._cache[key] = (self.modes[:, 0] % lattice.size,
                                self.modes[:, 1] % lattice.size)
        return self._cache[key]

    def phased(self, t: float, scale: float = 1.0) -> np.ndarray:
        """The coefficients propagated to time t, times scale."""
        return scale * self.vals * np.exp(self.sign * 2j * np.pi * t * self.rho())

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
            cols = np.unique(self._indices(lattice)[1])
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
        roots = _roots_of_unity(n)
        i1, i2 = self._indices(lat)
        return np.array([self.phased(t, lat.box ** -2) @ roots[(r * i1 + c * i2) % n]
                         for t, r, c in zip(times, rows, cols)], dtype=np.complex128)

    def _scatter(self, t: float, lat: FrequencyLattice, scale: float) -> np.ndarray:
        """Phased coefficients scattered onto the lattice's index grid."""
        buf = lat.zeros()
        buf[self._indices(lat)] = self.phased(t, scale)
        return buf

    # -- algebra ------------------------------------------------------------

    def _replace_vals(self, vals) -> "SpectralWave":
        return SpectralWave(self.lattice, self.modes, vals, self.color, self.k)

    def sub(self, other: "SpectralWave", coeff: complex = 1.0) -> "SpectralWave":
        """self - coeff * other, merging supports; both waves must have one
        color and one scale k, which the result keeps."""
        if abs(self.lattice.box - other.lattice.box) > 1e-12:
            raise ValueError("waves live on different tori")
        if self.color != other.color:
            raise ValueError(f"cannot subtract a {other.color} wave from a {self.color} one")
        if self.k != other.k:
            raise ValueError(f"cannot subtract a k = {other.k} wave from a k = {self.k} one")
        modes, vals = _merge(self.modes, self.vals, other.modes, -coeff * other.vals)
        lat = self.lattice if self.lattice.size >= other.lattice.size else other.lattice
        return SpectralWave(lat, modes, vals, self.color, self.k)

    def embed(self, lattice: FrequencyLattice) -> "SpectralWave":
        """Reinterpret on a finer lattice with identical frequencies."""
        if abs(lattice.box - self.lattice.box) > 1e-12:
            raise ValueError("embedding must preserve the torus size")
        return SpectralWave(lattice, self.modes, self.vals, self.color, self.k)


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


def make_wave(lattice: FrequencyLattice, modes, vals, color: str, k: int = 0) -> SpectralWave:
    """A wave from mode rows in any order, merged as sub merges them: the
    values of a repeated row add up and exact zeros are dropped."""
    modes = np.asarray(modes, dtype=np.int64).reshape(-1, 2)
    vals = np.asarray(vals, dtype=np.complex128)
    return SpectralWave(lattice, *_merge(modes, vals, modes[:0], vals[:0]), color, k)


def zero_wave(lattice: FrequencyLattice, color: str, k: int = 0) -> SpectralWave:
    return make_wave(lattice, [], [], color, k)


def plane_wave(lattice: FrequencyLattice, mode, amplitude: complex, color: str) -> SpectralWave:
    return make_wave(lattice, [list(mode)], [amplitude], color)


def inner_product(w1: SpectralWave, w2: SpectralWave) -> complex:
    """Pairing of two waves on one torus: L^-2 times the sum of
    c1(m) conj(c2(m)) over the modes m that both waves hold, zero for a red
    and a blue wave (they lie on opposite cone sides).  inner_product(w, w)
    is w.mass(), and for two waves of one color it is the L^2_x pairing
    <w1(t), w2(t)>, the same at every t by exact propagation."""
    if abs(w1.lattice.box - w2.lattice.box) > 1e-12:
        raise ValueError("waves live on different tori")
    if w1.color != w2.color:
        return 0j
    keys = _mode_keys(np.concatenate([w1.modes, w2.modes]))
    _, i1, i2 = np.intersect1d(keys[:len(w1.modes)], keys[len(w1.modes):],
                               assume_unique=True, return_indices=True)
    return complex(np.vdot(w2.vals[i2], w1.vals[i1])) / w1.lattice.box ** 2


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
    return make_wave(lattice, modes, vals, "red").normalize_mass(1.0)


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
    return make_wave(lattice, modes, vals, "blue", k).normalize_mass(1.0)


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
    return make_wave(lattice, modes, vals, "red")


def random_colored_wave(lattice: FrequencyLattice, color: str, k: int,
                        min_margin: float, seed: int) -> SpectralWave:
    """Mass-1 wave with iid complex Gaussian coefficients filling the whole
    margin-min_margin sub-sector; bit-deterministic per seed."""
    modes, _ = _sector_modes(lattice, k, min_margin)
    if len(modes) == 0:
        raise InfeasibleMarginError(f"margin {min_margin} infeasible at k={k}")
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal(len(modes)) + 1j * rng.standard_normal(len(modes))
    return make_wave(lattice, modes, vals, color, k).normalize_mass(1.0)
