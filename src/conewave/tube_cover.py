"""Greedy covering of a separated weighted tube family.

Given finite tubes T_b anchored at t = 0 with weights c_b summing to at most
one, the algorithm returns O(delta^-3) exceptional tubes outside of which the
weighted indicator sum stays below delta:

* Outer loop: find a witness point where the residual weighted sum exceeds
  delta/2, collect every incident tube into one class, repeat.  Each round
  retires more than delta/2 of total weight, so there are at most ceil(2/delta)
  rounds.  Witness points are searched on the tube axes sampled at spacing
  1/2 in time (a violating point always lies inside input tubes).
* Per class: all collected tubes pass through one witness point, so they are
  determined by their directions.  Build the dyadic direction-grid weight
  profile, mark squares heavier than delta' = delta^2/16 as large, keep the
  minimal large squares, and emit for each a C x C*2^k tube through the
  witness point, plus one stout tube covering the C-ball around the point.

Residual evaluation has two engines: a dense incidence matrix for small
families, and a rolled-stencil engine for large families whose anchors sit on
the integer grid (the shape produced by the blue-wave sector weights), where
per time sample the residual on a whole anchor grid is a few np.rolls.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import constants as C
from .errors import InvalidFamilyError
from .geometry import Tube, dir_angle, square_of_direction, wrap_delta

LARGE_SQUARE_FACTOR = 1.0 / 16.0   # delta' = factor * delta^2
COVER_C = 8.0                      # emitted tube fatness
WITNESS_SPACING = 0.5
_DENSE_LIMIT = 600


@dataclass(frozen=True)
class WeightedTubeFamily:
    """Finite radius-1 tubes with a common anchor time t=0 and length 2^k."""
    tubes: tuple
    weights: np.ndarray
    k: int
    box: float
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "tubes", tuple(self.tubes))
        if len(w) != len(self.tubes):
            raise InvalidFamilyError("one weight per tube required")
        if np.any(w < -1e-15):
            raise InvalidFamilyError("negative weight")
        if float(w.sum()) > 1.0 + 1e-9:
            raise InvalidFamilyError(f"weight sum {w.sum():.6f} exceeds 1")
        for t in self.tubes:
            if abs(t.t0) > 1e-9:
                raise InvalidFamilyError("family tubes must be anchored at t=0")
            if t.half_length is None:
                raise InvalidFamilyError("family tubes must be finite")
            if abs(t.eff_radius - 1.0) > 1e-9:
                raise InvalidFamilyError("family tubes must have unit radius")

    def __len__(self):
        return len(self.tubes)

    @property
    def total_weight(self) -> float:
        return float(self.weights.sum())

    def anchors(self) -> np.ndarray:
        if "anchors" not in self._cache:
            self._cache["anchors"] = np.array([t.x0 for t in self.tubes]).reshape(-1, 2)
        return self._cache["anchors"]

    def directions(self) -> np.ndarray:
        if "dirs" not in self._cache:
            self._cache["dirs"] = np.array([t.omega for t in self.tubes]).reshape(-1, 2)
        return self._cache["dirs"]

    def check_separation(self, s_min: float = C.S_MIN) -> float:
        """Smallest pairwise |x_b - x_b'| + 2^k |omega_b - omega_b'|; raises
        below s_min."""
        if len(self.tubes) < 2:
            return math.inf
        xs = self.anchors()
        ws = self.directions()
        scale = 2.0 ** self.k
        worst = math.inf
        for i in range(len(xs) - 1):
            dx = wrap_delta(xs[i + 1:] - xs[i], self.box)
            sep = np.sqrt((dx * dx).sum(axis=1)) \
                + scale * np.sqrt(((ws[i + 1:] - ws[i]) ** 2).sum(axis=1))
            worst = min(worst, float(sep.min()))
        if worst < s_min - 1e-9:
            raise InvalidFamilyError(f"family separation {worst:.4f} below {s_min}")
        return worst

    def membership(self, times: np.ndarray, points: np.ndarray) -> np.ndarray:
        """Incidence matrix (num points, num tubes); built in point chunks to
        cap the intermediate memory."""
        half = 2.0 ** self.k
        xs = self.anchors()
        ws = self.directions()
        out = np.empty((len(points), len(self.tubes)), dtype=bool)
        chunk = max(1, 40_000_000 // (16 * max(len(self.tubes), 1)))
        for lo in range(0, len(points), chunk):
            t = times[lo:lo + chunk]
            p = points[lo:lo + chunk]
            c = xs[None, :, :] + ws[None, :, :] * t[:, None, None]
            d = wrap_delta(p[:, None, :] - c, self.box)
            inside = (d * d).sum(axis=2) <= (1.0 + 1e-12) ** 2
            out[lo:lo + chunk] = inside & (np.abs(t)[:, None] <= half + 1e-12)
        return out

    def grid_anchored(self) -> bool:
        xs = self.anchors()
        if len(xs) == 0:
            return False
        return bool(np.all(np.abs(xs - np.round(xs)) < 1e-9))


def _axis_times(k: int, spacing: float = WITNESS_SPACING) -> np.ndarray:
    half = 2.0 ** k
    return np.arange(-half, half + spacing / 2.0, spacing)


@dataclass
class CoverDiagnostics:
    rounds: int = 0
    witness_points: tuple = ()
    class_sizes: tuple = ()
    class_members: tuple = ()      # tube indices collected per round
    class_tubes: tuple = ()        # tubes emitted per round


# ---------------------------------------------------------------------------
# residual engines

class _DenseResidual:
    def __init__(self, family: WeightedTubeFamily):
        self.family = family
        ts = _axis_times(family.k)
        pts = []
        for tube in family.tubes:
            xy = tube.axis_at(ts)
            pts.append(np.column_stack([ts, xy % family.box]))
        allp = np.concatenate(pts, axis=0)
        order = np.lexsort((allp[:, 2], allp[:, 1], allp[:, 0]))
        self.points = allp[order]
        self.inc = family.membership(self.points[:, 0], self.points[:, 1:])
        self.active = np.ones(len(family), dtype=bool)

    def max_point(self):
        if not self.active.any():
            return 0.0, None
        residual = self.inc[:, self.active] @ self.family.weights[self.active]
        j = int(np.argmax(residual))
        return float(residual[j]), (self.points[j, 0], self.points[j, 1:].copy())

    def collect(self, point):
        t, x = point
        inc = self.family.membership(np.array([t]), x.reshape(1, 2))[0]
        hit = np.where(inc & self.active)[0]
        self.active[hit] = False
        return hit


class _GridResidual:
    """Residual on grid-anchored families: per direction group the anchor
    weights live on the integer torus grid, and the residual at the axis
    sample points of group g' at time t is a fixed small-stencil correlation
    of every group's weight image."""

    def __init__(self, family: WeightedTubeFamily):
        self.family = family
        self.box_i = int(round(family.box))
        dirs = family.directions()
        keys = np.round(dirs, 9)
        uniq, inv = np.unique(keys, axis=0, return_inverse=True)
        self.group_dirs = uniq
        self.group_members = [np.where(inv == g)[0] for g in range(len(uniq))]
        anchors = np.round(family.anchors()).astype(int) % self.box_i
        self.anchor_ij = anchors
        self.images = []
        self.index_img = []
        for g, members in enumerate(self.group_members):
            img = np.zeros((self.box_i, self.box_i))
            idx = -np.ones((self.box_i, self.box_i), dtype=np.int64)
            a = anchors[members]
            img[a[:, 0], a[:, 1]] = family.weights[members]
            idx[a[:, 0], a[:, 1]] = members
            self.images.append(img)
            self.index_img.append(idx)
        self.times = _axis_times(family.k)

    @staticmethod
    def _stencil(shift):
        """Integer offsets d with |d - shift| <= 1; exact because both the
        observed anchors and the observing anchors sit on integers."""
        offs = []
        for d1 in range(int(math.floor(shift[0] - 1.0)), int(math.ceil(shift[0] + 1.0)) + 1):
            for d2 in range(int(math.floor(shift[1] - 1.0)), int(math.ceil(shift[1] + 1.0)) + 1):
                if (d1 - shift[0]) ** 2 + (d2 - shift[1]) ** 2 <= 1.0 + 1e-12:
                    offs.append((d1, d2))
        return offs

    def _residual_fields(self, t: float):
        """For each observing group g', the residual at points a + omega_g' t
        for every integer anchor a, as a (box, box) field."""
        fields = []
        for gp in range(len(self.group_dirs)):
            total = np.zeros((self.box_i, self.box_i))
            base = self.group_dirs[gp] * t
            for g in range(len(self.group_dirs)):
                shift = base - self.group_dirs[g] * t
                img = self.images[g]
                for d1, d2 in self._stencil(shift):
                    total += np.roll(img, shift=(-d1, -d2), axis=(0, 1))
            fields.append(total)
        return fields

    def max_point(self):
        best = (0.0, None)
        for t in self.times:
            for gp, fld in enumerate(self._residual_fields(t)):
                j = int(np.argmax(fld))
                v = float(fld.flat[j])
                if v > best[0] + 1e-15:
                    a = np.array([j // self.box_i, j % self.box_i], dtype=float)
                    x = (a + self.group_dirs[gp] * t) % self.family.box
                    best = (v, (t, x))
        return best

    def collect(self, point):
        t, x = point
        hits = []
        for g in range(len(self.group_dirs)):
            q = x - self.group_dirs[g] * t
            lo1 = int(math.floor(q[0] - 1.0))
            lo2 = int(math.floor(q[1] - 1.0))
            for d1 in range(lo1, lo1 + 4):
                for d2 in range(lo2, lo2 + 4):
                    if (d1 - q[0]) ** 2 + (d2 - q[1]) ** 2 > 1.0 + 1e-12:
                        continue
                    i1, i2 = d1 % self.box_i, d2 % self.box_i
                    idx = self.index_img[g][i1, i2]
                    if idx >= 0 and self.images[g][i1, i2] != 0.0:
                        hits.append(idx)
                        self.images[g][i1, i2] = 0.0
        return np.array(sorted(hits), dtype=np.int64)


# ---------------------------------------------------------------------------

def greedy_tube_cover(family: WeightedTubeFamily, delta: float,
                      cover_c: float = COVER_C,
                      diagnostics: CoverDiagnostics | None = None) -> list:
    """Exceptional tubes outside of which sum c_b 1_{T_b} <= delta."""
    if not 0.0 < delta <= 1.0:
        raise ValueError("delta must lie in (0, 1]")
    if len(family) == 0:
        return []
    if len(family) > _DENSE_LIMIT and family.grid_anchored():
        engine = _GridResidual(family)
    else:
        engine = _DenseResidual(family)

    classes = []
    max_rounds = int(math.ceil(2.0 / delta))
    for _ in range(max_rounds):
        value, point = engine.max_point()
        if point is None or value <= delta / 2.0 + 1e-12:
            break
        hit = engine.collect(point)
        classes.append((point[0], point[1], hit))
    else:
        value, _ = engine.max_point()
        if value > delta / 2.0 + 1e-12:
            warnings.warn("residual above delta/2 after the 2/delta round budget")

    half = 2.0 ** family.k
    delta_prime = LARGE_SQUARE_FACTOR * delta * delta
    out = []
    groups = []
    for t_j, x_j, idx in classes:
        emitted = _emit_class_tubes(family, t_j, x_j, idx, delta_prime,
                                    cover_c, half)
        groups.append(tuple(emitted))
        out.extend(emitted)

    if diagnostics is not None:
        diagnostics.rounds = len(classes)
        diagnostics.witness_points = tuple((c[0], tuple(c[1])) for c in classes)
        diagnostics.class_sizes = tuple(len(c[2]) for c in classes)
        diagnostics.class_members = tuple(tuple(int(i) for i in c[2]) for c in classes)
        diagnostics.class_tubes = tuple(groups)
    return out


def _minimal_large_squares(angles: np.ndarray, weights: np.ndarray,
                           threshold: float, max_level: int) -> list:
    """Dyadic direction squares heavier than threshold, minimal by inclusion."""
    large = []
    for level in range(max_level + 1):
        acc = {}
        for th, w in zip(angles, weights):
            sq = square_of_direction(th, level)
            acc[sq] = acc.get(sq, 0.0) + w
        for sq, w in acc.items():
            if w > threshold:
                large.append(sq)
    minimal = [sq for sq in large
               if not any(sq.contains(other) and other != sq for other in large)]
    minimal.sort(key=lambda s: (s.hemisphere, s.level, s.index))
    return minimal


def _emit_class_tubes(family: WeightedTubeFamily, t_j: float, x_j: np.ndarray,
                      idx: np.ndarray, delta_prime: float, cover_c: float,
                      half: float) -> list:
    dirs = family.directions()[idx]
    weights = family.weights[idx]
    angles = np.array([dir_angle(d) for d in dirs])
    max_level = max(0, int(math.ceil(math.log2(max(half, 1.0) * 4.0))))
    squares = _minimal_large_squares(angles, weights, delta_prime, max_level)
    tubes = []
    for sq in squares:
        omega = sq.center_direction()
        tubes.append(Tube(t_j, tuple(x_j), tuple(omega), half_length=half,
                          radius=1.0, lam=cover_c))
    heaviest = idx[int(np.argmax(weights))]
    omega0 = family.tubes[heaviest].omega
    tubes.append(Tube(t_j, tuple(x_j), omega0, half_length=cover_c,
                      radius=2.0 * cover_c, lam=1.0))
    return tubes


def verify_pointwise_bound(family: WeightedTubeFamily, exceptional: list,
                           delta: float, samples: int, seed: int = 0) -> float:
    """Max residual weighted sum over sampled points outside the exceptional
    tubes.  Samples mix uniform spacetime points and perturbed points near the
    input tubes; every input tube's axis samples are always included."""
    if len(family) == 0:
        return 0.0
    half = 2.0 ** family.k
    rng = np.random.default_rng(seed)
    ts = _axis_times(family.k)
    axis = []
    for tube in family.tubes:
        xy = tube.axis_at(ts)
        axis.append(np.column_stack([ts, xy % family.box]))
    axis = np.concatenate(axis, axis=0)
    n_rand = max(0, samples - len(axis))
    n_uni = n_rand // 2
    uni = np.column_stack([rng.uniform(-half, half, size=n_uni),
                           rng.uniform(0.0, family.box, size=(n_uni, 2))])
    n_tb = n_rand - n_uni
    picks = rng.integers(0, len(family), size=n_tb)
    t_b = rng.uniform(-half, half, size=n_tb)
    base = family.anchors()[picks] + family.directions()[picks] * t_b[:, None]
    jitter = rng.uniform(-1.2, 1.2, size=(n_tb, 2))
    tb = np.column_stack([t_b, (base + jitter) % family.box])
    pts = np.concatenate([axis, uni, tb], axis=0)

    worst = 0.0
    chunk = 20000
    for lo in range(0, len(pts), chunk):
        p = pts[lo:lo + chunk]
        keep = np.ones(len(p), dtype=bool)
        for tube in exceptional:
            keep &= ~tube.contains(p[:, 0], p[:, 1:], family.box)
        if not keep.any():
            continue
        p = p[keep]
        inc = family.membership(p[:, 0], p[:, 1:])
        residual = inc @ family.weights
        worst = max(worst, float(residual.max()))
    return worst
