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
  determined by their directions.  Sum the weights on every dyadic arc of
  directions, mark arcs heavier than delta' = delta^2/16 as large, keep the
  minimal large arcs, and emit for each a C x C*2^k tube through the
  witness point, plus one stout tube covering the C-ball around the point.

Point-tube incidence is found as (point, tube) pairs (``_incidence``): each
point goes to its nearest witness time, the tube centres at that time sit in
one periodic k-d tree, and the candidates it returns are kept by the same test
as ``WeightedTubeFamily.membership``.

The greedy loop holds the active tubes and does the only collect: the row of
``membership`` at the witness point, restricted to the active tubes.  An
engine only gives ``max_point(active)``, the largest residual of the active
tubes over its witness set and a point reaching it, ties going to the
earliest witness time:

* ``_PairResidual``, the definition: the witness set is the axis samples, and
  a round's residual is one ``np.bincount`` over their pairs (the verifier
  reduces its samples' pairs the same way).
* ``_GridResidual``, its fast path for full grids (``full_grid``: one tube
  at every integer anchor of each direction group, as the blue-wave sector
  weights have).  Its witness set is a + omega t for every integer anchor a
  of each direction group; only on a full grid is that the pair engine's,
  and then both return the same point bit for bit.  The residual on a whole anchor
  grid at one witness time is a sum of shifted windows of one wrap-padded
  stack of the per-direction weight images, with (time, direction pair)
  stencils of ``geometry.disk_spans`` unit disks built once.

There are two engines because the pair engine is slower on full grids even
when it is fed without a k-d tree.  Its incidences can be built from the grid
engine's stencils, and on the 116 greedy calls of one ``blue`` benchmark pass
(seed 7, 2 cores) that gives the same covers.  But it holds 25.4 M pairs,
takes 0.5-0.6 s to build them against the grid engine's 0.05-0.08 s set-up,
and its rounds make the 116 covers take 1.2 s against 0.45 s.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import constants as C
from .errors import InvalidFamilyError
from .geometry import (SECTOR_HALF_ANGLE, Tube, dir_angle, disk_spans, span_pixels,
                       unit_dir, wrap_delta)

LARGE_SQUARE_FACTOR = 1.0 / 16.0   # delta' = factor * delta^2
COVER_C = 8.0                      # emitted tube fatness
WITNESS_SPACING = 0.5
SEPARATION_BLOCK = 250_000         # tube pairs per block of check_separation


class WeightedTubeFamily:
    """Finite radius-1 tubes with a common anchor time t=0 and half length 2^k,
    held as arrays: anchors (n, 2), directions (n, 2) and weights (n,).
    Tube objects exist only at the boundary: the constructor accepts them and
    ``tubes`` builds them on first access."""

    def __init__(self, tubes, weights, k: int, box: float):
        tubes = tuple(tubes)
        if any(abs(t.t0) > 1e-9 or t.half_length is None or abs(t.eff_radius - 1.0) > 1e-9
               for t in tubes):
            raise InvalidFamilyError("family tubes must be finite, of unit radius and "
                                     "anchored at t=0")
        bad = [t.half_length for t in tubes if abs(t.half_length - 2.0 ** k) > 1e-9]
        if bad:
            raise InvalidFamilyError(f"family tubes must have half length 2^k = {2.0 ** k:g}, "
                                     f"got {bad[0]:g}")
        self._set(np.array([t.x0 for t in tubes], dtype=float).reshape(-1, 2),
                  np.array([t.omega for t in tubes], dtype=float).reshape(-1, 2),
                  weights, k, box)
        self._tubes = tubes

    @classmethod
    def from_arrays(cls, anchors, directions, weights, k: int,
                    box: float) -> "WeightedTubeFamily":
        fam = cls.__new__(cls)
        fam._set(anchors, directions, weights, k, box)
        fam._tubes = None
        return fam

    def _set(self, anchors, directions, weights, k, box) -> None:
        """Validate and store read-only copies of the arrays."""
        x = np.array(anchors, dtype=float)
        d = np.array(directions, dtype=float)
        w = np.array(weights, dtype=float)
        if w.ndim != 1 or x.shape != (len(w), 2) or d.shape != (len(w), 2):
            raise InvalidFamilyError("need (n, 2) anchors and directions and n weights, "
                                     f"got {x.shape}, {d.shape}, {w.shape}")
        if not (np.isfinite(x).all() and np.isfinite(d).all() and np.isfinite(w).all()):
            raise InvalidFamilyError("non-finite anchor, direction or weight")
        if np.any(np.abs(np.hypot(d[:, 0], d[:, 1]) - 1.0) > 1e-9) \
                or np.any(np.abs(np.arctan2(d[:, 1], d[:, 0])) > SECTOR_HALF_ANGLE + 1e-3):
            raise InvalidFamilyError("tube directions must be unit vectors in the e1 cone")
        if np.any(w < -1e-15):
            raise InvalidFamilyError("negative weight")
        if float(w.sum()) > 1.0 + 1e-9:
            raise InvalidFamilyError(f"weight sum {w.sum():.6f} exceeds 1")
        for a in (x, d, w):
            a.flags.writeable = False
        self.anchors, self.directions, self.weights = x, d, w
        self.k, self.box = int(k), float(box)

    @property
    def tubes(self) -> tuple:
        if self._tubes is None:
            self._tubes = tuple(Tube(0.0, tuple(x), tuple(w), half_length=2.0 ** self.k)
                                for x, w in zip(self.anchors.tolist(), self.directions.tolist()))
        return self._tubes

    def __len__(self):
        return len(self.weights)

    def check_separation(self, s_min: float = C.S_MIN) -> float:
        """Smallest pairwise |x_b - x_b'| + 2^k |omega_b - omega_b'|; raises
        below s_min.

        The tubes are sorted by their first anchor coordinate and compared in
        blocks of rows, each against the later tubes whose torus gap in that
        coordinate is below the smallest separation found so far (no other
        pair can be closer), so no n x n array is built."""
        n = len(self)
        if n < 2:
            return math.inf
        key = self.anchors[:, 0] % self.box
        order = np.argsort(key, kind="stable")
        key = key[order]
        (x1, x2), (w1, w2) = self.anchors[order].T, self.directions[order].T
        scale = 2.0 ** self.k
        rows = max(1, SEPARATION_BLOCK // n)
        worst = math.inf
        for lo in range(0, n - 1, rows):
            hi = min(lo + rows, n - 1)
            near = max(lo + 1, int(np.searchsorted(key, key[hi - 1] + worst, "right")))
            wrap = max(near, int(np.searchsorted(key, key[lo] + self.box - worst)))
            cols = np.r_[lo + 1:near, wrap:n]
            i = np.arange(lo, hi)[:, None]
            d1 = wrap_delta(x1[cols] - x1[i], self.box)
            d2 = wrap_delta(x2[cols] - x2[i], self.box)
            e1 = w1[cols] - w1[i]
            e2 = w2[cols] - w2[i]
            sep = np.sqrt(d1 * d1 + d2 * d2) + scale * np.sqrt(e1 * e1 + e2 * e2)
            sep[cols <= i] = np.inf                 # each pair once
            worst = min(worst, float(sep.min(initial=np.inf)))
        if worst < s_min - 1e-9:
            raise InvalidFamilyError(f"family separation {worst:.4f} below {s_min}")
        return worst

    def membership(self, times: np.ndarray, points: np.ndarray) -> np.ndarray:
        """Incidence matrix (num points, num tubes); built in point chunks to
        cap the intermediate memory."""
        half = 2.0 ** self.k
        xs, ws = self.anchors, self.directions
        out = np.empty((len(points), len(self)), dtype=bool)
        chunk = max(1, 40_000_000 // (16 * max(len(self), 1)))
        for lo in range(0, len(points), chunk):
            t = times[lo:lo + chunk]
            p = points[lo:lo + chunk]
            c = xs[None, :, :] + ws[None, :, :] * t[:, None, None]
            d = wrap_delta(p[:, None, :] - c, self.box)
            inside = (d * d).sum(axis=2) <= (1.0 + 1e-12) ** 2
            out[lo:lo + chunk] = inside & (np.abs(t)[:, None] <= half + 1e-12)
        return out

    def full_grid(self) -> bool:
        """Exactly one tube at every (direction group, integer anchor) pair on
        the torus: where the grid engine's witness set is the pair engine's."""
        n = int(round(self.box))
        xs = self.anchors
        if len(xs) == 0 or n != self.box or not np.all(xs == np.round(xs)):
            return False
        first, group = _direction_groups(self.directions)
        cells = (group * n + xs[:, 0].astype(int) % n) * n + xs[:, 1].astype(int) % n
        return len(xs) == len(first) * n * n and bool(np.bincount(cells).max() == 1)


def _axis_times(k: int) -> np.ndarray:
    half = 2.0 ** k
    return np.arange(-half, half + WITNESS_SPACING / 2.0, WITNESS_SPACING)


def _axis_samples(family: WeightedTubeFamily) -> np.ndarray:
    """Rows (t, x1, x2) of every tube's axis at the witness times, tube by
    tube, with x = x0 + omega t reduced to the torus."""
    ts = _axis_times(family.k)
    xy = family.anchors[:, None, :] + family.directions[:, None, :] * ts[:, None]
    return np.column_stack([np.tile(ts, len(family)), xy.reshape(-1, 2) % family.box])


@dataclass
class CoverDiagnostics:
    rounds: int = 0
    witness_points: tuple = ()
    class_sizes: tuple = ()
    class_members: tuple = ()      # tube indices collected per round
    class_tubes: tuple = ()        # tubes emitted per round
    samples_checked: int = 0       # verify_pointwise_bound: points sampled
    samples_outside: int = 0       # ... of which outside the exceptional tubes


# ---------------------------------------------------------------------------
# residual engines

def _fold(x: np.ndarray, box: float) -> np.ndarray:
    """x mod box in [0, box): a tiny negative x gives box itself under %,
    which cKDTree(boxsize=box) rejects."""
    x = x % box
    return np.where(x < box, x, 0.0)


def _incidence(family: WeightedTubeFamily, times: np.ndarray,
               points: np.ndarray) -> tuple:
    """Point and tube indices of every point inside a tube, row-major: the
    nonzero entries of ``family.membership(times, points)`` without the
    matrix.  Each point goes to its nearest witness time t_i; the tube centres
    at t_i sit in one periodic k-d tree, queried a little beyond 1 + |t - t_i|
    (a centre moves at unit speed), and the candidates are kept by
    membership's own arithmetic."""
    # imported here rather than at the top: scipy.spatial adds 0.1 s to the
    # import of every module that imports this one, and only covers need it
    from scipy.spatial import cKDTree
    half = 2.0 ** family.k
    box = family.box
    ts = _axis_times(family.k)
    live = np.flatnonzero(np.abs(times) <= half + 1e-12)
    slot = np.clip(np.rint((times[live] + half) / WITNESS_SPACING), 0, len(ts) - 1)
    order = np.argsort(slot, kind="stable")
    live, slot = live[order], slot[order]
    edges = np.searchsorted(slot, np.arange(len(ts) + 1))
    rows, cols = [np.zeros(0, dtype=np.intp)], [np.zeros(0, dtype=np.intp)]
    for i in np.flatnonzero(np.diff(edges)):
        r = live[edges[i]:edges[i + 1]]
        reach = 1.0 + float(np.abs(times[r] - ts[i]).max()) + 1e-6
        centres = cKDTree(_fold(family.anchors + family.directions * ts[i], box), boxsize=box)
        near = cKDTree(_fold(points[r], box), boxsize=box).sparse_distance_matrix(
            centres, reach, output_type="ndarray")
        rows.append(r[near["i"]])
        cols.append(near["j"])
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    c = family.anchors[cols] + family.directions[cols] * times[rows][:, None]
    d = wrap_delta(points[rows] - c, box)
    inside = (d * d).sum(axis=1) <= (1.0 + 1e-12) ** 2
    rows, cols = rows[inside], cols[inside]
    order = np.lexsort((cols, rows))
    return rows[order], cols[order]


class _PairResidual:
    """Residual at every axis sample from its incident tubes.  The samples
    are lexsorted by (t, x1, x2), so ties in argmax go to the earliest."""

    def __init__(self, family: WeightedTubeFamily):
        self.family = family
        allp = _axis_samples(family)
        order = np.lexsort((allp[:, 2], allp[:, 1], allp[:, 0]))
        self.points = allp[order]
        self.rows, self.cols = _incidence(family, self.points[:, 0], self.points[:, 1:])

    def residual(self, active: np.ndarray) -> np.ndarray:
        return np.bincount(self.rows, (self.family.weights * active)[self.cols],
                           minlength=len(self.points))

    def max_point(self, active: np.ndarray):
        residual = self.residual(active)
        j = int(np.argmax(residual))
        return float(residual[j]), (self.points[j, 0], self.points[j, 1:].copy())


def _direction_groups(directions: np.ndarray) -> tuple:
    """(first, group): each direction group's first tube and each tube's group,
    in np.unique(axis=0)'s order of the directions rounded to 9 digits (the
    rounding only forms the groups).  Each rounded row is viewed as one
    complex number, which sorts the same way and much faster."""
    rows = np.ascontiguousarray(np.round(directions, 9))
    _, first, group = np.unique(rows.view(np.complex128).ravel(), return_index=True,
                                return_inverse=True)
    return first, group.ravel()


class _GridResidual:
    """Residual on grid-anchored families: per direction group the anchor
    weights live on the integer torus grid, and the residual at the axis
    sample points of group g' at time t is a fixed small-stencil correlation
    of every group's weight image.  The stencils depend only on the
    directions and times, so they are built once; each ``max_point`` fills
    the images with the active weights, wraps them into one padded stack and
    adds shifted windows of it.  A group's direction is its first tube's, so
    a witness point is formed as the pair engine forms its axis sample."""

    def __init__(self, family: WeightedTubeFamily):
        self.family = family
        self.box_i = int(round(family.box))
        first, group = _direction_groups(family.directions)
        self.group_dirs = family.directions[first]
        # per direction group: the weight image cell of each tube
        self.cells = (group, *(family.anchors.astype(int) % self.box_i).T)
        self.images = np.zeros((len(first), self.box_i, self.box_i))
        self.times = _axis_times(family.k)
        # stencils[i][g'] lists (g, d1, d2): the integer offsets d of group
        # g's anchors within distance 1 of (omega_g' - omega_g) times[i], the
        # axis point of group g' at times[i] seen from anchor 0 (exact: both
        # anchors sit on integers); one unit disk per (time, g', g)
        ng = len(first)
        dirs = self.group_dirs
        t = self.times[:, None, None, None]
        shift = dirs[None, :, None, :] * t - dirs[None, None, :, :] * t
        rows, cols, disk = span_pixels(*disk_spans(shift.reshape(-1, 2), 1.0, 1.0))
        offs = np.column_stack([disk % ng, rows, cols]).tolist()
        ends = np.searchsorted(disk // ng, np.arange(len(self.times) * ng + 1)).tolist()
        self.stencils = [[offs[ends[i * ng + gp]:ends[i * ng + gp + 1]] for gp in range(ng)]
                         for i in range(len(self.times))]
        self.reach = int(max(np.abs(rows).max(), np.abs(cols).max()))

    def _fields(self, active: np.ndarray):
        """(t, g', field) for every witness time t and observing group g',
        time by time: the field holds the residual of the active tubes at
        a + omega_g' t for every integer anchor a.  The images are wrapped
        around by ``reach`` cells once, and at anchor a the window of that
        stack at offset d holds the image at a + d on the torus."""
        self.images[self.cells] = self.family.weights * active
        n, r = self.box_i, self.reach
        padded = np.pad(self.images, ((0, 0), (r, r), (r, r)), mode="wrap")
        for t, per_t in zip(self.times, self.stencils):
            for gp, per_gp in enumerate(per_t):
                total = np.zeros((n, n))
                for g, d1, d2 in per_gp:
                    total += padded[g, r + d1:r + d1 + n, r + d2:r + d2 + n]
                yield t, gp, total

    def max_point(self, active: np.ndarray):
        best = (0.0, None)
        for t, gp, fld in self._fields(active):
            j = int(np.argmax(fld))
            v = float(fld.flat[j])
            if v > best[0] + 1e-15:
                a = np.array([j // self.box_i, j % self.box_i], dtype=float)
                x = (a + self.group_dirs[gp] * t) % self.family.box
                best = (v, (t, x))
        return best


# ---------------------------------------------------------------------------

def greedy_tube_cover(family: WeightedTubeFamily, delta: float, *,
                      diagnostics: CoverDiagnostics | None = None) -> list:
    """Exceptional tubes outside of which sum c_b 1_{T_b} <= delta.

    Each round asks the engine for the largest residual of the active tubes
    over its witness set, and collects the active tubes that hold that point
    by ``family.membership`` (the test ``_incidence`` and the verifier use)."""
    if not 0.0 < delta <= 1.0:
        raise ValueError("delta must lie in (0, 1]")
    if len(family) == 0:
        return []
    engine = _GridResidual(family) if family.full_grid() else _PairResidual(family)

    active = np.ones(len(family), dtype=bool)
    classes = []
    max_rounds = int(math.ceil(2.0 / delta))
    for _ in range(max_rounds):
        value, point = engine.max_point(active)
        if point is None or value <= delta / 2.0 + 1e-12:
            break
        t, x = point
        hit = np.flatnonzero(family.membership(np.array([t]), x.reshape(1, 2))[0] & active)
        active[hit] = False
        classes.append((t, x, hit))
    else:
        value, _ = engine.max_point(active)
        if value > delta / 2.0 + 1e-12:
            warnings.warn("residual above delta/2 after the 2/delta round budget")

    half = 2.0 ** family.k
    delta_prime = LARGE_SQUARE_FACTOR * delta * delta
    out = []
    groups = []
    for t_j, x_j, idx in classes:
        emitted = _emit_class_tubes(family, t_j, x_j, idx, delta_prime, half)
        groups.append(tuple(emitted))
        out.extend(emitted)

    if diagnostics is not None:
        diagnostics.rounds = len(classes)
        diagnostics.witness_points = tuple((c[0], tuple(c[1])) for c in classes)
        diagnostics.class_sizes = tuple(len(c[2]) for c in classes)
        diagnostics.class_members = tuple(tuple(int(i) for i in c[2]) for c in classes)
        diagnostics.class_tubes = tuple(groups)
    return out


def _arc_indices(angles: np.ndarray, level: int) -> np.ndarray:
    """Index i of the dyadic direction arc [-pi/2 + i w, -pi/2 + (i+1) w),
    w = pi / 2^level, that holds each angle of the e1 half circle.  The
    quotient can round across an arc edge (-pi/32 gives 14.999... at level
    5), so the index is moved to the side the edge itself decides."""
    width = math.pi / 2 ** level
    idx = np.minimum(((angles + math.pi / 2) / width).astype(np.int64), 2 ** level - 1)
    idx -= angles < -math.pi / 2 + idx * width
    idx += angles >= -math.pi / 2 + (idx + 1) * width
    return idx


def _minimal_large_arcs(angles: np.ndarray, weights: np.ndarray,
                        threshold: float, max_level: int) -> list:
    """(level, index) of the dyadic direction arcs heavier than threshold
    that contain no deeper such arc, by level and then index."""
    large = [np.flatnonzero(np.bincount(_arc_indices(angles, level), weights) > threshold)
             for level in range(max_level + 1)]
    return [(level, int(i)) for level in range(max_level + 1) for i in large[level]
            if not any(np.any(large[deeper] >> (deeper - level) == i)
                       for deeper in range(level + 1, max_level + 1))]


def _emit_class_tubes(family: WeightedTubeFamily, t_j: float, x_j: np.ndarray,
                      idx: np.ndarray, delta_prime: float, half: float) -> list:
    dirs = family.directions[idx]
    weights = family.weights[idx]
    angles = np.array([dir_angle(d) for d in dirs])
    max_level = max(0, int(math.ceil(math.log2(max(half, 1.0) * 4.0))))
    tubes = []
    for level, i in _minimal_large_arcs(angles, weights, delta_prime, max_level):
        width = math.pi / 2 ** level
        lo = -math.pi / 2 + i * width
        hi = lo + width
        # an arc just past a cone edge (its members within the family's
        # 1e-3 tolerance of the edge) is centred outside the cone; its
        # members stay within half an arc of the edge itself
        centre = min(max(0.5 * (lo + hi), -SECTOR_HALF_ANGLE), SECTOR_HALF_ANGLE)
        omega = unit_dir(centre)
        tubes.append(Tube(t_j, tuple(x_j), tuple(omega), half_length=half,
                          radius=1.0, lam=COVER_C))
    heaviest = idx[int(np.argmax(weights))]
    omega0 = tuple(family.directions[heaviest])
    tubes.append(Tube(t_j, tuple(x_j), omega0, half_length=COVER_C,
                      radius=2.0 * COVER_C, lam=1.0))
    return tubes


def _verify_samples(family: WeightedTubeFamily, samples: int, seed: int) -> np.ndarray:
    """Rows (t, x1, x2): every axis sample, then uniform spacetime points and
    perturbed points near seeded input tubes, max(samples, axis samples) in all."""
    half = 2.0 ** family.k
    rng = np.random.default_rng(seed)
    axis = _axis_samples(family)
    n_rand = max(0, samples - len(axis))
    n_uni = n_rand // 2
    uni = np.column_stack([rng.uniform(-half, half, size=n_uni),
                           rng.uniform(0.0, family.box, size=(n_uni, 2))])
    n_tb = n_rand - n_uni
    picks = rng.integers(0, len(family), size=n_tb)
    t_b = rng.uniform(-half, half, size=n_tb)
    base = family.anchors[picks] + family.directions[picks] * t_b[:, None]
    jitter = rng.uniform(-1.2, 1.2, size=(n_tb, 2))
    tb = np.column_stack([t_b, (base + jitter) % family.box])
    return np.concatenate([axis, uni, tb], axis=0)


def verify_pointwise_bound(family: WeightedTubeFamily, exceptional: list,
                           delta: float, samples: int, seed: int = 0, *,
                           diagnostics: CoverDiagnostics | None = None) -> float:
    """Max residual weighted sum over sampled points outside the exceptional
    tubes.  Samples mix uniform spacetime points and perturbed points near the
    input tubes; every input tube's axis samples are always included.
    Returns 0.0 when no sample lies outside the exceptional tubes; the
    diagnostics, when given, record how many samples were checked and how
    many lay outside, so such a pass shows as vacuous."""
    p = _verify_samples(family, samples, seed) if len(family) else np.zeros((0, 3))
    checked = len(p)
    for tube in exceptional:        # each tube sees only the samples outside the earlier ones
        p = p[~tube.contains(p[:, 0], p[:, 1:], family.box)]
    if diagnostics is not None:
        diagnostics.samples_checked = checked
        diagnostics.samples_outside = len(p)
    rows, cols = _incidence(family, p[:, 0], p[:, 1:])
    residual = np.bincount(rows, family.weights[cols], minlength=len(p))
    return float(residual.max(initial=0.0))
