import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conewave.constants import S_MIN
from conewave.errors import InvalidFamilyError
from conewave.geometry import Tube, unit_dir
from conewave.tube_cover import (CoverDiagnostics, WeightedTubeFamily,
                                 _axis_samples, _GridResidual, _incidence,
                                 _minimal_large_arcs, _PairResidual, _verify_samples,
                                 greedy_tube_cover, verify_pointwise_bound)

BOX = 20.0


def _tube(x0, theta, k):
    return Tube(0.0, tuple(x0), tuple(unit_dir(theta)), half_length=2.0 ** k)


def _random_separated_family(seed, n, k, box=BOX, wmax=1.0):
    rng = np.random.default_rng(seed)
    half = 2.0 ** k
    tubes = []
    while len(tubes) < n:
        x0 = rng.uniform(0.0, box, size=2)
        th = rng.uniform(-math.pi / 8, math.pi / 8)
        cand = _tube(x0, th, k)
        ok = True
        for t in tubes:
            d = np.asarray(cand.x0) - np.asarray(t.x0)
            d -= box * np.round(d / box)
            sep = np.linalg.norm(d) + half * np.linalg.norm(
                np.asarray(cand.omega) - np.asarray(t.omega))
            if sep < 0.5:
                ok = False
                break
        if ok:
            tubes.append(cand)
    w = rng.uniform(0.1, wmax, size=n)
    w = w / max(w.sum(), 1.0)
    return WeightedTubeFamily(tuple(tubes), w, k, box)


def test_family_invariants():
    t = _tube((1.0, 1.0), 0.0, 1)
    with pytest.raises(InvalidFamilyError):
        WeightedTubeFamily((t,), np.array([1.5]), 1, BOX)
    with pytest.raises(InvalidFamilyError):
        WeightedTubeFamily((t, t), np.array([0.1, 0.1]), 1, BOX).check_separation()
    shifted = Tube(1.0, (1.0, 1.0), (1.0, 0.0), half_length=2.0)
    with pytest.raises(InvalidFamilyError):
        WeightedTubeFamily((shifted,), np.array([0.1]), 1, BOX)


def test_family_rejects_other_half_lengths():
    # membership uses 2^k, so a tube of another half length would be covered
    # as a different tube
    good = _tube((1.0, 1.0), 0.0, 1)
    for half in (6.0, 1.0, 2.0 + 1e-6):
        other = Tube(0.0, (5.0, 5.0), (1.0, 0.0), half_length=half)
        with pytest.raises(InvalidFamilyError, match="half length"):
            WeightedTubeFamily((good, other), np.array([0.1, 0.1]), 1, BOX)
    assert len(WeightedTubeFamily((good,), np.array([0.1]), 1, BOX)) == 1


def _separation_loop(fam):
    # one row at a time against every later tube
    xs, ws = fam.anchors, fam.directions
    worst = math.inf
    for i in range(len(xs) - 1):
        dx = xs[i + 1:] - xs[i]
        dx -= fam.box * np.round(dx / fam.box)
        sep = np.sqrt((dx * dx).sum(axis=1)) \
            + 2.0 ** fam.k * np.sqrt(((ws[i + 1:] - ws[i]) ** 2).sum(axis=1))
        worst = min(worst, float(sep.min()))
    return worst


@pytest.mark.parametrize("seed, n, k", [(0, 2, 0), (1, 40, 1), (2, 700, 2),
                                        (3, 1500, 0), (4, 1200, 3)])
def test_check_separation_matches_loop(seed, n, k):
    # random anchors, some off the fundamental domain, and random directions;
    # n = 700 and above spans several row blocks
    rng = np.random.default_rng(seed)
    xs = rng.uniform(-BOX, 2.0 * BOX, (n, 2))
    ws = np.array([unit_dir(t) for t in rng.uniform(-0.39, 0.39, n)])
    fam = WeightedTubeFamily.from_arrays(xs, ws, np.full(n, 0.5 / n), k, BOX)
    assert fam.check_separation(0.0) == pytest.approx(_separation_loop(fam),
                                                      rel=1e-12, abs=1e-12)
    sep = _random_separated_family(seed, min(n, 200), k)
    assert sep.check_separation() == pytest.approx(_separation_loop(sep),
                                                   rel=1e-12, abs=1e-12)


def test_check_separation_across_the_seam(monkeypatch):
    # one row per block: the closest pair straddles the torus seam of the
    # first coordinate, and its lower member is not the first tube in order
    import conewave.tube_cover as tc
    monkeypatch.setattr(tc, "SEPARATION_BLOCK", 1)
    fam = _random_separated_family(4, 120, 1)
    xs = fam.anchors.copy()
    xs[:3] = [[0.0, 10.0], [0.01, 3.0], [BOX - 0.02, 3.0]]
    seam = WeightedTubeFamily.from_arrays(xs, np.repeat(fam.directions[:1], len(xs), 0),
                                          fam.weights, 1, BOX)
    assert seam.check_separation(0.0) == pytest.approx(_separation_loop(seam),
                                                       rel=1e-12, abs=1e-12)
    assert seam.check_separation(0.0) == pytest.approx(0.03, abs=1e-12)
    assert fam.check_separation() == pytest.approx(_separation_loop(fam), rel=1e-12)


def test_check_separation_rejects_a_repeated_tube():
    fam = _random_separated_family(9, 300, 1)
    assert fam.check_separation() >= S_MIN
    for j in (0, 150, 299):
        twice = np.r_[np.arange(300), j]
        dup = WeightedTubeFamily.from_arrays(fam.anchors[twice], fam.directions[twice],
                                             fam.weights[twice] / 2.0, 1, BOX)
        with pytest.raises(InvalidFamilyError, match="separation 0.0000"):
            dup.check_separation()


def test_single_light_tube_no_output():
    delta = 0.4
    fam = WeightedTubeFamily((_tube((3.0, 3.0), 0.1, 2),),
                             np.array([delta / 4]), 2, BOX)
    assert greedy_tube_cover(fam, delta) == []


def test_parallel_light_tubes_no_output():
    delta = 0.5
    m = 12
    tubes = tuple(_tube((2.0 + 1.2 * i, 4.0), 0.0, 1) for i in range(m))
    fam = WeightedTubeFamily(tubes, np.full(m, 1.0 / m), 1, BOX)
    # every weight is below delta/2 and the tubes are disjoint
    assert greedy_tube_cover(fam, delta) == []
    assert verify_pointwise_bound(fam, [], delta, 20000) <= delta


def test_bundle_through_origin_covered():
    # many directions through one point: the residual there is the full sum;
    # 50 separated directions need length 2^k >= 32 (separation ~ 2^k dTheta)
    delta = 0.25
    n = 50
    thetas = np.linspace(-math.pi / 8 + 0.01, math.pi / 8 - 0.01, n)
    tubes = tuple(_tube((10.0, 10.0), th, 6) for th in thetas)
    fam = WeightedTubeFamily(tubes, np.full(n, 1.0 / n), 6, BOX)
    fam.check_separation()
    diag = CoverDiagnostics()
    out = greedy_tube_cover(fam, delta, diagnostics=diag)
    assert diag.rounds <= math.ceil(2.0 / delta)
    assert out, "the bundle point must be detected"
    assert len(out) <= 64.0 * delta ** -3
    res = verify_pointwise_bound(fam, out, delta, 20000, seed=1)
    assert res <= delta


def test_random_families_residual_bound():
    delta = 0.25
    for seed in (0, 1):
        fam = _random_separated_family(seed, 60, 2)
        diag = CoverDiagnostics()
        out = greedy_tube_cover(fam, delta, diagnostics=diag)
        assert diag.rounds <= math.ceil(2.0 / delta)
        assert len(out) <= 64.0 * delta ** -3
        assert verify_pointwise_bound(fam, out, delta, 20000, seed=seed) <= delta


def test_per_class_residual_bound():
    # each collected class, restricted to its own tubes, stays below
    # delta^2/4 outside the tubes emitted for that class
    delta = 0.25
    k = 3
    thetas = np.linspace(-0.3, 0.3, 8)
    heavy = [_tube((10.0, 10.0), th, k) for th in thetas]
    light_fam = _random_separated_family(11, 30, k)
    # keep light tubes clear of the bundle anchor
    light = [t for t in light_fam.tubes
             if np.linalg.norm(np.asarray(t.x0) - 10.0) > 2.0][:20]
    tubes = tuple(heavy + light)
    w = np.concatenate([np.full(len(heavy), 0.09),
                        np.full(len(light), 0.2 / len(light))])
    fam = WeightedTubeFamily(tubes, w, k, BOX)
    fam.check_separation()
    diag = CoverDiagnostics()
    greedy_tube_cover(fam, delta, diagnostics=diag)
    assert diag.rounds >= 1
    for members, emitted in zip(diag.class_members, diag.class_tubes):
        sub = WeightedTubeFamily(tuple(fam.tubes[i] for i in members),
                                 fam.weights[list(members)], fam.k, fam.box)
        res = verify_pointwise_bound(sub, list(emitted), delta, 20000, seed=2)
        assert res <= delta * delta / 4.0 + 1e-12


def test_verify_pointwise_bound_trivia():
    fam = WeightedTubeFamily((), np.zeros(0), 1, BOX)
    diag = CoverDiagnostics()
    assert verify_pointwise_bound(fam, [], 0.5, 100, diagnostics=diag) == 0.0
    assert (diag.samples_checked, diag.samples_outside) == (0, 0)
    fam2 = _random_separated_family(3, 10, 1)
    # excluding fattened copies of every input tube leaves no sample with a
    # nonzero residual, but samples away from the tubes are still checked
    exc = [t.dilate(1.5) for t in fam2.tubes]
    assert verify_pointwise_bound(fam2, exc, 0.5, 5000, diagnostics=diag) == 0.0
    assert diag.samples_checked == 5000 and 0 < diag.samples_outside < 5000
    # one tube over the whole torus leaves nothing: the pass is vacuous, and
    # the diagnostics say so
    everything = Tube(0.0, (BOX / 2, BOX / 2), (1.0, 0.0), half_length=None, radius=BOX)
    assert verify_pointwise_bound(fam2, [everything], 0.5, 5000, diagnostics=diag) == 0.0
    assert (diag.samples_checked, diag.samples_outside) == (5000, 0)


def _minimal_large_arcs_oracle(angles, weights, threshold, max_level):
    """Every dyadic arc [-pi/2 + i w, -pi/2 + (i+1) w), w = pi/2^level, with
    the weights of the angles inside it summed in order; the arcs heavier
    than threshold that contain no deeper such arc."""
    large = []
    for level in range(max_level + 1):
        w = math.pi / 2 ** level
        for i in range(2 ** level):
            lo, hi = -math.pi / 2 + i * w, -math.pi / 2 + (i + 1) * w
            total = 0.0
            for a, c in zip(angles, weights):
                if lo <= a < hi:
                    total += c
            if total > threshold:
                large.append((level, i, lo, hi))
    return [(level, i) for level, i, lo, hi in large
            if not any(deeper > level and lo <= lo2 and hi2 <= hi
                       for deeper, _, lo2, hi2 in large)]


def _arc_edge(level_index, side):
    # an angle on (or one float beside) the arc edge -pi/2 + i pi/2^level
    level, i = level_index
    edge = -math.pi / 2 + i * (math.pi / 2 ** level)
    return float(np.nextafter(edge, side * np.inf)) if side else edge


# the e1 cone with the tolerance families accept, and the arc edges inside it
_CONE_ANGLE = st.floats(-math.pi / 8 - 1e-3, math.pi / 8 + 1e-3)
_EDGE_ANGLE = st.builds(
    _arc_edge,
    st.integers(1, 8).flatmap(lambda level: st.tuples(
        st.just(level), st.integers(math.ceil(3 * 2 ** level / 8), 5 * 2 ** level // 8))),
    st.sampled_from([-1, 0, 1]))


@settings(max_examples=300, deadline=None)
@given(angles=st.lists(st.one_of(_CONE_ANGLE, _EDGE_ANGLE), min_size=1, max_size=30),
       exponents=st.lists(st.floats(-8.0, 0.0), min_size=30, max_size=30),
       threshold=st.one_of(st.just(0.0), st.floats(-8.0, 0.5).map(lambda e: 10.0 ** e)),
       max_level=st.integers(0, 7))
def test_minimal_large_arcs_match_oracle(angles, exponents, threshold, max_level):
    weights = 10.0 ** np.array(exponents[:len(angles)])
    got = _minimal_large_arcs(np.array(angles), weights, threshold, max_level)
    assert got == _minimal_large_arcs_oracle(angles, weights, threshold, max_level)


def test_grid_engine_matches_pair_engine():
    # grid-anchored family, with some anchors left empty, evaluated by both
    # engines on all tubes and on a third of them retired
    rng = np.random.default_rng(7)
    k = 2
    tubes = []
    seen = set()
    while len(tubes) < 40:
        a = (int(rng.integers(0, BOX)), int(rng.integers(0, BOX)))
        th = float(rng.choice([-0.25, 0.0, 0.25]))
        if (a, th) in seen:
            continue
        seen.add((a, th))
        tubes.append(_tube((float(a[0]), float(a[1])), th, k))
    w = rng.uniform(0.0, 1.0, size=len(tubes))
    w /= w.sum() * 1.5
    fam = WeightedTubeFamily(tuple(tubes), w, k, BOX)
    assert not fam.full_grid()
    pair = _PairResidual(fam)
    grid = _GridResidual(fam)
    for active in (np.ones(len(fam), dtype=bool), np.arange(len(fam)) % 3 != 0):
        vp, pp = pair.max_point(active)
        vg, pg = grid.max_point(active)
        # the grid engine scans every (direction, integer anchor) pair, a
        # superset of the axis samples, so its max dominates; both are the
        # residual of the active tubes at their point
        assert vg >= vp - 1e-12
        for v, p in ((vp, pp), (vg, pg)):
            inc = fam.membership(np.array([p[0]]), np.asarray(p[1]).reshape(1, 2))[0]
            assert float((inc & active) @ fam.weights) == pytest.approx(v, rel=1e-12)


def _roll_images(engine, active):
    """The weight image of each direction group, built tube by tube."""
    images = np.zeros((len(engine.group_dirs), engine.box_i, engine.box_i))
    groups = np.round(engine.group_dirs, 9)
    for (a1, a2), d, w in zip(engine.family.anchors, engine.family.directions,
                              engine.family.weights * active):
        g = int(np.flatnonzero((groups == np.round(d, 9)).all(axis=1))[0])
        images[g, int(a1) % engine.box_i, int(a2) % engine.box_i] = w
    return images


def _roll_fields(engine, active, t):
    """Reference for the grid engine's fields at time t: every stencil
    offset found afresh and each image shifted by np.roll."""
    fields = []
    dirs = engine.group_dirs
    images = _roll_images(engine, active)
    for gp in range(len(dirs)):
        total = np.zeros((engine.box_i, engine.box_i))
        base = dirs[gp] * t
        for g in range(len(dirs)):
            s = base - dirs[g] * t
            for d1 in range(math.floor(s[0] - 1.0), math.ceil(s[0] + 1.0) + 1):
                for d2 in range(math.floor(s[1] - 1.0), math.ceil(s[1] + 1.0) + 1):
                    if (d1 - s[0]) ** 2 + (d2 - s[1]) ** 2 <= 1.0 + 1e-12:
                        total += np.roll(images[g], shift=(-d1, -d2), axis=(0, 1))
        fields.append(total)
    return fields


def _roll_max_point(engine, active):
    # the grid engine's max_point on _roll_fields: time, then g', then the
    # first argmax, and a later field wins only by more than 1e-15
    best = (0.0, None)
    for t in engine.times:
        for gp, fld in enumerate(_roll_fields(engine, active, t)):
            j = int(np.argmax(fld))
            v = float(fld.flat[j])
            if v > best[0] + 1e-15:
                a = np.array([j // engine.box_i, j % engine.box_i], dtype=float)
                best = (v, (t, (a + engine.group_dirs[gp] * t) % engine.family.box))
    return best


# nine angles across the e1 cone, its edges included
_GRID_ANGLES = list(np.linspace(-math.pi / 8, math.pi / 8, 9))


@st.composite
def _grid_cases(draw):
    """A grid-anchored family on box 20 at k = 0..3 with 1 to 4 direction
    groups out of _GRID_ANGLES (at k = 3 the two cone edges give the widest
    stencil shifts); every group holds the anchors (0, 0), (box - 1, 0),
    (0, box - 1) and (box - 1, box - 1) across the seam plus random integer
    anchors, with heavy-tailed weights and one tube of at least 3/10 of
    the weight; and a greedy delta."""
    k = draw(st.integers(0, 3))
    thetas = draw(st.lists(st.sampled_from(_GRID_ANGLES), min_size=1, max_size=4,
                           unique=True))
    if draw(st.booleans()):         # the two cone edges
        edges = [_GRID_ANGLES[0], _GRID_ANGLES[-1]]
        thetas = edges + [th for th in thetas if th not in edges][:2]
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    side = int(BOX)
    corners = [0, side - 1, (side - 1) * side, side * side - 1]
    rest = np.setdiff1d(np.arange(side * side), corners)
    anchors, dirs = [], []
    for th in thetas:
        cells = np.concatenate([corners, rng.choice(rest, draw(st.integers(4, 30)),
                                                    replace=False)])
        anchors.append(np.column_stack([cells // side, cells % side]).astype(float))
        dirs.append(np.tile(unit_dir(th), (len(cells), 1)))
    w = rng.pareto(1.0, sum(len(a) for a in anchors)) + 0.1
    # one tube holds at least 3/10 of the weight, so every delta forces a round
    w[rng.integers(len(w))] = 0.5 * w.sum()
    fam = WeightedTubeFamily.from_arrays(np.concatenate(anchors), np.concatenate(dirs),
                                         w / (1.1 * w.sum()), k, BOX)
    return fam, draw(st.sampled_from([0.1, 0.2, 0.3]))


@settings(max_examples=50, deadline=None)
@given(case=_grid_cases())
def test_grid_engine_fields_match_roll_reference(case):
    fam, delta = case
    engine = _GridResidual(fam)
    assert len(engine.group_dirs) == len(np.unique(fam.directions, axis=0))
    # each group's direction is one of the family's, not a rounding of it
    assert {d.tobytes() for d in engine.group_dirs} == {d.tobytes() for d in fam.directions}
    active = np.ones(len(fam), dtype=bool)
    rounds = 0
    while rounds < 4:
        fields = list(engine._fields(active))
        want = [(t, gp, fld) for t in engine.times
                for gp, fld in enumerate(_roll_fields(engine, active, t))]
        assert [(t, gp) for t, gp, _ in fields] == [(t, gp) for t, gp, _ in want]
        assert all(np.array_equal(got, ref) for (_, _, got), (_, _, ref) in zip(fields, want))
        value, point = engine.max_point(active)
        ref_value, ref_point = _roll_max_point(engine, active)
        assert value == ref_value
        if point is None:
            break
        assert point[0] == ref_point[0] and point[1].tobytes() == ref_point[1].tobytes()
        hit = fam.membership(np.array([point[0]]), point[1].reshape(1, 2))[0] & active
        assert hit.any()
        active &= ~hit
        rounds += 1
    assert rounds >= 3
    # the greedy cover on either max_point
    diag, ref_diag = CoverDiagnostics(), CoverDiagnostics()
    with mock.patch.object(WeightedTubeFamily, "full_grid", return_value=True):
        out = greedy_tube_cover(fam, delta, diagnostics=diag)
        with mock.patch.object(_GridResidual, "max_point", _roll_max_point):
            ref = greedy_tube_cover(fam, delta, diagnostics=ref_diag)
    assert diag.rounds > 0
    assert repr(out) == repr(ref) and repr(diag) == repr(ref_diag)


@st.composite
def _full_grid_cases(draw):
    """A full grid family, the shape of every sector-weights family: box 20,
    k = 0..3, 1 to 3 direction groups out of _GRID_ANGLES (the two cone
    edges among them when drawn) with a tube at every integer anchor of each
    group, heavy-tailed weights with one tube of at least 3/10 of the
    weight; and a greedy delta."""
    k = draw(st.integers(0, 3))
    thetas = draw(st.lists(st.sampled_from(_GRID_ANGLES), min_size=1, max_size=3,
                           unique=True))
    if draw(st.booleans()):         # the cone edges
        edges = [_GRID_ANGLES[0], _GRID_ANGLES[-1]][:draw(st.integers(1, 2))]
        thetas = edges + [th for th in thetas if th not in edges][:3 - len(edges)]
    side = int(BOX)
    cells = np.arange(side * side)
    anchors = np.tile(np.column_stack([cells // side, cells % side]).astype(float),
                      (len(thetas), 1))
    dirs = np.repeat([unit_dir(th) for th in thetas], len(cells), axis=0)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    w = rng.pareto(1.0, len(anchors))
    w[rng.integers(len(w))] = 0.5 * w.sum()
    fam = WeightedTubeFamily.from_arrays(anchors, dirs, w / (1.1 * w.sum()), k, BOX)
    return fam, draw(st.sampled_from([0.05, 0.1, 0.2, 0.3]))


@settings(max_examples=40, deadline=None)
@given(case=_full_grid_cases())
def test_grid_engine_cover_equals_pair_engine_on_full_families(case):
    # on a full family the grid engine's witness set is the pair engine's
    # axis samples, so both find the same maxima to round-off; these random
    # weights leave no tie within round-off, so the covers agree bit for bit
    # (a symmetric family can tie: see the mirror-witness test below)
    fam, delta = case
    assert fam.full_grid()
    diag, pair_diag = CoverDiagnostics(), CoverDiagnostics()
    with mock.patch.object(_PairResidual, "max_point", side_effect=AssertionError):
        out = greedy_tube_cover(fam, delta, diagnostics=diag)
    with mock.patch.object(WeightedTubeFamily, "full_grid", return_value=False), \
            mock.patch.object(_GridResidual, "max_point", side_effect=AssertionError):
        pair_out = greedy_tube_cover(fam, delta, diagnostics=pair_diag)
    assert diag.rounds > 0
    assert repr(out) == repr(pair_out) and repr(diag) == repr(pair_diag)
    # each collected tube holds its witness point, and none is collected twice
    for (t, x), members in zip(diag.witness_points, diag.class_members):
        assert members and all(fam.tubes[i].contains(t, np.array(x), fam.box) for i in members)
    collected = [i for members in diag.class_members for i in members]
    assert len(collected) == len(set(collected))


def test_engines_tie_to_round_off_on_a_mirror_symmetric_packet():
    # the k = 3 blue packet along e1 from (20, 20): its slab at t = -4 is a
    # full grid of 8000 tubes, nearly symmetric about the packet's axis.  The
    # engines' first maxima are equal to round-off at mirror witnesses, and
    # their covers differ, but both covers hold the pointwise bound.
    from conewave.blue_exceptional import sector_weights
    from conewave.config import RunConfig
    from conewave.lattice import lattice_for
    from conewave.waves import make_blue_tube_wave
    cfg = RunConfig()
    psi = make_blue_tube_wave(lattice_for(cfg, 3), 0.0, (20.0, 20.0), unit_dir(0.0), 3)
    fam = sector_weights(psi, -4.0)
    assert fam.full_grid() and len(fam) == 8000
    active = np.ones(len(fam), dtype=bool)
    grid_max, _ = _GridResidual(fam).max_point(active)
    pair_max, _ = _PairResidual(fam).max_point(active)
    assert abs(grid_max - pair_max) <= 1e-12 * pair_max
    delta = 0.08
    grid_cover = greedy_tube_cover(fam, delta)
    with mock.patch.object(WeightedTubeFamily, "full_grid", return_value=False):
        pair_cover = greedy_tube_cover(fam, delta)
    for cover in (grid_cover, pair_cover):
        assert verify_pointwise_bound(fam, cover, delta, 2000) <= delta


def test_full_grid_needs_one_tube_per_integer_anchor_and_group():
    side = int(BOX)
    cells = np.arange(side * side)
    grid = np.column_stack([cells // side, cells % side]).astype(float)
    anchors = np.concatenate([grid, grid + [[side, -side]]])   # the same cells, unwrapped
    dirs = np.repeat([unit_dir(-0.2), unit_dir(0.1)], len(grid), axis=0)
    w = np.full(len(anchors), 1.0 / len(anchors))

    def full(x, d=dirs, wt=w, box=BOX):
        return WeightedTubeFamily.from_arrays(x, d, wt, 1, box).full_grid()

    assert full(anchors)
    for off in (1e-10, -1e-10):              # anchors must be exact integers
        assert not full(anchors + np.where(np.arange(len(anchors)) == 7, off, 0.0)[:, None])
    assert not full(anchors[1:], dirs[1:], w[1:])             # a missing cell
    dup = anchors.copy()
    dup[3] = dup[4]                                           # one cell twice
    assert not full(dup)
    assert not full(anchors, box=BOX + 0.5)                   # a torus off the integers
    assert not full(np.zeros((0, 2)), np.zeros((0, 2)), np.zeros(0))


def test_sparse_grid_anchored_family_gets_the_pair_engine_cover():
    # 3 directions with 240 integer anchors each out of the 1600 of the
    # box-40 torus: the grid engine's witness set holds every integer anchor
    # of each direction, a superset of the axis samples, and its greedy
    # would run 18 rounds where the definition runs 16
    rng = np.random.default_rng(1)
    anchors, dirs = [], []
    for th in (-0.3, 0.0, 0.3):
        cells = rng.choice(1600, 240, replace=False)
        anchors.append(np.column_stack([cells // 40, cells % 40]).astype(float))
        dirs.append(np.tile(unit_dir(th), (240, 1)))
    w = rng.pareto(1.5, 720) + 1.0
    fam = WeightedTubeFamily.from_arrays(np.concatenate(anchors), np.concatenate(dirs),
                                         w / w.sum(), 1, 40.0)
    assert not fam.full_grid()
    diag, pair_diag, grid_diag = CoverDiagnostics(), CoverDiagnostics(), CoverDiagnostics()
    out = greedy_tube_cover(fam, 0.02, diagnostics=diag)
    with mock.patch.object(_GridResidual, "max_point", side_effect=AssertionError):
        pair_out = greedy_tube_cover(fam, 0.02, diagnostics=pair_diag)
    assert pair_diag.rounds == 16
    assert repr(out) == repr(pair_out) and repr(diag) == repr(pair_diag)
    with mock.patch.object(WeightedTubeFamily, "full_grid", return_value=True):
        greedy_tube_cover(fam, 0.02, diagnostics=grid_diag)
    assert grid_diag.rounds == 18


@pytest.mark.parametrize("k", [0, 1, 2, 3])
@pytest.mark.parametrize("theta", [-math.pi / 8, math.pi / 8, math.pi / 8 + 5e-4])
def test_cover_of_a_cone_edge_tube(theta, k):
    # a direction on the cone edge, or just past it within the family's
    # tolerance, falls in a dyadic arc centred outside the cone; the emitted
    # arc tube takes the nearest cone direction and alone still covers the tube
    fam = WeightedTubeFamily.from_arrays([[3.0, 4.0]], [unit_dir(theta)], [0.8], k, 40.0)
    out = greedy_tube_cover(fam, 0.1)
    arc = out[0]                    # then the stout tube along the tube itself
    assert len(out) == 2 and abs(math.atan2(arc.omega[1], arc.omega[0])) <= math.pi / 8 + 1e-12
    assert verify_pointwise_bound(fam, out, 0.1, samples=4000) <= 0.1
    assert verify_pointwise_bound(fam, out[:1], 0.1, samples=4000) <= 0.1


@st.composite
def _incidence_cases(draw):
    """A family on box 20 or 40 at k = 0..3 with anchors at 0, at
    box - 1e-15 and at -1e-17 (whose centre at t = 0 folds to box itself
    under %) and two same-direction tubes exactly 1 apart across the seam,
    plus random tubes; a subset of tubes marked inactive; and random
    spacetime points, some beyond the tubes' time span."""
    box = draw(st.sampled_from([20.0, 40.0]))
    k = draw(st.integers(0, 3))
    half = 2.0 ** k
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = draw(st.integers(0, 30))
    seam = draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    y = draw(st.floats(0.0, box, exclude_max=True))
    anchors = np.vstack([[[-1e-17, -1e-17], [box - 1e-15, box - 1e-15], [0.0, box - 1e-15],
                          [box - seam, y], [1.0 - seam, y]],
                         rng.uniform(0.0, box, (n, 2))])
    thetas = rng.uniform(-math.pi / 8, math.pi / 8, len(anchors))
    thetas[4] = thetas[3]
    weights = rng.uniform(0.0, 1.0, len(anchors))
    fam = WeightedTubeFamily.from_arrays(anchors, [unit_dir(t) for t in thetas],
                                         weights / weights.sum(), k, box)
    active = rng.random(len(fam)) < draw(st.sampled_from([1.0, 0.5]))
    m = draw(st.integers(0, 400))
    times = rng.uniform(-half - 0.5, half + 0.5, m)
    near = fam.anchors[rng.integers(0, len(fam), m)] + \
        fam.directions[rng.integers(0, len(fam), m)] * times[:, None]
    points = (near + rng.uniform(-1.5, 1.5, (m, 2))) % box
    return fam, active, times, points


@settings(max_examples=60, deadline=None)
@given(case=_incidence_cases())
def test_pair_engine_matches_membership(case):
    fam, active, times, points = case
    engine = _PairResidual(fam)
    inc = fam.membership(engine.points[:, 0], engine.points[:, 1:])
    rows, cols = np.nonzero(inc)
    assert np.array_equal(engine.rows, rows) and np.array_equal(engine.cols, cols)
    np.testing.assert_allclose(engine.residual(active), inc[:, active] @ fam.weights[active],
                               rtol=1e-12, atol=0.0)
    # points off the witness times, as the verifier samples them
    rows, cols = _incidence(fam, times, points)
    want = np.nonzero(fam.membership(times, points))
    assert np.array_equal(rows, want[0]) and np.array_equal(cols, want[1])


@pytest.mark.parametrize("k, delta, drop", [(0, 0.25, False), (1, 0.1, False),
                                            (2, 0.25, True), (3, 0.25, True)])
def test_verifier_equals_dense_reference(k, delta, drop):
    fam = _bundle_family(3, k, 120)
    diag = CoverDiagnostics()
    out = greedy_tube_cover(fam, delta, diagnostics=diag)
    if drop:                    # leave a heavy point uncovered
        out = [t for t in out if t not in diag.class_tubes[0]]
    got = verify_pointwise_bound(fam, out, delta, 20000, seed=4, diagnostics=diag)
    pts = _verify_samples(fam, 20000, 4)
    keep = np.ones(len(pts), dtype=bool)
    for tube in out:
        keep &= ~tube.contains(pts[:, 0], pts[:, 1:], fam.box)
    want = float((fam.membership(pts[keep, 0], pts[keep, 1:]) @ fam.weights).max())
    assert want > 0.0
    assert got == pytest.approx(want, rel=1e-12, abs=0.0)
    assert (diag.samples_checked, diag.samples_outside) == (20000, int(keep.sum()))


# ---------------------------------------------------------------------------
# families are arrays; Tube objects only at the boundary

def _same_family(a, b):
    for name in ("anchors", "directions", "weights"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes()
    assert (a.k, a.box, len(a)) == (b.k, b.box, len(b))


def _grid_family(seed, n, k):
    # n distinct (integer anchor, direction) pairs out of three directions
    rng = np.random.default_rng(seed)
    side = int(BOX)
    picks = rng.choice(3 * side * side, size=n, replace=False)
    tubes = tuple(_tube((float(p // 3 // side), float(p // 3 % side)),
                        0.25 * (p % 3 - 1), k) for p in picks)
    w = rng.uniform(0.0, 1.0, size=n)
    return WeightedTubeFamily(tubes, w / (1.2 * w.sum()), k, BOX)


@pytest.mark.parametrize("make", [
    lambda: _random_separated_family(0, 60, 2),
    lambda: _random_separated_family(5, 40, 0),
    lambda: _grid_family(3, 700, 1),     # above the dense limit: grid engine
])
def test_from_arrays_agrees_with_tube_constructor(make):
    fam = make()
    arr = WeightedTubeFamily.from_arrays(fam.anchors, fam.directions, fam.weights,
                                         fam.k, fam.box)
    _same_family(arr, fam)
    assert arr.tubes == fam.tubes
    _same_family(WeightedTubeFamily(arr.tubes, arr.weights, arr.k, arr.box), fam)
    for delta in (0.25, 0.1):
        da, db = CoverDiagnostics(), CoverDiagnostics()
        assert greedy_tube_cover(arr, delta, diagnostics=da) \
            == greedy_tube_cover(fam, delta, diagnostics=db)
        assert repr(da) == repr(db)


def test_family_arrays_are_read_only_copies():
    x = np.array([[1.0, 2.0]])
    d = np.array([[1.0, 0.0]])
    w = np.array([0.5])
    fam = WeightedTubeFamily.from_arrays(x, d, w, 1, BOX)
    x[0, 0] = w[0] = 7.0
    assert fam.anchors[0, 0] == 1.0 and fam.weights[0] == 0.5
    with pytest.raises(ValueError):
        fam.weights[0] = 0.1


_GOOD = (np.array([[1.0, 2.0], [5.0, 6.0]]), np.array([[1.0, 0.0], [1.0, 0.0]]),
         np.array([0.2, 0.3]))


@pytest.mark.parametrize("which, bad", [
    (0, np.array([[np.nan, 2.0], [5.0, 6.0]])),
    (0, np.array([[1.0, 2.0], [np.inf, 6.0]])),
    (0, np.array([1.0, 2.0, 5.0, 6.0])),
    (0, np.array([[1.0, 2.0, 0.0], [5.0, 6.0, 0.0]])),
    (0, np.array([[1.0, 2.0]])),
    (1, np.array([[np.nan, 0.0], [1.0, 0.0]])),
    (1, np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])),
    (1, np.array([[0.5, 0.0], [1.0, 0.0]])),
    (1, np.array([unit_dir(0.6), [1.0, 0.0]])),
    (2, np.array([0.2, np.nan])),
    (2, np.array([0.2, np.inf])),
    (2, np.array([0.2, -0.1])),
    (2, np.array([0.6, 0.6])),
    (2, np.array([[0.2, 0.3]])),
    (2, np.array([0.2, 0.3, 0.1])),
])
def test_family_rejects_malformed_arrays(which, bad):
    args = list(_GOOD)
    args[which] = bad
    with pytest.raises(InvalidFamilyError):
        WeightedTubeFamily.from_arrays(*args, 1, BOX)
    if which == 2:      # the same weights through the Tube constructor
        tubes = (_tube((1.0, 2.0), 0.0, 1), _tube((5.0, 6.0), 0.0, 1))
        with pytest.raises(InvalidFamilyError):
            WeightedTubeFamily(tubes, bad, 1, BOX)


def test_tube_constructor_rejects_wrong_tubes():
    good = _tube((1.0, 2.0), 0.0, 1)
    for bad in (Tube(0.0, (1.0, 2.0), (1.0, 0.0), half_length=None),
                Tube(0.0, (1.0, 2.0), (1.0, 0.0), half_length=2.0, radius=2.0),
                Tube(0.0, (1.0, 2.0), (1.0, 0.0), half_length=2.0, lam=1.5),
                Tube(0.5, (1.0, 2.0), (1.0, 0.0), half_length=2.0)):
        with pytest.raises(InvalidFamilyError):
            WeightedTubeFamily((good, bad), np.array([0.1, 0.1]), 1, BOX)
    with pytest.raises(InvalidFamilyError):
        WeightedTubeFamily((good,), np.array([0.1, 0.1]), 1, BOX)


def test_axis_samples_follow_the_tubes():
    fam = _random_separated_family(2, 12, 1)
    ts = np.arange(-2.0, 2.25, 0.5)
    want = np.concatenate([np.column_stack([ts, t.axis_at(ts) % BOX]) for t in fam.tubes])
    assert _axis_samples(fam).tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# the pointwise verifier can fail

def _bundle_family(seed, k, n, box=40.0):
    """Like the benchmark's cover families: bundles of seeded directions
    through fixed spacetime points (t / 2^k, x1, x2) carrying 0.30, 0.20 and
    0.09, then seeded background tubes sharing 0.2; S_MIN-separated."""
    rng = np.random.default_rng(seed)
    half = 2.0 ** k
    edge = math.pi / 8 - 0.01
    xs, ws, weights = [], [], []

    def separated(x, w):
        if not xs:
            return True
        d = x - np.array(xs)
        d -= box * np.round(d / box)
        sep = np.hypot(d[:, 0], d[:, 1]) + half * np.linalg.norm(w - np.array(ws), axis=1)
        return bool(sep.min() >= S_MIN + 1e-9)

    for weight, (t_frac, p1, p2) in ((0.30, (-0.4, 6.0, 9.0)), (0.20, (0.3, 26.0, 28.0)),
                                     (0.09, (-0.1, 31.0, 5.0))):
        tb = t_frac * half
        step = 1.05 * S_MIN / (abs(tb) + half)
        m = min(int(2 * edge / step) + 1, 12)
        th0 = rng.uniform(-edge, edge - (m - 1) * step)
        members = 0
        for j in range(m):
            om = unit_dir(th0 + j * step)
            x = (np.array([p1, p2]) - om * tb) % box
            if separated(x, om):
                xs.append(x)
                ws.append(om)
                members += 1
        split = rng.pareto(1.5, members) + 1.0
        weights.extend(weight * split / split.sum())
    n_bundled = len(xs)
    while len(xs) < n:
        x = rng.uniform(0.0, box, 2)
        om = unit_dir(rng.uniform(-edge, edge))
        if separated(x, om):
            xs.append(x)
            ws.append(om)
    background = rng.pareto(2.0, n - n_bundled) + 1.0
    weights.extend(0.2 * background / background.sum())
    return WeightedTubeFamily.from_arrays(np.array(xs), np.array(ws), np.array(weights),
                                          k, box)


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_verifier_fails_without_the_heaviest_class(k):
    delta = 0.25
    fam = _bundle_family(3, k, 120)
    diag = CoverDiagnostics()
    out = greedy_tube_cover(fam, delta, diagnostics=diag)
    assert diag.rounds >= 2
    assert verify_pointwise_bound(fam, out, delta, 20000, seed=1) <= delta
    heaviest = int(np.argmax([fam.weights[list(m)].sum() for m in diag.class_members]))
    kept = [t for j, group in enumerate(diag.class_tubes) if j != heaviest for t in group]
    assert verify_pointwise_bound(fam, kept, delta, 20000, seed=1) > delta
