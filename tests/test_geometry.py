import math

import numpy as np
import pytest

from conewave.geometry import (Cube, Region, SphereSquare, Tube,
                               cover_tube_by_unit_cubes, cube_touches_tube,
                               dilate, dyadic_sphere_grid, separation,
                               shrink_cube, square_of_direction, tube_contains,
                               unit_dir, wrap_delta)

BOX = 20.0


def _membership_oracle(tube, t, x, box):
    # independent re-statement of the defining inequality
    c = np.asarray(tube.x0) + np.asarray(tube.omega) * (t - tube.t0)
    d = np.asarray(x) - c
    d = d - box * np.round(d / box)
    ok = math.sqrt(float((d * d).sum())) <= tube.lam * tube.radius + 1e-12
    if tube.half_length is not None:
        ok = ok and abs(t - tube.t0) <= tube.lam * tube.half_length + 1e-12
    return ok


def test_tube_contains_center_and_tip():
    t = Tube(1.0, (3.0, 4.0), tuple(unit_dir(0.1)), half_length=4.0)
    assert tube_contains(t, (1.0, 3.0, 4.0), BOX)
    tip = np.asarray(t.x0) + np.asarray(t.omega) * 4.5
    assert not tube_contains(t, (1.0 + 4.5, tip[0], tip[1]), BOX)


def test_tube_membership_random_agreement():
    rng = np.random.default_rng(0)
    t = Tube(0.0, (5.0, 15.0), tuple(unit_dir(-0.3)), half_length=4.0, lam=1.5)
    ts = rng.uniform(-8, 8, size=400)
    xs = rng.uniform(0, BOX, size=(400, 2))
    got = t.contains(ts, xs, BOX)
    want = [_membership_oracle(t, float(a), b, BOX) for a, b in zip(ts, xs)]
    assert list(got) == want


def test_tube_direction_constraint():
    with pytest.raises(ValueError):
        Tube(0.0, (0.0, 0.0), tuple(unit_dir(1.0)), half_length=1.0)
    with pytest.raises(ValueError):
        Tube(0.0, (0.0, 0.0), (0.5, 0.0), half_length=1.0)


@pytest.mark.parametrize("args, kwargs", [
    ((0.0, (1.0, 2.0, 3.0), (1.0, 0.0)), {"half_length": 1.0}),
    ((0.0, (1.0,), (1.0, 0.0)), {"half_length": 1.0}),
    ((0.0, (1.0, 2.0), (1.0, 0.0, 0.0)), {"half_length": 1.0}),
    ((math.nan, (1.0, 2.0), (1.0, 0.0)), {"half_length": 1.0}),
    ((math.inf, (1.0, 2.0), (1.0, 0.0)), {"half_length": 1.0}),
    ((0.0, (math.nan, 2.0), (1.0, 0.0)), {"half_length": 1.0}),
    ((0.0, (1.0, -math.inf), (1.0, 0.0)), {"half_length": 1.0}),
    ((0.0, (1.0, 2.0), (math.nan, 0.0)), {"half_length": 1.0}),
    ((0.0, (1.0, 2.0), (1.0, 0.0)), {"half_length": -3.0}),
    ((0.0, (1.0, 2.0), (1.0, 0.0)), {"half_length": 0.0}),
    ((0.0, (1.0, 2.0), (1.0, 0.0)), {"half_length": math.inf}),
    ((0.0, (1.0, 2.0), (1.0, 0.0)), {"half_length": math.nan}),
    ((0.0, (1.0, 2.0), (1.0, 0.0)), {"half_length": 1.0, "radius": math.nan}),
    ((0.0, (1.0, 2.0), (1.0, 0.0)), {"half_length": 1.0, "lam": math.nan}),
])
def test_tube_rejects_malformed_input(args, kwargs):
    with pytest.raises(ValueError):
        Tube(*args, **kwargs)


def test_dilate_identity_and_doubling():
    t = Tube(0.0, (2.0, 2.0), (1.0, 0.0), half_length=2.0)
    assert dilate(t, 1.0).eff_radius == t.eff_radius
    t2 = dilate(t, 2.0)
    assert tube_contains(t2, (0.0, 2.0, 3.5), BOX)
    assert not tube_contains(t, (0.0, 2.0, 3.5), BOX)


def test_dilate_composes_on_samples():
    rng = np.random.default_rng(1)
    t = Tube(0.0, (8.0, 9.0), tuple(unit_dir(0.25)), half_length=2.0)
    a = dilate(dilate(t, 2.0), 3.0)
    b = dilate(t, 6.0)
    ts = rng.uniform(-14, 14, size=10000)
    xs = rng.uniform(0, BOX, size=(10000, 2))
    assert np.array_equal(a.contains(ts, xs, BOX), b.contains(ts, xs, BOX))


def test_cover_by_unit_cubes_counts_and_covers():
    for k in (0, 2):
        t = Tube(0.0, (4.0, 10.0), tuple(unit_dir(0.2)), half_length=2.0 ** k)
        cubes = cover_tube_by_unit_cubes(t)
        assert len(cubes) <= 27 * 2 ** k
        rng = np.random.default_rng(k)
        ts = rng.uniform(-2.0 ** k, 2.0 ** k, size=2000)
        rad = rng.uniform(0, 1, size=2000)
        ang = rng.uniform(0, 2 * np.pi, size=2000)
        pts = t.axis_at(ts) + np.stack([rad * np.cos(ang), rad * np.sin(ang)], axis=1)
        covered = np.zeros(len(ts), dtype=bool)
        for c in cubes:
            covered |= c.contains(ts, pts, BOX)
        assert covered.all()
        fat = dilate(t, 3.0)
        for c in cubes:
            assert fat.contains(np.array([c.center[0]]),
                                np.array([c.center[1:]]), BOX).all()


def test_shrink_cube():
    q = Cube((1.0, 2.0, 3.0), 4.0)
    assert shrink_cube(q, 0.5).side == pytest.approx(2.0)
    assert shrink_cube(q, 1e-9).side == pytest.approx(4.0, rel=1e-6)
    assert shrink_cube(q, 0.25).center == q.center
    with pytest.raises(ValueError):
        shrink_cube(q, 1.0)


def test_sphere_grid_levels_partition():
    assert len(dyadic_sphere_grid(0)) == 2
    arcs = dyadic_sphere_grid(3)
    assert len(arcs) == 2 * 8
    widths = {round(a.chart_width, 12) for a in arcs}
    assert len(widths) == 1
    rng = np.random.default_rng(2)
    for theta in rng.uniform(-np.pi, np.pi, size=2000):
        hits = [a for a in arcs if a.contains_angle(theta)]
        assert len(hits) == 1
        assert hits[0] == square_of_direction(theta, 3)


def test_sphere_grid_nesting():
    parent = square_of_direction(0.2, 2)
    child = square_of_direction(0.2, 5)
    assert parent.contains(child)
    assert not child.contains(parent)
    other = SphereSquare(parent.hemisphere, 2, (parent.index + 1) % 4)
    assert not other.contains(child)


def test_separation_value():
    t1 = Tube(0.0, (0.0, 0.0), (1.0, 0.0), half_length=4.0)
    t2 = Tube(0.0, (3.0, 0.0), tuple(unit_dir(0.25)), half_length=4.0)
    s = separation(t1, t2, 4.0, BOX)
    expect = 3.0 + 4.0 * np.linalg.norm(np.asarray(t2.omega) - np.array([1.0, 0.0]))
    assert s == pytest.approx(expect, rel=1e-12)


def test_region_membership_and_masks():
    tube = Tube(0.0, (5.0, 5.0), (1.0, 0.0), half_length=None)
    reg = Region(-2.0, 2.0, (tube,), cube=Cube((0.0, 5.0, 5.0), 8.0))
    assert not reg.contains(0.0, np.array([5.0, 5.0]), BOX)   # inside the tube
    assert reg.contains(0.0, np.array([7.0, 7.0]), BOX)
    assert not reg.contains(3.0, np.array([7.0, 7.0]), BOX)   # outside time


def test_cube_touches_tube():
    tube = Tube(0.0, (5.0, 5.0), (1.0, 0.0), half_length=4.0)
    near = Cube((0.0, 5.0, 6.4), 1.0)
    far = Cube((0.0, 5.0, 12.0), 1.0)
    assert cube_touches_tube(near, tube, BOX)
    assert not cube_touches_tube(far, tube, BOX)
    assert cube_touches_tube(far, tube, BOX, dilation=8.0)


def test_wrap_delta():
    assert wrap_delta(19.0, BOX) == pytest.approx(-1.0)
    assert wrap_delta(-11.0, BOX) == pytest.approx(9.0)
