import math

import numpy as np
import pytest

from conewave.geometry import Cube, Tube, cube_touches_tube, unit_dir, wrap_delta
from conewave.lattice import FrequencyLattice
from conewave.norms import region_slice_mask
from conewave.tube_cover import WeightedTubeFamily

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
    assert t.contains(1.0, np.array([3.0, 4.0]), BOX)
    tip = np.asarray(t.x0) + np.asarray(t.omega) * 4.5
    assert not t.contains(1.0 + 4.5, tip, BOX)


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
    assert t.dilate(1.0).eff_radius == t.eff_radius
    t2 = t.dilate(2.0)
    assert t2.contains(0.0, np.array([2.0, 3.5]), BOX)
    assert not t.contains(0.0, np.array([2.0, 3.5]), BOX)


def test_dilate_composes_on_samples():
    rng = np.random.default_rng(1)
    t = Tube(0.0, (8.0, 9.0), tuple(unit_dir(0.25)), half_length=2.0)
    a = t.dilate(2.0).dilate(3.0)
    b = t.dilate(6.0)
    ts = rng.uniform(-14, 14, size=10000)
    xs = rng.uniform(0, BOX, size=(10000, 2))
    assert np.array_equal(a.contains(ts, xs, BOX), b.contains(ts, xs, BOX))


def test_separation_value():
    # |x1 - x2| + 2^k |omega1 - omega2| of two tubes of half length 2^k = 4
    t1 = Tube(0.0, (0.0, 0.0), (1.0, 0.0), half_length=4.0)
    t2 = Tube(0.0, (3.0, 0.0), tuple(unit_dir(0.25)), half_length=4.0)
    s = WeightedTubeFamily((t1, t2), np.array([0.5, 0.5]), 2, BOX).check_separation()
    expect = 3.0 + 4.0 * np.linalg.norm(np.asarray(t2.omega) - np.array([1.0, 0.0]))
    assert s == pytest.approx(expect, rel=1e-12)


def test_region_membership_and_masks():
    tube = Tube(0.0, (5.0, 5.0), (1.0, 0.0), half_length=None)
    lat = FrequencyLattice(80, BOX)
    mask = region_slice_mask((tube,), 0.0, lat)
    assert not mask[20, 20]                          # (5, 5): inside the tube
    assert mask[28, 28]                              # (7, 7)
    # no tube active at t: the whole grid
    short = Tube(0.0, (5.0, 5.0), (1.0, 0.0), half_length=2.0)
    assert region_slice_mask((short,), 3.0, lat) is None
    assert region_slice_mask((), 0.0, lat) is None


def test_cube_touches_tube():
    tube = Tube(0.0, (5.0, 5.0), (1.0, 0.0), half_length=4.0)
    near = Cube((0.0, 5.0, 6.4))
    far = Cube((0.0, 5.0, 12.0))
    assert cube_touches_tube(near, tube, BOX)
    assert not cube_touches_tube(far, tube, BOX)
    assert cube_touches_tube(far, tube, BOX, dilation=8.0)


def test_wrap_delta():
    assert wrap_delta(19.0, BOX) == pytest.approx(-1.0)
    assert wrap_delta(-11.0, BOX) == pytest.approx(9.0)
