import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from conewave.geometry import Cube, Region, Tube, full_region, unit_dir
from conewave.norms import (Quadrature, disk_pixel_indices, l2t_linf_on_tube,
                            lp_product, product_densities, product_l2,
                            product_slice_sums, region_slice_mask)
from conewave.waves import (make_red_cube_bump, make_red_cube_train, plane_wave,
                            random_colored_wave, zero_wave)


def test_product_l2_zero_and_empty(quad0, lat0, small_config):
    w = random_colored_wave(lat0, "red", 0, 1 / 20, seed=0)
    z = zero_wave(lat0)
    assert product_l2(w, z, None, quad0) == 0.0
    empty = Region(1.0, 1.0)
    assert product_l2(w, w, empty, quad0) == 0.0


def test_product_l2_plane_wave_closed_form(quad0, lat0, small_config):
    # constant-modulus factors: the norm is |c1||c2| L^-2n sqrt(vol)
    a = plane_wave(lat0, (25, 2), 3.0)
    b = plane_wave(lat0, (28, -3), 2.0, side="minus")
    vol = 2 * small_config.half_window * small_config.box ** 2
    want = 3.0 * 2.0 * small_config.box ** -4 * math.sqrt(vol)
    got = product_l2(a, b, None, quad0)
    assert got == pytest.approx(want, rel=1e-8)


def test_lp_product_p2_consistency(quad0, lat0):
    a = random_colored_wave(lat0, "red", 0, 1 / 20, seed=1)
    b = random_colored_wave(lat0, "blue", 0, 1 / 20, seed=2)
    assert lp_product(a, b, 2.0, quad0) == pytest.approx(
        product_l2(a, b, None, quad0), rel=1e-10)
    assert lp_product(a, zero_wave(lat0), 1.7, quad0) == 0.0


def test_region_monotone_on_nested_cubes(quad0, lat0):
    a = random_colored_wave(lat0, "red", 0, 1 / 20, seed=3)
    b = random_colored_wave(lat0, "blue", 0, 1 / 20, seed=4)
    prev = 0.0
    for side in (2.0, 4.0, 8.0):
        r = Region(-4.0, 4.0, (), cube=Cube((0.0, 10.0, 10.0), side))
        cur = product_l2(a, b, r, quad0)
        assert cur >= prev - 1e-12
        prev = cur


def test_region_partition_additivity(quad0, lat0, small_config):
    a = random_colored_wave(lat0, "red", 0, 1 / 20, seed=5)
    b = random_colored_wave(lat0, "blue", 0, 1 / 20, seed=6)
    tube = Tube(0.0, (8.0, 8.0), (1.0, 0.0), half_length=None, radius=3.0)
    w = small_config.half_window
    inside = Region(-w, w, (), cube=None)
    off = Region(-w, w, (tube,))
    # complement within the window: squared norms add exactly
    total2 = product_l2(a, b, None, quad0) ** 2
    off2 = product_l2(a, b, off, quad0) ** 2
    s = product_slice_sums(a, b, quad0)
    on2 = 0.0
    for i, t in enumerate(quad0.times):
        m = region_slice_mask(off, t, quad0.lattice)
        f = a.evaluate(t, quad0.lattice)
        g = b.evaluate(t, quad0.lattice)
        dens = (np.abs(f) * np.abs(g)) ** 2
        on2 += quad0.dt * quad0.cell_weight() * float(dens[~m].sum())
    assert off2 + on2 == pytest.approx(total2, rel=1e-12)
    assert inside.time_mask(quad0.times).all()


def test_halfopen_time_partition(quad0, lat0):
    a = random_colored_wave(lat0, "red", 0, 1 / 20, seed=7)
    b = random_colored_wave(lat0, "blue", 0, 1 / 20, seed=8)
    whole = product_l2(a, b, None, quad0) ** 2
    parts = 0.0
    for lo, hi in ((-4.0, -1.0), (-1.0, 2.5), (2.5, 4.0)):
        parts += product_l2(a, b, Region(lo, hi), quad0) ** 2
    assert parts == pytest.approx(whole, rel=1e-12)


def test_tube_norm_zero_cases(quad0, lat0):
    z = zero_wave(lat0)
    t = Tube(0.0, (5.0, 5.0), (1.0, 0.0), half_length=None)
    assert l2t_linf_on_tube(z, t, quad0) == 0.0
    w = random_colored_wave(lat0, "red", 0, 1 / 20, seed=9)
    outside = Tube(100.0, (5.0, 5.0), (1.0, 0.0), half_length=1.0)
    assert l2t_linf_on_tube(w, outside, quad0) == 0.0


def test_tube_norm_on_train_axis(quad0, lat0, small_config):
    from conewave.constants import KAPPA_CUBE
    om = unit_dir(0.15)
    tube = Tube(0.0, (6.0, 12.0), tuple(om), half_length=4.0)
    train = make_red_cube_train(lat0, tube, None, seed=3,
                                half_window=small_config.half_window)
    axis = Tube(0.0, (6.0, 12.0), tuple(om), half_length=None)
    assert l2t_linf_on_tube(train, axis, quad0) >= 0.5 * KAPPA_CUBE


def test_tube_norm_region_restriction(quad0, lat0):
    b = make_red_cube_bump(lat0, (0.0, 10.0, 10.0))
    axis = Tube(0.0, (10.0, 10.0), (1.0, 0.0), half_length=None)
    whole = l2t_linf_on_tube(b, axis, quad0)
    # excluding a fat tube around the bump removes most of the norm
    blocker = Tube(0.0, (10.0, 10.0), (1.0, 0.0), half_length=None, radius=3.0)
    reg = Region(-4.0, 4.0, (blocker,))
    restricted = l2t_linf_on_tube(b, axis, quad0, region=reg)
    assert restricted <= whole
    assert restricted < 0.5 * whole


# ---------------------------------------------------------------------------
# the density stream and the disk rasterizer

def test_product_densities_one_synthesis_per_field_and_slice(quad0, lat0,
                                                             evaluate_calls):
    a = random_colored_wave(lat0, "red", 0, 1 / 20, seed=10)
    bs = [random_colored_wave(lat0, "blue", 0, 1 / 20, seed=11 + j) for j in range(3)]
    region = Region(-1.0, 2.0)
    got = list(product_densities(a, bs, quad0, region))
    inside = [i for i, t in enumerate(quad0.times) if -1.0 <= t < 2.0]
    assert [(i, j) for i, j, _, _ in got] == [(i, j) for i in inside for j in range(3)]
    # slices outside the region are skipped before synthesis
    assert len(evaluate_calls) == len(inside) * (1 + len(bs))
    assert len(set(evaluate_calls)) == len(evaluate_calls)
    i, j, mask, dens = got[5]
    t = quad0.times[i]
    want = (np.abs(a.evaluate(t, lat0)) * np.abs(bs[j].evaluate(t, lat0))) ** 2
    assert mask is None
    np.testing.assert_allclose(dens, want, rtol=1e-12, atol=0.0)


@settings(max_examples=60, deadline=None)
@given(n=st.sampled_from([16, 40, 80, 160]), box=st.sampled_from([4.0, 10.0, 20.0]),
       c1=st.floats(-30.0, 60.0), c2=st.floats(-30.0, 60.0),
       frac=st.floats(0.0, 0.8))
def test_disk_pixel_indices_match_wrapped_distance(n, box, c1, c2, frac):
    from conewave.lattice import FrequencyLattice
    assume(box / n <= 0.25)
    lat = FrequencyLattice(2, n, box)
    radius = frac * box
    got = np.zeros((n, n), dtype=bool)
    got[disk_pixel_indices(lat, (c1, c2), radius)] = True
    d1 = lat.wrap(lat.x_axis() - c1)
    d2 = lat.wrap(lat.x_axis() - c2)
    dist2 = (d1 * d1)[:, None] + (d2 * d2)[None, :]
    # pixels clear of the boundary by more than round-off agree exactly
    clear = np.abs(dist2 - radius * radius) > 1e-9 * max(1.0, box * box)
    want = dist2 <= radius * radius
    assert np.array_equal(got[clear], want[clear])
