import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from conewave.geometry import Tube, disk_spans, span_pixels, unit_dir, wrap_delta
from conewave.lattice import lattice_for
from conewave.harness import tube_sup_profile
from conewave.norms import (Quadrature, exact_product_quadrature,
                            l2t_linf_on_tube, lp_product, product_densities, product_l2,
                            product_slice_sums, region_slice_mask, tube_slice_maxima)
from conewave.waves import (make_blue_tube_wave, make_red_cube_bump, make_red_cube_train,
                            make_wave, plane_wave, random_colored_wave, zero_wave)


def test_product_l2_zero_and_empty(quad0, lat0, small_config):
    w = random_colored_wave(lat0, "red", 0, 1 / 20, seed=0)
    z = zero_wave(lat0)
    assert product_l2(w, z, quad0) == 0.0
    # a tube whose disk covers the torus leaves no grid point outside
    cover = (Tube(0.0, (0.0, 0.0), (1.0, 0.0), half_length=None, radius=small_config.box),)
    assert all(not mask.any() for _, _, mask, _ in product_densities(w, (w,), quad0, cover))


def test_product_l2_plane_wave_closed_form(quad0, lat0, small_config):
    # constant-modulus factors: the norm is |c1||c2| L^-2n sqrt(vol)
    a = plane_wave(lat0, (25, 2), 3.0)
    b = plane_wave(lat0, (28, -3), 2.0, side="minus")
    vol = 2 * small_config.half_window * small_config.box ** 2
    want = 3.0 * 2.0 * small_config.box ** -4 * math.sqrt(vol)
    got = product_l2(a, b, quad0)
    assert got == pytest.approx(want, rel=1e-8)


def test_lp_product_p2_consistency(small_config):
    # at p = 2 the L^p sum on quad's grid is the L^2 norm that product_l2
    # takes on the coarser exact grid
    lat = lattice_for(small_config, 2)
    quad = Quadrature(small_config, lat)
    a = random_colored_wave(lattice_for(small_config, 0), "red", 0, 1 / 20, seed=1).embed(lat)
    b = random_colored_wave(lat, "blue", 2, 1 / 20, seed=2)
    assert exact_product_quadrature(quad, a, (b,)).lattice.size < lat.size
    assert lp_product(a, b, 2.0, quad) == pytest.approx(product_l2(a, b, quad), rel=1e-10)
    assert lp_product(a, zero_wave(lat), 1.7, quad) == 0.0


def test_region_partition_additivity(quad0, lat0, small_config):
    a = random_colored_wave(lat0, "red", 0, 1 / 20, seed=5)
    b = random_colored_wave(lat0, "blue", 0, 1 / 20, seed=6)
    tube = Tube(0.0, (8.0, 8.0), (1.0, 0.0), half_length=None, radius=3.0)
    # outside and on the tube within the window: squared norms add exactly
    total2 = product_l2(a, b, quad0) ** 2
    w = quad0.dt * quad0.cell_weight()
    off2 = sum(w * float(dens[m].sum())
               for _, _, m, dens in product_densities(a, (b,), quad0, (tube,)))
    on2 = 0.0
    for t in quad0.times:
        m = region_slice_mask((tube,), t, quad0.lattice)
        f = a.evaluate(t, quad0.lattice)
        g = b.evaluate(t, quad0.lattice)
        dens = (np.abs(f) * np.abs(g)) ** 2
        on2 += w * float(dens[~m].sum())
    assert off2 + on2 == pytest.approx(total2, rel=1e-12)


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


_TUBE = st.tuples(st.floats(-25.0, 45.0), st.floats(-25.0, 45.0), st.floats(-0.39, 0.39),
                  st.floats(1.0, 3.0), st.one_of(st.none(), st.floats(0.25, 2.0)),
                  st.floats(-5.0, 5.0))


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000), specs=st.lists(_TUBE, min_size=1, max_size=4))
def test_tube_slice_maxima_match_wrapped_distance(quad0, lat0, seed, specs):
    # each entry is the max of |phi| over the grid points within the tube's
    # radius of its axis point in the wrapped distance, and zero where the
    # tube is inactive; the family always holds a finite tube and two tubes
    # whose disks overlap
    phi = random_colored_wave(lat0, "red", 0, 1 / 20, seed)
    tubes = [Tube(t0, (a, b), tuple(unit_dir(th)), half_length=hl, radius=r)
             for a, b, th, r, hl, t0 in specs]
    tubes += [Tube(1.0, tubes[0].x0, (1.0, 0.0), half_length=1.5, radius=2.0),
              Tube(0.0, (tubes[0].x0[0] + 1.0, tubes[0].x0[1]), tubes[0].omega,
                   half_length=None, radius=1.5)]
    got = tube_slice_maxima(phi, tubes, quad0)
    assert got.shape == (len(quad0.times), len(tubes))
    box = lat0.box
    ax = quad0.h * np.arange(lat0.size)
    for i, t in enumerate(quad0.times):
        mag = np.abs(phi.evaluate(t, lat0))
        for j, tube in enumerate(tubes):
            if not tube.time_active(t):
                assert got[i, j] == 0.0
                continue
            c = tube.axis_at(t)
            d1, d2 = wrap_delta(ax - c[0], box), wrap_delta(ax - c[1], box)
            dist2 = (d1 * d1)[:, None] + (d2 * d2)[None, :]
            r2 = tube.eff_radius ** 2
            # pixels within round-off of the circle may go either way
            inner = mag[dist2 <= r2 - 1e-9].max()
            outer = mag[dist2 <= r2 + 1e-9].max()
            assert inner <= got[i, j] <= outer


def test_tube_norms_read_one_synthesis_per_active_slice(quad0, lat0, evaluate_calls):
    # tube_sup_profile sums the squared maxima of every tube and
    # l2t_linf_on_tube sums one tube's over time; both synthesize phi only
    # on the slices where a tube is active, once per slice
    phi = random_colored_wave(lat0, "red", 0, 1 / 20, seed=12)
    tubes = [Tube(0.0, (3.0, 4.0), tuple(unit_dir(0.1)), half_length=1.0),
             Tube(0.5, (4.0, 4.0), (1.0, 0.0), half_length=1.0, radius=2.0),
             Tube(-2.0, (15.0, 4.0), tuple(unit_dir(-0.2)), half_length=0.5)]
    live = np.zeros(len(quad0.times), dtype=bool)
    for tube in tubes:
        live |= tube.time_active(quad0.times)
    maxima = tube_slice_maxima(phi, tubes, quad0)
    assert [t for _, t, _ in evaluate_calls] == list(quad0.times[live])
    assert np.all((maxima > 0.0) == np.array([tube.time_active(quad0.times)
                                              for tube in tubes]).T)
    evaluate_calls.clear()
    g = tube_sup_profile(phi, tubes, quad0)
    want = np.zeros(len(quad0.times))
    for m in maxima.T:
        want += m * m
    assert np.array_equal(g, want)
    assert len(evaluate_calls) == live.sum()
    for j, tube in enumerate(tubes):
        assert l2t_linf_on_tube(phi, tube, quad0) == pytest.approx(
            math.sqrt(quad0.dt * float(np.sum(maxima[:, j] ** 2))), rel=1e-15)


# ---------------------------------------------------------------------------
# the density stream and the disk rasterizer

def test_product_densities_one_synthesis_per_field_and_slice(quad0, lat0,
                                                             evaluate_calls):
    a = random_colored_wave(lat0, "red", 0, 1 / 20, seed=10)
    bs = [random_colored_wave(lat0, "blue", 0, 1 / 20, seed=11 + j) for j in range(3)]
    tube = Tube(0.0, (8.0, 8.0), (1.0, 0.0), half_length=1.0)
    got = list(product_densities(a, bs, quad0, (tube,)))
    n_t = len(quad0.times)
    assert [(i, j) for i, j, _, _ in got] == [(i, j) for i in range(n_t) for j in range(3)]
    assert len(evaluate_calls) == n_t * (1 + len(bs))
    assert len(set(evaluate_calls)) == len(evaluate_calls)
    # the mask outside the tube where it is active, the whole grid elsewhere
    for i, _, mask, _ in got:
        want = region_slice_mask((tube,), quad0.times[i], lat0)
        assert (mask is None) == (abs(quad0.times[i]) > 1.0) == (want is None)
        assert mask is None or np.array_equal(mask, want)
    i, j, _, dens = got[5]
    t = quad0.times[i]
    want = (np.abs(a.evaluate(t, lat0)) * np.abs(bs[j].evaluate(t, lat0))) ** 2
    np.testing.assert_allclose(dens, want, rtol=1e-12, atol=0.0)


@settings(max_examples=60, deadline=None)
@given(n=st.sampled_from([16, 40, 80, 160]), box=st.sampled_from([4.0, 10.0, 20.0]),
       disks=st.lists(st.tuples(st.floats(-30.0, 60.0), st.floats(-30.0, 60.0),
                                st.floats(0.0, 0.8)), min_size=1, max_size=4))
def test_disk_spans_match_wrapped_distance(n, box, disks):
    # one disk_spans call over several centres with mixed radii: each disk
    # holds the pixels within its radius in the wrapped distance, row-major,
    # and a call on its centre alone gives the same pixels in order
    from conewave.lattice import FrequencyLattice
    assume(box / n <= 0.25)
    lat = FrequencyLattice(n, box)
    centres = np.array([(c1, c2) for c1, c2, _ in disks])
    radii = np.array([frac * box for _, _, frac in disks])
    rows, cols, disk = span_pixels(*disk_spans(centres, radii, lat.spacing))
    assert np.all(np.diff(disk) >= 0)
    ax = lat.spacing * np.arange(n)
    for j, (c, radius) in enumerate(zip(centres, radii)):
        r, q = rows[disk == j], cols[disk == j]
        step = np.diff(r)
        assert np.all(step >= 0) and np.all(np.diff(q)[step == 0] > 0)
        alone = span_pixels(*disk_spans(c, radius, lat.spacing))
        assert np.array_equal(alone[0], r) and np.array_equal(alone[1], q)
        got = np.zeros((n, n), dtype=bool)
        got[r % n, q % n] = True
        d1 = wrap_delta(ax - c[0], box)
        d2 = wrap_delta(ax - c[1], box)
        dist2 = (d1 * d1)[:, None] + (d2 * d2)[None, :]
        # pixels clear of the boundary by more than round-off agree exactly
        clear = np.abs(dist2 - radius * radius) > 1e-9 * max(1.0, box * box)
        want = dist2 <= radius * radius
        assert np.array_equal(got[clear], want[clear])


def test_region_mask_spans_match_pixel_scatter():
    # 1200 random centres (a fifth on pixels, a fifth within 1e-12 of one,
    # many off the fundamental domain) and tube radii from 1 up to 0.8 box, one to four excluded disks per mask:
    # the painted mask is the scattered span_pixels, pixel for pixel
    from conewave.lattice import FrequencyLattice
    rng = np.random.default_rng(0)
    centres = 0
    while centres < 1200:
        box = float(rng.choice([4.0, 10.0, 20.0]))
        lat = FrequencyLattice(int(rng.choice([4, 8])) * int(box), box)
        tubes, want = [], np.ones((lat.size, lat.size), dtype=bool)
        for _ in range(rng.integers(1, 5)):
            c = rng.uniform(-box, 2.0 * box, 2)
            if rng.random() < 0.4:
                c = np.round(c / lat.spacing) * lat.spacing
                if rng.random() < 0.5:      # where the 1e-12 tolerance decides
                    c += rng.uniform(-1e-12, 1e-12, 2)
            r = rng.uniform(1.0, 0.8 * box) if rng.random() < 0.7 \
                else float(rng.choice([1.0, 1.5, 2.0]))
            tubes.append(Tube(0.0, tuple(c), (1.0, 0.0), half_length=None, radius=r))
            rows, cols, _ = span_pixels(*disk_spans(c, r, lat.spacing))
            want[rows % lat.size, cols % lat.size] = False
        centres += len(tubes)
        got = region_slice_mask(tuple(tubes), 0.0, lat)
        assert np.array_equal(got, want)


# ---------------------------------------------------------------------------
# full-window sums on the coarsest alias-exact grid

def _sum_pair(config, kind, k, seed, theta=0.1, x=(3.0, 4.0)):
    """(phi, psi, quad) at scale k: a random red k = 0 wave against a random
    blue k wave, a cube bump against a blue packet, a two-sided wave against
    a blue wave on the same modes, or the hand-built plane-wave pair whose
    spread is exactly half the k lattice (axis 0 or 1)."""
    lat0, lat = lattice_for(config, 0), lattice_for(config, k)
    if kind == "random":
        phi = random_colored_wave(lat0, "red", 0, 1 / 20, seed).embed(lat)
        psi = random_colored_wave(lat, "blue", k, 1 / 20, seed + 1)
    elif kind == "packet":
        phi = make_red_cube_bump(lat0, (0.0, *x)).embed(lat)
        psi = make_blue_tube_wave(lat, 0.5, x, unit_dir(theta), k)
    elif kind == "shared":
        red = random_colored_wave(lat, "red", k, 1 / 20, seed)
        phi = red.sub(random_colored_wave(lat, "blue", k, 1 / 20, seed + 1), -1.0)
        psi = random_colored_wave(lat, "blue", k, 1 / 20, seed + 2)
    else:
        # modes 20, 40 against 19, 79 on the 160 lattice: 20 + 60 = 80
        e = np.eye(2, dtype=np.int64)[int(kind[-1])]
        lat = lattice_for(config, 1)
        phi = make_wave(lat, np.outer([20, 40], e), [1.0, 0.5 + 0.5j], [], [])
        psi = make_wave(lat, np.outer([19, 79], e), [0.7, 1.0], [], [])
        assert (phi.spread() + psi.spread()).max() * 2 == lat.size
    return phi, psi, Quadrature(config, lat)


@settings(max_examples=24, deadline=None)
@given(kind=st.sampled_from(["random", "packet", "shared"]), k=st.integers(0, 3),
       seed=st.integers(0, 10_000), theta=st.floats(-0.3, 0.3),
       x=st.tuples(st.floats(0.0, 20.0), st.floats(0.0, 20.0)))
@example(kind="plane0", k=1, seed=0, theta=0.0, x=(0.0, 0.0))
@example(kind="plane1", k=1, seed=0, theta=0.0, x=(0.0, 0.0))
def test_full_window_sums_equal_the_fine_grid_definition(small_config, kind, k,
                                                         seed, theta, x):
    phi, psi, quad = _sum_pair(small_config, kind, k, seed, theta, x)
    w = quad.cell_weight()
    want = np.array([w * float(dens.sum())
                     for _, _, _, dens in product_densities(phi, (psi,), quad)])
    got = product_slice_sums(phi, psi, quad)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("kind,k,size", [("random", 3, 320), ("packet", 3, 80),
                                         ("plane0", 1, 160), ("plane1", 1, 160)])
def test_full_window_sums_synthesize_on_the_coarse_grid(small_config, evaluate_calls,
                                                        kind, k, size):
    phi, psi, quad = _sum_pair(small_config, kind, k, seed=5)
    product_slice_sums(phi, psi, quad)
    assert len(evaluate_calls) == 2 * len(quad.times)
    assert {n for _, _, n in evaluate_calls} == {size}
