import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conewave.blue_exceptional import (exceptional_tubes_for_blue, find_bad_cubes,
                                       frequency_cells, sector_weights,
                                       unit_cell_sums, unit_cube_masses, _cell_window)
from conewave.config import RunConfig
from conewave.geometry import Tube, cube_touches_tube, unit_dir, wrap_delta
from conewave.lattice import FrequencyLattice, lattice_for
from conewave.norms import Quadrature
from conewave.waves import (make_blue_tube_wave, make_red_cube_bump, make_wave, mass,
                            random_colored_wave, zero_wave)


def test_cell_window_partition_of_unity():
    u = np.linspace(-3, 3, 601)
    total = sum(_cell_window(u - j) for j in range(-4, 5))
    assert np.allclose(total, 1.0, atol=1e-12)


def test_find_bad_cubes_zero_and_delta_one(quad0, lat0):
    z = zero_wave(lat0, color="blue")
    assert find_bad_cubes(z, 0.1, quad0) == []
    psi = make_blue_tube_wave(lat0, 0.0, (4.0, 9.0), unit_dir(0.2), 0)
    # no unit cube can hold more than the whole slice mass integrated over a
    # unit time span, which the normalization keeps at 1
    assert find_bad_cubes(psi, 1.0, quad0) == []


def test_find_bad_cubes_packet_axis(quad0, lat0, small_config):
    om = unit_dir(0.2)
    x0 = np.array([4.0, 9.0])
    psi = make_blue_tube_wave(lat0, 0.0, x0, om, 0)
    bad = find_bad_cubes(psi, 0.1, quad0)
    assert bad
    # every integer time with the packet in the window shows a bad cube near
    # the transported center
    for tc in (-2, 0, 1):
        c = x0 + om * (tc + 0.5)
        hits = [b for b in bad if abs(b.center[0] - (tc + 0.5)) < 0.6
                and np.linalg.norm(wrap_delta(np.array(b.center[1:]) - c,
                                              small_config.box)) <= 2.0]
        assert hits, f"no bad cube near the axis at t={tc}"


def test_cube_mass_table_consistency(quad0, lat0):
    psi = random_colored_wave(lat0, "blue", 0, 1 / 20, seed=3)
    t_corners, masses = unit_cube_masses(psi, quad0)
    # summing all cubes recovers the full spacetime quadrature mass
    window = 2 * quad0.config.half_window
    assert masses.sum() == pytest.approx(window * mass(psi), rel=1e-9)


def test_partition_masses_sum_exactly(quad0, lat0):
    psi = random_colored_wave(lat0, "blue", 0, 1 / 20, seed=4)
    cells = frequency_cells(psi)
    total = 0.0
    for _, sel, chi in cells:
        part = make_wave(lat0, [], [], psi.modes_minus[sel],
                         psi.vals_minus[sel] * chi, color="blue", k=0)
        total += mass(part)
    assert total == pytest.approx(mass(psi), rel=1e-12)


def test_window_localized_pieces_orthogonal(small_config):
    # multiply two far-separated frequency pieces by a band-limited window:
    # the windowed spectra stay disjoint, so the pairing vanishes exactly.
    # Cells must be separated by more than twice the piece+window broadening
    # (2 per axis each way), which needs the k=2 annulus for room.
    lat = lattice_for(small_config, 2)
    psi = random_colored_wave(lat, "blue", 2, 1 / 20, seed=5)
    cells = frequency_cells(psi)
    a0, s0, c0 = cells[0]
    pick = [(a, s, c) for (a, s, c) in cells
            if max(abs(a[0] - a0[0]), abs(a[1] - a0[1])) > 4]
    assert pick, "need two separated cells"
    a1, s1, c1 = pick[-1]
    p0 = make_wave(lat, [], [], psi.modes_minus[s0], psi.vals_minus[s0] * c0,
                   color="blue", k=2)
    p1 = make_wave(lat, [], [], psi.modes_minus[s1], psi.vals_minus[s1] * c1,
                   color="blue", k=2)
    # band-limited nonnegative window |b|^2 with b supported in |xi| <= 1/2
    half = lat.size // 2
    m = np.arange(-half, half)
    m1g, m2g = np.meshgrid(m, m, indexing="ij")
    sel = (m1g / lat.box) ** 2 + (m2g / lat.box) ** 2 <= 0.25
    bvals = np.exp(-((m1g[sel] / lat.box) ** 2 + (m2g[sel] / lat.box) ** 2))
    b = make_wave(lat, np.stack([m1g[sel], m2g[sel]], axis=1), bvals, [], [])
    eta = np.abs(b.evaluate(0.0)) ** 2
    f0 = p0.evaluate(0.3) * eta
    f1 = p1.evaluate(0.3) * eta
    ip = np.vdot(f1, f0) * lat.spacing ** 2
    scale = math.sqrt(mass(p0) * mass(p1))
    assert abs(ip) <= 1e-8 * max(scale, 1e-30)


def test_sector_weights_single_cell(quad0, small_config, lat0):
    # one-cell blue wave: all weight in one direction, total exactly 1
    lat = lat0
    half = lat.size // 2
    m = np.arange(-half, half)
    m1g, m2g = np.meshgrid(m, m, indexing="ij")
    xi1 = m1g / lat.box
    xi2 = m2g / lat.box
    sel = (np.abs(xi1 - 1.4) <= 0.4) & (np.abs(xi2) <= 0.4)
    rng = np.random.default_rng(0)
    vals = rng.standard_normal(sel.sum()) + 1j * rng.standard_normal(sel.sum())
    psi = make_wave(lat, [], [], np.stack([m1g[sel], m2g[sel]], axis=1), vals,
                    color="blue", k=0).normalize_mass(1.0)
    fam = sector_weights(psi, quad0, 0.0)
    dirs = {t.omega for t in fam.tubes}
    assert len(dirs) == 1
    assert fam.total_weight == pytest.approx(1.0, abs=1e-6)
    assert np.all(fam.weights >= 0.0)
    fam.check_separation()


def test_sector_weights_packet_concentrates(quad0, lat0, small_config):
    om = unit_dir(0.1)
    x0 = np.array([12.0, 5.0])
    psi = make_blue_tube_wave(lat0, 0.0, x0, om, 0)
    fam = sector_weights(psi, quad0, 0.0)
    anchors = fam.anchors()
    d = wrap_delta(anchors - x0[None, :], small_config.box)
    near = np.sqrt((d * d).sum(axis=1)) <= 4.0
    assert fam.weights[near].sum() >= 0.8 * fam.total_weight


def test_exceptional_tubes_zero_and_packet(quad0, lat0, small_config):
    assert exceptional_tubes_for_blue(zero_wave(lat0, color="blue"), 0.2, quad0) == []
    om = unit_dir(0.2)
    x0 = (4.0, 9.0)
    psi = make_blue_tube_wave(lat0, 0.0, x0, om, 0)
    tubes = exceptional_tubes_for_blue(psi, 0.2, quad0)
    assert tubes
    # some output tube tracks the construction ray
    good = False
    for t in tubes:
        dth = abs(math.atan2(t.omega[1], t.omega[0]) - 0.2)
        dx = np.linalg.norm(wrap_delta(np.asarray(t.x0)
                                       - (np.asarray(x0) + om * (t.t0)),
                                       small_config.box))
        if dth <= 0.2 and dx <= 4.0:
            good = True
    assert good
    # full coverage of the brute-force bad cubes
    for delta in (0.2, 0.1):
        bad = find_bad_cubes(psi, delta, quad0)
        tubes_d = exceptional_tubes_for_blue(psi, delta, quad0)
        assert all(any(cube_touches_tube(c, t, small_config.box, 3.0)
                       for t in tubes_d) for c in bad)


def test_exceptional_requires_blue(quad0, lat0):
    phi = random_colored_wave(lat0, "red", 0, 1 / 20, seed=1)
    with pytest.raises(ValueError):
        exceptional_tubes_for_blue(phi, 0.2, quad0)


# ---------------------------------------------------------------------------
# unit-cell sums from the smallest alias-exact grid vs the fine-grid definition

def _fine_cell_sums(psi, t, lat):
    f = psi.evaluate(t, lat)
    dens = np.square(f.real) + np.square(f.imag)
    nb = int(round(lat.box))
    cell = lat.size // nb
    return lat.spacing ** 2 * dens.reshape(nb, cell, nb, cell).sum(axis=(1, 3))


def _assert_cell_sums_match(psi, t, lat):
    modes = np.concatenate([psi.modes_plus, psi.modes_minus])
    coeffs = np.concatenate([psi.phased("plus", t), psi.phased("minus", t)])
    got = unit_cell_sums(lat, modes, coeffs)
    want = _fine_cell_sums(psi, t, lat)
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-12 * want.sum()


@functools.lru_cache(maxsize=None)
def _default_wave(kind, k, j):
    cfg = RunConfig()
    lat = lattice_for(cfg, k)
    if kind == "random":
        return random_colored_wave(lat, "blue", k, 1 / 20, seed=900 + 10 * k + j)
    rng = np.random.default_rng(700 + 10 * k + j)
    return make_blue_tube_wave(lat, float(rng.uniform(-4, 4)),
                               tuple(rng.uniform(0, cfg.box, 2)),
                               unit_dir(float(rng.uniform(-0.3, 0.3))), k)


@settings(max_examples=24, deadline=None)
@given(kind=st.sampled_from(["packet", "random"]), k=st.integers(0, 3),
       j=st.integers(0, 1), t=st.floats(-8.0, 8.0))
def test_unit_cell_sums_match_fine_grid_default_config(kind, k, j, t):
    psi = _default_wave(kind, k, j)
    _assert_cell_sums_match(psi, t, psi.lattice)


@functools.lru_cache(maxsize=None)
def _small_wave(kind, k, j):
    lat = lattice_for(RunConfig(box=20.0, half_window=4.0, dt=0.25), k)
    red = random_colored_wave(lat, "red", k, 1 / 20, seed=300 + 10 * k + j)
    if kind == "red":
        return red
    if kind == "bump":
        return make_red_cube_bump(lattice_for(RunConfig(box=20.0, half_window=4.0), 0),
                                  (0.5 * j, 6.0 + j, 13.0)).embed(lat)
    if kind == "shared":
        # the same modes on both cone sides: their contributions add up
        return make_wave(lat, red.modes_plus, red.vals_plus,
                         red.modes_plus, red.vals_plus[::-1], k=k)
    blue = random_colored_wave(lat, "blue", k, 1 / 20, seed=400 + 10 * k + j)
    return red.sub(blue, 0.5 + 0.25j)


@settings(max_examples=24, deadline=None)
@given(kind=st.sampled_from(["red", "bump", "shared", "two-sided"]), k=st.integers(0, 2),
       j=st.integers(0, 1), t=st.floats(-4.0, 4.0))
def test_unit_cell_sums_match_fine_grid_small_config(kind, k, j, t):
    psi = _small_wave(kind, k, j)
    _assert_cell_sums_match(psi, t, psi.lattice)


def test_unit_cell_sums_widest_spread(small_config):
    # modes at both ends of the lattice: the grid that resolves |u|^2 is
    # larger than the fine grid, and the sums are still the fine-grid ones
    lat = lattice_for(small_config, 1)
    half = lat.size // 2
    modes = [(-half + 1, 3), (half - 1, -2), (5, half - 1), (-7, -half + 1), (2, 1)]
    rng = np.random.default_rng(5)
    vals = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    psi = make_wave(lat, modes, vals, [], [])
    for t in (-1.3, 0.0, 2.7):
        _assert_cell_sums_match(psi, t, lat)


def test_unit_cell_sums_rejects_bad_input(lat0):
    with pytest.raises(ValueError):
        unit_cell_sums(lat0, np.array([[lat0.size // 2, 0]]), np.array([1.0 + 0j]))
    with pytest.raises(ValueError):     # no whole number of points per unit cell
        unit_cell_sums(FrequencyLattice(2, 90, 20.0), np.array([[3, 0]]),
                       np.array([1.0 + 0j]))


def test_unit_cube_masses_rejects_other_torus(lat0):
    # a side-20 wave whose modes fit on the side-40 lattice of the quadrature
    cfg = RunConfig()
    psi = make_blue_tube_wave(lat0, 0.0, (5.0, 5.0), unit_dir(0.0), 0)
    with pytest.raises(ValueError):
        unit_cube_masses(psi, Quadrature(cfg, lattice_for(cfg, 1)))


def test_second_delta_reuses_cache(small_config):
    # results on a wave that has already served another delta equal those on
    # freshly built waves, and the brute-force scan does not change
    lat = lattice_for(small_config, 1)
    constructors = (lambda: make_blue_tube_wave(lat, 0.5, (6.0, 11.0), unit_dir(0.12), 1),
                lambda: random_colored_wave(lat, "blue", 1, 1 / 20, seed=8))
    quad = Quadrature(small_config, lat)
    for build in constructors:
        psi = build()
        bad_before = find_bad_cubes(psi, 0.1, quad)
        reused = [exceptional_tubes_for_blue(psi, d, quad) for d in (0.2, 0.1)]
        assert "frequency_cells" in psi._cache
        fresh = [exceptional_tubes_for_blue(build(), d, quad) for d in (0.2, 0.1)]
        assert reused == fresh
        assert find_bad_cubes(psi, 0.1, quad) == bad_before
        # every slab's family read back from the cache is the one a fresh
        # wave computes for that slab alone
        for t_center in (-3.0, -1.0, 1.0, 3.0):     # the slab centers at k = 1
            a = sector_weights(psi, quad, t_center)
            b = sector_weights(build(), quad, t_center)
            assert a.tubes == b.tubes
            assert np.array_equal(a.weights, b.weights)
