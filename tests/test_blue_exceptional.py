import contextlib
import functools
import itertools
import math
import sys
import threading
import time

import numpy as np
import pytest
import scipy.fft as _fft
from hypothesis import given, settings, strategies as st

from conewave.blue_exceptional import (exceptional_tubes_for_blue, find_bad_cubes,
                                       frequency_cells, sector_weights,
                                       unit_cell_sums, unit_cube_masses, _cell_window,
                                       _dirichlet, _direction_grids, _profile_kernel,
                                       _snapped_direction)
from conewave.config import RunConfig
from conewave.geometry import Tube, cube_touches_tube, unit_dir, wrap_delta
from conewave.lattice import FrequencyLattice, lattice_for
from conewave.norms import Quadrature
from conewave.tube_cover import WeightedTubeFamily
from conewave.waves import (make_blue_tube_wave, make_red_cube_bump, make_wave,
                            _FFT_WORKERS, random_colored_wave, zero_wave)


def test_cell_window_partition_of_unity():
    u = np.linspace(-3, 3, 601)
    total = sum(_cell_window(u - j) for j in range(-4, 5))
    assert np.allclose(total, 1.0, atol=1e-12)


def test_find_bad_cubes_zero_and_delta_one(quad0, lat0):
    z = zero_wave(lat0, "blue")
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
    assert masses.sum() == pytest.approx(window * psi.mass(), rel=1e-9)


def test_partition_masses_sum_exactly(quad0, lat0):
    psi = random_colored_wave(lat0, "blue", 0, 1 / 20, seed=4)
    cells = frequency_cells(psi)
    total = 0.0
    for _, sel, chi in cells:
        part = make_wave(lat0, psi.modes[sel], psi.vals[sel] * chi, "blue")
        total += part.mass()
    assert total == pytest.approx(psi.mass(), rel=1e-12)


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
    p0 = make_wave(lat, psi.modes[s0], psi.vals[s0] * c0, "blue", 2)
    p1 = make_wave(lat, psi.modes[s1], psi.vals[s1] * c1, "blue", 2)
    # band-limited nonnegative window |b|^2 with b supported in |xi| <= 1/2
    half = lat.size // 2
    m = np.arange(-half, half)
    m1g, m2g = np.meshgrid(m, m, indexing="ij")
    sel = (m1g / lat.box) ** 2 + (m2g / lat.box) ** 2 <= 0.25
    bvals = np.exp(-((m1g[sel] / lat.box) ** 2 + (m2g[sel] / lat.box) ** 2))
    b = make_wave(lat, np.stack([m1g[sel], m2g[sel]], axis=1), bvals, "red")
    eta = np.abs(b.evaluate(0.0)) ** 2
    f0 = p0.evaluate(0.3) * eta
    f1 = p1.evaluate(0.3) * eta
    ip = np.vdot(f1, f0) * lat.spacing ** 2
    scale = math.sqrt(p0.mass() * p1.mass())
    assert abs(ip) <= 1e-8 * max(scale, 1e-30)


def test_sector_weights_single_cell(lat0):
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
    psi = make_wave(lat, np.stack([m1g[sel], m2g[sel]], axis=1), vals,
                    "blue").normalize_mass(1.0)
    fam = sector_weights(psi, 0.0)
    dirs = {t.omega for t in fam.tubes}
    assert len(dirs) == 1
    assert fam.weights.sum() == pytest.approx(1.0, abs=1e-6)
    assert np.all(fam.weights >= 0.0)
    fam.check_separation()


def test_sector_weights_packet_concentrates(lat0, small_config):
    om = unit_dir(0.1)
    x0 = np.array([12.0, 5.0])
    psi = make_blue_tube_wave(lat0, 0.0, x0, om, 0)
    fam = sector_weights(psi, 0.0)
    anchors = fam.anchors
    d = wrap_delta(anchors - x0[None, :], small_config.box)
    near = np.sqrt((d * d).sum(axis=1)) <= 4.0
    assert fam.weights[near].sum() >= 0.8 * fam.weights.sum()


def test_exceptional_tubes_zero_and_packet(quad0, lat0, small_config):
    assert exceptional_tubes_for_blue(zero_wave(lat0, "blue"), 0.2, quad0) == []
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
    with pytest.raises(ValueError, match="blue wave"):
        exceptional_tubes_for_blue(phi, 0.2, quad0)
    with pytest.raises(ValueError, match="blue wave"):
        sector_weights(phi)


# ---------------------------------------------------------------------------
# unit-cell sums from the smallest alias-exact grid vs the fine-grid definition

def _fine_cell_sums(psi, t, lat):
    f = psi.evaluate(t, lat)
    dens = np.square(f.real) + np.square(f.imag)
    nb = int(round(lat.box))
    cell = lat.size // nb
    return lat.spacing ** 2 * dens.reshape(nb, cell, nb, cell).sum(axis=(1, 3))


def _assert_cell_sums_match(psi, t, lat):
    got = unit_cell_sums(lat, psi.modes, psi.phased(t))
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
    return random_colored_wave(lat, "blue", k, 1 / 20, seed=400 + 10 * k + j)


@settings(max_examples=24, deadline=None)
@given(kind=st.sampled_from(["red", "bump", "blue"]), k=st.integers(0, 2),
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
    psi = make_wave(lat, modes, vals, "red")
    for t in (-1.3, 0.0, 2.7):
        _assert_cell_sums_match(psi, t, lat)


def _unit_cell_sums_add_at(lattice, modes, coeffs):
    # unit_cell_sums with the spectrum scattered by np.add.at
    box, n = int(round(lattice.box)), lattice.size
    modes = np.asarray(modes, dtype=np.int64).reshape(-1, 2)
    lo = modes.min(axis=0)
    shape = tuple(box * -(-(2 * int(s) + 1) // box) for s in modes.max(axis=0) - lo)
    spec = np.zeros(shape, dtype=np.complex128)
    np.add.at(spec, ((modes[:, 0] - lo[0]) % shape[0], (modes[:, 1] - lo[1]) % shape[1]),
              coeffs)
    field = _fft.ifft2(spec, norm="forward", workers=_FFT_WORKERS)
    dens = np.square(field.real) + np.square(field.imag)
    spectrum = _fft.fft2(dens, norm="forward", workers=_FFT_WORKERS)
    spectrum *= _dirichlet(shape[0], n, n // box)[:, None]
    spectrum *= _dirichlet(shape[1], n, n // box)[None, :]
    folded = spectrum.reshape(shape[0] // box, box, shape[1] // box, box).sum(axis=(0, 2))
    return lattice.spacing ** 2 / lattice.box ** 4 * _fft.ifft2(folded, norm="forward").real


@pytest.mark.parametrize("k, seed", [(0, 1), (1, 2), (2, 3)])
def test_unit_cell_sums_repeated_modes_match_add_at(small_config, k, seed):
    # few distinct modes, each repeated several times in shuffled order with
    # values of very different sizes, so the order of the additions shows
    lat = lattice_for(small_config, k)
    rng = np.random.default_rng(seed)
    half = lat.size // 2
    distinct = rng.integers(-half + 1, half, size=(6, 2))
    modes = distinct[rng.integers(0, len(distinct), size=60)]
    vals = (rng.standard_normal(60) + 1j * rng.standard_normal(60)) \
        * 10.0 ** rng.integers(-8, 9, size=60)
    vals[::7] = -0.0 - 0.0j
    assert len(np.unique(modes, axis=0)) < len(modes)
    got = unit_cell_sums(lat, modes, vals)
    want = _unit_cell_sums_add_at(lat, modes, vals)
    assert got.tobytes() == want.tobytes()


def test_unit_cell_sums_rejects_bad_input(lat0):
    with pytest.raises(ValueError):
        unit_cell_sums(lat0, np.array([[lat0.size // 2, 0]]), np.array([1.0 + 0j]))
    with pytest.raises(ValueError):     # no whole number of points per unit cell
        unit_cell_sums(FrequencyLattice(90, 20.0), np.array([[3, 0]]),
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
            a = sector_weights(psi, t_center)
            b = sector_weights(build(), t_center)
            assert a.tubes == b.tubes
            assert np.array_equal(a.weights, b.weights)


@pytest.mark.parametrize("build", [
    lambda lat: random_colored_wave(lat, "blue", 2, 1 / 20, seed=8),
    lambda lat: make_blue_tube_wave(lat, 0.5, (6.0, 11.0), unit_dir(0.12), 2),
])
def test_sector_weights_equals_per_cell_tubes(small_config, build):
    # the reference family has one Tube per direction-grid cell, with the
    # cell's weight clipped at 0, directions by angle and cells row-major
    lat = lattice_for(small_config, 2)
    psi = build(lat)
    t_center = -2.0
    fam = sector_weights(psi, t_center)
    total = psi.mass() * float(_profile_kernel(int(lat.box)).sum()) * (1.0 + 1e-9)
    tubes, weights = [], []
    for theta, smoothed in sorted(psi._cache[("sector_grids", t_center)].items()):
        grid = smoothed / total
        for a, b in itertools.product(range(grid.shape[0]), range(grid.shape[1])):
            tubes.append(Tube(0.0, (float(a), float(b)), tuple(unit_dir(theta)),
                              half_length=4.0))
            weights.append(max(grid[a, b], 0.0))
    ref = WeightedTubeFamily(tuple(tubes), np.array(weights), psi.k, lat.box)
    assert len(fam) > 0 and len({t.omega for t in tubes}) > 1
    assert fam.full_grid()
    assert fam.tubes == ref.tubes
    assert fam.weights.tobytes() == ref.weights.tobytes()
    assert fam.anchors.tobytes() == ref.anchors.tobytes()
    assert fam.directions.tobytes() == ref.directions.tobytes()


def test_packet_families_are_full_grids():
    # a k = 3 packet whose far slabs hold weights near round-off: every slab's
    # family is a full grid all the same, so the greedy takes the grid engine
    cfg = RunConfig()
    psi = make_blue_tube_wave(lattice_for(cfg, 3), 0.0, (20.0, 20.0), unit_dir(0.0), 3)
    for t_center in (-4.0, 4.0):
        fam = sector_weights(psi, t_center)
        assert fam.full_grid()
        assert len(fam) == len(set(map(tuple, fam.directions.tolist()))) * int(cfg.box) ** 2
        assert fam.weights.min() < 1e-14 and fam.weights.min() >= 0.0


# ---------------------------------------------------------------------------
# the two-thread map: results added in input order, no thread left behind

@contextlib.contextmanager
def _out_of_order(monkeypatch, name):
    """Make the first call of blue_exceptional.<name> finish after several
    others, and every fourth after its neighbours, with a short switch
    interval, so the threads complete their items out of input order and
    race on the _dirichlet cache."""
    import conewave.blue_exceptional as be
    real = getattr(be, name)
    calls = itertools.count()

    def slow(*args):
        n = next(calls)
        if n % 4 == 0:
            time.sleep(0.02 if n == 0 else 0.005)
        return real(*args)

    monkeypatch.setattr(be, name, slow)
    _dirichlet.cache_clear()
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(switch)


_SMALL_BLUE = [(kind, k) for kind in ("random", "packet") for k in (0, 1, 2)]


def _small_blue(kind, k):
    lat = lattice_for(RunConfig(box=20.0, half_window=4.0, dt=0.25), k)
    if kind == "random":
        return random_colored_wave(lat, "blue", k, 1 / 20, seed=60 + k)
    return make_blue_tube_wave(lat, 0.75 - k, (4.0 + 3 * k, 13.0), unit_dir(0.1 * k), k)


@pytest.mark.parametrize("kind, k", _SMALL_BLUE)
def test_unit_cube_masses_equal_serial_accumulation(small_config, monkeypatch, kind, k):
    psi = _small_blue(kind, k)
    quad = Quadrature(small_config, psi.lattice)
    want = np.zeros((2 * int(small_config.half_window),) + (int(small_config.box),) * 2)
    for t in quad.times:
        want[int(math.floor(t + small_config.half_window))] += \
            quad.dt * unit_cell_sums(psi.lattice, psi.modes, psi.phased(t))
    with _out_of_order(monkeypatch, "_cell_sums"):
        _, got = unit_cube_masses(psi, quad)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("kind, k", _SMALL_BLUE)
def test_direction_grids_equal_serial_cell_sums(small_config, monkeypatch, kind, k):
    # the smoothed grids of the raw sums added cell by cell in cell order
    psi = _small_blue(kind, k)
    cells = frequency_cells(psi)
    t_center = -1.5
    phased = psi.phased(t_center)
    raw = {}
    for alpha, sel, chi in cells:
        theta = _snapped_direction(alpha, psi.k)
        raw[theta] = raw.get(theta, 0.0) + unit_cell_sums(psi.lattice, psi.modes[sel],
                                                          phased[sel] * chi)
    assert len(cells) > len(raw)         # some direction adds up several cells
    box = int(small_config.box)
    kernel_f = np.fft.rfft2(_profile_kernel(box))
    with _out_of_order(monkeypatch, "unit_cell_sums"):
        got = _direction_grids(psi, cells, t_center)
    assert list(got) == list(raw)
    for theta, m in raw.items():
        assert np.array_equal(got[theta],
                              np.fft.irfft2(np.fft.rfft2(m) * kernel_f, s=(box, box)))


def test_pooled_errors_raise_and_leave_no_thread(small_config, lat0, monkeypatch):
    psi = _small_blue("random", 2)
    quad = Quadrature(small_config, psi.lattice)
    before = threading.active_count()
    # modes beyond the band of the quadrature's lattice
    with pytest.raises(ValueError, match="not representable"):
        unit_cube_masses(psi, Quadrature(small_config, lat0))
    assert threading.active_count() == before
    # a wave whose own lattice cannot hold its modes: each frequency cell's
    # check fails on the thread that claims the cell
    narrow = make_wave(lat0, psi.modes, psi.vals, "blue", 2)
    with pytest.raises(ValueError, match="not representable"):
        sector_weights(narrow)
    assert threading.active_count() == before
    # a scan slice fails on the calling thread, then on the helper thread
    import conewave.blue_exceptional as be
    real = be._cell_sums
    for where in ("caller", "helper"):
        def failing(*args, where=where):
            on_main = threading.current_thread() is threading.main_thread()
            if on_main == (where == "caller"):
                raise ValueError(f"slice on the {where}")
            return real(*args)

        monkeypatch.setattr(be, "_cell_sums", failing)
        with pytest.raises(ValueError, match=f"slice on the {where}"):
            unit_cube_masses(psi, quad)
        assert threading.active_count() == before
