import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conewave.errors import NoDecrementError
from conewave.extraction import (build_extractor, dual_witness, extract_profile,
                                 find_concentrating_tube, optimal_multiple,
                                 search_directions)
from conewave.geometry import Tube, dir_angle, disk_spans, span_pixels, unit_dir
from conewave.norms import l2t_linf_on_tube
from conewave.waves import (inner_product, make_red_cube_bump, make_red_cube_train,
                            make_wave, plane_wave, random_colored_wave, zero_wave)


@pytest.fixture(scope="module")
def train(small_config, lat0):
    theta = 0.21
    tube = Tube(0.0, (6.0, 12.0), tuple(unit_dir(theta)), half_length=4.0)
    w = make_red_cube_train(lat0, tube, None, seed=7,
                            half_window=small_config.half_window)
    return w.normalize_mass(1.0), theta


def test_search_directions_grid():
    d = search_directions()
    assert d[1] - d[0] == pytest.approx(1.0 / 16.0)
    assert abs(d).max() <= math.pi / 8


def test_find_zero_wave_none(quad0, lat0):
    tube, val = find_concentrating_tube(zero_wave(lat0, color="red"), 0.2, quad0)
    assert tube is None and val == 0.0


def test_find_train_tube_direction_and_value(quad0, train):
    w, theta = train
    tube, val = find_concentrating_tube(w, 0.2, quad0)
    assert tube is not None
    assert abs(dir_angle(tube.omega) - theta) <= 1.0 / 16.0
    from conewave.constants import KAPPA_CUBE
    assert val >= 0.5 * KAPPA_CUBE
    # the returned value is the exact grid tube norm
    assert l2t_linf_on_tube(w, tube, quad0) == pytest.approx(val, abs=1e-12)


def test_find_threshold_behavior(quad0, lat0):
    # a single bump's best concentration: above it the search reports none
    b = make_red_cube_bump(lat0, (0.0, 10.0, 10.0))
    _, best = find_concentrating_tube(b, 0.0, quad0, threshold=0.0)
    assert best > 0.0
    tube, v = find_concentrating_tube(b, 0.0, quad0, threshold=1.05 * best)
    assert tube is None
    tube, v = find_concentrating_tube(b, 0.0, quad0, threshold=0.95 * best)
    assert tube is not None and v == pytest.approx(best, rel=1e-12)


def test_dual_witness_plane_wave(quad0, lat0):
    w = plane_wave(lat0, (25, 2), lat0.box)
    tube = Tube(0.0, (5.0, 5.0), (1.0, 0.0), half_length=None)
    wit = dual_witness(w, tube, quad0)
    assert np.allclose(np.abs(wit.f), np.abs(wit.f[0]))
    # pairing identity: sum dt phi(t, x(t)) conj(f(t)) = tube norm exactly
    assert wit.pairing_time_domain() == pytest.approx(wit.norm_value, rel=1e-12)


def test_dual_witness_train_pairing(quad0, train):
    w, _ = train
    tube, val = find_concentrating_tube(w, 0.2, quad0)
    wit = dual_witness(w, tube, quad0)
    assert wit.norm_value == pytest.approx(val, rel=1e-12)
    assert abs(wit.pairing_time_domain() - val) <= 1e-12 * val


def test_build_extractor_time_spike(quad0, lat0):
    # a single-time witness makes the coefficients a pure cutoff (constant
    # modulus dt * f over the margin region)
    from conewave.extraction import DualWitness
    wit = DualWitness(Tube(0.0, (0.0, 0.0), (1.0, 0.0), None),
                      times=np.array([0.0]), points=np.zeros((1, 2)),
                      values=np.array([2.0 + 0j]),
                      f=np.array([1.0 / math.sqrt(quad0.dt) + 0j]),
                      dt=quad0.dt, norm_value=1.0)
    F = build_extractor(lat0, wit, margin_target=0.05)
    assert np.allclose(np.abs(F.vals_plus), quad0.dt * abs(wit.f[0]))
    F.validate_support()
    assert F.margin() >= 0.05 - 1e-12


def test_extractor_pairing_matches_witness(quad0, train):
    # spectral pairing vs time-domain pairing (sharp cutoff: exact identity)
    w, _ = train
    tube, _ = find_concentrating_tube(w, 0.2, quad0)
    wit = dual_witness(w, tube, quad0)
    F = build_extractor(w.lattice, wit, margin_target=w.margin() - 1 / 20)
    sp = inner_product(w, F)
    td = wit.pairing_time_domain()
    assert abs(sp - td) <= 1e-6 * abs(td)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2 ** 31 - 1), min_margin=st.floats(1 / 20, 0.2),
       direction=st.integers(0, 12), cell=st.tuples(st.integers(0, 39), st.integers(0, 39)))
def test_pairings_equal_the_tube_norm(seed, min_margin, direction, cell, quad0, lat0):
    # the time-domain pairing of the witness and the spectral pairing with
    # the extractor both reproduce the witnessed tube norm, for a random red
    # wave and any window tube on the search grid
    phi = random_colored_wave(lat0, "red", 0, min_margin, seed)
    theta = search_directions()[direction]
    tube = Tube(0.0, (0.5 * cell[0], 0.5 * cell[1]), tuple(unit_dir(theta)), half_length=None)
    wit = dual_witness(phi, tube, quad0)
    F = build_extractor(lat0, wit, margin_target=0.5 * phi.margin())
    assert abs(wit.pairing_time_domain() - wit.norm_value) <= 1e-12 * wit.norm_value
    assert abs(inner_product(phi, F).real - wit.norm_value) <= 1e-12 * wit.norm_value


def test_extractor_cutoff_margins(quad0, train):
    w, _ = train
    tube, _ = find_concentrating_tube(w, 0.2, quad0)
    wit = dual_witness(w, tube, quad0)
    lo = w.margin() - 1 / 25
    F = build_extractor(w.lattice, wit, margin_target=lo)
    assert F.margin() >= lo - 1e-12
    from conewave.constants import K_F
    assert F.mass() <= K_F * math.log(1.0 / 0.2)


def test_optimal_multiple_exact_cases(lat0):
    w = plane_wave(lat0, (25, 0), lat0.box)
    step = optimal_multiple(w, w)
    assert step.mu == 1.0
    assert w.sub(w, coeff=step.mu).mass() == pytest.approx(0.0, abs=1e-15)
    # Re<phi,F> = 1, M(F) = 2  ->  mu = 1/2, decrement = 1/2
    phi = plane_wave(lat0, (25, 0), lat0.box / math.sqrt(2.0))
    F = plane_wave(lat0, (25, 0), lat0.box * math.sqrt(2.0))
    step = optimal_multiple(phi, F)
    assert step.pairing == pytest.approx(1.0, rel=1e-12)
    assert step.mass_extractor == pytest.approx(2.0, rel=1e-12)
    assert step.mu == pytest.approx(0.5, rel=1e-12)
    assert step.decrement == pytest.approx(0.5, rel=1e-12)


def test_optimal_multiple_rejects_antialigned(lat0):
    w = plane_wave(lat0, (25, 0), lat0.box)
    with pytest.raises(NoDecrementError):
        optimal_multiple(w, plane_wave(lat0, (25, 0), -lat0.box))


def test_extract_profile_zero_wave(quad0, lat0):
    tubes, rem, trace = extract_profile(zero_wave(lat0, color="red"), 0.2, quad0)
    assert tubes == [] and rem.mass() == 0.0 and len(trace) == 0


def test_extract_profile_train(quad0, train):
    from conewave.constants import C_DEC, LAMBDA_CAP
    w, theta = train
    delta = 0.2
    tubes, rem, trace = extract_profile(w, delta, quad0, max_iter=100)
    assert trace.completed
    assert len(trace) <= math.ceil(1.0 / (C_DEC * delta ** 3))
    assert abs(dir_angle(tubes[0].omega) - theta) <= 1.0 / 16.0
    # masses strictly decrease and the decrement floor holds
    floor = C_DEC * delta ** 2 / math.log(1.0 / delta)
    for s in trace.steps:
        assert s.mass_after < s.mass_before
        assert s.decrement >= floor
        assert 0.0 < s.mu <= 1.0
    # consistency of the recorded masses with the actual remainder
    assert trace.steps[-1].mass_after == pytest.approx(rem.mass(), rel=1e-9)
    # remainder concentration below the absolute threshold
    _, v = find_concentrating_tube(rem, delta, quad0, threshold=0.0)
    assert v < delta
    # recorded tubes carry the capped dilation
    assert tubes[0].lam == pytest.approx(min(delta ** -2.0, LAMBDA_CAP))


def test_extract_single_bump_small_delta(quad0, lat0):
    b = make_red_cube_bump(lat0, (0.0, 10.0, 10.0))
    tubes, rem, trace = extract_profile(b, 0.05, quad0, max_iter=200)
    assert trace.completed
    _, v = find_concentrating_tube(rem, 0.05, quad0, threshold=0.0)
    assert v < 0.05


def test_off_tube_smallness(quad0, train, small_config):
    # each extractor's concentration away from its dilated tube stays below
    # the frozen fraction of its own mass
    from conewave.constants import EPS_OFF
    w, theta = train
    tube, _ = find_concentrating_tube(w, 0.2, quad0)
    wit = dual_witness(w, tube, quad0)
    F = build_extractor(w.lattice, wit, margin_target=w.margin() - 1 / 32)
    fat = tube.dilate(6.0)
    rng = np.random.default_rng(0)
    checked = 0
    worst = 0.0
    while checked < 20:
        x0 = rng.uniform(0, small_config.box, size=2)
        th = rng.uniform(-math.pi / 8, math.pi / 8)
        probe = Tube(0.0, tuple(x0), tuple(unit_dir(th)), half_length=None)
        ts = np.linspace(-small_config.half_window, small_config.half_window, 9)
        pts = probe.axis_at(ts)
        if fat.contains(ts, pts, small_config.box).any():
            continue
        checked += 1
        worst = max(worst, l2t_linf_on_tube(F, probe, quad0))
    assert worst <= EPS_OFF * math.sqrt(F.mass())


# ---------------------------------------------------------------------------
# the witness reads the search; point values come from the spectrum

def test_dual_witness_with_search_synthesizes_nothing(quad0, train, evaluate_calls):
    from conewave.extraction import _TubeSearch
    w, _ = train
    search = _TubeSearch(w, quad0)
    tube, _ = find_concentrating_tube(w, 0.2, quad0, search=search)
    evaluate_calls.clear()
    wit = dual_witness(w, tube, quad0, search)
    assert evaluate_calls == []
    fresh = dual_witness(w, tube, quad0)
    assert np.array_equal(wit.points, fresh.points)
    assert np.array_equal(wit.values, fresh.values)
    # the values are the synthesized field at the witness pixels
    h = quad0.lattice.spacing
    for t, x, v in zip(wit.times, wit.points, wit.values):
        f = w.evaluate(t, quad0.lattice)
        want = f[int(round(x[0] / h)), int(round(x[1] / h))]
        assert abs(v - want) <= 1e-13 * np.abs(f).max()


def _disk_argmax_pixels(search, tube, quad):
    """Per time slice, the first pixel of the tube's disk in row-major order
    (from ``disk_spans`` of the tube's own axis point, wrapped) where the
    search's magnitude slice is largest.  Shape (T, 2)."""
    n = quad.lattice.size
    out = []
    for i, t in enumerate(quad.times):
        rows, cols, _ = span_pixels(*disk_spans(tube.axis_at(t), tube.eff_radius, quad.h))
        rows, cols = rows % n, cols % n
        j = int(np.argmax(search.slices[i][rows, cols]))
        out.append((rows[j], cols[j]))
    return np.array(out)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2 ** 31 - 1), min_margin=st.floats(1 / 20, 0.2),
       direction=st.integers(0, 12), cell=st.tuples(st.integers(-10, 49), st.integers(-10, 49)))
def test_witness_pixels_are_the_stencil_argmax(seed, min_margin, direction, cell, quad0, lat0):
    # for a random red wave and a window tube on the search grid (anchors
    # beyond the torus included): the witness takes, at every slice, the
    # first argmax pixel of the disk in row-major order, and the squares of
    # the magnitudes there, summed in time order, are the search's exact
    # norm and the tube norm bit for bit
    from conewave.extraction import _TubeSearch
    phi = random_colored_wave(lat0, "red", 0, min_margin, seed)
    theta = search_directions()[direction]
    x0 = (0.5 * cell[0], 0.5 * cell[1])
    tube = Tube(0.0, x0, tuple(unit_dir(theta)), half_length=None)
    search = _TubeSearch(phi, quad0)
    wit = dual_witness(phi, tube, quad0, search)
    pix = _disk_argmax_pixels(search, tube, quad0)
    assert np.array_equal(wit.times, quad0.times)
    assert np.array_equal(wit.points, pix * quad0.h)
    acc = 0.0
    for m in search.slices[np.arange(len(pix)), pix[:, 0], pix[:, 1]]:
        acc += m * m
    exact = search.exact_norms(np.array([theta]), np.array([x0]))[0]
    assert math.sqrt(quad0.dt * acc) == exact
    assert l2t_linf_on_tube(phi, tube, quad0) == exact


def test_dual_witness_takes_only_tubes_on_the_search_grid(quad0, train, evaluate_calls):
    w, _ = train
    om = tuple(unit_dir(search_directions()[3]))
    cases = [(Tube(0.0, (1.0, 1.5), om, half_length=2.0), "window tube"),
             (Tube(0.5, (1.0, 1.5), om, half_length=None), "window tube"),
             (Tube(0.0, (1.0, 1.5), om, half_length=None, radius=2.0), "window tube"),
             (Tube(0.0, (1.0, 1.5), om, half_length=None, lam=2.0), "window tube"),
             (Tube(0.0, (1.0, 1.25), om, half_length=None), "half-unit grid"),
             (Tube(0.0, (1.0, 1.5), tuple(unit_dir(0.2)), half_length=None), "search grid")]
    for tube, match in cases:
        with pytest.raises(ValueError, match=match):
            dual_witness(w, tube, quad0)
    # only the anchor check needs the search's synthesis
    assert len(evaluate_calls) == len(quad0.times)


@pytest.mark.parametrize("k", [0, 1])
def test_point_values_match_evaluate(small_config, k):
    from conewave.lattice import lattice_for
    lat = lattice_for(small_config, k)
    red = random_colored_wave(lat, "red", k, 1 / 20, seed=31)
    two_sided = red.sub(random_colored_wave(lat, "blue", k, 1 / 20, seed=32))
    rng = np.random.default_rng(k)
    times = rng.uniform(-4.0, 4.0, 6)
    rows = rng.integers(0, lat.size, 6)
    cols = rng.integers(0, lat.size, 6)
    for w in (red, two_sided):
        got = w.point_values(times, rows, cols, lat)
        for t, r, c, v in zip(times, rows, cols, got):
            f = w.evaluate(t, lat)
            assert abs(v - f[r, c]) <= 1e-13 * np.abs(f).max()


@settings(max_examples=3, deadline=None)
@given(kind=st.sampled_from(["random", "bump"]), seed=st.integers(0, 10_000),
       x1=st.floats(0.0, 1.0), x2=st.floats(0.0, 1.0))
def test_search_bound_dominates_exact_norm(quad0, quad_default, kind, seed, x1, x2):
    # the stencil-window bound of every candidate on the search grid is at
    # least its exact norm, on the small and the default quadrature
    from conewave.extraction import OFFSET_SPACING, _TubeSearch
    for quad in (quad0, quad_default):
        lat = quad.lattice
        if kind == "random":
            w = random_colored_wave(lat, "red", 0, 1 / 20, seed=seed)
        else:
            w = make_red_cube_bump(lat, (0.0, x1 * lat.box, x2 * lat.box))
        search = _TubeSearch(w, quad)
        thetas = search_directions()
        bounds = search.upper_bounds(thetas)
        side = int(2 * quad.config.box)
        assert bounds.shape == (len(thetas), side, side)
        cells = np.indices((side, side)).reshape(2, -1).T
        for di, theta in enumerate(thetas):
            exact = search.exact_norms(np.full(len(cells), theta), cells * OFFSET_SPACING)
            assert np.all(bounds[di].ravel() >= exact)


# ---------------------------------------------------------------------------
# the stencil kernel against the per-candidate definition

def _oracle_slice_maxima(w, quad, thetas, x0s):
    """Per candidate and time slice, the max of |phi| over the grid pixels
    within torus distance 1 + 1e-12 of the axis point c = x0 + omega t,
    each candidate's disk found from its own nearest pixel.  Shape (m, T)."""
    lat = quad.lattice
    h, n = lat.spacing, lat.size
    reach = int(math.ceil(1.0 / h)) + 1
    o = np.arange(-reach, reach + 1)
    o1, o2 = (a.ravel()[None, :] for a in np.meshgrid(o, o, indexing="ij"))
    out = np.empty((len(thetas), len(quad.times)))
    for i, t in enumerate(quad.times):
        mag = np.abs(w.evaluate(t, lat))
        c1 = x0s[:, 0] + np.cos(thetas) * t
        c2 = x0s[:, 1] + np.sin(thetas) * t
        b1 = np.round(c1 / h).astype(np.int64)[:, None]
        b2 = np.round(c2 / h).astype(np.int64)[:, None]
        d1 = (b1 + o1) * h - c1[:, None]
        d2 = (b2 + o2) * h - c2[:, None]
        inside = d1 * d1 + d2 * d2 <= 1.0 + 1e-12
        out[:, i] = np.where(inside, mag[(b1 + o1) % n, (b2 + o2) % n], 0.0).max(axis=1)
    return out


def _oracle_norms(w, quad, thetas, x0s):
    acc = np.zeros(len(thetas))
    for m in _oracle_slice_maxima(w, quad, thetas, x0s).T:
        acc += m * m
    return np.sqrt(quad.dt * acc)


@pytest.fixture(scope="module")
def quad_default():
    from conewave.config import RunConfig
    from conewave.lattice import lattice_for
    from conewave.norms import Quadrature
    cfg = RunConfig()
    return Quadrature(cfg, lattice_for(cfg, 0))


@settings(max_examples=10, deadline=None)
@given(kind=st.sampled_from(["random", "bump"]), default=st.booleans(),
       seed=st.integers(0, 10_000), x1=st.floats(0.0, 1.0), x2=st.floats(0.0, 1.0))
def test_exact_norms_match_per_candidate_oracle(quad0, quad_default, kind, default,
                                                seed, x1, x2):
    # bitwise, for every direction, cells on the torus edges and random cells
    from conewave.extraction import OFFSET_SPACING, _TubeSearch
    quad = quad_default if default else quad0
    lat = quad.lattice
    if kind == "random":
        w = random_colored_wave(lat, "red", 0, 1 / 20, seed=seed)
    else:
        w = make_red_cube_bump(lat, (0.0, x1 * lat.box, x2 * lat.box))
    search = _TubeSearch(w, quad)
    thetas = search_directions()
    last = search.nc - 1
    rng = np.random.default_rng(seed)
    cells = np.concatenate([[[0, 0], [0, last], [last, 0], [last, last]],
                            rng.integers(0, search.nc, (4, 2))])
    di = np.repeat(np.arange(len(thetas)), len(cells))
    x0s = np.tile(cells, (len(thetas), 1)) * OFFSET_SPACING
    got = search.exact_norms(thetas[di], x0s)
    assert np.array_equal(got, _oracle_norms(w, quad, thetas[di], x0s))
    # the first and last slices alone, where the disks lie furthest from the
    # anchors: the other slices of the search's stack are zeroed
    maxima = _oracle_slice_maxima(w, quad, thetas[di], x0s)
    stack = search.padded.copy()
    for i in (0, len(quad.times) - 1):
        search.padded[:] = 0.0
        search.padded[i] = stack[i]
        got = search.exact_norms(thetas[di], x0s)
        assert np.array_equal(got, np.sqrt(quad.dt * (maxima[:, i] * maxima[:, i])))


def test_exact_norms_reject_candidates_off_the_grid(quad0, train):
    from conewave.extraction import _TubeSearch
    search = _TubeSearch(train[0], quad0)
    thetas = search_directions()
    with pytest.raises(ValueError, match="half-unit grid"):
        search.exact_norms(thetas[:1], np.array([[1.0, 1.25]]))
    with pytest.raises(ValueError, match="search grid"):
        search.exact_norms(np.array([thetas[0] + 1e-3]), np.array([[1.0, 1.5]]))


def test_find_matches_oracle_search(quad0, lat0, train):
    # the same tube and value as a search whose exact stage is the oracle,
    # and that value is the oracle's max over every candidate of the grid
    from conewave.extraction import OFFSET_SPACING, _TubeSearch

    class OracleSearch(_TubeSearch):
        def exact_norms(self, thetas, x0s):
            return _oracle_norms(self.wave, self.quad, thetas, x0s)

    waves = (train[0], random_colored_wave(lat0, "red", 0, 1 / 20, seed=5),
             make_red_cube_bump(lat0, (0.0, 7.0, 13.5)))
    for w in waves:
        oracle = OracleSearch(w, quad0)
        oracle.wave = w
        want = find_concentrating_tube(w, 0.0, quad0, threshold=0.0, search=oracle)
        got = find_concentrating_tube(w, 0.0, quad0, threshold=0.0)
        assert got[0] == want[0] and got[1] == want[1]
        thetas = search_directions()
        di, a, b = np.indices((len(thetas), oracle.nc, oracle.nc)).reshape(3, -1)
        every = _oracle_norms(w, quad0, thetas[di], np.stack([a, b], axis=1) * OFFSET_SPACING)
        assert got[1] == every.max()
