import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conewave.errors import NoDecrementError
from conewave.extraction import (build_extractor, dual_witness, extract_profile,
                                 find_concentrating_tube, optimal_multiple,
                                 search_directions)
from conewave.geometry import Tube, dir_angle, unit_dir
from conewave.norms import l2t_linf_on_tube
from conewave.waves import (inner_product, make_red_cube_bump, make_red_cube_train,
                            make_wave, margin, mass, plane_wave,
                            random_colored_wave, zero_wave)


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
    assert margin(F) >= 0.05 - 1e-12


def test_extractor_pairing_matches_witness(quad0, train):
    # spectral pairing vs time-domain pairing (sharp cutoff: exact identity)
    w, _ = train
    tube, _ = find_concentrating_tube(w, 0.2, quad0)
    wit = dual_witness(w, tube, quad0)
    F = build_extractor(w.lattice, wit, margin_target=margin(w) - 1 / 20)
    sp = inner_product(w, F, t=0.0)
    td = wit.pairing_time_domain()
    assert abs(sp - td) <= 1e-6 * abs(td)


def test_extractor_smooth_cutoff_margins(quad0, train):
    w, _ = train
    tube, _ = find_concentrating_tube(w, 0.2, quad0)
    wit = dual_witness(w, tube, quad0)
    lo = margin(w) - 1 / 25
    F = build_extractor(w.lattice, wit, margin_target=lo, margin_full=margin(w))
    assert margin(F) >= lo - 1e-12
    from conewave.constants import K_F
    assert mass(F) <= K_F * math.log(1.0 / 0.2)


def test_optimal_multiple_exact_cases(lat0):
    w = plane_wave(lat0, (25, 0), lat0.box)
    step = optimal_multiple(w, w)
    assert step.mu == 1.0
    assert mass(w.sub(w, coeff=step.mu)) == pytest.approx(0.0, abs=1e-15)
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
        optimal_multiple(w, w.scaled(-1.0))


def test_extract_profile_zero_wave(quad0, lat0):
    tubes, rem, trace = extract_profile(zero_wave(lat0, color="red"), 0.2, quad0)
    assert tubes == [] and mass(rem) == 0.0 and len(trace) == 0


def test_extract_profile_train(quad0, train):
    from conewave.constants import C_DEC, LAMBDA_CAP
    w, theta = train
    delta = 0.2
    tubes, rem, trace = extract_profile(w, delta, quad0, max_iter=100,
                                        dilation_cap=LAMBDA_CAP)
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
    assert trace.steps[-1].mass_after == pytest.approx(mass(rem), rel=1e-9)
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
    F = build_extractor(w.lattice, wit, margin_target=margin(w) - 1 / 32)
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
    assert worst <= EPS_OFF * math.sqrt(mass(F))


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


@settings(max_examples=12, deadline=None)
@given(kind=st.sampled_from(["random", "bump"]), seed=st.integers(0, 10_000),
       x1=st.floats(0.0, 20.0), x2=st.floats(0.0, 20.0))
def test_search_bound_dominates_exact_norm(quad0, lat0, kind, seed, x1, x2):
    # the cell-max bound of every on-grid candidate is at least its exact norm
    from conewave.extraction import OFFSET_SPACING, _TubeSearch
    if kind == "random":
        w = random_colored_wave(lat0, "red", 0, 1 / 20, seed=seed)
    else:
        w = make_red_cube_bump(lat0, (0.0, x1, x2))
    search = _TubeSearch(w, quad0)
    thetas = search_directions()
    bounds = search.upper_bounds(thetas, 1.0)
    rng = np.random.default_rng(seed)
    di = rng.integers(0, len(thetas), 200)
    cells = rng.integers(0, bounds.shape[1], (200, 2))
    exact = search.exact_norms(thetas[di], cells * OFFSET_SPACING)
    assert np.all(bounds[di, cells[:, 0], cells[:, 1]] >= exact)
    # and at the largest bound, the first candidate the search evaluates
    best = np.unravel_index(np.argmax(bounds), bounds.shape)
    top = search.exact_norms(thetas[[best[0]]], np.array([best[1:]]) * OFFSET_SPACING)
    assert bounds[best] >= top[0]
