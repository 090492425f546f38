import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from conewave.config import RunConfig
from conewave.errors import InfeasibleMarginError
from conewave.geometry import SECTOR_HALF_ANGLE, Tube, unit_dir, wrap_delta
from conewave.lattice import FrequencyLattice, lattice_for
from conewave.waves import (SpectralWave, inner_product, make_blue_tube_wave,
                            make_red_cube_bump, make_red_cube_train, make_wave,
                            plane_wave, random_colored_wave, sector_margin_distance,
                            zero_wave)


# ---------------------------------------------------------------------------
# margin oracle: exhaustive sampling of the sector-annulus boundary

def _boundary_points(n=40000):
    th = np.linspace(-SECTOR_HALF_ANGLE, SECTOR_HALF_ANGLE, n // 4)
    inner = np.stack([np.cos(th), np.sin(th)], axis=1)
    outer = 2.0 * inner
    rr = np.linspace(1.0, 2.0, n // 4)
    ray_hi = rr[:, None] * unit_dir(SECTOR_HALF_ANGLE)[None, :]
    ray_lo = rr[:, None] * unit_dir(-SECTOR_HALF_ANGLE)[None, :]
    return np.concatenate([inner, outer, ray_hi, ray_lo], axis=0)


def margin_distance_oracle(z):
    b = _boundary_points()
    d = np.sqrt(((b - np.asarray(z)[None, :]) ** 2).sum(axis=1))
    return float(d.min())


@pytest.mark.parametrize("z", [(1.5, 0.0), (1.9, 0.0), (1.2, 0.1), (1.7, -0.3),
                               (1.05, 0.02), (1.5, 0.52)])
def test_margin_distance_matches_boundary_oracle(z):
    ana = float(sector_margin_distance(z[0], z[1]))
    ora = margin_distance_oracle(np.array(z))
    if ana > 0:  # oracle only measures unsigned distance
        assert ana == pytest.approx(ora, abs=2e-4)


def test_margin_single_frequency_half_unit(lat0):
    # support exactly at 1.5 e1: distance min(0.5, 0.5, 1.5 sin(pi/8)) = 0.5
    m = int(round(1.5 * lat0.box))
    w = make_wave(lat0, [[m, 0]], [1.0], "red")
    assert w.margin() == pytest.approx(0.5, abs=1e-12)
    assert w.margin() == pytest.approx(margin_distance_oracle(np.array([1.5, 0.0])), abs=2e-4)


def test_margin_two_points_takes_min(lat0):
    m1 = int(round(1.5 * lat0.box))
    m2 = int(round(1.9 * lat0.box))
    w = make_wave(lat0, [[m1, 0], [m2, 0]], [1.0, 1.0], "red")
    assert w.margin() == pytest.approx(2.0 - m2 / lat0.box, abs=1e-12)
    assert abs(w.margin() - 0.1) <= 1.0 / lat0.box


def test_margin_boundary_point_is_zero(lat0):
    w = make_wave(lat0, [[lat0.size // 2 - lat0.size // 4, 0]], [1.0], "red")
    # |xi| = 1 exactly when the mode sits at box distance
    m = int(lat0.box)
    w = make_wave(lat0, [[m, 0]], [1.0], "red")
    assert w.margin() == 0.0


def test_a_wave_is_red_or_blue(lat0):
    for color in ("none", "green"):
        with pytest.raises(ValueError, match="red or blue"):
            make_wave(lat0, [[30, 0]], [1.0], color)
        with pytest.raises(ValueError, match="red or blue"):
            zero_wave(lat0, color)


# ---------------------------------------------------------------------------
# mass

def test_mass_zero_wave(lat0):
    assert zero_wave(lat0, "red").mass() == 0.0


def test_mass_single_coefficient_normalization(lat0):
    w = plane_wave(lat0, (25, 3), lat0.box, "red")  # |c| = L^(n/2)
    assert w.mass() == pytest.approx(1.0, abs=1e-12)


def test_mass_direct_summation_oracle(lat0):
    w = random_colored_wave(lat0, "red", 0, 1 / 20, seed=11)
    direct = sum(abs(v) ** 2 for v in w.vals_plus) / lat0.box ** 2
    assert w.mass() == pytest.approx(direct, rel=1e-12)
    assert w.mass() == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# evaluate / propagation

def test_plane_wave_constant_modulus(lat0):
    w = plane_wave(lat0, (21, -4), 2.0 + 1.0j, "blue")
    f = w.evaluate(0.0)
    assert np.allclose(np.abs(f), np.abs(f).flat[0])


def test_conservation_over_times(small_config, lat0):
    w = random_colored_wave(lat0, "blue", 0, 1 / 20, seed=3)
    ref = math.sqrt(w.mass())
    for t in np.linspace(-small_config.half_window, small_config.half_window, 9):
        n2 = math.sqrt(float((np.abs(w.evaluate(t)) ** 2).sum()) * lat0.spacing ** 2)
        assert abs(n2 - ref) <= 1e-9 * ref


def test_bernstein_sup_bound():
    # the ceiling is calibrated at the default torus (field rms scales as 1/L)
    from conewave.config import RunConfig
    from conewave.constants import C_BERNSTEIN
    lat = lattice_for(RunConfig(), 0)
    worst = 0.0
    for seed in range(20):
        w = random_colored_wave(lat, "red", 0, 1 / 20, seed=seed)
        worst = max(worst, float(np.abs(w.evaluate(0.0)).max()))
    assert worst <= C_BERNSTEIN


# ---------------------------------------------------------------------------
# constructors

def test_bump_centered_and_normalized(lat0):
    from conewave.constants import KAPPA_CUBE
    b = make_red_cube_bump(lat0, (0.0, 5.0, 7.0))
    assert b.mass() == pytest.approx(1.0, abs=1e-12)
    assert b.margin() >= 1.0 / 20.0
    b.validate_support()
    vals = []
    for t in (-0.5, 0.0, 0.5):
        f = np.abs(b.evaluate(t))
        i = slice(int(4.5 / lat0.spacing), int(5.5 / lat0.spacing) + 1)
        j = slice(int(6.5 / lat0.spacing), int(7.5 / lat0.spacing) + 1)
        vals.append(float(f[i, j].min()))
    assert min(vals) >= KAPPA_CUBE


def test_bump_infeasible_margin(lat0):
    with pytest.raises(InfeasibleMarginError):
        make_red_cube_bump(lat0, (0.0, 0.0, 0.0), min_margin=0.6)


def test_blue_packet_concentration(small_config):
    from conewave.constants import KAPPA_TUBE
    for k in (0, 1):
        lat = lattice_for(small_config, k)
        om = unit_dir(0.2)
        psi = make_blue_tube_wave(lat, 0.0, (4.0, 9.0), om, k)
        psi.validate_support()
        assert psi.mass() == pytest.approx(1.0, abs=1e-12)
        for s in (0.0, 2.0 ** (k - 1), -2.0 ** (k - 1)):
            f2 = np.abs(psi.evaluate(s)) ** 2
            c = np.array([4.0, 9.0]) + om * s
            ax = lat.spacing * np.arange(lat.size)
            d1 = wrap_delta(ax - c[0], lat.box)
            d2 = wrap_delta(ax - c[1], lat.box)
            m = (d1 * d1)[:, None] + (d2 * d2)[None, :] <= 1.0
            assert float((f2 * m).sum()) * lat.spacing ** 2 >= KAPPA_TUBE


def test_packet_localization_ball(small_config):
    # at t = 2^(k-1), at least half the slice mass sits within C_LOC of the
    # transported center
    from conewave.constants import C_LOC
    lat = lattice_for(small_config, 1)
    om = unit_dir(-0.1)
    psi = make_blue_tube_wave(lat, 0.0, (10.0, 3.0), om, 1)
    t = 1.0
    f2 = np.abs(psi.evaluate(t)) ** 2
    c = np.array([10.0, 3.0]) + om * t
    ax = lat.spacing * np.arange(lat.size)
    d1 = wrap_delta(ax - c[0], lat.box)
    d2 = wrap_delta(ax - c[1], lat.box)
    m = (d1 * d1)[:, None] + (d2 * d2)[None, :] <= C_LOC ** 2
    assert float((f2 * m).sum()) >= 0.5 * float(f2.sum())


def test_train_single_cube_equals_bump(lat0):
    tube = Tube(0.0, (3.0, 3.0), (1.0, 0.0), half_length=0.4)
    train = make_red_cube_train(lat0, tube, [1.0], seed=0)
    bump = make_red_cube_bump(lat0, (0.0, 3.0, 3.0))
    # same construction up to the +-1 sign
    ratio = train.vals_plus / bump.vals_plus
    assert np.allclose(np.abs(ratio), np.abs(ratio[0]), atol=1e-9)


def test_train_mass_near_coefficient_sum(small_config, lat0):
    tube = Tube(0.0, (6.0, 14.0), tuple(unit_dir(0.2)), half_length=4.0)
    train = make_red_cube_train(lat0, tube, None, seed=1,
                                half_window=small_config.half_window)
    assert 0.5 <= train.mass() <= 2.0
    # sign-flip fluctuation shrinks with cube count; this 9-cube train gets a
    # wider band than the 17-cube default asserted in the acceptance suite
    m2 = make_red_cube_train(lat0, tube, None, seed=2).mass()
    assert abs(m2 - train.mass()) <= 0.2 * train.mass()


def test_train_requires_window_fit(small_config, lat0):
    tube = Tube(0.0, (6.0, 14.0), (1.0, 0.0), half_length=8.0)
    with pytest.raises(ValueError):
        make_red_cube_train(lat0, tube, None, seed=0,
                            half_window=small_config.half_window)


def test_random_wave_deterministic_and_feasible(lat0):
    w1 = random_colored_wave(lat0, "blue", 0, 1 / 20, seed=9)
    w2 = random_colored_wave(lat0, "blue", 0, 1 / 20, seed=9)
    assert np.array_equal(w1.vals_minus, w2.vals_minus)
    assert w1.margin() >= 1 / 20 - 1e-9
    w1.validate_support()
    with pytest.raises(InfeasibleMarginError):
        random_colored_wave(lat0, "red", 0, 0.9, seed=0)


def test_validate_support_catches_bad_modes(lat0):
    w = make_wave(lat0, [[1, 0]], [1.0], "red")  # |xi| tiny
    with pytest.raises(ValueError):
        w.validate_support()
    w2 = make_wave(lat0, [[30, 20]], [1.0], "red")  # outside the e1 sector
    with pytest.raises(ValueError, match="sector"):
        w2.validate_support()


def test_sub_and_embed(small_config, lat0):
    w = random_colored_wave(lat0, "red", 0, 1 / 20, seed=4)
    d = w.sub(w)
    assert d.mass() == 0.0
    fine = lattice_for(small_config, 1)
    we = w.embed(fine)
    assert we.mass() == pytest.approx(w.mass(), rel=1e-12)
    f0 = w.evaluate(0.5)
    f1 = we.evaluate(0.5, fine)
    # same field sampled on the finer grid at the coarse points
    step = fine.size // lat0.size
    assert np.allclose(f1[::step, ::step], f0, atol=1e-9)


def test_sub_of_two_colors_raises(lat0):
    red = random_colored_wave(lat0, "red", 0, 1 / 20, seed=4)
    blue = random_colored_wave(lat0, "blue", 0, 1 / 20, seed=5)
    for a, b in ((red, blue), (blue, red)):
        with pytest.raises(ValueError, match="cannot subtract"):
            a.sub(b)
    assert blue.sub(blue).color == "blue" and blue.sub(blue).mass() == 0.0


def test_sub_of_two_scales_raises(small_config):
    # a k = 0 result would lie outside both operands' frequency annuli
    lat2 = lattice_for(small_config, 2)
    one = random_colored_wave(lat2, "blue", 1, 1 / 20, seed=6)
    two = random_colored_wave(lat2, "blue", 2, 1 / 20, seed=7)
    for a, b in ((one, two), (two, one)):
        with pytest.raises(ValueError, match="cannot subtract a k = "):
            a.sub(b, 0.5)
    d = two.sub(two, 0.5)
    assert d.k == 2 and d.margin() == two.margin()
    d.validate_support()


def _merge_by_unique(m1, v1, m2, v2):
    """The general merge: unique modes, values added in order with np.add.at."""
    uniq, inv = np.unique(np.concatenate([m1, m2]), axis=0, return_inverse=True)
    merged = np.zeros(len(uniq), dtype=np.complex128)
    np.add.at(merged, inv.ravel(), np.concatenate([v1, v2]))
    keep = np.abs(merged) > 0.0
    return uniq[keep], merged[keep]


def test_sub_of_equal_supports_matches_the_general_merge(lat0):
    from conewave.waves import _merge
    w = random_colored_wave(lat0, "red", 0, 1 / 20, seed=8)
    v = make_wave(lat0, w.modes, (0.5 - 0.25j) * w.vals, "red")
    # exact cancellations and signed zeros in both operands
    v1, v2 = w.vals_plus.copy(), v.vals_plus.copy()
    v1[:4] = [complex(-0.0, 1.0), complex(-0.0, -0.0), 2.0 + 0j, complex(1.0, -0.0)]
    v2[:4] = [complex(-0.0, 0.0), complex(-0.0, -0.0), -2.0 + 0j, complex(-1.0, 0.0)]
    m = w.modes_plus
    for a, b in ((v1, v2), (w.vals_plus, -0.3 * v.vals_plus)):
        got, want = _merge(m, a, m, b), _merge_by_unique(m, a, m, b)
        assert np.array_equal(got[0], want[0]) and got[1].tobytes() == want[1].tobytes()
    d = w.sub(v)
    want = _merge_by_unique(m, w.vals_plus, m, -1.0 * v.vals_plus)
    assert np.array_equal(d.modes_plus, want[0])
    assert d.vals_plus.tobytes() == want[1].tobytes()
    # equal arrays with a repeated row, or out of order, negative modes, and
    # an empty operand (the zero wave)
    rep = np.array([[1, 2], [1, 2], [3, 0]])
    unsorted = np.array([[3, 0], [1, 2], [2, 5]])
    negative = np.array([[-3, 4], [-3, -4], [2, -7]])
    a, b = np.array([1.0, 2.0, 3.0j]), np.array([0.5, -3.0, complex(-0.0, -1.0)])
    none, nothing = np.zeros((0, 2), dtype=np.int64), np.zeros(0, dtype=np.complex128)
    for args in ((rep, a, rep, b), (unsorted, a, unsorted, b), (negative, a, unsorted, b),
                 (none, nothing, unsorted, b), (negative, a, none, nothing),
                 (none, nothing, none, nothing)):
        got, want = _merge(*args), _merge_by_unique(*args)
        assert np.array_equal(got[0], want[0]) and got[1].tobytes() == want[1].tobytes()


def test_make_wave_adds_up_repeated_rows(lat0):
    # one wave from a repeated row and an exact zero: mass, field and
    # pairing all see the summed coefficient
    w = make_wave(lat0, [[30, 0], [31, 2], [30, 0]], [1.0, 0.0, 2.0j], "red")
    assert w.modes.tolist() == [[30, 0]] and w.vals.tolist() == [1.0 + 2.0j]
    f = w.evaluate(0.7)
    field_mass = float((np.abs(f) ** 2).sum()) * lat0.spacing ** 2
    assert abs(field_mass - w.mass()) <= 1e-12 * w.mass()
    assert abs(inner_product(w, w) - w.mass()) <= 1e-12 * w.mass()


@pytest.mark.parametrize("n", [16, 160, 640, 1280])
def test_roots_of_unity_match_the_exp_kernels(n):
    from conewave.waves import _roots_of_unity
    rng = np.random.default_rng(n)
    r, c = rng.integers(0, n, 2)
    i1, i2 = rng.integers(0, n, (2, 500))
    phase = (r * i1 + c * i2) % n
    want = np.exp((2j * np.pi / n) * phase)
    assert _roots_of_unity(n)[phase].tobytes() == want.tobytes()
    assert np.array_equal(_roots_of_unity(n), np.exp((2j * np.pi / n) * np.arange(n)))


# ---------------------------------------------------------------------------
# synthesis on a lattice coarser than the band: modes folded mod N

@settings(max_examples=40, deadline=None)
@given(packet=st.booleans(), color=st.sampled_from(["red", "blue"]), k=st.integers(0, 3),
       seed=st.integers(0, 10_000), theta=st.floats(-0.3, 0.3),
       x=st.tuples(st.floats(0.0, 20.0), st.floats(0.0, 20.0)), t=st.floats(-4.0, 4.0))
def test_folded_evaluate_samples_the_fine_field(small_config, packet, color, k, seed,
                                                theta, x, t):
    lat = lattice_for(small_config, k)
    if packet:
        w = make_blue_tube_wave(lat, 0.0, x, unit_dir(theta), k)
        if color == "red":
            w = make_wave(lat, w.modes, w.vals, "red", k)
    else:
        w = random_colored_wave(lat, color, k, 1 / 20, seed)
    # the k = 0 lattice is the coarsest one (h = 1/4): compare it with k = 1
    fine = lattice_for(small_config, max(k, 1))
    half = FrequencyLattice(fine.size // 2, fine.box)
    assume(np.all(w.spread() < half.size))
    want = w.evaluate(t, fine)[::2, ::2]
    got = w.evaluate(t, half)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_evaluate_rejects_modes_sharing_a_residue(small_config):
    lat = lattice_for(small_config, 1)
    half = lattice_for(small_config, 0)          # N = 80
    for modes in ([[-40, 0], [40, 0]], [[30, -40], [30, 40]]):   # spread 80 on one axis
        w = make_wave(lat, modes, [1.0, 1.0], "red")
        with pytest.raises(ValueError):
            w.evaluate(0.0, half)
    # spread 79 on both axes: every mode keeps its own residue
    w = make_wave(lat, [[-40, -40], [39, 39]], [1.0, 1.0], "blue")
    np.testing.assert_allclose(w.evaluate(0.3, half),
                               w.evaluate(0.3, lat)[::2, ::2], rtol=0.0, atol=1e-15)


def _blue_k1():
    """A k = 1 blue wave on the side-40 torus: modes spread over (76, 110)
    integers and reach |m1| = 158, beyond the band of N = 160."""
    lat = lattice_for(RunConfig(), 1)                # N = 320
    w = random_colored_wave(lat, "blue", 1, 1 / 20, seed=5)
    assert tuple(w.spread()) == (76, 110)
    return w


@pytest.mark.parametrize("n", [160, 200, 240])
def test_point_values_are_evaluate_entries_on_folded_lattices(n):
    w = _blue_k1()
    lat = FrequencyLattice(n, w.lattice.box)
    rng = np.random.default_rng(n)
    times = rng.uniform(-8.0, 8.0, 5)
    rows, cols = rng.integers(0, n, (2, 5))
    got = w.point_values(times, rows, cols, lat)
    for t, r, c, v in zip(times, rows, cols, got):
        f = w.evaluate(t, lat)
        assert abs(v - f[r, c]) <= 1e-13 * np.abs(f).max()


def test_point_values_on_a_lattice_too_coarse_for_evaluate():
    # a k = 2 blue wave (N = 640) spreads over (153, 222) integers
    w = random_colored_wave(lattice_for(RunConfig(), 2), "blue", 2, 1 / 20, seed=5)
    coarse = FrequencyLattice(160, w.lattice.box)
    with pytest.raises(ValueError):
        w.evaluate(0.0, coarse)
    step = w.lattice.size // coarse.size
    rng = np.random.default_rng(160)
    times = rng.uniform(-8.0, 8.0, 5)
    rows, cols = rng.integers(0, coarse.size, (2, 5))
    got = w.point_values(times, rows, cols, coarse)
    for t, r, c, v in zip(times, rows, cols, got):
        f = w.evaluate(t)
        assert abs(v - f[step * r, step * c]) <= 1e-13 * np.abs(f).max()


def _dense_pairing(w1, w2):
    """The pairing summed over the band of a lattice that holds both waves of
    one color: each scattered onto its own dense array, then np.vdot."""
    size = 2 * int(max(np.abs(w.modes).max(initial=0) for w in (w1, w2))) + 2
    a, b = (np.zeros((size, size), dtype=np.complex128) for _ in range(2))
    for buf, w in ((a, w1), (b, w2)):
        buf[w.modes[:, 0] % size, w.modes[:, 1] % size] = w.vals
    return np.vdot(b, a) / w1.lattice.box ** 2


def test_inner_product_matches_the_dense_pairing(small_config, lat0):
    red = random_colored_wave(lat0, "red", 0, 1 / 20, seed=21)
    red2 = random_colored_wave(lat0, "red", 0, 0.12, seed=22)
    blue = random_colored_wave(lat0, "blue", 0, 1 / 20, seed=23)
    blue2 = random_colored_wave(lat0, "blue", 0, 0.12, seed=26)
    lat1 = lattice_for(small_config, 1)
    coarse_fine = (random_colored_wave(lat0, "red", 0, 1 / 20, seed=24),
                   random_colored_wave(lat1, "red", 0, 1 / 20, seed=25))
    pairs = [(red, red2), (red2, red), (red, red), (blue, blue2), (blue2, blue),
             coarse_fine]
    for w1, w2 in pairs:
        want = _dense_pairing(w1, w2)
        got = inner_product(w1, w2)
        assert abs(got - want) <= 1e-12 * abs(want)
        if w1 is w2:
            assert abs(got - w1.mass()) <= 1e-12 * w1.mass()
    # a red and a blue wave share sector modes but no cone side
    assert inner_product(red, blue) == 0.0


def test_inner_product_rejects_waves_on_different_tori(small_config):
    w = random_colored_wave(lattice_for(small_config, 0), "red", 0, 1 / 20, seed=3)
    other = make_wave(FrequencyLattice(w.lattice.size, 0.5 * w.lattice.box),
                      w.modes, w.vals, "red")
    for a, b in ((w, other), (other, w)):
        with pytest.raises(ValueError):
            inner_product(a, b)
        with pytest.raises(ValueError):
            a.sub(b)


# ---------------------------------------------------------------------------
# the column-pruned transform against ifft2, bit for bit

def _ifft2_field(w, t, lat):
    """The field as one full ifft2 of the scattered coefficients."""
    import scipy.fft
    return scipy.fft.ifft2(w._scatter(t, lat, (lat.size / lat.box) ** 2))


def _bit_cases(config):
    lat0 = lattice_for(config, 0)
    for k in range(4):
        lat = lattice_for(config, k)
        for color in ("red", "blue"):
            yield random_colored_wave(lat, color, k, 1 / 20, seed=40 + k), (lat,)
    lat1 = lattice_for(config, 1)
    packet = make_blue_tube_wave(lat1, 0.5, (3.0, 7.0), unit_dir(0.2), 1)
    yield packet, (lat1,)
    blue = random_colored_wave(lat1, "blue", 1, 1 / 20, seed=50)
    yield blue.sub(packet, 0.3 - 0.2j), (lat1,)
    # embedded on the k = 2 lattice, then folded onto coarser ones
    lat2 = lattice_for(config, 2)
    embedded = random_colored_wave(lat0, "red", 0, 1 / 20, seed=51).embed(lat2)
    yield embedded, (lat2, lat1, lat0)
    yield zero_wave(lat0, "red"), (lat0,)
    yield plane_wave(lat1, (7, -3), 1.5 - 0.5j, "blue"), (lat1, lat0)


@pytest.mark.parametrize("default", [False, True])
def test_evaluate_equals_ifft2_bit_for_bit(small_config, default):
    from conewave.config import RunConfig
    config = RunConfig() if default else small_config
    cases = 0
    for w, lattices in _bit_cases(config):
        for lat in lattices:
            for t in (-config.half_window, -1.25, 0.0, 0.3, 2.75):
                got = w.evaluate(t, lat)
                assert got.tobytes() == _ifft2_field(w, t, lat).tobytes()
                cases += 1
    assert cases == 5 * 16


# ---------------------------------------------------------------------------
# synthesis: no state shared across failures or threads

def test_evaluate_after_failed_transform_is_clean(small_config, monkeypatch):
    import conewave.waves as waves_mod
    lat = lattice_for(small_config, 1)
    red = random_colored_wave(lat, "red", 1, 1 / 20, seed=11)
    blue = random_colored_wave(lat, "blue", 1, 1 / 20, seed=12)
    real_ifft = waves_mod._fft.ifft
    calls = []

    def failing_once(*args, **kwargs):
        calls.append(1)
        if len(calls) == 1:
            raise RuntimeError("injected transform failure")
        return real_ifft(*args, **kwargs)

    monkeypatch.setattr(waves_mod._fft, "ifft", failing_once)
    with pytest.raises(RuntimeError):
        red.evaluate(0.3, lat)
    got = blue.evaluate(0.7, lat)
    want = blue.evaluate(0.7, lattice_for(small_config, 1))
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-14)


def test_evaluate_threads_match_serial(small_config):
    import threading
    lat = lattice_for(small_config, 1)
    ws = [random_colored_wave(lat, "red", 1, 1 / 20, seed=21),
          random_colored_wave(lat, "blue", 1, 1 / 20, seed=22)]
    times = small_config.time_samples()
    fresh = lattice_for(small_config, 1)
    serial = [[w.evaluate(t, fresh) for t in times] for w in ws]
    results = [None, None]
    barrier = threading.Barrier(2)

    def run(j):
        barrier.wait()
        results[j] = [ws[j].evaluate(t, lat) for t in times]

    threads = [threading.Thread(target=run, args=(j,)) for j in range(2)]
    for th in threads:
        th.start()
    for th in threads:
        th.join()
    for j in range(2):
        for got, want in zip(results[j], serial[j]):
            np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-14)


# ---------------------------------------------------------------------------
# sector modes from the annulus's mode box

def _full_grid_sector(lat, k):
    """Mode grids and sector margins over the whole lattice."""
    half = lat.size // 2
    m = np.arange(-half, half)
    m1, m2 = np.meshgrid(m, m, indexing="ij")
    scale = 2.0 ** (-k) / lat.box
    return m1, m2, sector_margin_distance(m1 * scale, m2 * scale)


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_sector_modes_match_full_grid_scan(k):
    from conewave.config import RunConfig
    from conewave.waves import _sector_modes
    lat = lattice_for(RunConfig(), k)
    m1, m2, d_full = _full_grid_sector(lat, k)
    for margin_ in (0.0, 1 / 20, 1 / 18, 0.3):
        sel = d_full >= margin_ - 1e-12
        modes, d = _sector_modes(lat, k, margin_)
        # same modes in the same order, same margins, bit for bit
        assert np.array_equal(modes, np.stack([m1[sel], m2[sel]], axis=1))
        assert np.array_equal(d, d_full[sel])


def test_random_waves_match_full_grid_construction():
    # one hash over k = 0..3, red and blue: the seeded waves equal waves drawn
    # on the modes of a full-lattice scan
    import hashlib
    from conewave.config import RunConfig
    got, want = hashlib.sha256(), hashlib.sha256()
    for k in range(4):
        lat = lattice_for(RunConfig(), k)
        m1, m2, d_full = _full_grid_sector(lat, k)
        sel = d_full >= 1 / 20 - 1e-12
        modes = np.stack([m1[sel], m2[sel]], axis=1)
        for j, color in enumerate(("red", "blue")):
            seed = 100 * k + j
            w = random_colored_wave(lat, color, k, 1 / 20, seed=seed)
            rng = np.random.default_rng(seed)
            vals = rng.standard_normal(len(modes)) + 1j * rng.standard_normal(len(modes))
            ref = make_wave(lat, modes, vals, color, k).normalize_mass(1.0)
            for h, v in ((got, w), (want, ref)):
                for a in (v.modes_plus, v.vals_plus, v.modes_minus, v.vals_minus):
                    h.update(a.tobytes())
    assert got.hexdigest() == want.hexdigest()


def test_sector_waves_reject_negative_margin(lat0):
    with pytest.raises(ValueError):
        random_colored_wave(lat0, "red", 0, -0.1, seed=1)
