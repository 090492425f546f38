import math

import numpy as np
import pytest

from conewave.errors import InfeasibleMarginError, MarginUndefinedError
from conewave.geometry import SECTOR_HALF_ANGLE, Tube, unit_dir
from conewave.lattice import FrequencyLattice, lattice_for
from conewave.waves import (SpectralWave, make_blue_tube_wave, make_red_cube_bump,
                            make_red_cube_train, make_wave, mass, margin,
                            plane_wave, random_colored_wave,
                            sector_margin_distance, zero_wave)


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
    w = make_wave(lat0, [[m, 0]], [1.0], [], [], color="red", k=0)
    assert margin(w) == pytest.approx(0.5, abs=1e-12)
    assert margin(w) == pytest.approx(margin_distance_oracle(np.array([1.5, 0.0])), abs=2e-4)


def test_margin_two_points_takes_min(lat0):
    m1 = int(round(1.5 * lat0.box))
    m2 = int(round(1.9 * lat0.box))
    w = make_wave(lat0, [[m1, 0], [m2, 0]], [1.0, 1.0], [], [], color="red", k=0)
    assert margin(w) == pytest.approx(2.0 - m2 / lat0.box, abs=1e-12)
    assert abs(margin(w) - 0.1) <= 1.0 / lat0.box


def test_margin_boundary_point_is_zero(lat0):
    w = make_wave(lat0, [[lat0.size // 2 - lat0.size // 4, 0]], [1.0], [], [],
                  color="red", k=0)
    # |xi| = 1 exactly when the mode sits at box distance
    m = int(lat0.box)
    w = make_wave(lat0, [[m, 0]], [1.0], [], [], color="red", k=0)
    assert margin(w) == 0.0


def test_margin_requires_color(lat0):
    w = plane_wave(lat0, (30, 0), 1.0)
    with pytest.raises(MarginUndefinedError):
        margin(w)


# ---------------------------------------------------------------------------
# mass

def test_mass_zero_wave(lat0):
    assert mass(zero_wave(lat0)) == 0.0


def test_mass_single_coefficient_normalization(lat0):
    w = plane_wave(lat0, (25, 3), lat0.box)  # |c| = L^(n/2)
    assert mass(w) == pytest.approx(1.0, abs=1e-12)


def test_mass_direct_summation_oracle(lat0):
    w = random_colored_wave(lat0, "red", 0, 1 / 20, seed=11)
    direct = sum(abs(v) ** 2 for v in w.vals_plus) / lat0.box ** 2
    assert mass(w) == pytest.approx(direct, rel=1e-12)
    assert mass(w) == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# evaluate / propagation

def test_plane_wave_constant_modulus(lat0):
    w = plane_wave(lat0, (21, -4), 2.0 + 1.0j)
    f = w.evaluate(0.0)
    assert np.allclose(np.abs(f), np.abs(f).flat[0])


def test_conservation_over_times(small_config, lat0):
    w = random_colored_wave(lat0, "blue", 0, 1 / 20, seed=3)
    ref = math.sqrt(mass(w))
    for t in np.linspace(-small_config.half_window, small_config.half_window, 9):
        n2 = math.sqrt(float((np.abs(w.evaluate(t)) ** 2).sum()) * lat0.spacing ** 2)
        assert abs(n2 - ref) <= 1e-9 * ref


def test_energy_bound_two_sided_disjoint_support(lat0):
    # forward and backward parts on disjoint modes: the slice L^2 norm equals
    # the square root of the mass exactly, at every time
    wp = random_colored_wave(lat0, "red", 0, 1 / 20, seed=5)
    wm = random_colored_wave(lat0, "blue", 0, 1 / 20, seed=6)
    w = make_wave(lat0, wp.modes_plus, wp.vals_plus, wm.modes_minus, wm.vals_minus)
    ref = math.sqrt(mass(w))
    for t in (-3.0, 0.25, 1.75):
        n2 = math.sqrt(float((np.abs(w.evaluate(t)) ** 2).sum()) * lat0.spacing ** 2)
        assert n2 <= (1.0 + 1e-9) * ref


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
    assert mass(b) == pytest.approx(1.0, abs=1e-12)
    assert margin(b) >= 1.0 / 20.0
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
        assert mass(psi) == pytest.approx(1.0, abs=1e-12)
        for s in (0.0, 2.0 ** (k - 1), -2.0 ** (k - 1)):
            f2 = np.abs(psi.evaluate(s)) ** 2
            c = np.array([4.0, 9.0]) + om * s
            ax = lat.x_axis()
            d1 = lat.wrap(ax - c[0])
            d2 = lat.wrap(ax - c[1])
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
    ax = lat.x_axis()
    d1 = lat.wrap(ax - c[0])
    d2 = lat.wrap(ax - c[1])
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
    assert 0.5 <= mass(train) <= 2.0
    # sign-flip fluctuation shrinks with cube count; this 9-cube train gets a
    # wider band than the 17-cube default asserted in the acceptance suite
    m2 = mass(make_red_cube_train(lat0, tube, None, seed=2))
    assert abs(m2 - mass(train)) <= 0.2 * mass(train)


def test_train_requires_window_fit(small_config, lat0):
    tube = Tube(0.0, (6.0, 14.0), (1.0, 0.0), half_length=8.0)
    with pytest.raises(ValueError):
        make_red_cube_train(lat0, tube, None, seed=0,
                            half_window=small_config.half_window)


def test_random_wave_deterministic_and_feasible(lat0):
    w1 = random_colored_wave(lat0, "blue", 0, 1 / 20, seed=9)
    w2 = random_colored_wave(lat0, "blue", 0, 1 / 20, seed=9)
    assert np.array_equal(w1.vals_minus, w2.vals_minus)
    assert margin(w1) >= 1 / 20 - 1e-9
    w1.validate_support()
    with pytest.raises(InfeasibleMarginError):
        random_colored_wave(lat0, "red", 0, 0.9, seed=0)


def test_validate_support_catches_bad_modes(lat0):
    w = make_wave(lat0, [[1, 0]], [1.0], [], [], color="red", k=0)  # |xi| tiny
    with pytest.raises(ValueError):
        w.validate_support()
    w2 = make_wave(lat0, [], [], [[30, 0]], [1.0], color="red", k=0)
    with pytest.raises(ValueError):
        w2.validate_support()


def test_sub_and_embed(small_config, lat0):
    w = random_colored_wave(lat0, "red", 0, 1 / 20, seed=4)
    d = w.sub(w)
    assert mass(d) == 0.0
    fine = lattice_for(small_config, 1)
    we = w.embed(fine)
    assert mass(we) == pytest.approx(mass(w), rel=1e-12)
    f0 = w.evaluate(0.5)
    f1 = we.evaluate(0.5, fine)
    # same field sampled on the finer grid at the coarse points
    step = fine.size // lat0.size
    assert np.allclose(f1[::step, ::step], f0, atol=1e-9)


# ---------------------------------------------------------------------------
# synthesis: no state shared across failures or threads

def test_evaluate_after_failed_transform_is_clean(small_config, monkeypatch):
    import conewave.waves as waves_mod
    lat = lattice_for(small_config, 1)
    red = random_colored_wave(lat, "red", 1, 1 / 20, seed=11)
    blue = random_colored_wave(lat, "blue", 1, 1 / 20, seed=12)
    real_ifft2 = waves_mod._fft.ifft2
    calls = []

    def failing_once(*args, **kwargs):
        calls.append(1)
        if len(calls) == 1:
            raise RuntimeError("injected transform failure")
        return real_ifft2(*args, **kwargs)

    monkeypatch.setattr(waves_mod._fft, "ifft2", failing_once)
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
            side = ((modes, vals), ([], [])) if color == "red" else (([], []), (modes, vals))
            ref = make_wave(lat, *side[0], *side[1], color=color, k=k).normalize_mass(1.0)
            for h, v in ((got, w), (want, ref)):
                for a in (v.modes_plus, v.vals_plus, v.modes_minus, v.vals_minus):
                    h.update(a.tobytes())
    assert got.hexdigest() == want.hexdigest()


def test_sector_waves_reject_negative_margin(lat0):
    with pytest.raises(ValueError):
        random_colored_wave(lat0, "red", 0, -0.1, seed=1)
    tube = Tube(0.0, (6.0, 12.0), (1.0, 0.0), half_length=2.0)
    with pytest.raises(ValueError):
        make_red_cube_train(lat0, tube, None, seed=1, min_margin=-0.01)
