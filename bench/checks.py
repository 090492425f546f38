"""Correctness checks for the benchmark workloads.

Each check returns a list of failure messages; an empty list means it holds.
The reference values are computed here with plain numpy from the documented
definitions (field synthesis from modes and coefficients, Riemann sums, torus
distances) or are properties the method must have; none is stored output.
"""

from __future__ import annotations

import math

import numpy as np

import conewave.constants as C

SLICE_RTOL = 1e-12
MASS_RTOL = 1e-9


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


# ---------------------------------------------------------------------------
# independent computations

def synthesize(wave, t: float, n: int, box: float) -> np.ndarray:
    """phi(t, x) = L^-2 sum_m c(m) e^{+-2 pi i t |xi|} e^{2 pi i x.xi} on the
    n x n grid, from the wave's modes and coefficients (no call into the
    program's synthesis)."""
    buf = np.zeros((n, n), dtype=np.complex128)
    for modes, vals, sign in ((wave.modes_plus, wave.vals_plus, 1.0),
                              (wave.modes_minus, wave.vals_minus, -1.0)):
        if len(vals) == 0:
            continue
        rho = np.hypot(modes[:, 0], modes[:, 1]) / box
        np.add.at(buf, (modes[:, 0] % n, modes[:, 1] % n),
                  vals * np.exp(sign * 2j * np.pi * t * rho))
    return np.fft.ifft2(buf) * (n / box) ** 2


def coefficient_mass(wave, box: float) -> float:
    return float(np.sum(np.abs(wave.vals_plus) ** 2)
                 + np.sum(np.abs(wave.vals_minus) ** 2)) / box ** 2


def slice_density_sum(f: np.ndarray, g: np.ndarray, h: float) -> float:
    return h * h * float(np.sum(np.abs(f) ** 2 * np.abs(g) ** 2))


def cube_masses(wave, times, dt: float, n: int, box: float) -> np.ndarray:
    """Riemann-sum mass of the wave in every unit cube [t_i, t_i+1) x
    [a, a+1) x [b, b+1) of the window, by the benchmark's own synthesis."""
    cell = int(round(n / box))
    nb = n // cell
    h = box / n
    t_lo = math.floor(times[0])
    nt = int(math.ceil(times[-1] + dt - 1e-12)) - t_lo
    out = np.zeros((nt, nb, nb))
    for t in times:
        dens = np.abs(synthesize(wave, t, n, box)) ** 2
        out[int(math.floor(t)) - t_lo] += dt * h * h * dens.reshape(
            nb, cell, nb, cell).sum(axis=(1, 3))
    return out


def bad_cube_centers(masses: np.ndarray, t_lo: float, cut: float) -> set:
    return {(t_lo + i + 0.5, a + 0.5, b + 0.5) for i, a, b in zip(*np.where(masses > cut))}


def _torus(d, box):
    return d - box * np.round(d / box)


def in_tube(tube, t: np.ndarray, x: np.ndarray, box: float,
            dilation: float = 1.0) -> np.ndarray:
    """Points (t, x) inside the tube dilated by `dilation`: torus distance to
    the axis within the dilated radius and, for finite tubes, |t - t0| within
    the dilated half length."""
    lam = tube.lam * dilation
    ax = np.asarray(tube.x0) + np.outer(t - tube.t0, tube.omega)
    d = _torus(x - ax, box)
    inside = np.hypot(d[:, 0], d[:, 1]) <= lam * tube.radius + 1e-12
    if tube.half_length is not None:
        inside &= np.abs(t - tube.t0) <= lam * tube.half_length + 1e-12
    return inside


def cube_samples(center, side: float = 1.0, per_axis: int = 5) -> tuple:
    g = np.linspace(-side / 2, side / 2, per_axis)
    tt, x1, x2 = np.meshgrid(g + center[0], g + center[1], g + center[2], indexing="ij")
    return tt.ravel(), np.column_stack([x1.ravel(), x2.ravel()])


def family_residual(anchors, dirs, weights, k: int, box: float,
                    t: np.ndarray, x: np.ndarray) -> np.ndarray:
    """sum_b w_b 1_{T_b}(t, x) for unit tubes anchored at t = 0 with
    half length 2^k."""
    out = np.zeros(len(t))
    half = 2.0 ** k
    for lo in range(0, len(t), 4096):
        tt = t[lo:lo + 4096]
        d = _torus(x[lo:lo + 4096, None, :] - anchors[None] - dirs[None] * tt[:, None, None],
                   box)
        inside = (d * d).sum(axis=2) <= (1.0 + 1e-12) ** 2
        inside &= (np.abs(tt) <= half + 1e-12)[:, None]
        out[lo:lo + 4096] = inside @ weights
    return out


def residual_points(anchors, dirs, k: int, box: float, n_random: int,
                    seed: int) -> tuple:
    """Every tube's axis samples at time spacing 1/2, plus seeded points
    near the tubes and uniform in the slab |t| <= 2^k."""
    rng = np.random.default_rng(seed)
    half = 2.0 ** k
    ts = np.arange(-half, half + 0.25, 0.5)
    t_axis = np.tile(ts, len(anchors))
    x_axis = (np.repeat(anchors, len(ts), axis=0)
              + np.repeat(dirs, len(ts), axis=0) * t_axis[:, None]) % box
    picks = rng.integers(0, len(anchors), n_random)
    t_near = rng.uniform(-half, half, n_random)
    x_near = (anchors[picks] + dirs[picks] * t_near[:, None]
              + rng.uniform(-1.1, 1.1, (n_random, 2))) % box
    t_uni = rng.uniform(-half, half, n_random)
    x_uni = rng.uniform(0.0, box, (n_random, 2))
    return (np.concatenate([t_axis, t_near, t_uni]),
            np.concatenate([x_axis, x_near, x_uni]))


# ---------------------------------------------------------------------------
# bilinear

def check_slice_sums(phi, psi, sums, times, n: int, box: float, indices) -> list:
    """Program slice sums against the benchmark's own synthesis on sampled
    slices, plus Plancherel for both fields on those slices."""
    fails = []
    h = box / n
    m_phi, m_psi = coefficient_mass(phi, box), coefficient_mass(psi, box)
    for i in indices:
        f = synthesize(phi, times[i], n, box)
        g = synthesize(psi, times[i], n, box)
        ref = slice_density_sum(f, g, h)
        if _rel(sums[i], ref) > SLICE_RTOL:
            fails.append(f"N={n} slice {i}: sum {sums[i]!r} vs own synthesis {ref!r}")
        for name, fld, m in (("phi", f, m_phi), ("psi", g, m_psi)):
            if _rel(h * h * float(np.sum(np.abs(fld) ** 2)), m) > MASS_RTOL:
                fails.append(f"N={n} slice {i}: Plancherel fails for {name}")
    return fails


def check_bilinear_ratios(ratios: dict) -> list:
    fails = [f"k={k}: ratio {r:.4f} above C_STAR {C.C_STAR}"
             for k, r in ratios.items() if not r <= C.C_STAR]
    if not ratios[3] <= 2.0 * ratios[0]:
        fails.append(f"k=3 ratio {ratios[3]:.4f} above twice k=0 {ratios[0]:.4f}")
    return fails


def check_sharpness(rows: list) -> list:
    rhos = [r["rho"] for r in rows]
    fails = []
    if not min(rhos) >= C.RHO_MIN:
        fails.append(f"rho {min(rhos):.4f} below RHO_MIN {C.RHO_MIN}")
    if not max(rhos) / min(rhos) <= C.RHO_SPREAD_MAX:
        fails.append(f"rho spread {max(rhos) / min(rhos):.3f} above {C.RHO_SPREAD_MAX}")
    lp = max(r["lp_scaled"] for r in rows)
    if not lp <= C.C_LP_SCALED:
        fails.append(f"scaled Lp ratio {lp:.4f} above {C.C_LP_SCALED}")
    return fails


# ---------------------------------------------------------------------------
# profile

def decrement_floor(delta: float) -> float:
    return C.C_DEC * delta ** 2 / math.log(1.0 / delta)


def check_trace(trace, delta: float) -> list:
    fails = [] if trace.completed else ["extraction hit its iteration cap"]
    floor = decrement_floor(delta)
    for i, s in enumerate(trace.steps):
        if not s.mass_before - s.mass_after >= floor:
            fails.append(f"step {i}: mass drop {s.mass_before - s.mass_after:.3e} "
                         f"below floor {floor:.3e}")
    return fails


def check_remainder(concentration: float, delta: float) -> list:
    if concentration < delta:
        return []
    return [f"remainder concentration {concentration:.4f} not below {delta}"]


def check_profile_records(records: list, delta: float) -> list:
    fails = []
    bound = C.C_V * delta
    floor = C.ADVERSARIAL_MARGIN * bound
    for r in records:
        tag = f"{r.kind} k={r.k} seed={r.seed}"
        if not r.ratio_outside <= bound:
            fails.append(f"{tag}: outside ratio {r.ratio_outside:.4f} above {bound}")
        if not r.ratio_outside <= r.ratio_full * (1.0 + SLICE_RTOL):
            fails.append(f"{tag}: outside ratio above full ratio")
        if r.kind == "packet" and not r.ratio_full > floor:
            fails.append(f"{tag}: adversarial full ratio {r.ratio_full:.4f} not above {floor}")
    return fails


def check_ratio_full(phi, psi, record, times, dt: float, n: int, box: float) -> list:
    """Recompute one record's slice sums and full ratio by own synthesis."""
    h = box / n
    own = np.array([slice_density_sum(synthesize(phi, t, n, box),
                                      synthesize(psi, t, n, box), h) for t in times])
    fails = [f"slice {i}: kept sum {record.slice_sums[i]!r} vs own {own[i]!r}"
             for i in range(len(times)) if _rel(record.slice_sums[i], own[i]) > SLICE_RTOL]
    denom = math.sqrt(coefficient_mass(phi, box) * coefficient_mass(psi, box))
    ratio = math.sqrt(dt * float(own.sum())) / denom
    if _rel(record.ratio_full, ratio) > SLICE_RTOL:
        fails.append(f"full ratio {record.ratio_full!r} vs own {ratio!r}")
    return fails


def check_intervals(intervals: list, rows: list, records: list, t_lo: float,
                    t_hi: float) -> list:
    """The intervals tile [t_lo, t_hi) and the squared interval ratios of each
    record add up to its squared full ratio."""
    fails = []
    if not intervals or intervals[0][0] != t_lo or intervals[-1][1] != t_hi:
        fails.append("intervals do not span the window")
    for (a, b), (c, _) in zip(intervals, intervals[1:]):
        if not (a < b and b == c):
            fails.append(f"intervals [{a}, {b}) and [{c}, ...) do not tile")
    for r in records:
        got = sum(row["ratio"] ** 2 for row in rows
                  if (row["kind"], row["k"], row["seed"]) == (r.kind, r.k, r.seed))
        if _rel(got, r.ratio_full ** 2) > SLICE_RTOL:
            fails.append(f"{r.kind} k={r.k}: interval ratios^2 sum {got!r} vs "
                         f"full {r.ratio_full ** 2!r}")
    return fails


# ---------------------------------------------------------------------------
# blue

def check_cube_mass_total(masses: np.ndarray, mass: float, window: float) -> list:
    total = float(masses.sum())
    if _rel(total, window * mass) > MASS_RTOL:
        return [f"unit-cube masses sum to {total!r}, expected {window * mass!r}"]
    return []


def check_blue_tubes(bad_centers, tubes: list, box: float, delta: float) -> list:
    """Every bad cube meets a 3-dilated tube (5 samples per cube axis) and the
    tube count stays within K_EXC delta^-K_E."""
    fails = []
    budget = C.K_EXC * delta ** -C.K_E
    if not len(tubes) <= budget:
        fails.append(f"{len(tubes)} tubes above budget {budget:.0f}")
    for center in sorted(bad_centers):
        t, x = cube_samples(center)
        if not any(in_tube(tube, t, x, box, 3.0).any() for tube in tubes):
            fails.append(f"bad cube at {center} touches no 3-dilated tube")
    return fails


def check_bad_cube_lists(program_centers, own_centers, delta: float) -> list:
    prog, own = set(program_centers), set(own_centers)
    if prog == own:
        return []
    return [f"delta={delta}: bad cubes differ from own scan "
            f"({len(prog - own)} extra, {len(own - prog)} missing)"]


# ---------------------------------------------------------------------------
# cover

def check_cover(rounds: int, tubes: list, verifier: float, own: float,
                delta: float, need_round: bool) -> list:
    fails = []
    if need_round and rounds < 1:
        fails.append(f"delta={delta}: the greedy loop ran no round")
    if not rounds <= math.ceil(2.0 / delta):
        fails.append(f"delta={delta}: {rounds} rounds above ceil(2/delta)")
    budget = C.K_COV * delta ** -3
    if not len(tubes) <= budget:
        fails.append(f"delta={delta}: {len(tubes)} tubes above budget {budget:.0f}")
    if not verifier <= delta:
        fails.append(f"delta={delta}: verifier residual {verifier:.4f} above delta")
    if not own <= delta:
        fails.append(f"delta={delta}: brute-force residual {own:.4f} above delta")
    return fails


def brute_force_residual(family, tubes: list, n_random: int, seed: int) -> float:
    """Largest residual weighted sum at the benchmark's own points outside
    every exceptional tube."""
    anchors = np.array([t.x0 for t in family.tubes], dtype=float)
    dirs = np.array([t.omega for t in family.tubes], dtype=float)
    t, x = residual_points(anchors, dirs, family.k, family.box, n_random, seed)
    keep = np.ones(len(t), dtype=bool)
    for tube in tubes:
        keep &= ~in_tube(tube, t, x, family.box)
    if not keep.any():
        return 0.0
    res = family_residual(anchors, dirs, np.asarray(family.weights, dtype=float),
                          family.k, family.box, t[keep], x[keep])
    return float(res.max())
