"""End-to-end assembly: universal tube family, bilinear verification over the
tube complement, time-interval fungibility splitting, and the sharpness table.

The universal family is computed once from the forward-cone wave alone (at the
boosted accuracy delta' = delta^C / C) and reused verbatim for every
backward-cone wave in a verification suite; the whole point is that the family
does not depend on the partner wave.

Every suite sum runs in ``verify_profile``, on the grid that its input picks:
the lattice grid when tubes are excluded (their masks live there), otherwise
``exact_product_quadrature``'s, where full-window sums are exact; interval
ratios are read off its slice sums.  Generated waves live on ``lattice_for``.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .config import RunConfig
from .extraction import extract_profile
from .geometry import Tube, dir_angle, unit_dir
from .lattice import lattice_for
from .norms import Quadrature, exact_product_quadrature, product_densities, \
    tube_slice_maxima
from .waves import SpectralWave, make_blue_tube_wave, make_red_cube_train, \
    random_colored_wave

COMPOSITION_EXPONENT = 2.0     # delta' = delta^C / C
DEFAULT_KS = (0, 1, 2, 3)
TRAIN_THETA = math.radians(12.0)     # axis of the standard cube train
TRAIN_X0 = (10.0, 20.0)


def matched_train(config: RunConfig, k: int, seed: int = 42,
                  theta: float = TRAIN_THETA, x0=TRAIN_X0):
    """(train, tube): the unit-mass cube train along the tube of half length
    min(2^k, window) from x0 at angle theta, the train matched to the scale-k
    packet, on the k=0 lattice."""
    tube = Tube(0.0, tuple(x0), tuple(unit_dir(theta)),
                half_length=min(2.0 ** k, config.half_window))
    train = make_red_cube_train(lattice_for(config, 0), tube, None, seed=seed)
    return train.normalize_mass(1.0), tube


def standard_train(config: RunConfig, seed: int = 42):
    """The standard cube train: the scale-3 matched train (half length 8)."""
    return matched_train(config, 3, seed)


@dataclass(frozen=True)
class PsiSpec:
    """Recipe for one verification partner wave."""
    kind: str                  # "random" | "packet"
    k: int
    seed: int = 0
    t0: float = 0.0
    x0: tuple = (0.0, 0.0)
    theta: float = 0.0

    def build(self, config: RunConfig) -> SpectralWave:
        lat = lattice_for(config, self.k)
        if self.kind == "random":
            return random_colored_wave(lat, "blue", self.k, 1.0 / 20.0, self.seed)
        if self.kind == "packet":
            return make_blue_tube_wave(lat, self.t0, self.x0, unit_dir(self.theta), self.k)
        raise ValueError(f"unknown psi kind {self.kind!r}")


def standard_suite(seeds_per_k: int = 10, base_seed: int = 1000) -> list:
    """Random partners per frequency scale of DEFAULT_KS plus one packet per
    scale aimed along the standard train."""
    suite = []
    for k in DEFAULT_KS:
        for j in range(seeds_per_k):
            suite.append(PsiSpec("random", k, seed=base_seed + 97 * k + j))
    for k in DEFAULT_KS:
        suite.append(PsiSpec("packet", k, t0=0.0, x0=TRAIN_X0, theta=TRAIN_THETA))
    return suite


@dataclass
class ProfileRecord:
    kind: str
    k: int
    seed: int
    ratio_outside: float
    ratio_full: float
    denom: float = 1.0
    slice_sums: Optional[np.ndarray] = None   # per-time full-grid |phi psi|^2 sums


@dataclass
class ProfileReport:
    delta: float
    tubes: list
    records: list = field(default_factory=list)
    elapsed: float = 0.0

    def max_outside(self) -> float:
        return max((r.ratio_outside for r in self.records), default=0.0)

    def min_adversarial_full(self) -> float:
        vals = [r.ratio_full for r in self.records if r.kind == "packet"]
        return min(vals) if vals else math.inf


def _dedupe_tubes(tubes: list) -> list:
    seen = {}
    for t in tubes:
        key = (round(dir_angle(t.omega) * 1024), round(t.x0[0] * 4), round(t.x0[1] * 4))
        if key not in seen or t.lam > seen[key].lam:
            seen[key] = t
    return list(seen.values())


def universal_tube_family(phi: SpectralWave, delta: float, quad: Quadrature):
    """Partner-independent tube family: ray extraction at the boosted accuracy
    delta' = delta^C / C, with near-duplicate tubes merged."""
    delta_prime = delta ** COMPOSITION_EXPONENT / COMPOSITION_EXPONENT
    tubes, remainder, trace = extract_profile(phi, delta_prime, quad)
    return _dedupe_tubes(tubes), remainder, trace


def _partners_by_scale(suite: list, config: RunConfig):
    """(quad, specs, partner waves) per frequency scale of the suite, in
    increasing k; one scale's partners are built together."""
    by_k: dict = {}
    for spec in suite:
        by_k.setdefault(spec.k, []).append(spec)
    for k in sorted(by_k):
        quad = Quadrature(config, lattice_for(config, k))
        yield quad, by_k[k], [spec.build(config) for spec in by_k[k]]


def verify_profile(phi: SpectralWave, tubes: list, delta: float, suite: list,
                   config: RunConfig, keep_slice_sums: bool = False) -> ProfileReport:
    """Bilinear ratios of phi against every suite wave, over the tube
    complement and over the full window, from one synthesis pass per scale.
    With no tubes the pass runs on ``exact_product_quadrature``'s grid, where
    every mask is None and the full-window sums equal the lattice grid's to
    round-off.

    With keep_slice_sums the per-time full-grid sums ride along on each
    record, letting interval checks reuse the pass."""
    t_start = time.time()
    report = ProfileReport(delta=delta, tubes=list(tubes))
    m_phi = phi.mass()
    for quad, specs, psis in _partners_by_scale(suite, config):
        if not tubes:
            quad = exact_product_quadrature(quad, phi, psis)
        w = quad.cell_weight()
        full = np.zeros((len(psis), len(quad.times)))
        outside = np.zeros_like(full)
        for i, j, mask, dens in product_densities(phi, psis, quad, tuple(tubes)):
            full[j, i] = w * float(dens.sum())
            outside[j, i] = full[j, i] if mask is None else w * float(dens[mask].sum())
        for spec, psi, full_s, out_s in zip(specs, psis, full, outside):
            denom = math.sqrt(m_phi * psi.mass())
            report.records.append(ProfileRecord(
                spec.kind, spec.k, spec.seed,
                ratio_outside=math.sqrt(quad.dt * out_s.sum()) / denom,
                ratio_full=math.sqrt(quad.dt * full_s.sum()) / denom,
                denom=denom,
                slice_sums=full_s if keep_slice_sums else None))
    report.elapsed = time.time() - t_start
    return report


def interval_ratios_from_report(report: ProfileReport, intervals: list,
                                config: RunConfig) -> list:
    """One row per (record, interval [lo, hi)) of the record's bilinear ratio
    over the slices that the interval holds, from the slice sums kept by
    verify_profile."""
    times = config.time_samples()
    rows = []
    for r in report.records:
        if r.slice_sums is None:
            raise ValueError("verify_profile must be run with keep_slice_sums")
        for lo, hi in intervals:
            sel = (times >= lo - 1e-12) & (times < hi - 1e-12)
            ratio = math.sqrt(config.dt * float(r.slice_sums[sel].sum())) / r.denom
            rows.append({"k": r.k, "seed": r.seed, "kind": r.kind,
                         "t_lo": lo, "t_hi": hi, "ratio": ratio})
    return rows


# ---------------------------------------------------------------------------
# fungibility

def tube_sup_profile(phi: SpectralWave, tubes: list, quad: Quadrature) -> np.ndarray:
    """g(t) = sum over tubes of (max over the tube's t-slice of |phi|)^2:
    the squared columns of ``tube_slice_maxima``, added in tube order."""
    g = np.zeros(len(quad.times))
    for m in tube_slice_maxima(phi, tubes, quad).T:
        g += m * m
    return g


def split_window(g: np.ndarray, delta: float, quad: Quadrature) -> list:
    """Left-to-right greedy split of the window into half-open intervals with
    integral of g at most delta^2 each (single-step overshoots become their
    own short interval)."""
    times = quad.times
    intervals = []
    lo = times[0]
    acc = 0.0
    for i, t in enumerate(times):
        inc = quad.dt * g[i]
        if acc + inc > delta * delta and t > lo:
            intervals.append((lo, t))
            lo = t
            acc = 0.0
        acc += inc
    intervals.append((lo, times[-1] + quad.dt))
    return intervals


def fungibility_partition(phi: SpectralWave, tubes: list, delta: float,
                          quad: Quadrature) -> list:
    """``split_window`` of the tube profile g of phi."""
    return split_window(tube_sup_profile(phi, tubes, quad), delta, quad)


# ---------------------------------------------------------------------------
# sharpness

def sharpness_experiment(config: RunConfig, ks=DEFAULT_KS, seeds=(42,),
                         theta: float = TRAIN_THETA, x0=TRAIN_X0) -> list:
    """Matched packet/train pairs per frequency scale: the plain bilinear
    ratio and the L^p ratio rescaled by the frequency-gap factor."""
    p = 5.0 / 3.0          # (n + 3) / (n + 1) in R^{1+n} at n = 2
    rows = []
    for k in ks:
        lat = lattice_for(config, k)
        quad = Quadrature(config, lat)
        for seed in seeds:
            train, _ = matched_train(config, k, seed, theta=theta, x0=x0)
            psi = make_blue_tube_wave(lat, 0.0, x0, unit_dir(theta), k)
            denom = math.sqrt(train.mass() * psi.mass())
            # rho and the L^p norm from one pass over the densities
            w = quad.cell_weight()
            sums = np.zeros(len(quad.times))
            lp_total = 0.0
            for i, _, _, dens in product_densities(train, (psi,), quad):
                sums[i] = w * float(dens.sum())
                lp_total += w * float(np.power(dens, 0.5 * p).sum())
            rho = math.sqrt(quad.dt * float(sums.sum())) / denom
            lp = (quad.dt * lp_total) ** (1.0 / p)
            lp_scaled = lp * 2.0 ** (-k * (1.0 / p - 0.5)) / denom
            rows.append({"k": k, "seed": seed, "rho": rho,
                         "lp_scaled": lp_scaled, "p": p})
    return rows
