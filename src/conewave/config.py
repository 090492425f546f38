"""Run configuration: spatial torus, time window, quadrature step.

All norms in this package are plain Riemann sums on the grid fixed here, so a
config pins the *definition* of every reported number, not just its accuracy.
Defaults are chosen so that

* the torus is large enough that counter-propagating packets meet at most once
  inside the window (box >= 2 * window length + slack),
* unit cubes are grid-aligned (box and 1/spatial-step are integers),
* a frequency-2^k wave fits on the lattice returned by ``lattice_size``:
  max representable |xi| = N / (2 L) = 2^(k+1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DEFAULT_BOX = 40.0
DEFAULT_HALF_WINDOW = 8.0
DEFAULT_DT = 0.25


@dataclass(frozen=True)
class RunConfig:
    box: float = DEFAULT_BOX            # torus side L
    half_window: float = DEFAULT_HALF_WINDOW
    dt: float = DEFAULT_DT

    def __post_init__(self):
        if not 0.0 < self.dt <= 0.25 + 1e-12:
            raise ValueError(f"time step must lie in (0, 1/4], got {self.dt}")
        if not self.half_window > 0.0:
            raise ValueError(f"half window must be positive, got {self.half_window}")
        steps = 2.0 * self.half_window / self.dt
        if abs(steps - round(steps)) > 1e-9:
            raise ValueError("dt must evenly divide the window length")
        if abs(self.box - round(self.box)) > 1e-9:
            raise ValueError("box must be an integer (unit-cube alignment)")

    @property
    def num_steps(self) -> int:
        return int(round(2.0 * self.half_window / self.dt))

    def time_samples(self) -> np.ndarray:
        """Left-endpoint quadrature nodes; dt * len spans the window exactly."""
        return -self.half_window + self.dt * np.arange(self.num_steps)

    def lattice_size(self, kmax: int) -> int:
        """Points per axis resolving frequencies up to 2^(kmax+1)."""
        n = int(round(4.0 * self.box)) * (2 ** kmax)
        return n
