"""Frequency lattice on the n-torus.

Frequencies live at xi = m / L for integer tuples m in {-N/2, ..., N/2-1}^2,
stored in FFT index order so synthesis is a single inverse FFT.  The spatial
grid is x = j * h with h = L / N.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class FrequencyLattice:
    dimension: int
    size: int          # points per axis N (even)
    box: float         # torus side L
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        if self.dimension != 2:
            raise NotImplementedError("only n=2 is supported")
        if self.size < 16 or self.size % 2:
            raise ValueError("lattice size must be an even integer >= 16")
        if self.spacing > 0.25 + 1e-12:
            raise ValueError("spatial step h = L/N must be <= 1/4")

    @property
    def spacing(self) -> float:
        """Spatial step h."""
        return self.box / self.size

    def _cached(self, key, builder):
        if key not in self._cache:
            self._cache[key] = builder()
        return self._cache[key]

    def x_axis(self) -> np.ndarray:
        return self._cached("x_axis", lambda: self.spacing * np.arange(self.size))

    def wrap(self, delta):
        """Shortest representative of a coordinate difference on the torus."""
        return delta - self.box * np.round(np.asarray(delta) / self.box)

    def zeros(self) -> np.ndarray:
        return np.zeros((self.size, self.size), dtype=np.complex128)


def lattice_for(config, kmax: int) -> FrequencyLattice:
    return FrequencyLattice(config.dimension, config.lattice_size(kmax), config.box)
