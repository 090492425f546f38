"""Frequency lattice on the 2-torus.

Frequencies live at xi = m / L for integer tuples m in {-N/2, ..., N/2-1}^2,
stored in FFT index order so synthesis is a single inverse FFT.  The spatial
grid is x = j * h with h = L / N.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class FrequencyLattice:
    size: int          # points per axis N (even)
    box: float         # torus side L

    def __post_init__(self):
        if self.size < 16 or self.size % 2:
            raise ValueError("lattice size must be an even integer >= 16")
        if self.spacing > 0.25 + 1e-12:
            raise ValueError("spatial step h = L/N must be <= 1/4")

    @property
    def spacing(self) -> float:
        """Spatial step h."""
        return self.box / self.size

    def zeros(self) -> np.ndarray:
        return np.zeros((self.size, self.size), dtype=np.complex128)


def lattice_for(config, kmax: int) -> FrequencyLattice:
    return FrequencyLattice(config.lattice_size(kmax), config.box)
