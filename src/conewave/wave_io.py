"""Wave files: binary CWAV1 format with a JSON sidecar.

Layout: magic b"CWAV1", uint32 dimension, uint32 points-per-axis N, float64
box length, uint8 color (1 red / 2 blue), int32 frequency exponent k, then
2 * N^2 little-endian complex64 coefficients: the forward-cone block followed
by the backward-cone block, each in frequency-lexicographic order (mode m1
from -N/2 to N/2-1 outer, m2 inner).  A red wave fills the forward block and
a blue wave the backward block; the other block is zero.  The sidecar
<path>.json mirrors the header fields.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

from .lattice import FrequencyLattice
from .waves import SpectralWave, make_wave

MAGIC = b"CWAV1"
_COLOR_CODE = {"red": 1, "blue": 2}
_CODE_COLOR = {v: k for k, v in _COLOR_CODE.items()}
_HEADER = "<IId B i"


def save_wave(wave: SpectralWave, path) -> None:
    path = Path(path)
    n = wave.lattice.size
    header = MAGIC + struct.pack(_HEADER, 2, n,
                                 wave.lattice.box, _COLOR_CODE[wave.color], wave.k)
    with open(path, "wb") as fh:
        fh.write(header)
        for modes, vals in ((wave.modes_plus, wave.vals_plus),
                            (wave.modes_minus, wave.vals_minus)):
            block = np.zeros((n, n), dtype=np.complex64)
            block[modes[:, 0] + n // 2, modes[:, 1] + n // 2] = vals
            fh.write(block.tobytes())
    sidecar = {"magic": MAGIC.decode(), "dimension": 2,
               "points_per_axis": n, "box": wave.lattice.box,
               "color": wave.color, "k": wave.k}
    path.with_suffix(path.suffix + ".json").write_text(json.dumps(sidecar, indent=1))


def load_wave(path) -> SpectralWave:
    """Read a CWAV1 file; ValueError when the file is truncated or padded,
    names a dimension other than 2 or a color other than red and blue, holds
    a coefficient on the cone side its color does not hold, or holds support
    outside its color's sector."""
    path = Path(path)
    raw = path.read_bytes()
    if raw[:5] != MAGIC:
        raise ValueError(f"{path} is not a CWAV1 file")
    off = 5 + struct.calcsize(_HEADER)
    if len(raw) < off:
        raise ValueError(f"{path}: truncated header ({len(raw)} bytes)")
    dim, n, box, color_code, k = struct.unpack(_HEADER, raw[5:off])
    if dim != 2:
        raise ValueError(f"{path}: dimension {dim}, conewave reads only 2")
    count = n * n
    if len(raw) != off + 2 * count * 8:
        raise ValueError(f"{path}: {len(raw)} bytes, the header of an N={n} "
                         f"wave needs {off + 2 * count * 8}")
    if color_code not in _CODE_COLOR:
        raise ValueError(f"{path}: color code {color_code}, a wave is red (1) or blue (2)")
    color = _CODE_COLOR[color_code]
    plus, minus = np.frombuffer(raw, dtype="<c8", count=2 * count, offset=off).reshape(2, n, n)
    held, other = (plus, minus) if color == "red" else (minus, plus)
    if np.any(other):
        raise ValueError(f"{path}: a {color} wave with coefficients on the other cone side")
    i1, i2 = np.nonzero(held)
    modes = np.stack([i1 - n // 2, i2 - n // 2], axis=1)
    wave = make_wave(FrequencyLattice(n, box), modes, held[i1, i2].astype(np.complex128),
                     color, k)
    wave.validate_support()
    return wave
