"""Wave files: binary CWAV1 format with a JSON sidecar.

Layout: magic b"CWAV1", uint32 dimension, uint32 points-per-axis N, float64
box length, uint8 color (0 none / 1 red / 2 blue), int32 frequency exponent k,
then 2 * N^2 little-endian complex64 coefficients: the forward-cone block
followed by the backward-cone block, each in frequency-lexicographic order
(mode m1 from -N/2 to N/2-1 outer, m2 inner).  The sidecar <path>.json mirrors
the header fields.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

from .lattice import FrequencyLattice
from .waves import SpectralWave, make_wave

MAGIC = b"CWAV1"
_COLOR_CODE = {"none": 0, "red": 1, "blue": 2}
_CODE_COLOR = {v: k for k, v in _COLOR_CODE.items()}
_HEADER = "<IId B i"


def _dense_lex(wave: SpectralWave, side: str) -> np.ndarray:
    n = wave.lattice.size
    arr = np.zeros((n, n), dtype=np.complex64)
    modes = wave.modes_plus if side == "plus" else wave.modes_minus
    vals = wave.vals_plus if side == "plus" else wave.vals_minus
    if len(modes):
        arr[modes[:, 0] + n // 2, modes[:, 1] + n // 2] = vals.astype(np.complex64)
    return arr


def save_wave(wave: SpectralWave, path) -> None:
    path = Path(path)
    n = wave.lattice.size
    header = MAGIC + struct.pack(_HEADER, 2, n,
                                 wave.lattice.box, _COLOR_CODE[wave.color], wave.k)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(_dense_lex(wave, "plus").tobytes())
        fh.write(_dense_lex(wave, "minus").tobytes())
    sidecar = {"magic": MAGIC.decode(), "dimension": 2,
               "points_per_axis": n, "box": wave.lattice.box,
               "color": wave.color, "k": wave.k}
    path.with_suffix(path.suffix + ".json").write_text(json.dumps(sidecar, indent=1))


def load_wave(path) -> SpectralWave:
    """Read a CWAV1 file; ValueError when the file is truncated or padded,
    names a dimension other than 2 or an unknown color, or holds support
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
        raise ValueError(f"{path}: unknown color code {color_code}")
    plus = np.frombuffer(raw, dtype="<c8", count=count, offset=off).reshape(n, n)
    minus = np.frombuffer(raw, dtype="<c8", count=count,
                          offset=off + count * 8).reshape(n, n)
    lattice = FrequencyLattice(n, box)
    half = n // 2
    out = []
    for arr in (plus, minus):
        i1, i2 = np.nonzero(arr)
        modes = np.stack([i1 - half, i2 - half], axis=1)
        out.append((modes, arr[i1, i2].astype(np.complex128)))
    wave = make_wave(lattice, out[0][0], out[0][1], out[1][0], out[1][1],
                     color=_CODE_COLOR[color_code], k=k)
    wave.validate_support()
    return wave
