"""Binary sample files, CSV exports, and tabulated-target CSV input.

Sample files carry a fixed 37-byte header followed by the raw float64
payload::

    bytes 0-3    magic "SRM3"
    bytes 4-7    format version, little-endian uint32 (currently 1)
    bytes 8-11   variate count m, uint32
    bytes 12-15  samples per variate M_t, uint32
    bytes 16-23  time step delta_t, float64
    byte  24     method code (see srm3.simulate.METHOD_CODES)
    bytes 25-32  seed, uint64
    bytes 33-36  realization index, uint32

followed by ``m * M_t`` little-endian float64 values, variate-major.  The
header determines the payload length exactly, so truncation is detectable,
and write/read round-trips are bit-exact.  Writes go to a temporary file in
the target directory and are renamed into place, so a failed run never
leaves a partial sample file behind.
"""

from __future__ import annotations

import csv
import io as _io
import os
import struct
import tempfile

import numpy as np

from .errors import InvalidInputError, SampleCorruptionError, SampleFormatError
from .grids import FrequencyGrid
from .simulate import METHOD_CODES, METHOD_FROM_CODE, SampleRecord
from .spectra import CrossBispectrum, CrossSpectrum

MAGIC = b"SRM3"
VERSION = 1
_HEADER = struct.Struct("<4sIII d B Q I")


def write_samples(path, record: SampleRecord) -> None:
    """Write one record atomically (temp file + rename)."""
    payload = np.ascontiguousarray(record.values, dtype="<f8")
    header = _HEADER.pack(
        MAGIC,
        VERSION,
        record.m,
        record.n_samples,
        record.delta_t,
        METHOD_CODES[record.method],
        record.seed & 0xFFFFFFFFFFFFFFFF,
        record.realization_index,
    )
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(header)
            fh.write(memoryview(payload).cast("B"))
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def read_samples(path) -> SampleRecord:
    """Read a record back; bit-exact inverse of :func:`write_samples`."""
    with open(path, "rb") as fh:
        raw = fh.read(_HEADER.size)
        if len(raw) < _HEADER.size:
            raise SampleFormatError(f"{path}: too short for a sample header")
        magic, version, m, n, delta_t, method_code, seed, idx = _HEADER.unpack(raw)
        if magic != MAGIC:
            raise SampleFormatError(f"{path}: bad magic {magic!r}")
        if version != VERSION:
            raise SampleFormatError(f"{path}: unsupported version {version}")
        if method_code not in METHOD_FROM_CODE:
            raise SampleFormatError(f"{path}: unknown method code {method_code}")
        payload = fh.read(8 * m * n + 1)
    if len(payload) != 8 * m * n:
        raise SampleCorruptionError(
            f"{path}: payload has {len(payload)} bytes, expected {8 * m * n}"
        )
    values = np.frombuffer(payload, dtype="<f8").reshape(m, n)
    return SampleRecord(values, delta_t, METHOD_FROM_CODE[method_code], seed, idx)


def export_csv(path, record: SampleRecord) -> None:
    """Time series as CSV: a time column then one column per variate.

    Values are written with 17 significant digits, enough to reparse the
    exact float64 payload.
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t"] + [f"f{a+1}" for a in range(record.m)])
        for r in range(record.n_samples):
            row = [f"{r * record.delta_t:.17g}"]
            row += [f"{record.values[a, r]:.17g}" for a in range(record.m)]
            writer.writerow(row)


# ----------------------------------------------------------------------
# tabulated targets
# ----------------------------------------------------------------------


def read_spectrum_csv(path_or_text, grid: FrequencyGrid) -> CrossSpectrum:
    """Tabulated cross-spectrum: rows ``k, re(S_11), im(S_11), ..., im(S_mm)``.

    One row per bin, matrix entries row-major, each complex value as a
    re/im column pair (``m*m*2 + 1`` columns total).
    """
    m, N = grid.m, grid.N
    rows = _numeric_rows(path_or_text, 1 + 2 * m * m, "spectrum")
    if len(rows) != N:
        raise InvalidInputError(
            f"spectrum table has {len(rows)} rows, grid wants {N}"
        )
    values = np.zeros((N, m, m), dtype=np.complex128)
    seen = set()
    for row in rows:
        k = _bin_index(row[0], N)
        if k is None or k in seen:
            raise InvalidInputError(f"spectrum table: bad or repeated bin {row[0]:g}")
        seen.add(k)
        flat = row[1::2] + 1j * row[2::2]
        values[k] = flat.reshape(m, m)
    return CrossSpectrum(grid, values)


def read_bispectrum_csv(path_or_text, grid: FrequencyGrid) -> CrossBispectrum:
    """Tabulated cross-bispectrum: rows ``i, j, re(B_111), im(B_111), ...``.

    Tensor entries row-major over the m**3 index triples.  Pairs not listed
    stay zero; the conjugate of each listed pair is filled in automatically
    when the mirrored pair is absent.
    """
    m, N = grid.m, grid.N
    rows = _numeric_rows(path_or_text, 2 + 2 * m**3, "bispectrum")
    values = np.zeros((N, N, m, m, m), dtype=np.complex128)
    listed = set()
    for row in rows:
        i, j = _bin_index(row[0], N), _bin_index(row[1], N)
        if i is None or j is None:
            raise InvalidInputError(
                f"bispectrum table: pair ({row[0]:g}, {row[1]:g}) out of range"
            )
        flat = row[2::2] + 1j * row[3::2]
        values[i, j] = flat.reshape(m, m, m)
        listed.add((i, j))
    for i, j in listed:
        if (j, i) not in listed:
            values[j, i] = np.conj(values[i, j])
    return CrossBispectrum(grid, values)


def _bin_index(value: float, N: int) -> int | None:
    """The bin a table's index column names, or ``None`` if it names none."""
    return int(value) if value.is_integer() and 0 <= value < N else None


def _numeric_rows(path_or_text, width: int, what: str) -> list[np.ndarray]:
    if isinstance(path_or_text, str) and "\n" in path_or_text:
        fh = _io.StringIO(path_or_text)
        close = False
    else:
        fh = open(path_or_text, newline="")
        close = True
    try:
        out = []
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if not row or row[0].lstrip().startswith("#"):
                continue
            if len(row) != width:
                raise InvalidInputError(
                    f"{what} table line {lineno}: expected {width} columns,"
                    f" got {len(row)}"
                )
            try:
                out.append(np.array([float(x) for x in row]))
            except ValueError as exc:
                raise InvalidInputError(f"{what} table line {lineno}: {exc}") from None
        return out
    finally:
        if close:
            fh.close()
