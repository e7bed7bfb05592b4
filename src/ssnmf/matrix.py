"""Dense nonnegative matrices: validation at the package boundary, CSV I/O,
and the one JSON writer every report and manifest goes through.

Matrices are plain float64 numpy arrays in row-major order. The helpers here
add the validation the factorization code relies on: shape agreement,
finite nonnegative data and 0/1 masks.
"""

from __future__ import annotations

import json
import warnings

import numpy as np

from .exceptions import ParseError, ShapeError


def as_matrix(data, name: str = "matrix") -> np.ndarray:
    """Coerce to a 2-D float64 C-contiguous array."""
    arr = np.ascontiguousarray(data, dtype=np.float64)
    if arr.ndim != 2:
        raise ShapeError(f"{name} must be 2-D, got ndim={arr.ndim}")
    return arr


def _reject(a: np.ndarray, bad: np.ndarray, name: str, want: str) -> None:
    if np.any(bad):
        idx = tuple(int(i) for i in np.argwhere(bad)[0])
        raise ShapeError(f"{name} must be {want}, found {float(a[idx])} at {idx}")


def check_nonnegative(a: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Reject negative, NaN and infinite entries, naming the first one."""
    _reject(a, ~((a >= 0) & (a < np.inf)), name, "entrywise finite and nonnegative")
    return a


def as_mask(mask, like: np.ndarray, name: str, like_name: str):
    """Coerce an optional mask for the matrix `like`; None stays None.

    Masks are 0/1 indicators (keep or drop an entry). The multiplicative
    updates are the objective's descent steps only for such masks.
    """
    if mask is None:
        return None
    mask = as_matrix(mask, name)
    if mask.shape != like.shape:
        raise ShapeError(
            f"{name} shape {mask.shape} does not match {like_name} shape {like.shape}"
        )
    _reject(mask, (mask != 0) & (mask != 1), name, "a 0/1 mask")
    return mask


def write_csv(path, a) -> None:
    """Write as comma-separated rows, no header, full float64 precision."""
    with open(path, "w", encoding="utf-8") as fh:
        # one row of Python floats at a time: the whole matrix as a list
        # would hold about 32 bytes per entry at once
        for row in as_matrix(a):
            fh.write(",".join(map(repr, row.tolist())))
            fh.write("\n")


def write_json(path, payload) -> None:
    """Write as JSON indented by 2 with sorted keys and a final newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


# Python's float refuses these ASCII separators next to a number, but numpy's
# parser strips them as whitespace; a line holding one takes the per-line reader
_SEPARATORS = ("\x1c", "\x1d", "\x1e", "\x1f")


def _plain_lines(fh):
    for line in fh:
        if any(c in line for c in _SEPARATORS):
            raise ValueError("line holds an ASCII separator")
        yield line


def read_csv(path) -> np.ndarray:
    """Read a comma-separated numeric matrix. Ragged rows are an error.

    numpy's C parser reads the file. It converts each field to the same
    double as Python's float. Whatever it refuses, and a file without data,
    is read again line by line: that reader defines the accepted form and
    names the line of every error.
    """
    with open(path, "r", encoding="utf-8") as fh, warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        # lines of the file opened here, not its path: numpy would open a
        # path itself, decompressing .gz files and fetching URLs
        try:
            a = np.loadtxt(_plain_lines(fh), dtype=np.float64, delimiter=",",
                           comments=None, ndmin=2)
            if a.size:
                return a
        except ValueError:
            pass
    return _read_csv_lines(path)


def _read_csv_lines(path) -> np.ndarray:
    """read_csv one Python float at a time, line by line."""
    rows = []
    width = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            fields = line.split(",")
            if width is None:
                width = len(fields)
            elif len(fields) != width:
                raise ParseError(
                    f"{path}: line {lineno} has {len(fields)} fields, "
                    f"expected {width}"
                )
            try:
                rows.append([float(f) for f in fields])
            except ValueError as exc:
                raise ParseError(f"{path}: line {lineno}: {exc}") from None
    if not rows:
        raise ParseError(f"{path}: no data rows")
    return np.array(rows, dtype=np.float64)
