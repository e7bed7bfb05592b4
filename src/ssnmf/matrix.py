"""Dense nonnegative matrices: validation at the package boundary, CSV I/O,
and the one JSON writer every report and manifest goes through.

Matrices are plain float64 numpy arrays in row-major order. The helpers here
add the validation the factorization code relies on: shape agreement,
finite nonnegative data and 0/1 masks.
"""

from __future__ import annotations

import json

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
    a = as_matrix(a)
    with open(path, "w", encoding="utf-8") as fh:
        for row in a:
            fh.write(",".join(repr(float(v)) for v in row))
            fh.write("\n")


def write_json(path, payload) -> None:
    """Write as JSON indented by 2 with sorted keys and a final newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_csv(path) -> np.ndarray:
    """Read a comma-separated numeric matrix. Ragged rows are an error."""
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
