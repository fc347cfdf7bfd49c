"""Bit-packed linear algebra over GF(2).

Rows are stored as Python ints, bit j of a row is column j. Addition is xor,
so row operations cost one machine word operation per word of packed bits.
All operations are pure functions on immutable matrices. `unsolved_counts`
runs the same elimination on many systems at once, one uint64 row per system.
"""
from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

KERNEL_POWER_CAP = 16
_CHUNK = 1 << 12  # systems per elimination pass: a 2 MiB basis at 64 unknowns


class BitMatrix:
    """Dense GF(2) matrix. Immutable after construction."""

    __slots__ = ("rows", "cols", "_data")

    def __init__(self, rows: int, cols: int, data: Iterable[int]):
        if rows < 1 or cols < 1:
            raise ValueError("matrix must have at least one row and one column")
        packed = tuple(r & ((1 << cols) - 1) for r in data)
        if len(packed) != rows:
            raise ValueError(f"expected {rows} rows, got {len(packed)}")
        self.rows = rows
        self.cols = cols
        self._data = packed

    @classmethod
    def identity(cls, n: int) -> "BitMatrix":
        return cls(n, n, [1 << i for i in range(n)])

    def row(self, i: int) -> int:
        """Packed row i (0-based)."""
        return self._data[i]

    def submatrix(self, row_idx: Sequence[int], col_idx: Sequence[int]) -> "BitMatrix":
        """Submatrix with the given 0-based row and column indices, in order."""
        data = []
        for i in row_idx:
            src = self._data[i]
            data.append(sum((1 << b) for b, j in enumerate(col_idx) if (src >> j) & 1))
        return BitMatrix(len(row_idx), len(col_idx), data)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BitMatrix):
            return NotImplemented
        return (self.rows, self.cols, self._data) == (other.rows, other.cols, other._data)

    def __repr__(self) -> str:
        return f"BitMatrix({self.rows}x{self.cols})"


def kernel_power(m: int) -> BitMatrix:
    """m-fold Kronecker power of the 2x2 lower-triangular binary kernel.

    Row r of the next power is [r, 0] on top and [r, r] below, so the matrix
    doubles in both dimensions per level. Capped to keep memory bounded.
    """
    if m < 0:
        raise ValueError("level count must be non-negative")
    if m > KERNEL_POWER_CAP:
        raise ValueError(f"level count capped at {KERNEL_POWER_CAP}")
    rows = [1]
    for _ in range(m):
        half = len(rows)
        rows = rows + [r | (r << half) for r in rows]
    return BitMatrix(len(rows), len(rows), rows)


def kernel_entry(row: int, col: int) -> int:
    """Entry (row, col), 0-based, of any kernel power large enough to hold it.

    The Kronecker structure makes the entry 1 exactly when the column's bit
    pattern is a subset of the row's.
    """
    return 1 if (col & ~row) == 0 else 0


def multiply(a: BitMatrix, b: BitMatrix) -> BitMatrix:
    """Matrix product over GF(2)."""
    if a.cols != b.rows:
        raise ValueError(f"dimension mismatch: {a.cols} vs {b.rows}")
    brows = [b.row(i) for i in range(b.rows)]
    return BitMatrix(a.rows, b.cols, [xor_rows(a.row(i), brows) for i in range(a.rows)])


def ones(mask: int) -> list[int]:
    """1-based positions of the set bits of mask, lowest first."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length())
        mask ^= low
    return out


def xor_rows(mask: int, rows: Sequence[int]) -> int:
    """Xor of rows[t] over each set bit t of mask, bit 0 selecting rows[0];
    0 when mask is 0."""
    acc = 0
    for t in ones(mask):
        acc ^= rows[t - 1]
    return acc


def reduce_echelon(rows: Iterable[int]) -> list[int]:
    """Canonical reduced echelon basis of the row space, sorted by pivot bit.

    Pivot of a row is its lowest set bit; every basis row is the only one with
    its pivot set. The result depends only on the row span, not on row order.
    """
    basis: dict[int, int] = {}
    for r in rows:
        for p, q in basis.items():
            if r & p:
                r ^= q
        if not r:
            continue
        p = r & -r
        for pk in list(basis):
            if basis[pk] & p:
                basis[pk] ^= r
        basis[p] = r
    return [basis[p] for p in sorted(basis)]


def reduce_augmented(rows: Iterable[tuple[int, int]]) -> list[tuple[int, int]]:
    """Same elimination as reduce_echelon, carrying a right-hand side through.

    Each row is (coefficient bits, rhs) and both halves are xored together, so
    a resulting unit row pins its unknown to the accumulated rhs.
    """
    basis: dict[int, tuple[int, int]] = {}
    for r, rhs in rows:
        for p, (q, qrhs) in basis.items():
            if r & p:
                r ^= q
                rhs ^= qrhs
        if not r:
            continue
        p = r & -r
        for pk in list(basis):
            qk, qkrhs = basis[pk]
            if qk & p:
                basis[pk] = (qk ^ r, qkrhs ^ rhs)
        basis[p] = (r, rhs)
    return [basis[p] for p in sorted(basis)]


def unsolved_counts(columns: Sequence[int], unknowns: np.ndarray,
                    dropped: np.ndarray) -> np.ndarray:
    """Per system i, how many of the unknowns set in unknowns[i] stay unsolved
    by the equations columns[j] & unknowns[i] over each j whose bit is clear
    in dropped[i]; both arrays are uint64.

    This is the weight-1 row count of reduce_echelon, run on a batch. Equations
    go in one at a time, as in on-the-fly Gaussian elimination (Bioglio,
    Grangetto and Gaeta, IEEE Comm. Letters 2009), and each system keeps its
    reduced basis in row b of a (width, chunk) array, b being the pivot bit.
    """
    out = np.empty(len(unknowns), dtype=np.int64)
    for start in range(0, len(unknowns), _CHUNK):
        part = slice(start, start + _CHUNK)
        out[part] = _unsolved_chunk(columns, unknowns[part], dropped[part])
    return out


def _unsolved_chunk(columns: Sequence[int], unknowns: np.ndarray,
                    dropped: np.ndarray) -> np.ndarray:
    one = np.uint64(1)
    width = int(np.bitwise_or.reduce(unknowns, initial=0)).bit_length()
    basis = np.zeros((width, len(unknowns)), dtype=np.uint64)
    pivots = 0  # pivot bits held by at least one system
    for j, col in enumerate(columns):
        r = unknowns & np.uint64(col)
        r *= ~(dropped >> np.uint64(j)) & one
        held = [(basis[b - 1], np.uint64(b - 1)) for b in ones(pivots)]
        for row, shift in held:
            r ^= row * ((r >> shift) & one)
        low = r & -r
        if not low.any():
            continue
        for row, _ in held:
            row ^= r * ((row & low) != 0)
        new = low.nonzero()[0]
        basis[np.bitwise_count(low[new] - one), new] = r[new]
        pivots |= int(np.bitwise_or.reduce(low))
    solved = np.zeros_like(unknowns)
    for b in ones(pivots):
        row = basis[b - 1]
        solved |= row * (row == np.uint64(1 << (b - 1)))
    return np.bitwise_count(unknowns & ~solved)
