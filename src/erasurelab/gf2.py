"""Bit-packed linear algebra over GF(2).

Rows are stored as Python ints, bit j of a row is column j. Addition is xor,
so row operations cost one machine word operation per word of packed bits.
All operations are pure functions on immutable matrices. `reduce_echelon`
and `reduce_augmented` share one elimination; `unsolved_totals` runs it on
many systems at once, one uint64 row per system.
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
    return _eliminate(rows, -1)


def reduce_augmented(rows: Iterable[int], unknowns: int) -> list[int]:
    """reduce_echelon with pivots only among the bits of `unknowns`: the other
    bits of a packed row ride along as its right-hand side, and a row whose
    unknown bits cancel is dropped. A row with one unknown bit pins it to its
    ride-along bits; with selection bit e on input row e those name the input
    rows it sums, which decode uses as a plan."""
    return _eliminate(rows, unknowns)


def _eliminate(rows: Iterable[int], unknowns: int) -> list[int]:
    """Reduced echelon basis sorted by pivot, the lowest unknown bit of a row."""
    basis: dict[int, int] = {}
    for r in rows:
        for p, q in basis.items():
            if r & p:
                r ^= q
        u = r & unknowns
        if not u:
            continue
        p = u & -u
        for pk in list(basis):
            if basis[pk] & p:
                basis[pk] ^= r
        basis[p] = r
    return [basis[p] for p in sorted(basis)]


def unsolved_totals(columns: Sequence[int], unknowns: np.ndarray, dropped: np.ndarray,
                    weights: np.ndarray) -> list[int]:
    """Entry j, for j = 0..len(columns): the sum over systems i of weights[i]
    times how many of the unknowns set in unknowns[i] stay unsolved by the
    equations columns[c] & unknowns[i] over each c < j whose bit is clear in
    dropped[i]. The arrays hold one entry per system, unknowns and dropped as
    uint64 words, so there are at most 64 unknowns and 64 columns.

    This is the weight-1 row count of reduce_echelon, run on a batch. Equations
    go in one at a time, as in on-the-fly Gaussian elimination (Bioglio,
    Grangetto and Gaeta, IEEE Comm. Letters 2009), and each system keeps its
    reduced basis in row b of a (width, chunk) array, b being the pivot bit.
    A row of weight 1 is never changed again, so each one counts as solved
    from the column that last changed it on.
    """
    weights = np.asarray(weights, dtype=np.int64)
    totals = [0] * (len(columns) + 1)
    for start in range(0, len(unknowns), _CHUNK):
        part = slice(start, start + _CHUNK)
        chunk = _unsolved_chunk(columns, unknowns[part], dropped[part], weights[part])
        totals = [a + b for a, b in zip(totals, chunk)]
    return totals


def _unsolved_chunk(columns: Sequence[int], unknowns: np.ndarray, dropped: np.ndarray,
                    weights: np.ndarray) -> list[int]:
    one = np.uint64(1)
    width = int(np.bitwise_or.reduce(unknowns, initial=0)).bit_length()
    shifts = np.arange(width, dtype=np.uint64)[:, None]
    basis = np.zeros((width, len(unknowns)), dtype=np.uint64)
    changed = np.zeros(basis.shape, dtype=np.uint8)  # columns read when a row last changed
    top = 0  # rows top and above are empty in every system
    for j, col in enumerate(columns, 1):
        r = unknowns & np.uint64(col)
        r *= ~(dropped >> np.uint64(j - 1)) & one
        held = basis[:top]
        # a basis row is zero at every other pivot, so the rows reduce r independently
        r ^= np.bitwise_xor.reduce(held * ((r >> shifts[:top]) & one), axis=0)
        low = r & -r
        if not low.any():
            continue
        hit = (held & low) != 0
        held ^= r * hit
        np.maximum(changed[:top], hit.view(np.uint8) * np.uint8(j), out=changed[:top])
        new = low.nonzero()[0]
        pivot = np.bitwise_count(low[new] - one)
        basis[pivot, new] = r[new]
        changed[pivot, new] = j
        top = max(top, int(np.bitwise_or.reduce(low)).bit_length())
    solved = np.zeros(len(columns) + 1, dtype=np.int64)  # weight newly solved per column
    for b, unit in enumerate(basis == one << shifts):
        np.add.at(solved, changed[b, unit], weights[unit])
    return (int(np.dot(np.bitwise_count(unknowns), weights)) - np.cumsum(solved)).tolist()
