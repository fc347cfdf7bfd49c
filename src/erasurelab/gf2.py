"""Bit-packed linear algebra over GF(2).

Rows are stored as Python ints, bit j of a row is column j. Addition is xor,
so row operations cost one machine word operation per word of packed bits.
`kernel_entry` reads the polar kernel power, `ones` walks the set bits of a
row and `xor_rows` sums the rows a mask selects. `reduce_echelon` and
`reduce_augmented` share one scalar elimination; `unsolved_totals` runs it
on many systems at once, in rank slots, the systems sorted by unknown count.
"""
from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

_CHUNK = 1 << 12  # systems per elimination pass: a 2 MiB basis at 64 unknowns


def kernel_entry(row: int, col: int) -> int:
    """Entry (row, col), 0-based, of any Kronecker power of the 2x2
    lower-triangular kernel [[1, 0], [1, 1]] large enough to hold it.

    The Kronecker structure makes the entry 1 exactly when the column's bit
    pattern is a subset of the row's.
    """
    return 1 if (col & ~row) == 0 else 0


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
    Grangetto and Gaeta, IEEE Comm. Letters 2009). Slot s of a system's basis
    holds its s-th pivot row, next to that row's pivot bit; sorted by unknown
    count, a chunk of systems needs only as many slots as its heaviest system
    has unknowns. A row of weight 1 is never changed again, so each one counts
    as solved from the column that last changed it on.
    """
    weights = np.asarray(weights, dtype=np.int64)
    counts = np.bitwise_count(unknowns)
    order = np.argsort(counts, kind="stable")
    solved = np.zeros(len(columns) + 1, dtype=np.int64)  # weight newly solved per column
    for start in range(0, len(order), _CHUNK):
        part = order[start:start + _CHUNK]
        _solve_chunk(columns, unknowns[part], dropped[part], weights[part], solved)
    return (int(np.dot(counts, weights)) - np.cumsum(solved)).tolist()


def _solve_chunk(columns: Sequence[int], unknowns: np.ndarray, dropped: np.ndarray,
                 weights: np.ndarray, solved: np.ndarray) -> None:
    """Add to solved[j] the weight of the unknowns that column j solves."""
    one = np.uint64(1)
    basis = np.zeros((int(np.bitwise_count(unknowns).max()), len(unknowns)), dtype=np.uint64)
    pivots = np.zeros_like(basis)  # pivot bit of each slot's row, 0 while the slot is empty
    changed = np.zeros(basis.shape, dtype=np.uint8)  # columns read when a row last changed
    rank = np.zeros(len(unknowns), dtype=np.intp)
    top = 0  # slots top and above are empty in every system
    for j, col in enumerate(columns, 1):
        r = unknowns & np.uint64(col)
        r *= ~(dropped >> np.uint64(j - 1)) & one
        held = basis[:top]
        # a basis row is zero at every other pivot, so the rows reduce r independently
        r ^= np.bitwise_xor.reduce(held * ((r & pivots[:top]) != 0), axis=0)
        low = r & -r
        if not low.any():
            continue
        hit = (held & low) != 0
        held ^= r * hit
        np.maximum(changed[:top], hit.view(np.uint8) * np.uint8(j), out=changed[:top])
        new = low.nonzero()[0]
        slot = rank[new]
        basis[slot, new], pivots[slot, new], changed[slot, new] = r[new], low[new], j
        rank[new] += 1
        top = max(top, int(slot.max()) + 1)
    unit = (basis == pivots) & (pivots != 0)
    np.add.at(solved, changed[unit], np.broadcast_to(weights, basis.shape)[unit])
