"""Bit-packed linear algebra over GF(2).

Rows are stored as Python ints, bit j of a row is column j. Addition is xor,
so row operations cost one machine word operation per word of packed bits.
`ones` walks the set bits of a row, `pack` sets them and `xor_rows` sums the
rows a mask selects.
`reduce_echelon` and `reduce_augmented` share one scalar elimination;
`unsolved_totals` runs it on many systems at once, in rank slots, the
systems sorted by unknown count.
`xor_tables` and `xor_apply` are the one packet xor kernel: packed rows
select payload rows of a uint8 block, and every selection is gathered and
reduced with numpy, a group of outputs at a time.
"""
from __future__ import annotations

import operator
from typing import Iterable, Sequence

import numpy as np

_CHUNK = 1 << 12  # systems per elimination pass: a 2 MiB basis at 64 unknowns
# payload bytes xor_apply gathers at once: with the rows it reduces them to,
# a piece stays inside one core's 2 MiB L2 cache
_GATHER_BYTES = 1 << 19
# padding bytes that cost less to xor than one more gather and reduce call
_MERGE_BYTES = 1 << 15


def ones(mask: int) -> list[int]:
    """1-based positions of the set bits of mask, lowest first."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length())
        mask ^= low
    return out


def pack(positions: Iterable[int]) -> int:
    """The row whose set bits are the 1-based positions, the inverse of ones;
    each position goes through operator.index, so numpy integers pack too."""
    mask = 0
    for t in positions:
        mask |= 1 << (operator.index(t) - 1)
    return mask


def xor_rows(mask: int, rows: Sequence[int]) -> int:
    """Xor of rows[t] over each set bit t of mask, bit 0 selecting rows[0];
    0 when mask is 0."""
    acc = 0
    for t in ones(mask):
        acc ^= rows[t - 1]
    return acc


def xor_tables(rows: Sequence[int], width: int, size: int) -> tuple[list[int], list]:
    """xor_apply's tables for packed rows of `width` bits over block rows of
    `size` bytes: output i xors the block rows t whose bit t is set in
    rows[i]. Returns (order, pieces): the outputs sorted by set-bit count,
    and (at, table) pairs whose (g, w) intp table lists, for the outputs
    order[at:at + g], their block rows lowest first, padded to w with
    indices past `width` that xor_apply clips to the zero row `width`.

    An output joins the group before it, which shares one w, when its count
    has the bit length of that w (padding at most doubles a gather) or adds
    at most _MERGE_BYTES of padding. Groups are cut into pieces of at most
    _GATHER_BYTES and at least one output."""
    counts = [r.bit_count() for r in rows]
    order = sorted(range(len(rows)), key=counts.__getitem__)
    shapes: list[list[int]] = []  # [outputs, w] per group
    for c in map(counts.__getitem__, order):
        if shapes and (c.bit_length() == shapes[-1][1].bit_length()
                       or shapes[-1][0] * (c - shapes[-1][1]) * size <= _MERGE_BYTES):
            shapes[-1][0] += 1
            shapes[-1][1] = c
        else:
            shapes.append([1, c])
    # ones above bit `width` pad each row to its group's w, so one unpack lists
    # every table; the last group's w is the largest
    nbytes = (width + (shapes[-1][1] if shapes else 0) + 7) // 8
    padded, at = [], 0
    for g, w in shapes:
        padded += [rows[i] | ((1 << (w - counts[i])) - 1) << width for i in order[at:at + g]]
        at += g
    bits = np.unpackbits(np.frombuffer(b"".join([r.to_bytes(nbytes, "little") for r in padded]),
                                       dtype=np.uint8), bitorder="little")
    # nonzero runs several times faster on bools than on uint8
    flat = bits.view(np.bool_).nonzero()[0]
    flat %= 8 * nbytes
    pieces, at, lo = [], 0, 0
    for g, w in shapes:
        table = flat[lo:lo + g * w].reshape(g, w)
        step = max(1, _GATHER_BYTES // max(1, w * size))
        pieces += [(at + s, table[s:s + step]) for s in range(0, g, step)]
        at, lo = at + g, lo + g * w
    return order, pieces


def xor_apply(block: np.ndarray, tables: tuple[list[int], list]) -> list[np.ndarray]:
    """Row i: the xor of the rows of the (width + 1, size) uint8 block, whose
    last row is zeros, that output i of xor_tables selects. Each piece is one
    gather and one xor reduce; the block is only read."""
    order, pieces = tables
    rows: list = [None] * len(order)
    for at, table in pieces:
        xors = np.bitwise_xor.reduce(block.take(table, axis=0, mode="clip"), axis=1)
        for i, row in zip(order[at:at + len(table)], xors):
            rows[i] = row
    return rows


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
    """Reduced echelon basis sorted by pivot, the lowest unknown bit of a row.
    It returns once every unknown bit has a pivot: each later row would
    reduce to zero on the unknowns and be dropped. With all bits unknown, -1,
    that never happens, and every row is read."""
    basis: dict[int, int] = {}
    free = unknowns  # unknown bits with no pivot yet
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
        free ^= p
        if not free:
            break
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
        # nonzero runs several times faster on bools than on uint64
        new = (low != 0).nonzero()[0]
        if not len(new):
            continue
        hit = (held & low) != 0
        held ^= r * hit
        np.maximum(changed[:top], hit.view(np.uint8) * np.uint8(j), out=changed[:top])
        slot = rank[new]
        basis[slot, new], pivots[slot, new], changed[slot, new] = r[new], low[new], j
        rank[new] += 1
        top = max(top, int(slot.max()) + 1)
    unit = (basis == pivots) & (pivots != 0)
    np.add.at(solved, changed[unit], np.broadcast_to(weights, basis.shape)[unit])
