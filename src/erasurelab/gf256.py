"""GF(2^8) arithmetic and the systematic Vandermonde erasure code.

The field uses the primitive polynomial x^8+x^4+x^3+x^2+1 (0x11D) with
generator 2. All arithmetic goes through one 256x256 product table built at
import, and the row of inverses read from it. One elimination, reduce_on,
turns chosen columns into the identity for build_mds and MDS decode. One
matrix product, combine, gathers for each source packet one word of products
per payload byte, so a block's parity costs one word-wide gather per source
packet byte however many parity rows it has. combine_tables builds its
product tables; encode's encoder keeps them, decode builds them per call.
"""
from __future__ import annotations

from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from . import gf2
from .codec import ErasureCodec, check_block

PRIMITIVE_POLY = 0x11D
FIELD_SIZE = 256

# the generator's powers g^0..g^509 and the logs of the nonzero elements live
# only while the table is built: log a + log b < 510 needs no reduction mod 255
_exp = np.empty(510, dtype=np.uint8)
_log = np.empty(256, dtype=np.intp)
_x = 1
for _i in range(255):
    _exp[_i] = _exp[_i + 255] = _x
    _log[_x] = _i
    _x = (_x << 1) ^ (PRIMITIVE_POLY if _x & 0x80 else 0)
# MUL_TABLE[a, b] = a*b in the field; row a doubles as the "scale by a" lookup
MUL_TABLE = np.zeros((256, 256), dtype=np.uint8)
MUL_TABLE[1:, 1:] = _exp[_log[1:, None] + _log[None, 1:]]
del _x, _i, _exp, _log
# _INVERSE[a] * a = 1 for a != 0; row 0 of MUL_TABLE holds no 1, so _INVERSE[0] = 0
_INVERSE = (MUL_TABLE == 1).argmax(axis=1).astype(np.uint8)

_TABLE_BYTES = 1 << 20  # tables per combine piece: 102 source rows if encode's p or decode's e is 40
# payload indices per combine piece, cast to intp: 43 source rows of 1500 bytes
_INDEX_BYTES = 1 << 19


def _word(r: int) -> tuple[int, np.dtype]:
    """The bytes of combine's product word for r > 0 outputs, r padded to 1,
    2 or 4 or a multiple of 8, and the unsigned dtype its tables are read as."""
    width = r if r <= 2 else 4 if r <= 4 else -(-r // 8) * 8
    return width, np.dtype(f"u{min(width, 8)}")


def combine_tables(coeffs: np.ndarray, size: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """combine's tables for the (r, m) uint8 coeffs over source rows of
    `size` bytes, yielded one (part, tables) piece at a time, so that combine
    gathers from a piece while it is still in cache; encode keeps them as a
    list. Source row t gets a (256, r) table whose row b holds the r products
    b * coeffs[:, t], padded to combine's word; all-zero columns get none. A
    piece holds the tables of the source rows `part`: at most _TABLE_BYTES of
    tables and _INDEX_BYTES of gather indices.
    """
    r = len(coeffs)
    cols = np.flatnonzero(coeffs.any(axis=0))
    if not len(cols):  # also r = 0, which has no word to pad to
        return
    width, word = _word(r)
    step = max(1, min(_TABLE_BYTES // (256 * width), _INDEX_BYTES // max(1, 8 * size)))
    for start in range(0, len(cols), step):
        part = cols[start:start + step]
        tables = np.zeros((len(part), 256, width), dtype=np.uint8)
        # MUL_TABLE is symmetric: row c of it, read at b, is b * c
        tables[:, :, :r] = MUL_TABLE[coeffs[:, part].T].transpose(0, 2, 1)
        yield part, tables.view(word)


def combine(r: int, pieces: Iterable[tuple[np.ndarray, np.ndarray]],
            rows: np.ndarray) -> np.ndarray:
    """GF(256) matrix product coeffs @ rows, an (r, size) uint8 array, from
    the pieces of combine_tables(coeffs, size) and the (m, size) uint8 rows.
    Per source row, one gather along the payload fetches all r products of
    each payload byte at once into a transposed (size, word) accumulator;
    a piece's payload rows are cast to gather indices together. The result
    is a strided view of that accumulator.
    """
    if not r:
        return np.zeros((0, rows.shape[1]), dtype=np.uint8)
    width, word = _word(r)
    total = np.zeros((rows.shape[1], width // word.itemsize), dtype=word)
    scaled = np.empty_like(total)
    for part, tables in pieces:
        for table, row in zip(tables, rows[part].astype(np.intp)):
            table.take(row, axis=0, out=scaled)
            total ^= scaled
    return total.view(np.uint8)[:, :r].T


def reduce_on(a: np.ndarray, cols: Sequence[int]) -> np.ndarray | None:
    """Gauss-Jordan on a copy of the (r, m) array a: the r columns cols become
    the identity, row i pivoting on cols[i], and the other columns are carried
    along; None when those columns are singular. Each step pivots on the first
    nonzero entry at or below row i, scales the pivot row to 1 there and
    clears the column in every other row with one table gather."""
    a = np.array(a, dtype=np.uint8)
    for i, col in enumerate(cols):
        pivot = i + int((a[i:, col] != 0).argmax())
        if not a[pivot, col]:
            return None
        if pivot != i:
            a[[i, pivot]] = a[[pivot, i]]
        # the gather clears the pivot row too, and the scaled row goes back in after it
        row = MUL_TABLE[_INVERSE[a[i, col]], a[i]]
        a ^= MUL_TABLE[a[:, col]].take(row, axis=1)
        a[i] = row
    return a


class Gf256Matrix:
    """Matrix over GF(2^8) backed by a numpy uint8 array."""

    __slots__ = ("data",)

    def __init__(self, data):
        arr = np.array(data, dtype=np.uint8)
        if arr.ndim != 2:
            raise ValueError("2-D data required")
        self.data = arr

    def invert(self) -> "Gf256Matrix | None":
        """Inverse, or None when singular: reduce_on of [a | I] on a's columns."""
        n, m = self.data.shape
        if n != m:
            raise ValueError("only square matrices can be inverted")
        aug = reduce_on(np.concatenate([self.data, np.eye(n, dtype=np.uint8)], axis=1), range(n))
        return None if aug is None else Gf256Matrix(aug[:, n:])

    def __repr__(self) -> str:
        return f"Gf256Matrix({self.data.shape[0]}x{self.data.shape[1]})"


class MdsCode(ErasureCodec):
    """Systematic maximum-distance-separable block code over GF(2^8).

    The generator is the (k, n) uint8 array [I | P] derived from a
    Vandermonde matrix on distinct evaluation points, so every k-column
    submatrix is invertible and any k received packets reconstruct the block.
    """

    family = "mds"

    def __init__(self, n: int, k: int, generator: np.ndarray):
        super().__init__(n, k)
        self.generator = generator

    def _parity_encoder(self, p: int, size: int) -> Callable[[np.ndarray], np.ndarray]:
        k = self.k
        tables = list(combine_tables(self.generator[:, k:k + p].T, size))
        return lambda block: combine(p, tables, block[:k])

    def _solve(self, block: np.ndarray, missing: int, js: list[int]) -> dict[int, np.ndarray]:
        """With e sources lost and at least e parity packets, solve for the
        lost sources against the lowest-numbered e parity packets; with
        fewer, recover nothing."""
        k = self.k
        lost = gf2.ones(missing)
        e = len(lost)
        if len(js) < e:
            return {}
        # [C | I_e]: row c is how parity js[c] combines the k sources, then that packet
        system = np.concatenate([self.generator[:, [k + j - 1 for j in js[:e]]].T,
                                 np.eye(e, dtype=np.uint8)], axis=1)
        rows = [m - 1 for m in lost]
        solved = reduce_on(system, rows)
        if solved is None:
            raise AssertionError("MDS submatrix unexpectedly singular")
        solved[:, rows] = 0  # block's lost rows are zeros; combine skips zero columns
        # row c: lost source c from the received sources and parity in block[:k + e]
        return dict(zip(lost, combine(e, combine_tables(solved, block.shape[1]), block[:k + e])))

    def _unsolved(self, missing: frozenset[int], parity: list[int]) -> frozenset[int]:
        """Every lost source is recovered once k packets of the block arrived,
        that is once as much parity arrived as sources were lost; none before."""
        return frozenset() if len(parity) >= len(missing) else missing

    def _recovery_rows(self, lost: Sequence[frozenset], rounds: int) -> tuple[tuple[int, ...], ...]:
        """A set of e lost sources is recovered whole from round e on, and not
        at all before: one row per distinct e, and no oracle call."""
        rows = {e: tuple(0 if t < e else e for t in range(rounds + 1))
                for e in {len(pattern) for pattern in lost}}
        return tuple(rows[len(pattern)] for pattern in lost)

    def _unsolved_totals(self, lost: np.ndarray, dropped: np.ndarray, p: int,
                         weights: np.ndarray) -> list[int]:
        """Every lost source stays lost when fewer than k of the first k+j
        packets arrived, that is when more than j of them were lost, and
        none otherwise."""
        lost = np.bitwise_count(lost)
        weighted = lost * np.asarray(weights, dtype=np.int64)
        return [int(weighted[lost + np.bitwise_count(dropped & np.uint64((1 << j) - 1)) > j].sum())
                for j in range(p + 1)]

    def __repr__(self) -> str:
        return f"MdsCode(n={self.n}, k={self.k})"


def build_mds(n: int, k: int) -> MdsCode:
    """Systematic MDS code for n total and k source packets.

    Evaluation points are 0, 1, g, g^2, ... in index order; reducing the left
    k columns of the Vandermonde matrix to the identity yields [I | P].
    """
    check_block(n, k)
    if n > FIELD_SIZE:
        raise ValueError(f"n={n} exceeds the field size {FIELD_SIZE}")
    # points 0, 1, g, g^2, ...: each pass appends the powers so far times the next power
    points = np.array([0, 1], dtype=np.uint8)
    while len(points) < n:
        points = np.append(points, MUL_TABLE[MUL_TABLE[points[-1], 2], points[1:]])
    # row i holds the points raised to the power i, with 0**0 = 1
    v = np.ones((k, n), dtype=np.uint8)
    for i in range(1, k):
        v[i] = MUL_TABLE[v[i - 1], points[:n]]
    return MdsCode(n, k, reduce_on(v, range(k)))
