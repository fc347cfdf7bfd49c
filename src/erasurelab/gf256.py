"""GF(2^8) arithmetic and the systematic Vandermonde erasure code.

The field uses the primitive polynomial x^8+x^4+x^3+x^2+1 (0x11D) with
generator 2. Scalar arithmetic goes through log/antilog tables built at
import; packet-sized operations use a full 256x256 product table with numpy
so a block's parity costs one table gather per source packet.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np

from . import gf2
from .codec import CodeSpec, ErasureCodec

PRIMITIVE_POLY = 0x11D
FIELD_SIZE = 256

GF_EXP = [0] * 512
GF_LOG = [0] * 256
_x = 1
for _i in range(255):
    GF_EXP[_i] = _x
    GF_LOG[_x] = _i
    _x <<= 1
    if _x & 0x100:
        _x ^= PRIMITIVE_POLY
for _i in range(255, 512):
    GF_EXP[_i] = GF_EXP[_i - 255]

# MUL_TABLE[a, b] = a*b in the field; row a doubles as the "scale by a" lookup
_exp = np.array(GF_EXP[:255], dtype=np.uint8)
_log = np.array(GF_LOG, dtype=np.int64)
MUL_TABLE = np.zeros((256, 256), dtype=np.uint8)
_nz = np.arange(1, 256)
MUL_TABLE[1:, 1:] = _exp[(_log[_nz][:, None] + _log[_nz][None, :]) % 255]
del _x, _i, _exp, _log, _nz


def gf_inv(a: int) -> int:
    if a == 0:
        raise ZeroDivisionError("no inverse of 0")
    return GF_EXP[255 - GF_LOG[a]]


def gf_pow(a: int, e: int) -> int:
    if e == 0:
        return 1
    if a == 0:
        return 0
    return GF_EXP[(GF_LOG[a] * e) % 255]


def combine(coeffs: np.ndarray, rows: np.ndarray, acc: np.ndarray) -> np.ndarray:
    """GF(256) matrix product: xor coeffs @ rows into acc and return acc.

    coeffs is (r, m), rows (m, size) and acc (r, size), all uint8. Each step
    scales source row t by the whole column coeffs[:, t] in one table gather;
    all-zero columns are skipped.
    """
    for t in np.flatnonzero(coeffs.any(axis=0)):
        acc ^= np.take(MUL_TABLE[coeffs[:, t]], rows[t], axis=1)
    return acc


class Gf256Matrix:
    """Matrix over GF(2^8) backed by a numpy uint8 array."""

    __slots__ = ("data",)

    def __init__(self, data):
        arr = np.array(data, dtype=np.uint8)
        if arr.ndim != 2:
            raise ValueError("2-D data required")
        self.data = arr

    def invert(self) -> "Gf256Matrix | None":
        """Gauss-Jordan inverse, or None when singular."""
        n, m = self.data.shape
        if n != m:
            raise ValueError("only square matrices can be inverted")
        a = self.data.copy()
        inv = np.eye(n, dtype=np.uint8)
        for col in range(n):
            pivot = None
            for r in range(col, n):
                if a[r, col]:
                    pivot = r
                    break
            if pivot is None:
                return None
            if pivot != col:
                a[[col, pivot]] = a[[pivot, col]]
                inv[[col, pivot]] = inv[[pivot, col]]
            scale = gf_inv(int(a[col, col]))
            if scale != 1:
                a[col] = MUL_TABLE[scale][a[col]]
                inv[col] = MUL_TABLE[scale][inv[col]]
            for r in range(n):
                if r != col and a[r, col]:
                    f = int(a[r, col])
                    a[r] ^= MUL_TABLE[f][a[col]]
                    inv[r] ^= MUL_TABLE[f][inv[col]]
        return Gf256Matrix(inv)

    def __repr__(self) -> str:
        return f"Gf256Matrix({self.data.shape[0]}x{self.data.shape[1]})"


class MdsCode(ErasureCodec):
    """Systematic maximum-distance-separable block code over GF(2^8).

    The generator is [I | P] derived from a Vandermonde matrix on distinct
    evaluation points, so every k-column submatrix is invertible and any k
    received packets reconstruct the block.
    """

    def __init__(self, n: int, k: int, generator: Gf256Matrix):
        super().__init__(n, k)
        self.generator = generator

    @property
    def spec(self) -> CodeSpec:
        return CodeSpec(family="mds", n=self.n, k=self.k)

    def _parity(self, source: Sequence[bytes], p: int, size: int) -> list[bytes]:
        # shapes stay explicit: reshape cannot infer a -1 axis from 0-byte packets
        src = np.frombuffer(b"".join(source), dtype=np.uint8).reshape(self.k, size)
        parity = combine(self.generator.data[:, self.k:self.k + p].T, src,
                         np.zeros((p, size), dtype=np.uint8))
        return [row.tobytes() for row in parity]

    def _solve(self, recovered: dict[int, bytes], missing: int,
               parity: dict[int, bytes]) -> int:
        """With e sources lost and at least e parity packets, solve for the
        lost sources against the lowest-numbered e parity packets; with
        fewer, recover nothing."""
        lost = gf2.ones(missing)
        js = list(parity)[:len(lost)]
        if len(js) < len(lost):
            return missing
        g = self.generator.data
        cols = [self.k + j - 1 for j in js]
        size = len(parity[js[0]])
        src = np.frombuffer(b"".join(recovered.values()), dtype=np.uint8)
        b = np.frombuffer(bytearray(b"".join(parity[j] for j in js)), dtype=np.uint8)
        # row j of b: parity j minus the known systematic contributions
        b = combine(g[np.ix_([i - 1 for i in recovered], cols)].T,
                    src.reshape(len(recovered), size), b.reshape(len(js), size))
        a_inv = Gf256Matrix(g[np.ix_([m - 1 for m in lost], cols)].T).invert()
        if a_inv is None:
            raise AssertionError("MDS submatrix unexpectedly singular")
        out = combine(a_inv.data, b, np.zeros_like(b))
        for m, row in zip(lost, out):
            recovered[m] = row.tobytes()
        return 0

    def _unsolved(self, missing: frozenset[int], parity: list[int]) -> frozenset[int]:
        """Every lost source is recovered once k packets of the block arrived,
        that is once as much parity arrived as sources were lost; none before."""
        return frozenset() if len(parity) >= len(missing) else missing

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
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    if n > FIELD_SIZE:
        raise ValueError(f"n={n} exceeds the field size {FIELD_SIZE}")
    points = [0] + [gf_pow(2, j) for j in range(n - 1)]
    # row i holds the points raised to the power i, with 0**0 = 1
    v = np.array([[gf_pow(x, i) for x in points] for i in range(k)], dtype=np.uint8)
    left_inv = Gf256Matrix(v[:, :k]).invert()
    if left_inv is None:
        raise AssertionError("Vandermonde block on distinct points cannot be singular")
    return MdsCode(n, k, Gf256Matrix(combine(left_inv.data, v, np.zeros_like(v))))
