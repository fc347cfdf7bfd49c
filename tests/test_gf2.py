"""Bit-packed GF(2) linear algebra against small hand and list oracles."""
from __future__ import annotations

import random

import pytest

from erasurelab import gf2
from erasurelab.gf2 import BitMatrix, kernel_entry, kernel_power


def list_rank(rows: list[list[int]]) -> int:
    """Independent rank oracle on 0/1 lists, plain elimination."""
    rows = [r[:] for r in rows]
    cols = len(rows[0]) if rows else 0
    done = 0
    for c in range(cols):
        pivot = next((i for i in range(done, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[done], rows[pivot] = rows[pivot], rows[done]
        for i in range(len(rows)):
            if i != done and rows[i][c]:
                rows[i] = [a ^ b for a, b in zip(rows[i], rows[done])]
        done += 1
    return done


def bits(m: BitMatrix, i: int) -> list[int]:
    """Row i of m as a 0/1 list, column 0 first."""
    return [(m.row(i) >> j) & 1 for j in range(m.cols)]


def determined(rows: list[int]) -> set[int]:
    """Unknowns (bit positions) pinned by the xor equations: the weight-1
    rows of the reduced echelon basis."""
    return {r.bit_length() - 1 for r in gf2.reduce_echelon(rows) if r.bit_count() == 1}


def test_kernel_power_small_goldens():
    assert [bits(kernel_power(0), i) for i in range(1)] == [[1]]
    assert [bits(kernel_power(1), i) for i in range(2)] == [[1, 0], [1, 1]]
    assert [bits(kernel_power(2), i) for i in range(4)] == [
        [1, 0, 0, 0],
        [1, 1, 0, 0],
        [1, 0, 1, 0],
        [1, 1, 1, 1],
    ]


def test_all_ones_vector_times_kernel():
    # xor of all four rows of the 4x4 kernel leaves only the last column
    g = kernel_power(2)
    acc = 0
    for i in range(4):
        acc ^= g.row(i)
    assert acc == 0b1000


def test_kernel_power_square_is_identity():
    for m in range(11):
        g = kernel_power(m)
        assert gf2.multiply(g, g) == BitMatrix.identity(1 << m)


def test_kernel_power_rejects_bad_levels():
    with pytest.raises(ValueError):
        kernel_power(-1)
    with pytest.raises(ValueError):
        kernel_power(gf2.KERNEL_POWER_CAP + 1)


def test_kernel_entry_matches_matrix():
    for m in range(9):
        g = kernel_power(m)
        n = 1 << m
        for i in range(n):
            for j in range(n):
                assert kernel_entry(i, j) == (g.row(i) >> j) & 1


def test_kernel_is_persymmetric():
    for m in (2, 3, 4, 5):
        g = kernel_power(m)
        n = 1 << m
        for i in range(n):
            for j in range(n):
                assert (g.row(i) >> j) & 1 == (g.row(n - 1 - j) >> (n - 1 - i)) & 1


def test_multiply_associative_random():
    rnd = random.Random(2024)
    for _ in range(20):
        a = BitMatrix(5, 7, [rnd.getrandbits(7) for _ in range(5)])
        b = BitMatrix(7, 4, [rnd.getrandbits(4) for _ in range(7)])
        c = BitMatrix(4, 6, [rnd.getrandbits(6) for _ in range(4)])
        assert gf2.multiply(gf2.multiply(a, b), c) == gf2.multiply(a, gf2.multiply(b, c))


def test_multiply_dimension_check():
    a = BitMatrix.identity(3)
    b = BitMatrix.identity(4)
    with pytest.raises(ValueError):
        gf2.multiply(a, b)


def test_rank_matches_list_oracle():
    rnd = random.Random(99)
    for _ in range(200):
        r = rnd.randrange(1, 9)
        c = rnd.randrange(1, 9)
        rows = [rnd.getrandbits(c) for _ in range(r)]
        as_lists = [[(row >> j) & 1 for j in range(c)] for row in rows]
        assert len(gf2.reduce_echelon(rows)) == list_rank(as_lists)


def test_reduce_echelon_canonical_under_row_order():
    rnd = random.Random(5)
    rows = [rnd.getrandbits(12) for _ in range(8)]
    base = gf2.reduce_echelon(rows)
    for _ in range(10):
        shuffled = rows[:]
        rnd.shuffle(shuffled)
        assert gf2.reduce_echelon(shuffled) == base


def test_reduce_augmented_tracks_payload():
    # x1 ^ x2 = 5, x2 = 3 gives x1 = 6
    reduced = gf2.reduce_augmented([(0b11, 5), (0b10, 3)])
    assert (0b01, 6) in reduced
    assert (0b10, 3) in reduced


def test_weight_one_rows_pin_a_simple_chain():
    # unknowns 0, 1 with equations x0^x1 and x1: both determined
    assert determined([0b11, 0b10]) == {0, 1}
    # x0^x1 alone determines neither
    assert determined([0b11]) == set()


def test_weight_one_rows_pin_partially():
    # x0 determined directly, x1^x2 entangled
    assert determined([0b001, 0b110]) == {0}


def test_weight_one_rows_invariant_under_equation_order():
    rnd = random.Random(8)
    for _ in range(50):
        n = rnd.randrange(2, 7)
        rows = [rnd.getrandbits(n) for _ in range(rnd.randrange(1, 9))]
        shuffled = rows[:]
        rnd.shuffle(shuffled)
        assert determined(rows) == determined(shuffled)


def test_submatrix():
    sub = kernel_power(2).submatrix([1, 3], [0, 1])
    assert [bits(sub, i) for i in range(2)] == [[1, 1], [1, 1]]


def test_bitmatrix_rejects_empty_shapes():
    with pytest.raises(ValueError):
        BitMatrix(0, 3, [])
    with pytest.raises(ValueError):
        BitMatrix(3, 0, [0, 0, 0])
