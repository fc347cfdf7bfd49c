"""Bit-packed GF(2) linear algebra against small hand and list oracles."""
from __future__ import annotations

import random

from erasurelab import gf2
from erasurelab.gf2 import kernel_entry


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


def kernel_rows(m: int) -> list[int]:
    """Packed rows of the m-fold Kronecker power of [[1, 0], [1, 1]]: row r of
    one power gives row r of the next, and r | r << half below it."""
    rows = [1]
    for _ in range(m):
        half = len(rows)
        rows = rows + [r | (r << half) for r in rows]
    return rows


def bits(row: int, width: int) -> list[int]:
    """A packed row as a 0/1 list, column 0 first."""
    return [(row >> j) & 1 for j in range(width)]


def determined(rows: list[int]) -> set[int]:
    """Unknowns (bit positions) pinned by the xor equations: the weight-1
    rows of the reduced echelon basis."""
    return {r.bit_length() - 1 for r in gf2.reduce_echelon(rows) if r.bit_count() == 1}


def test_kernel_power_small_goldens():
    assert [bits(r, 1) for r in kernel_rows(0)] == [[1]]
    assert [bits(r, 2) for r in kernel_rows(1)] == [[1, 0], [1, 1]]
    assert [bits(r, 4) for r in kernel_rows(2)] == [
        [1, 0, 0, 0],
        [1, 1, 0, 0],
        [1, 0, 1, 0],
        [1, 1, 1, 1],
    ]


def test_all_ones_vector_times_kernel():
    # xor of all four rows of the 4x4 kernel leaves only the last column
    assert gf2.xor_rows(0b1111, kernel_rows(2)) == 0b1000


def test_kernel_power_square_is_identity():
    for m in range(11):
        g = kernel_rows(m)
        assert [gf2.xor_rows(r, g) for r in g] == [1 << i for i in range(1 << m)]


def test_kernel_entry_matches_matrix():
    for m in range(9):
        g = kernel_rows(m)
        n = 1 << m
        for i in range(n):
            for j in range(n):
                assert kernel_entry(i, j) == (g[i] >> j) & 1


def test_kernel_entry_submatrix():
    # rows {1, 3}, columns {0, 1} of the 4x4 kernel, packed as PolarCodec packs them
    rows, cols = [1, 3], [0, 1]
    sub = [sum(kernel_entry(r, c) << t for t, c in enumerate(cols)) for r in rows]
    assert [bits(r, 2) for r in sub] == [[1, 1], [1, 1]]


def test_ones_and_xor_rows_match_bit_lists():
    rnd = random.Random(17)
    assert gf2.ones(0) == [] and gf2.xor_rows(0, [5, 6]) == 0
    for _ in range(200):
        width = rnd.randrange(1, 70)
        mask = rnd.getrandbits(width)
        rows = [rnd.getrandbits(40) for _ in range(width)]
        picked = [j for j in range(width) if (mask >> j) & 1]
        assert gf2.ones(mask) == [j + 1 for j in picked]
        acc = 0
        for j in picked:
            acc ^= rows[j]
        assert gf2.xor_rows(mask, rows) == acc


def test_packed_product_associative_random():
    # with packed rows, row i of A @ B is xor_rows(A[i], B)
    def product(a: list[int], b: list[int]) -> list[int]:
        return [gf2.xor_rows(r, b) for r in a]

    rnd = random.Random(2024)
    for _ in range(20):
        a = [rnd.getrandbits(7) for _ in range(5)]
        b = [rnd.getrandbits(4) for _ in range(7)]
        c = [rnd.getrandbits(6) for _ in range(4)]
        assert product(product(a, b), c) == product(a, product(b, c))


def test_kernel_is_persymmetric():
    for m in (2, 3, 4, 5):
        n = 1 << m
        for i in range(n):
            for j in range(n):
                assert kernel_entry(i, j) == kernel_entry(n - 1 - j, n - 1 - i)


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
    # x1 ^ x2 = 5, x2 = 3 gives x1 = 6; the payload rides above the two unknown bits
    reduced = gf2.reduce_augmented([0b11 | 5 << 2, 0b10 | 3 << 2], 0b11)
    assert reduced == [0b01 | 6 << 2, 0b10 | 3 << 2]


def test_reduce_augmented_drops_rows_whose_unknowns_cancel():
    # the repeated equation and the payload-only row pin nothing and are dropped
    rows = [0b01 | 1 << 2, 0b01 | 1 << 2, 7 << 2, 0b11 | 2 << 2]
    assert gf2.reduce_augmented(rows, 0b11) == [0b01 | 1 << 2, 0b10 | 3 << 2]


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
