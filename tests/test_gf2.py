"""Bit-packed GF(2) linear algebra against small hand and list oracles."""
from __future__ import annotations

import random

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from erasurelab import gf2


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


def test_xor_tables_and_apply_match_xor_rows(monkeypatch):
    rnd = random.Random(23)
    for budget in (1, 3000, 1 << 19):
        monkeypatch.setattr(gf2, "_GATHER_BYTES", budget)
        for _ in range(60):
            width, size = rnd.randrange(1, 90), rnd.randrange(0, 40)
            # every weight from 0 to width can occur, so groups of many bit lengths form
            rows = [sum(1 << t for t in rnd.sample(range(width), rnd.randrange(width + 1)))
                    for _ in range(rnd.randrange(0, 30))]
            order, pieces = gf2.xor_tables(rows, width, size)
            assert sorted(order) == list(range(len(rows)))
            assert [rows[i].bit_count() for i in order] == sorted(r.bit_count() for r in rows)
            at = 0
            for start, table in pieces:
                assert start == at and len(table)
                assert len(table) == 1 or table.size * size <= budget
                for i, listed in zip(order[at:], table.tolist()):
                    picks = [t - 1 for t in gf2.ones(rows[i])]
                    assert listed[:len(picks)] == picks
                    assert min(listed[len(picks):], default=width) >= width
                at += len(table)
            assert at == len(rows)
            payload = [rnd.randbytes(size) for _ in range(width)]
            block = np.frombuffer(b"".join(payload + [bytes(size)]), dtype=np.uint8)
            ints = [int.from_bytes(b, "little") for b in payload]
            got = gf2.xor_apply(block.reshape(width + 1, size), (order, pieces))
            assert [row.tobytes() for row in got] == [gf2.xor_rows(r, ints).to_bytes(size, "little")
                                                      for r in rows]


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
        g = kernel_rows(m)
        n = 1 << m
        for i in range(n):
            for j in range(n):
                assert (g[i] >> j) & 1 == (g[n - 1 - j] >> (n - 1 - i)) & 1


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


def reference_augmented(rows: list[int], unknowns: int) -> list[int]:
    """Gauss-Jordan over every row: a forward pass that keeps each row that
    brings a new pivot (its lowest unknown bit), reduced only by the pivots
    before it, then back substitution from the highest pivot down."""
    pivots: dict[int, int] = {}
    for r in rows:
        for p in sorted(pivots):
            if r & p:
                r ^= pivots[p]
        if r & unknowns:
            pivots[r & unknowns & -(r & unknowns)] = r
    for p in sorted(pivots, reverse=True):
        for q in pivots:
            if q != p and pivots[q] & p:
                pivots[q] ^= pivots[p]
    return [pivots[p] for p in sorted(pivots)]


@st.composite
def systems(draw):
    """Up to 7 unknown bits among 12, rows over the 12 bits with zero and
    repeated rows, and more rows than unknowns, so that full rank is often
    reached before the last row."""
    unknowns = draw(st.integers(0, (1 << 12) - 1).filter(lambda u: u.bit_count() <= 7))
    rows = draw(st.lists(st.integers(0, (1 << 12) - 1), max_size=14))
    rows += draw(st.lists(st.sampled_from([0, *rows]), max_size=5))
    return draw(st.permutations(rows)), unknowns


@settings(max_examples=400, deadline=None)
@given(system=systems())
def test_reduce_augmented_equals_an_elimination_that_reads_every_row(system):
    rows, unknowns = system
    assert gf2.reduce_augmented(rows, unknowns) == reference_augmented(rows, unknowns)
    # with every bit unknown the elimination reads every row, as before
    assert gf2.reduce_echelon(rows) == reference_augmented(rows, -1)


def test_reduce_augmented_stops_reading_at_full_rank():
    # both unknowns have a pivot after two rows, so the third is never read
    rows = iter([0b01 | 1 << 2, 0b10 | 1 << 3, 0b11 | 1 << 4])
    assert gf2.reduce_augmented(rows, 0b11) == [0b01 | 1 << 2, 0b10 | 1 << 3]
    assert list(rows) == [0b11 | 1 << 4]
    # reduce_echelon reads them all
    rows = iter([0b01, 0b10, 0b100])
    assert gf2.reduce_echelon(rows) == [0b01, 0b10, 0b100]
    assert list(rows) == []
