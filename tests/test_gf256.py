"""GF(256) arithmetic and the systematic MDS codec against schoolbook oracles."""
from __future__ import annotations

import hashlib
import random
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from erasurelab.gf256 import MUL_TABLE, Gf256Matrix, build_mds, combine, combine_tables, reduce_on


def slow_mul(a: int, b: int) -> int:
    """Carry-less polynomial product reduced by x^8+x^4+x^3+x^2+1."""
    prod = 0
    for bit in range(8):
        if (b >> bit) & 1:
            prod ^= a << bit
    for bit in range(15, 7, -1):
        if (prod >> bit) & 1:
            prod ^= 0x11D << (bit - 8)
    return prod


def test_mul_table_matches_schoolbook_everywhere():
    for a in range(256):
        for b in range(256):
            assert MUL_TABLE[a, b] == slow_mul(a, b)


def test_generator_cycles_through_all_nonzero():
    seen = set()
    x = 1
    for _ in range(255):
        seen.add(x)
        x = int(MUL_TABLE[x, 2])
    assert seen == set(range(1, 256))
    assert x == 1


def test_inverse_property():
    # each nonzero element has exactly one inverse, and 0 has none
    assert not (MUL_TABLE[0] == 1).any()
    for a in range(1, 256):
        assert (MUL_TABLE[a] == 1).sum() == 1


def reference_combine(coeffs, rows, acc: np.ndarray) -> np.ndarray:
    """Scalar path: xor c * rows[t] into acc[i] for each nonzero c =
    coeffs[i][t], one (output, source) pair at a time."""
    for coeff_row, out in zip(coeffs, acc):
        for c, row in zip(coeff_row, rows):
            if c:
                out ^= MUL_TABLE[c][row]
    return acc


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_combine_matches_reference_combine(data):
    def matrix(height, width):
        cells = data.draw(st.lists(st.integers(0, 255), min_size=height * width,
                                   max_size=height * width))
        return np.array(cells, dtype=np.uint8).reshape(height, width)

    def flags(count):
        return np.array(data.draw(st.lists(st.booleans(), min_size=count, max_size=count)),
                        dtype=bool)

    r = data.draw(st.integers(0, 10))
    m, size = (data.draw(st.integers(0, 6)) for _ in range(2))
    coeffs, rows = matrix(r, m), matrix(m, size)
    # all-zero coefficient rows and columns, which the matrix form skips
    coeffs[flags(r)] = 0
    coeffs[:, flags(m)] = 0
    expect = reference_combine(coeffs, rows, np.zeros((r, size), dtype=np.uint8))
    got = combine(r, combine_tables(coeffs, size), rows)
    assert got.shape == (r, size) and got.dtype == np.uint8
    assert got.tobytes() == expect.tobytes()


@pytest.mark.parametrize("r", [0, 1, 2, 3, 4, 5, 8, 9, 16, 17])
@pytest.mark.parametrize("m", [1, 8, 36])
@pytest.mark.parametrize("size", [0, 1, 1500])
def test_combine_matches_reference_at_every_word_width(r, m, size):
    # r crosses each padding of combine's product words: 1, 2, 4, 8 and 16 bytes
    gen = np.random.default_rng(r * 10_000 + m * 100 + size)
    rows = gen.integers(0, 256, (m, size), dtype=np.uint8)
    # coeffs as the transposed view MdsCode._parity_encoder passes, with a zero column
    coeffs = gen.integers(0, 256, (m, r), dtype=np.uint8).T
    if m > 1:
        coeffs[:, 0] = 0
    # rows as a read-only block, as encode and decode pass it
    rows.flags.writeable = False
    tables = list(combine_tables(coeffs, size))
    expect = reference_combine(coeffs, rows, np.zeros((r, size), dtype=np.uint8))
    # twice: the listed tables are only read, as encode reads its stored ones
    for _ in range(2):
        assert combine(r, tables, rows).tobytes() == expect.tobytes()


def reference_invert(matrix: Gf256Matrix) -> Gf256Matrix | None:
    """Row-by-row Gauss-Jordan inverse, or None when singular: one scaled
    row operation on a and the identity per nonzero entry."""
    n, m = matrix.data.shape
    if n != m:
        raise ValueError("only square matrices can be inverted")
    a = matrix.data.copy()
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
        # the inverse of the pivot: where its row of the product table holds the 1
        scale = list(MUL_TABLE[a[col, col]]).index(1)
        if scale != 1:
            a[col] = MUL_TABLE[scale][a[col]]
            inv[col] = MUL_TABLE[scale][inv[col]]
        for r in range(n):
            if r != col and a[r, col]:
                f = int(a[r, col])
                a[r] ^= MUL_TABLE[f][a[col]]
                inv[r] ^= MUL_TABLE[f][inv[col]]
    return Gf256Matrix(inv)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_invert_matches_reference_invert(data):
    n = data.draw(st.integers(0, 12))
    cells = data.draw(st.lists(st.integers(0, 255), min_size=n * n, max_size=n * n))
    a = np.array(cells, dtype=np.uint8).reshape(n, n)
    if n:
        # singular inputs: a zero column, or a row repeated over another
        for col in data.draw(st.sets(st.integers(0, n - 1), max_size=1)):
            a[:, col] = 0
        for src, dst in data.draw(st.lists(st.tuples(st.integers(0, n - 1),
                                                     st.integers(0, n - 1)), max_size=1)):
            a[dst] = a[src]
    data_before = a.tobytes()
    got, want = Gf256Matrix(a).invert(), reference_invert(Gf256Matrix(a))
    assert a.tobytes() == data_before
    assert (got is None) == (want is None)
    if got is not None:
        assert got.data.shape == (n, n)
        assert got.data.tobytes() == want.data.tobytes()


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_reduce_on_matches_reference_inverse_times_a(data):
    r = data.draw(st.integers(0, 10))
    m = r + data.draw(st.integers(0, 12))
    cells = data.draw(st.lists(st.integers(0, 255), min_size=r * m, max_size=r * m))
    a = np.array(cells, dtype=np.uint8).reshape(r, m)
    cols = data.draw(st.permutations(range(m)))[:r]
    if r:
        # zeros where rows would pivot in order, so the search must look below them
        for i in data.draw(st.sets(st.integers(0, r - 1))):
            a[i, cols[i]] = 0
        # singular inputs: a zero pivot column, or a row repeated over another
        for col in data.draw(st.sets(st.sampled_from(cols), max_size=1)):
            a[:, col] = 0
        for src, dst in data.draw(st.lists(st.tuples(st.integers(0, r - 1),
                                                     st.integers(0, r - 1)), max_size=1)):
            a[dst] = a[src]
    before = a.tobytes()
    got = reduce_on(a, cols)
    inverse = reference_invert(Gf256Matrix(a[:, cols]))
    assert a.tobytes() == before
    assert (got is None) == (inverse is None)
    if got is not None:
        want = reference_combine(inverse.data, a, np.zeros_like(a))
        assert got.tobytes() == want.tobytes()
        assert (got[:, cols] == np.eye(r, dtype=np.uint8)).all()


def test_invert_rejects_non_square():
    with pytest.raises(ValueError, match="^only square matrices can be inverted$"):
        Gf256Matrix(np.zeros((2, 3), dtype=np.uint8)).invert()


@pytest.mark.parametrize("data", [[1, 2, 3], [[[1]]], 7])
def test_matrix_rejects_data_that_is_not_2d(data):
    with pytest.raises(ValueError, match="^2-D data required$"):
        Gf256Matrix(data)


def test_matrix_inverse_round_trip():
    rnd = random.Random(77)
    inverted = 0
    for _ in range(50):
        n = rnd.randrange(1, 41)
        m = Gf256Matrix([[rnd.randrange(256) for _ in range(n)] for _ in range(n)])
        inv = m.invert()
        if inv is None:
            continue
        inverted += 1
        assert repr(inv) == f"Gf256Matrix({n}x{n})"
        product = combine(n, combine_tables(m.data, n), inv.data)
        assert (product == np.eye(n, dtype=np.uint8)).all()
    assert inverted > 40  # a random n x n matrix over GF(256) is singular about 1 time in 255


def test_generator_is_systematic():
    code = build_mds(8, 4)
    left = code.generator[:, :4]
    assert (left == np.eye(4, dtype=np.uint8)).all()


# sha256 of the generator bytes: the coefficients every MDS parity packet is
# built from, so any change to them changes the wire format
GENERATOR_SHA256 = {
    # the edge shapes: one point, no parity, and the whole field
    (1, 1): "4bf5122f344554c53bde2ebb8cd2b7e3d1600ad631c385a5d7cce23c7785459a",
    (2, 1): "9dcf97a184f32623d11a73124ceb99a5709b083721e878a16d78f596718ba7b2",
    (256, 1): "2661920f2409dd6c8adeb0c44972959f232b6429afa913845d0fd95e7e768234",
    (256, 256): "2e5eaaf60666da7c60caf6afa37af3146063bd72f815eeb97d0db7816c5b5d19",
    (3, 2): "a39a44c3efa9a93db02e905faa3c73de587bb50f032994c8d7c72f12f4ab1ebe",
    (16, 12): "36fbe37c304d66eff869459aa75346aa570ab2551db4477fae8a94f0b43e0afa",
    (44, 36): "8401165cca7592b33771c22b651cfd14bee0ca847078f0076f6ed9035fdc73fa",
    (256, 200): "b7f51921159e3f723a90a131637a6b453888f36f156ff4f2b0899b1153586cb0",
}


@pytest.mark.parametrize("n,k", list(GENERATOR_SHA256))
def test_generator_bytes_are_pinned(n, k):
    data = build_mds(n, k).generator
    assert data.shape == (k, n)
    assert hashlib.sha256(data.tobytes()).hexdigest() == GENERATOR_SHA256[n, k]


def test_parity_coefficients_all_nonzero_small():
    code = build_mds(3, 2)
    assert (code.generator[:, code.k:] != 0).all()


def test_every_k_subset_invertible():
    # the defining MDS property of the (8,4) generator
    code = build_mds(8, 4)
    for cols in combinations(range(8), 4):
        sub = Gf256Matrix(code.generator[:, list(cols)].tolist())
        assert sub.invert() is not None


def test_encode_matches_naive_dot():
    rnd = random.Random(13)
    code = build_mds(10, 5)
    src = [bytes(rnd.randrange(256) for _ in range(37)) for _ in range(5)]
    parity = code.encode(src, 5)
    for j in range(5):
        coeffs = [int(code.generator[i, 5 + j]) for i in range(5)]
        for byte in range(37):
            expect = 0
            for i in range(5):
                expect ^= slow_mul(coeffs[i], src[i][byte])
            assert parity[j][byte] == expect


def test_decode_every_recoverable_pattern():
    rnd = random.Random(4)
    for n, k in ((6, 3), (8, 6)):
        code = build_mds(n, k)
        src = [bytes(rnd.randrange(256) for _ in range(16)) for _ in range(k)]
        parity = code.encode(src, n - k)
        packets = {i + 1: src[i] for i in range(k)}
        packets.update({k + j + 1: parity[j] for j in range(n - k)})
        for kept in combinations(range(1, n + 1), k):
            out = code.decode({i: packets[i] for i in kept})
            assert not out.unrecoverable
            for i in range(1, k + 1):
                assert out.recovered[i] == src[i - 1]


@pytest.mark.parametrize("n,k,e", [(240, 200, 40), (256, 128, 128)])
def test_decode_of_wide_losses_returns_every_source(n, k, e):
    # the widest reduce_on in decode, and combine's product tables in more than one chunk
    gen = np.random.default_rng(n + e)
    code = build_mds(n, k)
    src = [row.tobytes() for row in gen.integers(0, 256, (k, 64), dtype=np.uint8)]
    parity = code.encode(src, n - k)
    lost = set(gen.choice(np.arange(1, k + 1), e, replace=False).tolist())
    received = {i: src[i - 1] for i in range(1, k + 1) if i not in lost}
    received.update({k + j: pkt for j, pkt in enumerate(parity, start=1)})
    out = code.decode(received)
    assert not out.unrecoverable
    assert out.recovered == dict(enumerate(src, start=1))


def test_decode_reports_shortfall():
    code = build_mds(8, 4)
    src = [bytes([i] * 8) for i in range(4)]
    parity = code.encode(src, 4)
    # three packets cannot determine four sources
    out = code.decode({5: parity[0], 6: parity[1], 7: parity[2]})
    assert out.unrecoverable == frozenset({1, 2, 3, 4})
    assert out.recovered == {}
    # systematic survivors pass through even below the threshold
    out = code.decode({1: src[0], 5: parity[0], 6: parity[1]})
    assert out.recovered == {1: src[0]}
    assert out.unrecoverable == frozenset({2, 3, 4})


def test_unrecovered_sources_counts():
    code = build_mds(8, 4)
    assert code.unrecovered_sources([1, 2, 3, 4]) == frozenset()
    assert code.unrecovered_sources([5, 6, 7, 8]) == frozenset()
    assert code.unrecovered_sources([1, 5, 6]) == frozenset({2, 3, 4})
    assert code.unrecovered_sources([1, 2, 5, 6]) == frozenset()


def test_encode_input_validation():
    code = build_mds(6, 3)
    with pytest.raises(ValueError):
        code.encode([b"ab", b"cd"], 1)
    with pytest.raises(ValueError):
        code.encode([b"ab", b"cd", b"efg"], 1)
    with pytest.raises(ValueError):
        code.encode([b"ab", b"cd", b"ef"], 4)


def test_decode_input_validation():
    code = build_mds(6, 3)
    with pytest.raises(ValueError):
        code.decode({0: b"xx"})
    with pytest.raises(ValueError):
        code.decode({7: b"xx"})
    with pytest.raises(ValueError):
        code.decode([(1, b"xx"), (1, b"yy")])


def test_build_mds_parameter_limits():
    # k = n is a zero-parity block, as in every family: sources pass through
    code = build_mds(4, 4)
    assert code.parity_limit == 0
    assert np.array_equal(code.generator, np.eye(4, dtype=np.uint8))
    source = [b"ab", b"cd", b"ef", b"gh"]
    assert code.encode(source, 0) == []
    out = code.decode({1: b"ab", 3: b"ef"})
    assert out.recovered == {1: b"ab", 3: b"ef"}
    assert out.unrecoverable == frozenset({2, 4})
    whole = dict(enumerate(source, start=1))
    assert code.decode(whole).recovered == whole
    with pytest.raises(ValueError, match=r"^need 1 <= k <= n, got k=0, n=4$"):
        build_mds(4, 0)
    with pytest.raises(ValueError, match=r"^need 1 <= k <= n, got k=5, n=4$"):
        build_mds(4, 5)
    with pytest.raises(ValueError):
        build_mds(257, 10)
    code = build_mds(256, 128)
    assert code.n == 256 and code.k == 128


def test_reports_family():
    code = build_mds(8, 4)
    assert code.family == "mds"
    assert (code.n, code.k) == (8, 4)
