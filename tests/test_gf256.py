"""GF(256) arithmetic and the systematic MDS codec against schoolbook oracles."""
from __future__ import annotations

import hashlib
import random
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from erasurelab.gf256 import MUL_TABLE, Gf256Matrix, build_mds, combine, gf_inv


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
    for a in range(1, 256):
        assert MUL_TABLE[a, gf_inv(a)] == 1
    with pytest.raises(ZeroDivisionError):
        gf_inv(0)


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
    r, m, size = (data.draw(st.integers(0, 6)) for _ in range(3))

    def matrix(height, width):
        cells = data.draw(st.lists(st.integers(0, 255), min_size=height * width,
                                   max_size=height * width))
        return np.array(cells, dtype=np.uint8).reshape(height, width)

    def flags(count):
        return np.array(data.draw(st.lists(st.booleans(), min_size=count, max_size=count)),
                        dtype=bool)

    coeffs, rows, acc = matrix(r, m), matrix(m, size), matrix(r, size)
    # all-zero coefficient rows and columns, which the matrix form skips
    coeffs[flags(r)] = 0
    coeffs[:, flags(m)] = 0
    expect = reference_combine(coeffs, rows, acc.copy())
    assert combine(coeffs, rows, acc) is acc
    assert acc.tobytes() == expect.tobytes()


def test_matrix_inverse_round_trip():
    rnd = random.Random(77)
    for _ in range(50):
        n = rnd.randrange(1, 7)
        m = Gf256Matrix([[rnd.randrange(256) for _ in range(n)] for _ in range(n)])
        inv = m.invert()
        if inv is None:
            continue
        product = combine(m.data, inv.data, np.zeros((n, n), dtype=np.uint8))
        assert (product == np.eye(n, dtype=np.uint8)).all()


def test_generator_is_systematic():
    code = build_mds(8, 4)
    left = code.generator.data[:, :4]
    assert (left == np.eye(4, dtype=np.uint8)).all()


# sha256 of the generator bytes: the coefficients every MDS parity packet is
# built from, so any change to them changes the wire format
GENERATOR_SHA256 = {
    (3, 2): "a39a44c3efa9a93db02e905faa3c73de587bb50f032994c8d7c72f12f4ab1ebe",
    (16, 12): "36fbe37c304d66eff869459aa75346aa570ab2551db4477fae8a94f0b43e0afa",
    (44, 36): "8401165cca7592b33771c22b651cfd14bee0ca847078f0076f6ed9035fdc73fa",
    (256, 200): "b7f51921159e3f723a90a131637a6b453888f36f156ff4f2b0899b1153586cb0",
}


@pytest.mark.parametrize("n,k", list(GENERATOR_SHA256))
def test_generator_bytes_are_pinned(n, k):
    data = build_mds(n, k).generator.data
    assert data.shape == (k, n)
    assert hashlib.sha256(data.tobytes()).hexdigest() == GENERATOR_SHA256[n, k]


def test_parity_coefficients_all_nonzero_small():
    code = build_mds(3, 2)
    assert (code.generator.data[:, code.k:] != 0).all()


def test_every_k_subset_invertible():
    # the defining MDS property of the (8,4) generator
    code = build_mds(8, 4)
    for cols in combinations(range(8), 4):
        sub = Gf256Matrix(code.generator.data[:, list(cols)].tolist())
        assert sub.invert() is not None


def test_encode_matches_naive_dot():
    rnd = random.Random(13)
    code = build_mds(10, 5)
    src = [bytes(rnd.randrange(256) for _ in range(37)) for _ in range(5)]
    parity = code.encode(src, 5)
    for j in range(5):
        coeffs = [int(code.generator.data[i, 5 + j]) for i in range(5)]
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
    assert np.array_equal(code.generator.data, np.eye(4, dtype=np.uint8))
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


def test_spec_round_trip():
    code = build_mds(8, 4)
    assert code.spec.family == "mds"
    assert (code.spec.n, code.spec.k) == (8, 4)
