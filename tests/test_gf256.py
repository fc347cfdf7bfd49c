"""GF(256) arithmetic and the systematic MDS codec against schoolbook oracles."""
from __future__ import annotations

import random
from itertools import combinations

import pytest

from erasurelab.gf256 import Gf256Matrix, build_mds, gf_inv, gf_mul


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
            assert gf_mul(a, b) == slow_mul(a, b)


def test_generator_cycles_through_all_nonzero():
    seen = set()
    x = 1
    for _ in range(255):
        seen.add(x)
        x = gf_mul(x, 2)
    assert seen == set(range(1, 256))
    assert x == 1


def test_inverse_property():
    for a in range(1, 256):
        assert gf_mul(a, gf_inv(a)) == 1
    with pytest.raises(ZeroDivisionError):
        gf_inv(0)


def test_vandermonde_tiny():
    v = Gf256Matrix.vandermonde(1, [0, 1])
    assert v.data.tolist() == [[1, 1]]


def test_matrix_inverse_round_trip():
    rnd = random.Random(77)
    for _ in range(50):
        n = rnd.randrange(1, 7)
        m = Gf256Matrix([[rnd.randrange(256) for _ in range(n)] for _ in range(n)])
        inv = m.invert()
        if inv is None:
            continue
        assert m.matmul(inv).data.tolist() == Gf256Matrix.identity(n).data.tolist()


def test_generator_is_systematic():
    code = build_mds(8, 4)
    left = code.generator.data[:, :4]
    assert left.tolist() == Gf256Matrix.identity(4).data.tolist()


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
    with pytest.raises(ValueError):
        build_mds(4, 4)
    with pytest.raises(ValueError):
        build_mds(4, 0)
    with pytest.raises(ValueError):
        build_mds(257, 10)
    code = build_mds(256, 128)
    assert code.n == 256 and code.k == 128


def test_spec_round_trip():
    code = build_mds(8, 4)
    assert code.spec.family == "mds"
    assert (code.spec.n, code.spec.k) == (8, 4)
