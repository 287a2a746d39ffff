import random
import time
from math import comb, factorial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qyt.qpoly import (
    QPoly,
    QTPoly,
    pack,
    q_binom,
    q_binom_at,
    q_fact,
    q_fact_at,
    q_int,
    q_table_at,
    unpack,
)
from qyt.verify import _width

import oracles


def test_q_int_examples():
    assert q_int(0) == QPoly()
    assert q_int(2) == QPoly((1, 1))
    with pytest.raises(ValueError):
        q_int(-1)


def test_q_fact_at_one():
    assert sum(q_fact(4).coeffs) == 24
    assert q_fact(0) == QPoly((1,))
    with pytest.raises(ValueError):
        q_fact(-1)


def test_q_fact_is_the_product_of_the_q_integers():
    # the schoolbook product [1][2]...[k], against the read-back of
    # q_fact_at, and q_fact_at against the q-integers at q = 3
    product = [1]
    for k in range(10):
        if k:
            product = oracles.poly_mul_brute(product, q_int(k).coeffs)
        assert q_fact(k) == QPoly(product), k
        assert q_fact_at(k, 3) == sum(c * 3**d for d, c in enumerate(product)), k


def test_q_binom_examples():
    for a in range(7):
        assert q_binom(a, 0) == QPoly((1,))
    assert q_binom(4, 2) == QPoly((1, 1, 2, 1, 1))
    with pytest.raises(ValueError):
        q_binom(2, 3)


def test_q_binom_specializes_to_binomial():
    for a in range(13):
        for b in range(a + 1):
            assert sum(q_binom(a, b).coeffs) == comb(a, b)


def test_q_binom_degree_and_positivity():
    for a in range(11):
        for b in range(a + 1):
            p = q_binom(a, b)
            assert len(p.coeffs) - 1 == b * (a - b)
            assert all(c > 0 for c in p.coeffs)


def test_q_pascal_recurrence():
    # [a choose b] = [a-1 choose b-1] + q^b [a-1 choose b], packed at a
    # width that holds every coefficient of either side
    for a in range(1, 11):
        for b in range(a + 1):
            width = comb(a, b).bit_length() + 1
            rhs = 0
            if b >= 1:
                rhs += pack(q_binom(a - 1, b - 1).coeffs, width)
            if b <= a - 1:
                rhs += pack(q_binom(a - 1, b).coeffs, width) << (b * width)
            assert pack(q_binom(a, b).coeffs, width) == rhs, (a, b)


def test_arithmetic_examples():
    # sums, int multiples, shifts by q^e and products of packed values are
    # those of the polynomials, read back at a width that holds them
    assert unpack(pack((1, 1), 3) << (2 * 3), 3) == [0, 0, 1, 1]
    assert unpack(pack(q_int(2).coeffs, 4) * pack(q_int(3).coeffs, 4), 4) == [1, 2, 2, 1]
    assert unpack(2 * pack(q_int(2).coeffs, 3) - pack((2,), 3), 3) == [0, 2]
    # at width 1 the packed value is the polynomial at q = 2
    assert pack((1, 2, 3), 1) == 1 + 4 + 12


def _smallest_width(coeffs):
    """Fewest bits per slot that hold every coefficient with its sign."""
    return max(map(abs, coeffs), default=0).bit_length() + 1


def test_pack_unpack_round_trips_at_the_smallest_width():
    for coeffs in [(), (0,), (1,), (5,), (-5,), (7, -7, 0, -7), (-3, 0, 7, -8),
                   (0, 0, -1), (1, -1), (-1, 1), (2**70, -(2**70) + 1)]:
        width = _smallest_width(coeffs)
        got = QPoly(unpack(pack(coeffs, width), width))
        assert got == QPoly(coeffs), (coeffs, width)
    assert unpack(0, 1) == [0]
    assert unpack(pack((-3, 0, 7, -8), 5), 5) == [-3, 0, 7, -8]
    # one bit fewer and the top slot reads as a borrow
    assert unpack(pack((7,), 3), 3) != [7]


def test_unpack_reads_long_values_block_by_block():
    # about 10^5 signed slots in all, across many blocks of 256 slots;
    # the value is packed a thousand slots at a time and those packed at
    # 1000 * width, so pack also meets slots far wider than their values
    rng = random.Random(18)
    for width, slots, lead in [(2, 60_000, -1), (9, 30_000, 255), (40, 10_000, -(2**39) + 1)]:
        bound = 2 ** (width - 1)
        coeffs = [rng.randrange(-bound + 1, bound) for _ in range(slots - 1)] + [lead]
        value = pack([pack(coeffs[i:i + 1000], width) for i in range(0, slots, 1000)],
                     1000 * width)
        assert unpack(value, width) == coeffs, width


def test_pack_is_linear_in_the_slot_count():
    # 100 000 signed slots at each width, the leading one at either end
    # of its range, packed in one call: by Horner's rule alone this took
    # seconds at width 9
    rng = random.Random(19)
    cases = []
    for width, lead in [(2, -1), (9, 255), (40, -(2**39) + 1)]:
        bound = 2 ** (width - 1)
        coeffs = [rng.randrange(-bound + 1, bound) for _ in range(99_999)] + [lead]
        cases.append((width, coeffs))
    started = time.perf_counter()
    for width, coeffs in cases:
        assert unpack(pack(coeffs, width), width) == coeffs, width
    assert time.perf_counter() - started < 0.5


@given(st.lists(st.integers(min_value=-(2**40), max_value=2**40), max_size=8))
def test_pack_unpack_property(coeffs):
    width = _smallest_width(coeffs)
    assert QPoly(unpack(pack(coeffs, width), width)) == QPoly(coeffs)
    assert QPoly(unpack(pack(coeffs, width + 7), width + 7)) == QPoly(coeffs)


signed_poly = st.lists(
    st.integers(min_value=-(2**35), max_value=2**35), min_size=0, max_size=12
)


def _packed_product(a, b):
    """a * b by one packed big-integer multiply, read back at the width
    the suites compare at (verify._width): each product coefficient is at
    most |a|_1 * |b|_1 in absolute value."""
    width = _width(sum(map(abs, a)) * sum(map(abs, b)))
    return QPoly(unpack(pack(a, width) * pack(b, width), width))


@given(signed_poly, signed_poly)
def test_mul_matches_schoolbook_oracle(a, b):
    assert _packed_product(a, b) == QPoly(oracles.poly_mul_brute(a, b))
    assert _packed_product(a, [3]) == QPoly([3 * c for c in a])


def test_constant_products_match_the_packed_route():
    shifted_monomial = (0, 0, 0, 0, 0, -2)
    for c in (0, 1, -3):
        for p in (q_fact(6).coeffs, (-4, 0, 9, -1), shifted_monomial, (5,)):
            want = QPoly(oracles.poly_mul_brute((c,), p))
            assert _packed_product((c,), p) == want, (c, p)
            assert _packed_product(p, (c,)) == want, (c, p)
    assert _packed_product((-3,), shifted_monomial).coeffs == (0, 0, 0, 0, 0, 6)


def test_str_and_pairs():
    p = QPoly((1, 0, -2, 1))
    assert str(p) == "1 - 2q^2 + q^3"
    assert p.pairs() == [[0, 1], [2, -2], [3, 1]]
    assert str(QPoly()) == "0"


def test_qtpoly_triples_and_equality():
    p = QTPoly({(3, 2): 1, (1, 2): 2, (0, 0): 5})
    assert p.triples() == [[0, 0, 5], [1, 2, 2], [3, 2, 1]]
    # repeated terms add up on construction, and a zero sum is dropped
    assert QTPoly([((1, 2), 2), ((0, 0), 5), ((1, 2), -2)]) == QTPoly.term(0, 0, 5)
    assert not QTPoly([((1, 1), 1), ((1, 1), -1)])
    assert hash(QTPoly(dict(p.coeffs))) == hash(p)
    # a QTPoly equals only a QTPoly with the same terms
    assert QTPoly.term(1, 0) != QTPoly.term(0, 1)
    assert QTPoly.term(0, 0, 3) != 3
    with pytest.raises(ValueError):
        QTPoly({(-1, 0): 1})


def test_qtpoly_str():
    assert str(QTPoly({(3, 2): 1})) == "q^3 t^2"
    assert str(QTPoly({(0, 1): 2, (0, 2): 3})) == "2 t + 3 t^2"
    assert str(QTPoly()) == "0"


def test_q_binom_at_evaluates_the_gaussian_binomial():
    # against the inversion count, since q_binom is read from q_binom_at
    for a in range(10):
        for b in range(a + 1):
            for q in (2, 3, 1 << 7):
                want = sum(c * q**d for d, c in enumerate(oracles.q_binom_brute(a, b)))
                assert q_binom_at(a, b, q) == want
    with pytest.raises(ValueError):
        q_binom_at(2, 3, 2)


def test_q_binom_matches_the_inversion_count():
    for a in range(13):
        for b in range(a + 1):
            assert q_binom(a, b) == QPoly(oracles.q_binom_brute(a, b)), (a, b)


def test_q_table_at_matches_the_inversion_count():
    for n in range(11):
        for width in (factorial(n).bit_length() + 1, 64):
            ints, binoms = q_table_at(n, width)
            assert ints == [pack((1,) * f, width) for f in range(2 * n + 2)]
            assert binoms == [
                pack(oracles.q_binom_brute(a, n), width) if a >= n else 0
                for a in range(2 * n + 1)
            ], (n, width)
