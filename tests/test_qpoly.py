import random
import time
from math import comb, factorial, prod
from pathlib import Path

from hypothesis import given
from hypothesis import strategies as st

import qyt
from qyt.qpoly import Packed, pack, q_table_at, slot_count, slot_width, t_stride, unpack
from qyt.symfun import gen_fn

import oracles


def _trimmed(coeffs):
    """The coefficient list as unpack reads it back: up to the leading
    coefficient, [0] for the zero polynomial."""
    out = list(coeffs)
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out or [0]


def test_q_integer_examples():
    ints = q_table_at(3, 4)[0]
    assert ints[0] == 0
    assert ints[2] == pack((1, 1), 4)
    # at widths 1 and 2 the table holds the values at q = 2 and q = 4
    for width in (1, 2):
        ints = q_table_at(3, width)[0]
        for k in range(8):
            assert ints[k] == sum((1 << width)**i for i in range(k))


def _fact_width(k):
    """A width holding every coefficient of [k]!: they sum to k!."""
    return slot_width(factorial(k))


def test_q_factorial_at_one():
    width = _fact_width(4)
    assert sum(unpack(q_table_at(4, width)[1][4], width)) == 24
    assert q_table_at(0, 4)[1] == (1,)


def test_q_fact_is_the_product_of_the_q_integers():
    # the schoolbook products [1][2]...[f], against the read-back of
    # every prefix product of the table, and the table's [k]! against the
    # same product at q = 2, where the slots overlap
    for k in range(10):
        width = _fact_width(k)
        facts = q_table_at(k, width)[1]
        assert [unpack(v, width) for v in facts] == [
            oracles.q_fact_brute(f) for f in range(k + 1)], k
        product = oracles.q_fact_brute(k)
        assert q_table_at(k, 1)[1][k] == sum(c * 2**d for d, c in enumerate(product)), k


def test_q_table_at_keeps_the_last_table():
    table = q_table_at(5, 8)
    assert q_table_at(5, 8) is table
    assert q_table_at(5, 9) is not table
    assert all(isinstance(part, tuple) for part in table)
    assert all(isinstance(row, tuple) for row in table[2])


def _ordinary_table(n):
    """The table at q = 1, from math alone."""
    return (tuple(range(2 * n + 2)), tuple(factorial(f) for f in range(n + 1)),
            tuple(tuple(comb(a, b) for b in range(n + 1)) for a in range(2 * n + 1)))


def test_width_zero_is_the_ordinary_table():
    for n in range(13):
        assert q_table_at(n, 0) == _ordinary_table(n), n


def test_alternating_widths_each_get_their_own_table():
    # the hit numbers (width 0) and the q-hit numbers (width W) of one n
    # may ask in turn; each must get the table of its own width
    width = slot_width(factorial(6))
    for _ in range(3):
        assert q_table_at(6, 0) == _ordinary_table(6)
        ints, facts, rows = q_table_at(6, width)
        assert ints[2] == (1 << width) + 1
        assert unpack(facts[3], width) == [1, 2, 2, 1]
        assert unpack(rows[4][2], width) == [1, 1, 2, 1, 1]


#: [a choose b] for a <= 12 and b <= 6, read back from one q_table_at
#: at a width that holds their coefficients, which sum to C(a, b).
_N = 6
_WIDTH = comb(2 * _N, _N).bit_length() + 1
_ROWS = q_table_at(_N, _WIDTH)[2]


def _binom(a, b):
    return unpack(_ROWS[a][b], _WIDTH)


def test_gaussian_binomial_examples():
    for a in range(7):
        assert _binom(a, 0) == [1]
    assert _binom(4, 2) == [1, 1, 2, 1, 1]
    assert _ROWS[2][3] == 0  # b > a


def test_gaussian_binomials_specialize_to_binomial():
    for a in range(2 * _N + 1):
        for b in range(min(a, _N) + 1):
            assert sum(_binom(a, b)) == comb(a, b)


def test_gaussian_binomial_degree_and_positivity():
    for a in range(2 * _N + 1):
        for b in range(min(a, _N) + 1):
            coeffs = _binom(a, b)
            assert len(coeffs) - 1 == b * (a - b)
            assert all(c > 0 for c in coeffs)
            if a - b <= _N:
                assert _ROWS[a][a - b] == _ROWS[a][b]


def test_q_pascal_recurrence():
    # the table is built by [a choose b] = [a-1 choose b-1] + q^b [a-1 choose b];
    # it must satisfy the mirrored rule too,
    # [a choose b] = q^(a-b) [a-1 choose b-1] + [a-1 choose b]
    for a in range(1, 2 * _N + 1):
        for b in range(1, min(a, _N) + 1):
            rhs = (_ROWS[a - 1][b - 1] << ((a - b) * _WIDTH)) + _ROWS[a - 1][b]
            assert _ROWS[a][b] == rhs, (a, b)


def test_gaussian_binomials_match_the_inversion_count():
    for a in range(2 * _N + 1):
        for b in range(min(a, _N) + 1):
            assert _binom(a, b) == oracles.q_binom_brute(a, b), (a, b)


def test_q_table_at_evaluates_the_gaussian_binomials():
    # at widths too narrow to read back the values are still those of
    # the polynomials at q = 2, 4 and 8
    for n in range(8):
        for width in (1, 2, 3):
            q = 1 << width
            ints, facts, rows = q_table_at(n, width)
            assert ints == tuple(sum(q**d for d in range(f)) for f in range(2 * n + 2))
            assert facts == tuple(prod(ints[1:f + 1]) for f in range(n + 1))
            for a in range(2 * n + 1):
                for b in range(n + 1):
                    want = sum(c * q**d for d, c in enumerate(oracles.q_binom_brute(a, b)))
                    assert rows[a][b] == (want if b <= a else 0), (n, width, a, b)


def test_q_table_at_matches_the_inversion_count():
    for n in range(11):
        for width in (factorial(n).bit_length() + 1, 64):
            ints, facts, rows = q_table_at(n, width)
            assert ints == tuple(pack((1,) * f, width) for f in range(2 * n + 2))
            assert facts == tuple(pack(oracles.q_fact_brute(f), width) for f in range(n + 1))
            assert rows == tuple(
                tuple(pack(oracles.q_binom_brute(a, b), width) if b <= a else 0
                      for b in range(n + 1))
                for a in range(2 * n + 1)
            ), (n, width)


def test_arithmetic_examples():
    # sums, int multiples, shifts by q^e and products of packed values are
    # those of the polynomials, read back at a width that holds them
    assert unpack(pack((1, 1), 3) << (2 * 3), 3) == [0, 0, 1, 1]
    assert unpack(pack((1, 1), 4) * pack((1, 1, 1), 4), 4) == [1, 2, 2, 1]
    assert unpack(2 * pack((1, 1), 3) - pack((2,), 3), 3) == [0, 2]
    # at width 1 the packed value is the polynomial at q = 2
    assert pack((1, 2, 3), 1) == 1 + 4 + 12


def _smallest_width(coeffs):
    """Fewest bits per slot that hold every coefficient with its sign."""
    return max(map(abs, coeffs), default=0).bit_length() + 1


def test_pack_unpack_round_trips_at_the_smallest_width():
    for coeffs in [(), (0,), (1,), (5,), (-5,), (7, -7, 0, -7), (-3, 0, 7, -8),
                   (0, 0, -1), (1, -1), (-1, 1), (2**70, -(2**70) + 1), (4, 0, 0)]:
        width = _smallest_width(coeffs)
        assert unpack(pack(coeffs, width), width) == _trimmed(coeffs), (coeffs, width)
    assert unpack(0, 1) == [0]
    assert unpack(pack((-3, 0, 7, -8), 5), 5) == [-3, 0, 7, -8]
    # one bit fewer and the top slot reads as a borrow
    assert unpack(pack((7,), 3), 3) != [7]


def test_slot_width_is_a_sign_bit_over_the_largest_bound():
    assert [slot_width(b) for b in (0, 1, 127, 128)] == [1, 2, 8, 9]
    assert slot_width(6, 128, 3) == 9
    # 2^7 and q differ, but not at q = 2^7: a bound of 128 needs 9 bits
    assert pack((128,), 7) == pack((0, 1), 7)
    width = slot_width(128, 1)
    assert pack((128,), width) != pack((0, 1), width)


def test_slot_count_and_t_stride():
    assert slot_count(0, 4) == 1
    for coeffs in [(5,), (1, 2, 3), (5, -7), (0, 0, -1), (-7, 0, 0, 0, 1)]:
        assert slot_count(pack(coeffs, 4), 4) == len(coeffs), coeffs
    rows = [pack((1,), 4), pack((0, 0, 1), 4), pack((3, -2), 4)]
    assert t_stride(rows, 4) == 3
    assert t_stride([0], 4) == 1
    # slot d * S + e of the rows joined at t = q^S holds q^e t^d
    assert unpack(pack(rows, 4 * 3), 4) == [1, 0, 0, 0, 0, 1, 3, -2]


def test_only_qpoly_decides_the_packed_layout():
    # the sign-bit rule and the slot count are written out in qpoly alone
    rules = ("bit_length() + 1", "bit_length() //")
    sources = {path.name: path.read_text(encoding="utf-8")
               for path in Path(qyt.__file__).parent.glob("*.py")}
    assert all(rule in sources["qpoly.py"] for rule in rules)
    assert [name for name, text in sorted(sources.items())
            if name != "qpoly.py" and any(rule in text for rule in rules)] == []


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
    assert unpack(pack(coeffs, width), width) == _trimmed(coeffs)
    assert unpack(pack(coeffs, width + 7), width + 7) == _trimmed(coeffs)


signed_poly = st.lists(
    st.integers(min_value=-(2**35), max_value=2**35), min_size=0, max_size=12
)


def _packed_product(a, b):
    """a * b by one packed big-integer multiply, read back at the width
    the suites compare at (slot_width): each product coefficient is at
    most |a|_1 * |b|_1 in absolute value."""
    width = slot_width(sum(map(abs, a)) * sum(map(abs, b)))
    return unpack(pack(a, width) * pack(b, width), width)


@given(signed_poly, signed_poly)
def test_mul_matches_schoolbook_oracle(a, b):
    assert _packed_product(a, b) == _trimmed(oracles.poly_mul_brute(a, b))
    assert _packed_product(a, [3]) == _trimmed([3 * c for c in a])


@given(signed_poly, signed_poly)
def test_sides_at_their_slot_width_are_equal_only_when_equal(a, b):
    width = slot_width(sum(map(abs, a)), sum(map(abs, b)))
    assert (pack(a, width) == pack(b, width)) == (_trimmed(a) == _trimmed(b))
    assert pack(a, width) == pack(_trimmed(a), width)


def test_constant_products_match_the_packed_route():
    shifted_monomial = (0, 0, 0, 0, 0, -2)
    for c in (0, 1, -3):
        for p in (oracles.q_fact_brute(6), (-4, 0, 9, -1), shifted_monomial, (5,)):
            want = _trimmed(oracles.poly_mul_brute((c,), p))
            assert _packed_product((c,), p) == want, (c, p)
            assert _packed_product(p, (c,)) == want, (c, p)
    assert _packed_product((-3,), shifted_monomial) == [0, 0, 0, 0, 0, 6]


# The text and lists that `board --q-hits`, `expand genfun` and the
# counterexamples print for these values, pinned: (coefficients by
# degree, text, [degree, coefficient] pairs) in q, and (slots, stride,
# text, [q-degree, t-degree, coefficient] triples) in q and t, slot
# d * stride + e holding the coefficient of q^e t^d.  Terms in q and t
# print by q-degree, then t-degree, whatever their slot order.
Q_PRINTED = [
    ((), "0", []),
    ((5,), "5", [[0, 5]]),
    ((-3,), "-3", [[0, -3]]),
    ((1,), "1", [[0, 1]]),
    ((-1,), "-1", [[0, -1]]),
    ((0, 1), "q", [[1, 1]]),
    ((0, -1), "-q", [[1, -1]]),
    ((1, -1, 1, -1), "1 - q + q^2 - q^3", [[0, 1], [1, -1], [2, 1], [3, -1]]),
    ((-1, 1), "-1 + q", [[0, -1], [1, 1]]),
    ((-127, 3, 2, 1), "-127 + 3q + 2q^2 + q^3", [[0, -127], [1, 3], [2, 2], [3, 1]]),
    ((0, 0, -1), "-q^2", [[2, -1]]),
    ((1, 0, -2, 1), "1 - 2q^2 + q^3", [[0, 1], [2, -2], [3, 1]]),
    ((0, 2, -3), "2q - 3q^2", [[1, 2], [2, -3]]),
]

QT_PRINTED = [
    ((), 2, "0", []),
    ((5,), 1, "5", [[0, 0, 5]]),
    ((-1,), 3, "-1", [[0, 0, -1]]),
    ((0, 1), 3, "q", [[1, 0, 1]]),
    ((0, 0, 0, 1), 3, "t", [[0, 1, 1]]),
    ((0, 0, 0, -1), 3, "-t", [[0, 1, -1]]),
    ((0, 0, 1, 1), 3, "t + q^2", [[0, 1, 1], [2, 0, 1]]),
    ((0, 0, -2, 3, 0, 0, -1), 3, "3 t - t^2 - 2 q^2", [[0, 1, 3], [0, 2, -1], [2, 0, -2]]),
    ((1, 0, 0, 0, 0, 2, -7), 2, "1 - 7 t^3 + 2 q t^2", [[0, 0, 1], [0, 3, -7], [1, 2, 2]]),
    ((0, 2, 3), 1, "2 t + 3 t^2", [[0, 1, 2], [0, 2, 3]]),
    ((-4, 0, 0, 0, 0, 0, 0, 0, 1), 4, "-4 + t^2", [[0, 0, -4], [0, 2, 1]]),
    ((0, 0, 0, 0, -1), 3, "-q t", [[1, 1, -1]]),
    ((0, 1, 0, 0, 0, 1, -2), 3, "-2 t^2 + q + q^2 t", [[0, 2, -2], [1, 0, 1], [2, 1, 1]]),
]

# gen_fn(n, with_q) by shape, printed and listed, pinned the same way.
GEN_FN_NO_Q = {
    0: [
        ("", "1", [[0, 0, 1]]),
    ],
    1: [
        ("1", "1", [[0, 0, 1]]),
    ],
    2: [
        ("2", "1", [[0, 0, 1]]),
        ("1,1", "t", [[0, 1, 1]]),
    ],
    3: [
        ("3", "1", [[0, 0, 1]]),
        ("2,1", "2 t", [[0, 1, 2]]),
        ("1,1,1", "t^2", [[0, 2, 1]]),
    ],
    4: [
        ("4", "1", [[0, 0, 1]]),
        ("3,1", "3 t", [[0, 1, 3]]),
        ("2,2", "t + t^2", [[0, 1, 1], [0, 2, 1]]),
        ("2,1,1", "3 t^2", [[0, 2, 3]]),
        ("1,1,1,1", "t^3", [[0, 3, 1]]),
    ],
    5: [
        ("5", "1", [[0, 0, 1]]),
        ("4,1", "4 t", [[0, 1, 4]]),
        ("3,2", "2 t + 3 t^2", [[0, 1, 2], [0, 2, 3]]),
        ("3,1,1", "6 t^2", [[0, 2, 6]]),
        ("2,2,1", "3 t^2 + 2 t^3", [[0, 2, 3], [0, 3, 2]]),
        ("2,1,1,1", "4 t^3", [[0, 3, 4]]),
        ("1,1,1,1,1", "t^4", [[0, 4, 1]]),
    ],
}

GEN_FN_Q = {
    0: [
        ("", "1", [[0, 0, 1]]),
    ],
    1: [
        ("1", "1", [[0, 0, 1]]),
    ],
    2: [
        ("2", "1", [[0, 0, 1]]),
        ("1,1", "q t", [[1, 1, 1]]),
    ],
    3: [
        ("3", "1", [[0, 0, 1]]),
        ("2,1", "q t + q^2 t", [[1, 1, 1], [2, 1, 1]]),
        ("1,1,1", "q^3 t^2", [[3, 2, 1]]),
    ],
    4: [
        ("4", "1", [[0, 0, 1]]),
        ("3,1", "q t + q^2 t + q^3 t", [[1, 1, 1], [2, 1, 1], [3, 1, 1]]),
        ("2,2", "q^2 t + q^4 t^2", [[2, 1, 1], [4, 2, 1]]),
        ("2,1,1", "q^3 t^2 + q^4 t^2 + q^5 t^2", [[3, 2, 1], [4, 2, 1], [5, 2, 1]]),
        ("1,1,1,1", "q^6 t^3", [[6, 3, 1]]),
    ],
}


def test_str_and_pairs():
    for coeffs, text, pairs in Q_PRINTED:
        for width in (_smallest_width(coeffs), 64):
            p = Packed(pack(coeffs, width), width)
            assert (str(p), p.pairs()) == (text, pairs), (coeffs, width)


def test_str_and_triples():
    for slots, stride, text, triples in QT_PRINTED:
        for width in (_smallest_width(slots), 64):
            p = Packed(pack(slots, width), width, stride)
            assert (str(p), p.triples()) == (text, triples), (slots, stride, width)


def _whole_read_back(p):
    """The triples of p read from every slot of the whole value."""
    return sorted([s % p.stride, s // p.stride, c]
                  for s, c in enumerate(unpack(p.value, p.width)) if c)


def test_row_wise_triples_match_the_whole_read_back():
    for with_q in (True, False):
        for n in range(15):
            for shape, p in gen_fn(n, with_q).items():
                assert p.triples() == _whole_read_back(p), (n, with_q, shape)


@st.composite
def _qt_slots(draw):
    """(slots, width, stride): t-rows of signed slots that each fit the
    width, one of the rows in the middle all zero when there are three or
    more."""
    width = draw(st.integers(min_value=2, max_value=12))
    stride = draw(st.integers(min_value=1, max_value=5))
    bound = (1 << (width - 1)) - 1
    rows = draw(st.lists(st.lists(st.integers(-bound, bound), min_size=stride, max_size=stride),
                         min_size=1, max_size=6))
    if len(rows) >= 3:
        rows[draw(st.integers(1, len(rows) - 2))] = [0] * stride
    return [c for row in rows for c in row], width, stride


@given(_qt_slots())
def test_row_wise_triples_read_every_signed_slot(case):
    slots, width, stride = case
    p = Packed(pack(slots, width), width, stride)
    assert p.triples() == sorted([s % stride, s // stride, c] for s, c in enumerate(slots) if c)


def test_gen_fn_prints_and_lists_as_before():
    for with_q, table in ((False, GEN_FN_NO_Q), (True, GEN_FN_Q)):
        for n, listed in table.items():
            got = [(str(shape), str(p), p.triples()) for shape, p in gen_fn(n, with_q).items()]
            assert got == listed, (n, with_q)


def test_packed_equality():
    # equal when value, width and stride are: the same polynomial at
    # another width or stride is another value, and an int is none
    p = Packed(pack((-127, 3, 2, 1), 8), 8)
    assert p == Packed(p.value, 8) and not p != Packed(p.value, 8)
    assert p != Packed(p.value, 9)
    assert p != Packed(pack((-127, 3, 2, 1), 9), 9)
    assert Packed(5, 4, 2) != Packed(5, 4, 3) and Packed(5, 4, 2) != Packed(5, 4)
    assert Packed(3, 4) != 3
