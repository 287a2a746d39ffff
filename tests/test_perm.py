import pytest
from hypothesis import given
from hypothesis import strategies as st

from qyt.perm import (
    des,
    descent_set,
    format_word,
    inverse,
    maj,
    multiset_perms,
    parse_word,
    perms,
)

import oracles

random_perm = st.permutations(range(1, 8)).map(tuple)


def test_descent_set_examples():
    assert descent_set((4, 5, 3, 1, 2)) == {2, 3}
    assert descent_set((1, 2, 3, 4, 5)) == set()
    assert descent_set((1, 2, 2, 1, 3)) == {3}


def test_maj_des_examples():
    assert maj((4, 5, 3, 1, 2)) == 5
    assert des((4, 5, 3, 1, 2)) == 2
    n = 6
    rev = tuple(range(n, 0, -1))
    assert maj(rev) == n * (n - 1) // 2
    assert des(rev) == n - 1
    assert maj(tuple(range(1, 6))) == 0


def test_inverse_examples():
    assert inverse((1, 2, 3, 4, 5)) == (1, 2, 3, 4, 5)
    assert inverse((2, 1, 3, 4, 5)) == (2, 1, 3, 4, 5)
    with pytest.raises(ValueError):
        inverse((1, 1, 2))


@given(random_perm)
def test_inverse_composes_to_identity(p):
    n = len(p)
    inv = inverse(p)
    assert tuple(p[v - 1] for v in inv) == tuple(range(1, n + 1))
    assert tuple(inv[v - 1] for v in p) == tuple(range(1, n + 1))
    assert inverse(inverse(p)) == p


def test_descents_stable_under_double_inverse():
    for n in range(1, 7):
        for p in perms(n):
            assert descent_set(p) == descent_set(inverse(inverse(p)))


def test_perms_stream():
    words = list(perms(3))
    assert len(words) == 6
    assert words == sorted(words)
    assert words[0] == (1, 2, 3)


def test_multiset_perms_examples():
    assert list(multiset_perms((2, 1))) == [(1, 1, 2), (1, 2, 1), (2, 1, 1)]
    assert len(list(multiset_perms((1, 1, 1)))) == 6
    assert set(multiset_perms((1, 1, 1))) == set(perms(3))


def test_maj_is_mahonian():
    for n in range(1, 8):
        counts = [0] * (n * (n - 1) // 2 + 1)
        for p in perms(n):
            counts[maj(p)] += 1
        assert counts == oracles.q_fact_brute(n)


def test_parse_and_format():
    assert parse_word("45312") == (4, 5, 3, 1, 2)
    assert parse_word("10,4,2") == (10, 4, 2)
    assert format_word((4, 5, 3, 1, 2)) == "45312"
    assert format_word((10, 4, 2)) == "10,4,2"
    with pytest.raises(ValueError):
        parse_word("4a1")
