import pytest

from qyt.perm import format_word, multiset_perms, parse_word, perms

import oracles


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
            counts[sum(oracles.descents_of_word(p))] += 1
        assert counts == oracles.q_fact_brute(n)


def test_parse_and_format():
    assert parse_word("45312") == (4, 5, 3, 1, 2)
    assert parse_word("10,4,2") == (10, 4, 2)
    assert format_word((4, 5, 3, 1, 2)) == "45312"
    assert format_word((10, 4, 2)) == "10,4,2"
    with pytest.raises(ValueError):
        parse_word("4a1")
