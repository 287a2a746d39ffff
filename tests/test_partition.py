import re
from collections import Counter
from itertools import combinations, product
from math import factorial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qyt.partition import Partition, as_partition, partitions

import oracles


def all_partitions_upto(n):
    for size in range(n + 1):
        yield from partitions(size)


partition_parts = st.lists(
    st.integers(min_value=1, max_value=9), min_size=0, max_size=6
).map(lambda xs: tuple(sorted(xs, reverse=True)))


def test_construction_normalizes_zeros():
    assert Partition((3, 2, 0)) == Partition((3, 2))
    assert Partition(()).parts == ()
    assert Partition.parse("3,2,0") == Partition((3, 2))
    assert Partition.parse("") == Partition()


def test_construction_rejects_bad_input():
    with pytest.raises(ValueError):
        Partition((2, 3))
    with pytest.raises(ValueError):
        Partition((3, -1))


def test_text_round_trip():
    for parts in [(), (1,), (4, 2, 1), (3, 3, 3)]:
        lam = Partition(parts)
        assert Partition.parse(str(lam)) == lam


def test_as_partition_parses_text():
    assert as_partition("10") == Partition((10,))
    assert as_partition("3,3,2,2") == Partition((3, 3, 2, 2))
    assert as_partition("") == Partition()
    assert as_partition((2, 1)) == Partition((2, 1))
    lam = Partition((4, 1))
    assert as_partition(lam) is lam
    with pytest.raises(ValueError):
        as_partition("2,3")


def test_conjugate_examples():
    assert Partition((4, 2, 1)).conjugate() == Partition((3, 2, 1, 1))
    assert Partition(()).conjugate() == Partition(())
    assert Partition((3, 2)).conjugate() == Partition((2, 2, 1))


@given(partition_parts)
def test_conjugate_involution(parts):
    lam = Partition(parts)
    assert lam.conjugate().conjugate() == lam


def test_contents_examples():
    assert Counter(Partition((4, 2, 1)).contents()) == Counter([-2, -1, 0, 0, 1, 2, 3])
    assert Partition((1,)).contents() == [0]
    assert Partition((3,)).contents() == [0, 1, 2]


def test_hooks_examples():
    assert Counter(Partition((4, 2, 1)).hooks()) == Counter([1, 1, 1, 2, 3, 4, 6])
    assert Counter(Partition((1, 1, 1)).hooks()) == Counter([1, 2, 3])
    assert Counter(Partition((2, 2)).hooks()) == Counter([3, 2, 2, 1])


def test_hook_multiset_conjugation_invariant():
    for lam in all_partitions_upto(8):
        assert Counter(lam.hooks()) == Counter(lam.conjugate().hooks())


def test_hook_sum_identity():
    # sum of hooks = n + n(lam) + n(lam')
    for lam in all_partitions_upto(10):
        assert sum(lam.hooks()) == lam.size + lam.n_stat() + lam.conjugate().n_stat()


def test_n_stat_examples():
    assert Partition((4, 2, 1)).n_stat() == 4
    assert Partition((7,)).n_stat() == 0
    assert Partition((1, 1, 1)).n_stat() == 3


def test_dominates_examples():
    assert Partition((3, 2)).dominates(Partition((2, 2, 1)))
    assert not Partition((2, 2)).dominates(Partition((3, 1)))
    lam = Partition((3, 1))
    assert lam.dominates(lam)
    with pytest.raises(ValueError):
        Partition((2,)).dominates(Partition((3,)))


def test_dominance_is_a_partial_order():
    for n in range(1, 9):
        shapes = list(partitions(n))
        for a in shapes:
            assert a.dominates(a)
        for a, b in combinations(shapes, 2):
            assert not (a.dominates(b) and b.dominates(a) and a != b)
        for a, b, c in product(shapes, repeat=3):
            if a.dominates(b) and b.dominates(c):
                assert a.dominates(c)


def test_hook_length_count_examples():
    assert Partition((3, 2)).hook_length_count() == 5
    assert Partition((6,)).hook_length_count() == 1
    assert Partition((2, 2, 1)).hook_length_count() == 5


def test_hook_length_count_matches_enumeration():
    from qyt.tableau import enumerate_syt

    for lam in all_partitions_upto(8):
        assert lam.hook_length_count() == len(enumerate_syt(lam))


def test_hook_length_count_matches_oracle():
    for lam in all_partitions_upto(6):
        assert lam.hook_length_count() == len(oracles.syt_brute(lam.parts))


def test_hook_content_count_examples():
    assert Partition((2, 2)).hook_content_count(3) == 6
    assert Partition((2, 2)).hook_content_count(1) == 0
    # brute-force SSYT_2(3,2): only 111/22 and 112/22
    assert Partition((3, 2)).hook_content_count(2) == 2


def test_hook_content_count_matches_enumeration():
    from qyt.tableau import enumerate_ssyt

    for lam in all_partitions_upto(6):
        for m in range(7):
            assert lam.hook_content_count(m) == len(enumerate_ssyt(lam, m))


def test_hook_content_count_matches_oracle():
    for lam in all_partitions_upto(6):
        for m in range(7):
            want = len(oracles.ssyt_brute(lam.parts, m))
            assert lam.hook_content_count(m) == want
            if m < len(lam):  # a column taller than m cannot be filled
                assert want == 0


def test_hook_content_row_matches_single_counts_and_oracle():
    for lam in all_partitions_upto(6):
        row = [lam.hook_content_count(0), *lam.hook_content_counts(6)]
        assert row == [lam.hook_content_count(m) for m in range(7)]
        assert row == [len(oracles.ssyt_brute(lam.parts, m)) for m in range(7)]
    assert Partition((2, 2)).hook_content_counts(0) == []
    with pytest.raises(ValueError):
        Partition((2, 2)).hook_content_counts(-1)
    with pytest.raises(ValueError, match="m must be nonnegative"):
        Partition((2, 2)).hook_content_count(-1)


@pytest.mark.parametrize("text", ["3,,2", ",", "3,x", "3,2,", "-1", "3, ,2"])
def test_parse_rejects_bad_pieces(text):
    with pytest.raises(ValueError, match=re.escape(f"cannot parse shape: {text!r}")):
        Partition.parse(text)


def test_parse_allows_spaces_around_parts():
    assert Partition.parse(" 3, 2 ") == Partition((3, 2))


def test_partitions_iteration_order():
    assert [p.parts for p in partitions(5)] == [
        (5,),
        (4, 1),
        (3, 2),
        (3, 1, 1),
        (2, 2, 1),
        (2, 1, 1, 1),
        (1, 1, 1, 1, 1),
    ]


def test_partition_counts():
    expected = {0: 1, 1: 1, 2: 2, 3: 3, 4: 5, 5: 7, 6: 11, 7: 15, 8: 22, 9: 30}
    for n, count in expected.items():
        assert sum(1 for _ in partitions(n)) == count


def test_hook_product_divides_factorial():
    for lam in all_partitions_upto(10):
        assert factorial(lam.size) % lam.hook_product() == 0
