from itertools import permutations
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from chromsym import (
    Poset,
    is_nonincreasing,
    nsp_bruteforce,
    nsp_chain_union,
    partitions_of,
)


def example_poset():
    return Poset(
        6, [(0, 1), (1, 5), (0, 2), (2, 4), (3, 2), (1, 4)], labels=list("abcdef")
    )


def test_is_nonincreasing_examples():
    p = example_poset()
    cfda = [p.element(x) for x in "cfda"]
    assert is_nonincreasing(cfda, p)
    ebfd = [p.element(x) for x in "ebfd"]
    assert not is_nonincreasing(ebfd, p)
    eacd = [p.element(x) for x in "eacd"]
    assert not is_nonincreasing(eacd, p)
    assert is_nonincreasing([p.element("a")], p)
    assert is_nonincreasing([], p)
    # a full-length one from the same poset
    febca_d = [p.element(x) for x in "febcad"]
    assert is_nonincreasing(febca_d, p)


def test_nsp_bruteforce_anchors():
    assert nsp_bruteforce(Poset.chain_union(())) == 1
    assert nsp_bruteforce(Poset.chain_union((3,))) == 1
    assert nsp_bruteforce(Poset.chain_union((2, 2))) == 14
    assert nsp_bruteforce(Poset.chain_union((2, 1))) == 4


def test_nsp_bruteforce_cap():
    assert nsp_bruteforce(Poset.chain_union((5, 5))) == nsp_chain_union((5, 5))


def test_nsp_chain_union_values():
    assert nsp_chain_union(()) == 1
    assert nsp_chain_union((2, 1)) == 4
    assert nsp_chain_union((3, 2)) == 46
    assert nsp_chain_union((1, 1, 1)) == 6  # complete graph: every order works
    with pytest.raises(ValueError):
        nsp_chain_union((2, 0))


def test_nsp_chain_union_matches_bruteforce():
    for n in range(8):
        for lam in partitions_of(n):
            expected = nsp_bruteforce(Poset.chain_union(lam))
            assert nsp_chain_union(lam) == expected, lam


def test_nsp_invariant_under_chain_order():
    for arrangement in [(2, 3), (3, 2)]:
        assert nsp_bruteforce(Poset.chain_union(arrangement)) == 46
    assert nsp_chain_union((3, 2)) == 46
    for lam in [(4, 4, 3, 3), (3, 2, 2, 1), (5, 1, 2, 1), (3,) + (2,) * 4]:
        values = {nsp_chain_union(order) for order in permutations(lam)}
        assert values == {nsp_chain_union(lam)}, lam


def test_nsp_chain_union_pinned_values():
    # reference values from a sum over block-count vectors
    assert nsp_chain_union((3,) + (2,) * 7) == 194465276369280
    assert nsp_chain_union((4, 4, 3, 3)) == 21693217464
    assert nsp_chain_union((7,) * 6) == (
        58215641824462047457894859941480189937616591780720
    )
    for length in range(1, 301):
        assert nsp_chain_union((length,)) == 1, length
    for k in range(12):
        assert nsp_chain_union((1,) * k) == factorial(k), k


@st.composite
def chain_unions(draw):
    lengths = []
    while True:
        length = draw(st.integers(1, 6))
        if sum(lengths) + length > 11 or not draw(st.booleans()):
            return tuple(lengths)
        lengths.append(length)


@settings(max_examples=60, deadline=None)
@given(chain_unions())
def test_nsp_chain_union_matches_bruteforce_random(lengths):
    assert nsp_chain_union(lengths) == nsp_bruteforce(Poset.chain_union(lengths))


def test_nsp_isolated_vertex_monotone():
    for m in range(5):
        with_extra = nsp_chain_union((2,) * m + (1,))
        without = nsp_chain_union((2,) * m)
        assert with_extra >= without
