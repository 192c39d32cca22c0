import pytest

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
            expected = nsp_bruteforce(Poset.chain_union(lam.parts))
            assert nsp_chain_union(lam.parts) == expected, lam


def test_nsp_invariant_under_chain_order():
    for arrangement in [(2, 3), (3, 2)]:
        assert nsp_bruteforce(Poset.chain_union(arrangement)) == 46
    assert nsp_chain_union((3, 2)) == 46


def test_nsp_isolated_vertex_monotone():
    for m in range(5):
        with_extra = nsp_chain_union((2,) * m + (1,))
        without = nsp_chain_union((2,) * m)
        assert with_extra >= without
