import pytest
from hypothesis import given, settings, strategies as st

import chromsym.oracle as oracle
from chromsym import (
    Graph,
    KostkaMatrix,
    Partition,
    Poset,
    SSYT,
    SymFunc,
    UnequalWeightError,
    coloring_count,
    dominates,
    enumerate_srh_tabloids,
    enumerate_ssyt,
    expand_schur,
    incomparability_graph,
    kostka,
    monomial_to_schur,
    multipartite,
    partitions_of,
    schur_to_monomial,
    specialize_ones,
    x_in_monomial,
)


def test_ssyt_validation():
    SSYT([[1, 1, 2], [2, 3]])
    with pytest.raises(ValueError):
        SSYT([[1, 1], [1, 2]])  # column repeats
    with pytest.raises(ValueError):
        SSYT([[2, 1]])  # row decreases
    with pytest.raises(ValueError):
        SSYT([[1], [1, 2]])  # rows not a partition


def test_kostka_values():
    assert kostka((3, 2), (3, 2)) == 1
    assert kostka((3, 2), (2, 1, 1, 1)) == 3
    assert kostka((2, 2, 1), (2, 1, 1, 1)) == 2
    assert kostka((3, 1), (2, 2)) == 1
    assert kostka((2, 2), (3, 1)) == 0
    with pytest.raises(UnequalWeightError):
        kostka((2, 1), (2, 2))


def test_kostka_matches_explicit_enumeration():
    for n in range(7):
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                assert kostka(lam, mu) == sum(
                    1 for _ in enumerate_ssyt(lam, mu)
                ), (lam, mu)


def test_kostka_unitriangular():
    for n in range(8):
        for lam in partitions_of(n):
            assert kostka(lam, lam) == 1
            for mu in partitions_of(n):
                if kostka(lam, mu):
                    assert dominates(lam, mu), (lam, mu)


def test_inverse_kostka_matches_signed_tabloid_census():
    for n in range(1, 8):
        inverse = KostkaMatrix(n).inverse()
        census = {}
        for lam in partitions_of(n):
            for t in enumerate_srh_tabloids(lam):
                key = (tuple(sorted(t.content, reverse=True)), lam)
                census[key] = census.get(key, 0) + t.sign
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                assert inverse.get((mu, lam), 0) == census.get((mu, lam), 0), (mu, lam)


def test_x_in_monomial_values():
    c4 = multipartite((2, 2))
    assert dict(x_in_monomial(c4).items()) == {
        Partition((2, 2)): 2,
        Partition((2, 1, 1)): 4,
        Partition((1, 1, 1, 1)): 24,
    }
    claw = multipartite((3, 1))
    assert dict(x_in_monomial(claw).items()) == {
        Partition((3, 1)): 1,
        Partition((2, 1, 1)): 6,
        Partition((1, 1, 1, 1)): 24,
    }
    single = multipartite((1,))
    assert dict(x_in_monomial(single).items()) == {Partition((1,)): 1}


def test_monomial_to_schur_solves_c4():
    c4 = multipartite((2, 2))
    schur = monomial_to_schur(x_in_monomial(c4))
    assert dict(schur.items()) == {
        Partition((2, 2)): 2,
        Partition((2, 1, 1)): 2,
        Partition((1, 1, 1, 1)): 14,
    }


def test_elementary_is_a_single_column():
    # the all-ones monomial equals the single-column Schur function
    for n in range(1, 7):
        f = SymFunc("monomial", n, {(1,) * n: 1})
        assert dict(monomial_to_schur(f).items()) == {Partition((1,) * n): 1}


@st.composite
def schur_functions(draw):
    """Degree up to 8; up to four nonzero coefficients, so that most are 0
    once n >= 5."""
    n = draw(st.integers(min_value=1, max_value=8))
    coeffs = draw(
        st.dictionaries(
            st.sampled_from(list(partitions_of(n))),
            st.integers(min_value=-4, max_value=4),
            max_size=4,
        )
    )
    return SymFunc("schur", n, coeffs)


@settings(max_examples=60, deadline=None)
@given(schur_functions())
def test_schur_monomial_round_trip(f):
    assert monomial_to_schur(schur_to_monomial(f)) == f


def test_kostka_solve_skips_contents_before_the_shape(monkeypatch):
    # K_lam,mu = 0 unless lam dominates mu, which implies lam >= mu
    # lexicographically; the solve must not ask for the other pairs
    poset = Poset(9, [(i, j) for i in range(9) for j in range(i + 3, 9)])
    graph = incomparability_graph(poset)
    real = oracle._kostka
    depth = [0]
    asked = []

    def spy(shape, content):
        if not depth[0]:
            asked.append((shape, content))
        depth[0] += 1
        try:
            return real(shape, content)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(oracle, "_kostka", spy)
    expansion = expand_schur(graph, "oracle")
    assert asked
    assert all(shape >= content for shape, content in asked)
    assert expansion == expand_schur(graph, "ww")


def test_basis_guards():
    f = SymFunc("schur", 2, {(2,): 1})
    with pytest.raises(ValueError):
        monomial_to_schur(f)
    g = SymFunc("monomial", 2, {(2,): 1})
    with pytest.raises(ValueError):
        schur_to_monomial(g)


def test_symfunc_refuses_a_bad_basis_degree_or_key():
    with pytest.raises(ValueError, match="^basis must be one of .*, got 'power'$"):
        SymFunc("power", 2)
    with pytest.raises(ValueError, match="^degree must be nonnegative$"):
        SymFunc("schur", -1)
    with pytest.raises(ValueError, match=r"^Partition\(2, 1\) is not a partition of 2$"):
        SymFunc("schur", 2, {(2, 1): 1})


def test_coloring_count():
    claw = multipartite((3, 1))
    assert coloring_count(claw, 2) == 2
    assert coloring_count(claw, 0) == 0
    edgeless = multipartite((3,))
    for q in range(4):
        assert coloring_count(edgeless, q) == q**3


def test_vertex_caps():
    big = multipartite((8, 8))
    assert x_in_monomial(big)[(8, 8)] == 2
    assert coloring_count(big, 2) == 2
    # m_(16) = p_16 is the alternating sum of the hooks
    hooks = monomial_to_schur(SymFunc("monomial", 16, {(16,): 1}))
    assert dict(hooks.items()) == {(16 - k,) + (1,) * k: (-1) ** k for k in range(16)}


def test_specialization_matches_colorings_in_monomial_basis():
    for lam in [(2, 2), (3, 1), (3, 2), (2, 2, 1)]:
        g = multipartite(lam)
        f = x_in_monomial(g)
        for q in range(5):
            assert specialize_ones(f, q) == coloring_count(g, q), (lam, q)


def test_specialization_matches_colorings_in_schur_basis():
    c5 = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    schur = monomial_to_schur(x_in_monomial(c5))
    for q in range(5):
        assert specialize_ones(schur, q) == coloring_count(c5, q)


def test_schur_specialization_matches_the_monomial_basis():
    # the Schur branch uses the hook-content formula, the monomial branch
    # counts arrangements of each content: no code in common
    for n in range(8):
        for lam in partitions_of(n):
            s_lam = SymFunc("schur", n, {lam: 1})
            m_lam = schur_to_monomial(s_lam)
            for q in range(6):
                assert specialize_ones(s_lam, q) == specialize_ones(m_lam, q), (lam, q)


def test_symfunc_json_round_trip():
    f = SymFunc("schur", 4, {(2, 2): 2, (1, 1, 1, 1): 14})
    assert SymFunc.from_json(f.to_json()) == f
    data = f.to_json()
    assert data["coeffs"][0]["value"] == "2"
    # read as strictly as posets and graphs: no truncated, boolean or float
    # numbers, no stray or missing keys, values as strings, each shape once
    term = {"partition": [2, 2], "value": "2"}
    bad = [
        ({"basis": "schur", "n": 4, "coeffs": [{"partition": [2.5, 1.5], "value": "2"}]}, TypeError),
        ({"basis": "schur", "n": 4, "coeffs": [{"partition": [True, 3], "value": "2"}]}, TypeError),
        ({"basis": "schur", "n": 4.0, "coeffs": [term]}, TypeError),
        ({"basis": "schur", "n": True, "coeffs": []}, TypeError),
        ({"basis": "schur", "n": 4, "coeffs": [term], "degree": 4}, ValueError),
        ({"basis": "schur", "n": 4, "coeffs": [dict(term, sign=1)]}, ValueError),
        ({"basis": "schur", "coeffs": [term]}, ValueError),
        ({"basis": "schur", "n": 4, "coeffs": [{"partition": [2, 2], "value": 2}]}, ValueError),
        ({"basis": "schur", "n": 4, "coeffs": [{"partition": [2, 2], "value": "2.5"}]}, ValueError),
        ({"basis": "schur", "n": 4, "coeffs": [term, dict(term, value="3")]}, ValueError),
        ({"basis": "schur", "n": 4, "coeffs": {"2,2": "2"}}, TypeError),
    ]
    for data, error in bad:
        with pytest.raises(error):
            SymFunc.from_json(data)
    assert SymFunc.from_json({"basis": "schur", "n": 4}) == SymFunc("schur", 4)


def test_symfunc_refuses_coefficients_that_are_not_ints():
    with pytest.raises(TypeError):
        SymFunc("schur", 2, {(2,): 2.5, (1, 1): True})
    for value in (True, False, 2.0, "2", None):
        with pytest.raises(TypeError):
            SymFunc("schur", 2, {(2,): value})
    assert SymFunc("schur", 2, {(2,): 2, (1, 1): 0}).coeffs == {(2,): 2}
