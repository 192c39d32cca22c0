"""Acceptance suite: every criterion is exact and prints one PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete. Expected values marked as derived are recomputed here by an
independent oracle (Kostka solve, brute-force sequence count, explicit
enumeration) before being asserted against the engine under test.
"""

from collections import defaultdict

from chromsym import (
    NoAscentError,
    Partition,
    Poset,
    classify,
    coeff_closed_2beta,
    coeff_closed_32beta,
    coeff_report,
    coloring_count,
    dominates,
    enumerate_srh_g_tabloids,
    enumerate_srh_tabloids,
    expand_schur,
    incomparability_graph,
    monomial_to_schur,
    multipartite,
    multipartite_has_stable_partition,
    nsp_bruteforce,
    nsp_chain_union,
    partitions_of,
    positivity_scan,
    psi_involution,
    specialize_ones,
    verify_classification,
    x_in_monomial,
)


def _report(number: int, ok: bool, description: str):
    print(f"ACCEPTANCE {number} {'PASS' if ok else 'FAIL'}: {description}")
    assert ok, f"criterion {number} failed: {description}"


def test_criterion_1_srh_tabloid_census():
    tabloids = enumerate_srh_tabloids((4, 2, 2))
    negatives = sum(1 for t in tabloids if t.sign < 0)
    positives = sum(1 for t in tabloids if t.sign > 0)
    for t in tabloids:
        t.validate()
    _report(
        1,
        len(tabloids) == 6 and positives == 3 and negatives == 3,
        "shape (4,2,2) has exactly 6 tabloids, 3 positive and 3 negative",
    )


def test_criterion_2_route_equivalence_up_to_seven():
    mismatches = []
    for n in range(1, 8):
        for lam in partitions_of(n):
            graph = multipartite(lam)
            oracle = monomial_to_schur(x_in_monomial(graph))
            for mu in partitions_of(n):
                values = {
                    coeff_report(graph, mu, "ww").value,
                    coeff_report(graph, mu, "tabloid").value,
                    coeff_report(graph, mu, "tail").value,
                    oracle[mu],
                }
                if len(values) != 1:
                    mismatches.append((tuple(lam), tuple(mu), values))
    _report(
        2,
        not mismatches,
        "ww, tabloid, tail, and oracle routes agree on every K_lambda with at "
        f"most 7 vertices ({mismatches[:3] if mismatches else 'no mismatches'})",
    )


def test_criterion_3_exact_expansions():
    expected_c4 = {(2, 2): 2, (2, 1, 1): 2, (1, 1, 1, 1): 14}
    expected_k32 = {
        (3, 2): 1,
        (3, 1, 1): 1,
        (2, 2, 1): 3,
        (2, 1, 1, 1): 12,
        (1, 1, 1, 1, 1): 46,
    }
    ok = True
    for lam, expected in (((2, 2), expected_c4), ((3, 2), expected_k32)):
        graph = multipartite(lam)
        oracle = monomial_to_schur(x_in_monomial(graph))
        ok = ok and {tuple(k): v for k, v in oracle.items()} == expected
        for route in ("ww", "tabloid", "tail", "closed"):
            engine = expand_schur(graph, route)
            ok = ok and engine == oracle
    _report(3, ok, "X_{K_(2,2)} and X_{K_(3,2)} match the oracle re-derivation exactly")


def test_criterion_4_closed_form_agreement():
    ok = True
    for beta in (1, 2, 3):
        graph = multipartite((2,) * beta)
        for mu in partitions_of(2 * beta):
            threes = sum(1 for p in mu if p >= 3)
            twos = mu.count(2)
            ones = mu.count(1)
            closed = coeff_closed_2beta(beta, twos, ones) if not threes else 0
            ok = ok and (
                closed
                == coeff_report(graph, mu, "tail").value
                == coeff_report(graph, mu, "ww").value
            )
    zero_convention_hit = False
    for beta in (1, 2):
        graph = multipartite((3,) + (2,) * beta)
        for mu in partitions_of(2 * beta + 3):
            closed = coeff_closed_32beta(beta, mu)
            ok = ok and closed == coeff_report(graph, mu, "tail").value
            if mu.count(2) > beta and not mu.count(3):
                zero_convention_hit = True
    _report(
        4,
        ok and zero_convention_hit,
        "closed forms match enumeration on K_(2^b) for b in {1,2,3} and "
        "K_(3,2^b) for b in {1,2}, including the vanishing-count branch",
    )


def test_criterion_5_boundary_family_schur_positive():
    ok = True
    for beta in (1, 2):
        ok = ok and positivity_scan(multipartite((3,) + (2,) * beta)).all_nonnegative
    for beta in range(1, 7):
        for mu in partitions_of(2 * beta + 3):
            ok = ok and coeff_closed_32beta(beta, mu) >= 0
    _report(
        5,
        ok,
        "K_(3,2^b) scans nonnegative for b in {1,2} and closed forms stay "
        "nonnegative through b = 6",
    )


def test_criterion_6_negative_certificates():
    claw = multipartite((3, 1))
    oracle_value = monomial_to_schur(x_in_monomial(claw))[(2, 2)]
    scan_claw = positivity_scan(claw)
    scan_33 = positivity_scan(multipartite((3, 3)))
    ok = (
        oracle_value == -1
        and scan_claw.first_negative == (Partition((2, 2)), -1)
        and not scan_33.all_nonnegative
        and classify((3, 1)).verdict == "NotSchurPositive"
        and classify((3, 3)).verdict == "NotSchurPositive"
    )
    _report(
        6,
        ok,
        "K_(3,1) has coefficient -1 at (2,2), K_(3,3) has a negative "
        "coefficient, and both classify as not Schur-positive",
    )


def test_criterion_7_witness_validity_up_to_25():
    worked = {
        (5, 5, 5, 4, 3, 3): (5, 5, 4, 4, 4, 3),
        (6, 6, 5, 5, 5): (5, 5, 5, 5, 5, 2),
        (5, 4, 4, 4): (5, 4, 3, 3, 2),
    }
    ok = all(classify(lam).witness == expected for lam, expected in worked.items())
    witnessless = []
    for n in range(2, 26):
        for lam in partitions_of(n):
            if len(lam) < 2:
                continue
            report = classify(lam)
            if report.verdict != "NotSchurPositive":
                continue
            mu = report.witness
            if mu is None:
                witnessless.append(tuple(lam))
                continue
            ok = (
                ok
                and dominates(lam, mu)
                and not multipartite_has_stable_partition(lam, mu)
            )
    # the only type whose dominated shapes are all achievable is K_(4,3);
    # its verdict is confirmed by a full scan instead of a witness
    ok = ok and witnessless == [(4, 3)]
    ok = ok and verify_classification((4, 3), "full").verified
    _report(
        7,
        ok,
        "every negative type with weight <= 25 gets a valid dominance witness "
        "(searched for two-sided near-equal types; (4,3) falls back to a scan)",
    )


def test_criterion_8_sign_reversing_involution():
    ok = True
    for n in range(1, 7):
        for lam in partitions_of(n):
            graph, poset = multipartite(lam), Poset.chain_union(lam)
            for shape in partitions_of(n):
                tabs = enumerate_srh_g_tabloids(graph, shape)
                groups = defaultdict(list)
                for t in tabs:
                    groups[t.tail_sequence()].append(t)
                filtered_total = 0
                for s, group in groups.items():
                    if any(poset.leq(u, v) for u, v in zip(s, s[1:])):
                        ok = ok and sum(t.sign for t in group) == 0
                        for t in group:
                            image = psi_involution(t, poset)
                            ok = (
                                ok
                                and image in group
                                and image.sign == -t.sign
                                and psi_involution(image, poset) == t
                            )
                    else:
                        filtered_total += sum(t.sign for t in group)
                        for t in group:
                            try:
                                psi_involution(t, poset)
                                ok = False
                            except NoAscentError:
                                pass
                ok = ok and filtered_total == sum(t.sign for t in tabs)
    _report(
        8,
        ok,
        "the tail-ascent toggle is a sign-reversing involution on every "
        "ascending tail class, so filtered and unfiltered signed sums agree",
    )


def test_criterion_9_sequence_count_consistency():
    ok = True
    for n in range(10):
        for lam in partitions_of(n):
            ok = ok and nsp_chain_union(lam) == nsp_bruteforce(
                Poset.chain_union(lam)
            )
    anchors = (
        nsp_bruteforce(Poset.chain_union(())) == 1
        and nsp_bruteforce(Poset.chain_union((2, 2))) == 14
        and nsp_bruteforce(Poset.chain_union((3, 2))) == 46
        and nsp_chain_union(()) == 1
        and nsp_chain_union((2, 2)) == 14
        and nsp_chain_union((3, 2)) == 46
    )
    monotone = all(
        nsp_chain_union((2,) * m + (1,)) >= nsp_chain_union((2,) * m)
        for m in range(5)
    )
    _report(
        9,
        ok and anchors and monotone,
        "chain-union sequence counts match brute force through weight 9, hit "
        "the anchors 1/14/46, and never drop when an isolated vertex is added",
    )


def test_criterion_10_specialization_referee():
    ok = True
    for n in range(1, 7):
        for lam in partitions_of(n):
            graph = multipartite(lam)
            func = expand_schur(graph)
            for q in range(5):
                ok = ok and specialize_ones(func, q) == coloring_count(graph, q)
    example = Poset(
        6, [(0, 1), (1, 5), (0, 2), (2, 4), (3, 2), (1, 4)], labels=list("abcdef")
    )
    graph = incomparability_graph(example)
    func = expand_schur(graph)
    for q in range(5):
        ok = ok and specialize_ones(func, q) == coloring_count(graph, q)
    _report(
        10,
        ok,
        "Schur expansions specialized at q ones count proper q-colorings for "
        "all graphs with at most 6 vertices and q <= 4",
    )
