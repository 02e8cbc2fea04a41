import random

import pytest

from tbraid.braid import (
    BraidWord,
    HalfTwist,
    classify_pair,
    concat,
    frame,
    ht_conjugate,
    ht_word,
    inv_word,
    random_word,
)
from tbraid.gn import (
    GnElement,
    gn_identity,
    gn_inv,
    gn_mul,
    gn_nu,
    gn_s1,
    gn_u,
)
from tbraid.primes import (
    GnInstance,
    PolarizedPair,
    _finish_report,
    _subgroup_contains,
    act_by_word,
    axiom_spot_check,
    canonical_prime,
    check_prime_frame,
    check_prop71,
    make_pair,
    prime_identity_suite,
    transport,
    transport_uniqueness,
)
from tbraid.quotient import normal_form, tbn_equal


def test_canonical_prime_construction():
    for n in range(4, 8):
        pair = canonical_prime(n)
        assert pair.tau == gn_nu(n)
        assert pair.ht == frame(n, 1)
        assert pair.h == normal_form(BraidWord(n, (2, 1, 1, -2, -2, -2))).g
        assert pair.h.vec[0] == 0  # degree zero
        # tau really is h . h_{X^-1}
        assert make_pair(GnInstance(n), pair.h, pair.ht).tau == pair.tau


def test_canonical_prime_passes_frame_criterion():
    for n in range(4, 8):
        report = check_prime_frame(GnInstance(n), canonical_prime(n).h, gn_nu(n))
        assert report.verdict == "pass"
        assert all(report.conditions.values())


def test_u1_is_also_prime_on_the_frame():
    G = GnInstance(5)
    assert check_prime_frame(G, gn_u(5, 1), gn_nu(5)).verdict == "pass"


def test_mutants_fail_with_named_conditions():
    G = GnInstance(5)
    h = canonical_prime(5).h
    # wrong central element: the equation of condition (1) breaks
    assert check_prime_frame(G, h, gn_identity(5)).verdict == "fail(1)"
    # central element of infinite order: tau^2 = 1 breaks inside (1)
    assert check_prime_frame(G, h, gn_s1(5)).verdict == "fail(1)"
    # h shifted by the central element: passes (1) but breaks (2a)
    shifted = check_prime_frame(G, gn_mul(h, gn_nu(5)), gn_nu(5))
    assert shifted.conditions["1"] is True
    assert shifted.verdict == "fail(2a)"
    # a non-prime element: (1) and (3) both break; (1) is named
    report = check_prime_frame(G, gn_mul(gn_u(5, 1), gn_u(5, 2)), gn_nu(5))
    assert report.verdict == "fail(1)"
    assert report.conditions["3"] is False
    # support moved off the first frame generator
    moved = transport(G, canonical_prime(5), frame(5, 2))
    assert check_prime_frame(G, moved, gn_nu(5)).verdict == "fail(1)"
    # the degree generator is not prime
    assert check_prime_frame(G, gn_s1(5), gn_nu(5)).verdict == "fail(1)"


def test_transport_examples():
    G = GnInstance(5)
    pair = canonical_prime(5)
    # transport to the pair's own support is the identity operation
    assert transport(G, pair, pair.ht) == pair.h
    # reversing the polarization transports to h^-1 tau
    reversed_target = HalfTwist(pair.ht.conj, pair.ht.index, True)
    assert transport(G, pair, reversed_target) == gn_mul(gn_inv(pair.h), pair.tau)
    # the frame family of the u_1-pair lands on the u-generators
    upair = make_pair(G, gn_u(5, 1), frame(5, 1))
    assert upair.tau == gn_nu(5)
    assert transport(G, upair, frame(5, 3)) == gn_u(5, 3)
    assert transport(G, upair, frame(5, 2)) == gn_u(5, 2)


def test_transport_guard_refuses_a_conjugator_missing_the_target(monkeypatch):
    G = GnInstance(5)
    monkeypatch.setattr("tbraid.primes.frame_transport", lambda n, i, j: BraidWord(n, ()))
    with pytest.raises(AssertionError, match="transport conjugator failed to move the support"):
        transport(G, canonical_prime(5), frame(5, 3))


def test_transport_uniqueness():
    for n in (5, 6):
        assert transport_uniqueness(GnInstance(n), canonical_prime(n),
                                    targets=20, perturbations=5, seed=0)


def test_coherent_pairs_share_central_element():
    rng = random.Random(41)
    G = GnInstance(5)
    pair = canonical_prime(5)
    for _ in range(15):
        b = BraidWord(5, tuple(rng.choice([1, -1]) * rng.randint(1, 4) for _ in range(5)))
        target = HalfTwist(b, rng.randint(1, 4), rng.random() < 0.5)
        moved = transport(G, pair, target)
        assert make_pair(G, moved, target).tau == pair.tau


def _transversal_to_x1(n):
    from tbraid.braid import frame_transport, transversal_pair

    _, partner = transversal_pair(n)
    return ht_conjugate(partner, frame_transport(n, 2, 1))


def test_axiom_spot_check_on_canonical_prime():
    G = GnInstance(5)
    pair = canonical_prime(5)
    samples = [frame(5, 2), frame(5, 3), frame(5, 4), _transversal_to_x1(5)]
    report = axiom_spot_check(G, pair.h, pair.ht, samples, tau=pair.tau)
    assert report.verdict == "pass"
    assert report.witness["checked"]["2"] >= 1
    assert report.witness["checked"]["3"] >= 3  # two disjoint + one transversal


def _spot_check_routed_by_classify_pair(G, g, X, samples, relations, tau):
    """axiom_spot_check with each sample routed by its exact B_n relation
    record (classify_pair), the routing it had before the quotient test
    alone decided it; kept as a differential oracle."""
    witness = {"checked": {"2": 0, "3": 0, "skipped": 0}}
    x_word = ht_word(X)
    x_inv = inv_word(x_word)
    cond1 = G.eq(act_by_word(G, g, x_inv), G.mul(G.inv(g), tau))
    cond1 = cond1 and G.eq(G.mul(tau, tau), G.identity())
    cond2 = cond3 = True
    for Y, rel in zip(samples, relations):
        y_word = ht_word(Y)
        y_inv = inv_word(y_word)
        if rel.common_endpoints == 1:
            witness["checked"]["2"] += 1
            lhs_a = act_by_word(G, g, concat(x_word, y_inv, x_inv))
            rhs_a = G.mul(G.inv(act_by_word(G, g, x_word)),
                          act_by_word(G, g, concat(x_word, y_inv)))
            lhs_b = act_by_word(G, g, concat(y_inv, x_inv))
            rhs_b = G.mul(G.inv(g), act_by_word(G, g, y_inv))
            if not (G.eq(lhs_a, rhs_a) and G.eq(lhs_b, rhs_b)):
                cond2 = False
                witness["2"] = "axiom (2) failed on an adjacent sample"
        elif rel.common_endpoints == 0 and (
                rel.commute or tbn_equal(concat(x_word, y_word, x_inv), y_word)):
            witness["checked"]["3"] += 1
            if not G.eq(act_by_word(G, g, y_word), g):
                cond3 = False
                witness["3"] = "a commuting weakly disjoint sample moved g"
        else:
            witness["checked"]["skipped"] += 1
    conditions = {"1": cond1, "2": cond2, "3": cond3}
    return _finish_report(conditions, None, 0, witness)


def test_axiom_spot_check_matches_classify_pair_routing():
    rng = random.Random(53)
    n = 5
    G = GnInstance(n)
    pair = canonical_prime(n)
    # prime; passes (1) but breaks (2); breaks (1) and (3)
    elements = (pair.h, gn_mul(pair.h, gn_nu(n)), gn_mul(gn_u(n, 1), gn_u(n, 2)))
    totals = {"2": 0, "3": 0, "skipped": 0}
    verdicts = set()
    for _ in range(6):
        b = random_word(n, 3, rng)
        X = ht_conjugate(pair.ht, b)
        # adjacent, disjoint, transversal, then two conjugated raw half-twists
        samples = [ht_conjugate(frame(n, j), b) for j in (2, 3, 4)]
        samples.append(ht_conjugate(_transversal_to_x1(n), b))
        samples += [HalfTwist(random_word(n, 3, rng), rng.randint(1, n - 1)) for _ in range(2)]
        relations = [classify_pair(X, Y) for Y in samples]
        for Y, rel in zip(samples, relations):
            if rel.commute:
                x_word = ht_word(X)
                assert tbn_equal(concat(x_word, ht_word(Y), inv_word(x_word)), ht_word(Y))
        for g in (act_by_word(G, element, b) for element in elements):
            report = axiom_spot_check(G, g, X, samples, tau=pair.tau)
            oracle = _spot_check_routed_by_classify_pair(G, g, X, samples, relations, pair.tau)
            assert report.to_json() == oracle.to_json()
            verdicts.add(report.verdict)
            for key in totals:
                totals[key] += report.witness["checked"][key]
    assert all(totals.values()), totals
    assert verdicts == {"pass", "fail(1)", "fail(2)"}, verdicts


def test_conjugation_stability():
    rng = random.Random(43)
    G = GnInstance(6)
    pair = canonical_prime(6)
    for _ in range(10):
        b = BraidWord(6, tuple(rng.choice([1, -1]) * rng.randint(1, 5) for _ in range(6)))
        moved = PolarizedPair(act_by_word(G, pair.h, b),
                              ht_conjugate(pair.ht, b), pair.tau)
        samples = [ht_conjugate(frame(6, j), b) for j in (2, 3, 4, 5)]
        samples.append(ht_conjugate(_transversal_to_x1(6), b))
        report = axiom_spot_check(G, moved.h, moved.ht, samples, tau=moved.tau)
        assert report.verdict == "pass"
        assert report.witness["checked"]["3"] >= 1


def test_identity_suite():
    for n in (5, 6):
        G = GnInstance(n)
        for pair in (canonical_prime(n), make_pair(G, gn_u(n, 1), frame(n, 1))):
            report = prime_identity_suite(G, pair, cases=10, seed=0)
            assert report.passed, report.conditions


def test_prop71_pass_and_failures():
    G = GnInstance(5)
    pair = canonical_prime(5)
    report = check_prop71(G, pair.h, bound=3)
    assert report.verdict == "pass-up-to-bound(3)"
    assert report.bound == 3
    assert check_prop71(G, gn_nu(5), bound=3).verdict == "fail(0)"
    assert check_prop71(G, gn_s1(5), bound=3).verdict == "fail(1a)"
    with pytest.raises(ValueError):
        check_prop71(GnInstance(4), canonical_prime(4).h)


def test_prop71_with_explicit_generators():
    G = GnInstance(5)
    generators = [gn_u(5, i) for i in range(1, 5)] + [gn_nu(5)]
    report = check_prop71(G, canonical_prime(5).h, generators=generators, bound=3)
    assert report.verdict == "pass-up-to-bound(3)"


def test_subgroup_membership():
    n = 5
    u1, u2, u3 = gn_u(n, 1), gn_u(n, 2), gn_u(n, 3)
    gens = [u1, u2]
    assert _subgroup_contains(gens, u1)
    assert _subgroup_contains(gens, gn_mul(u1, u2))
    assert _subgroup_contains(gens, gn_nu(n))  # nu = [u_1, u_2]
    assert _subgroup_contains(gens, gn_mul(u1, gn_nu(n)))
    assert not _subgroup_contains(gens, u3)
    assert not _subgroup_contains(gens, gn_s1(n))
    # a commuting pair: nu is not reachable
    gens = [u1, u3]
    assert _subgroup_contains(gens, gn_mul(u1, u3))
    assert not _subgroup_contains(gens, gn_nu(n))
    assert not _subgroup_contains(gens, gn_mul(u1, gn_nu(n)))
    # kernel-lattice route to nu: u_1 and u_1 nu generate nu
    gens = [u1, gn_mul(u1, gn_nu(n))]
    assert _subgroup_contains(gens, gn_nu(n))
    # empty generating set
    assert _subgroup_contains([], gn_identity(n))
    assert not _subgroup_contains([], u1)


def test_conjugated_variant_of_canonical_prime():
    # Conjugating the canonical pair by X_2 lands on the word X_1^2 X_2^-2,
    # supported on the half-twist X_2^-1 X_1 X_2, and stays prime.
    n = 5
    G = GnInstance(n)
    pair = canonical_prime(n)
    b = BraidWord(n, (2,))
    h2 = act_by_word(G, pair.h, b)
    assert h2 == normal_form(BraidWord(n, (1, 1, -2, -2))).g
    assert h2 == GnElement(n, 1, (0, -1, -1, 0, 0))
    support = ht_conjugate(pair.ht, b)
    from tbraid.braid import bn_equal, ht_word

    assert bn_equal(ht_word(support), BraidWord(n, (-2, 1, 2)))
    samples = [ht_conjugate(frame(n, j), b) for j in (2, 3, 4)]
    report = axiom_spot_check(G, h2, support, samples, tau=pair.tau)
    assert report.verdict == "pass"


def test_degree_zero_part_is_closed():
    rng = random.Random(47)
    G = GnInstance(5)
    for _ in range(50):
        vec = (0,) + tuple(rng.randint(-3, 3) for _ in range(4))
        g = GnElement(5, rng.randint(0, 1), vec)
        assert G.in_degree_zero(g)
        assert G.in_degree_zero(G.inv(g))
        i = rng.randint(1, 4)
        assert G.in_degree_zero(G.apply(g, i, rng.choice([1, -1])))
        h = GnElement(5, 0, (0,) + tuple(rng.randint(-3, 3) for _ in range(4)))
        assert G.in_degree_zero(G.mul(g, h))


def test_reports_are_deterministic():
    G = GnInstance(5)
    pair = canonical_prime(5)
    r1 = check_prime_frame(G, pair.h, pair.tau, seed=11)
    r2 = check_prime_frame(G, pair.h, pair.tau, seed=11)
    assert r1.to_json() == r2.to_json()
    assert r1.seed == 11
    s1 = prime_identity_suite(G, pair, cases=5, seed=3)
    s2 = prime_identity_suite(G, pair, cases=5, seed=3)
    assert s1.to_json() == s2.to_json()


def test_report_json():
    report = check_prime_frame(GnInstance(5), canonical_prime(5).h, gn_nu(5), seed=7)
    data = report.to_json()
    assert data["verdict"] == "pass"
    assert data["conditions"] == {"1": True, "2a": True, "2b": True, "3": True}
    assert data["bound"] is None
    assert data["seed"] == 7
