import itertools
import random

import pytest

from tbraid.braid import (
    BraidWord,
    HalfTwist,
    classify_pair,
    concat,
    frame,
    ht_conjugate,
    ht_endpoints,
    ht_word,
    inv_word,
    quadrangle_relator,
    random_word,
)
from tbraid.gn import (
    GnElement,
    act_generator,
    act_word,
    gn_generator,
    gn_identity,
    gn_inv,
    gn_mul,
    gn_nu,
    gn_pow,
    gn_product,
    gn_s1,
    gn_u,
    q_value,
)
from tbraid.primes import (
    GnInstance,
    PolarizedPair,
    _bounded_orbit,
    _finish_report,
    _reduce_subgroup,
    _reduced_contains,
    axiom_spot_check,
    canonical_prime,
    check_prime_frame,
    check_prop71,
    make_pair,
    prime_identity_suite,
    transport,
    transport_uniqueness,
)
from tbraid.quotient import c_word, normal_form, tbn_equal, tbn_mul


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
        assert transport_uniqueness(GnInstance(n), canonical_prime(n), seed=0)


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


def _reduced_words(n, length):
    """Every freely reduced word in B_n of at most the given length."""
    letters = [s * i for i in range(1, n) for s in (1, -1)]
    words, frontier = [()], [()]
    for _ in range(length):
        frontier = [w + (a,) for w in frontier for a in letters if not w or w[-1] != -a]
        words += frontier
    return words


def test_half_twists_disjoint_from_x1_commute_with_it():
    # The conclusion of axiom (3) that axiom_spot_check tests per sample:
    # every half-twist with endpoints outside {1, 2} commutes with X_1 in
    # TB_n.  Exhaustive over all short reduced conjugators.
    for n, length, expected in ((4, 5, 2317), (5, 3, 670)):
        x1 = normal_form(BraidWord(n, (1,)))
        count = 0
        for w in _reduced_words(n, length):
            for i in range(1, n):
                Z = HalfTwist(BraidWord(n, w), i)
                if set(ht_endpoints(Z)) & {1, 2}:
                    continue
                z = normal_form(ht_word(Z))
                assert tbn_mul(x1, z) == tbn_mul(z, x1), Z
                count += 1
        assert count == expected


def _spot_check_routed_by_classify_pair(G, g, X, samples, relations, tau):
    """axiom_spot_check with each sample routed by its exact B_n relation
    record (classify_pair), the routing it had before the quotient test
    alone decided it; kept as a differential oracle."""
    witness = {"checked": {"2": 0, "3": 0, "skipped": 0}}
    x_word = ht_word(X)
    x_inv = inv_word(x_word)
    cond1 = G.act(g, x_inv.letters) == G.mul(G.inv(g), tau)
    cond1 = cond1 and G.mul(tau, tau) == G.identity()
    cond2 = cond3 = True
    for Y, rel in zip(samples, relations):
        y_word = ht_word(Y)
        y_inv = inv_word(y_word)
        if rel.common_endpoints == 1:
            witness["checked"]["2"] += 1
            lhs_a = G.act(g, concat(x_word, y_inv, x_inv).letters)
            rhs_a = G.mul(G.inv(G.act(g, x_word.letters)),
                          G.act(g, concat(x_word, y_inv).letters))
            lhs_b = G.act(g, concat(y_inv, x_inv).letters)
            rhs_b = G.mul(G.inv(g), G.act(g, y_inv.letters))
            if not (lhs_a == rhs_a and lhs_b == rhs_b):
                cond2 = False
                witness["2"] = "axiom (2) failed on an adjacent sample"
        elif rel.common_endpoints == 0 and (
                rel.commute or tbn_equal(concat(x_word, y_word, x_inv), y_word)):
            witness["checked"]["3"] += 1
            if G.act(g, y_word.letters) != g:
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
        for g in (G.act(element, b.letters) for element in elements):
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
        moved = PolarizedPair(G.act(pair.h, b.letters),
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


def test_frame_family_commutators_check_the_far_pairs(monkeypatch):
    # A frame family whose adjacent commutators are all tau but whose
    # commutator [xi_2, xi_4] is nu, not 1: only the far half of the check
    # sees it.  At zero cases transport builds nothing but the family.
    G = GnInstance(5)
    pair = make_pair(G, gn_u(5, 1), frame(5, 1))
    xi = {1: gn_u(5, 1), 2: gn_u(5, 2), 3: gn_u(5, 3), 4: gn_mul(gn_u(5, 4), gn_u(5, 1))}
    monkeypatch.setattr("tbraid.primes.transport", lambda G, pair, target: xi[target.index])
    report = prime_identity_suite(G, pair, cases=0)
    assert report.conditions["frame-family-commutators"] is False


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


def test_prop71_refuses_a_negative_bound():
    G = GnInstance(5)
    assert check_prop71(G, gn_nu(5), bound=0).verdict == "fail(0)"
    with pytest.raises(ValueError, match="bound must be >= 0, got -2"):
        check_prop71(G, gn_nu(5), bound=-2)


def test_identity_suite_refuses_a_negative_case_count():
    G = GnInstance(5)
    with pytest.raises(ValueError, match="cases must be >= 0, got -1"):
        prime_identity_suite(G, canonical_prime(5), cases=-1)


def _subgroup_contains(gens, target):
    return _reduced_contains(*_reduce_subgroup(gens), target)


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
    assert not _subgroup_contains([], gn_nu(n))
    # the same generator object twice
    gens = [u1, u1]
    assert _subgroup_contains(gens, gn_pow(u1, -3))
    assert not _subgroup_contains(gens, gn_nu(n))
    # nu and 1 among the generators
    assert _subgroup_contains([gn_nu(n), u3], gn_mul(u3, gn_nu(n)))
    assert not _subgroup_contains([gn_identity(n), u3], gn_mul(u3, gn_nu(n)))
    assert _subgroup_contains([gn_identity(n)], gn_identity(n))
    # negative pivots: u_1^-2 and u_1^-3 generate u_1
    gens = [gn_pow(u1, -2), gn_pow(u1, -3)]
    assert _subgroup_contains(gens, u1)
    assert not _subgroup_contains(gens, gn_nu(n))
    # n = 3: s_1 and u_2 pair to 1, so they generate nu
    s1, v2 = gn_s1(3), gn_u(3, 2)
    assert _subgroup_contains([s1, v2], gn_nu(3))
    assert not _subgroup_contains([s1, gn_pow(v2, 2)], gn_nu(3))
    assert not _subgroup_contains([s1, v2], gn_u(3, 1))


# The solver that _subgroup_contains replaced, kept as its differential oracle:
# an integer Hermite reduction with a transform matrix solves for the
# exponents, the rebuilt product fixes the central bit, and a kernel-lattice
# pass decides whether nu is reachable.


def _hnf_with_transform(rows):
    """Row echelon form over Z: (H, U, rank) with U . rows = H unimodular."""
    m = len(rows)
    ncols = len(rows[0]) if rows else 0
    h = [list(r) for r in rows]
    u = [[int(i == j) for j in range(m)] for i in range(m)]
    rank = 0
    for col in range(ncols):
        while True:
            nz = [r for r in range(rank, m) if h[r][col] != 0]
            if not nz:
                break
            r0 = min(nz, key=lambda r: abs(h[r][col]))
            h[rank], h[r0] = h[r0], h[rank]
            u[rank], u[r0] = u[r0], u[rank]
            if h[rank][col] < 0:
                h[rank] = [-x for x in h[rank]]
                u[rank] = [-x for x in u[rank]]
            done = True
            for r in range(rank + 1, m):
                q = h[r][col] // h[rank][col]
                if q:
                    h[r] = [x - q * y for x, y in zip(h[r], h[rank])]
                    u[r] = [x - q * y for x, y in zip(u[r], u[rank])]
                if h[r][col] != 0:
                    done = False
            if done:
                break
        if rank < m and h[rank][col] != 0:
            rank += 1
        if rank == m:
            break
    return h, u, rank


def _solve_integer_combination(rows, target):
    """Integer coefficients c with sum c_i rows[i] = target, or None."""
    if not rows:
        return [] if all(x == 0 for x in target) else None
    h, u, rank = _hnf_with_transform(rows)
    t = list(target)
    z = [0] * len(rows)
    for r in range(rank):
        col = next(c for c in range(len(t)) if h[r][c] != 0)
        if t[col] % h[r][col] != 0:
            return None
        q = t[col] // h[r][col]
        z[r] = q
        t = [x - q * y for x, y in zip(t, h[r])]
    if any(x != 0 for x in t):
        return None
    m = len(rows)
    return [sum(z[r] * u[r][i] for r in range(m)) for i in range(m)]


def _nu_reachable(gens):
    n = gens[0].n
    if any(q_value(a.vec, b.vec, n) for a, b in itertools.combinations(gens, 2)):
        return True
    _, u, rank = _hnf_with_transform([list(g.vec) for g in gens])
    return any(gn_product(map(gn_pow, gens, row), n).bit for row in u[rank:])


def _subgroup_contains_by_hnf(gens, target):
    if not gens:
        return target == gn_identity(target.n)
    coeffs = _solve_integer_combination([list(g.vec) for g in gens], target.vec)
    if coeffs is None:
        return False
    achieved = gn_product(map(gn_pow, gens, coeffs), target.n)
    assert achieved.vec == target.vec
    return achieved.bit == target.bit or _nu_reachable(gens)


def test_subgroup_membership_matches_the_hnf_solver():
    rng = random.Random(59)
    answers = set()
    for _ in range(2000):
        n = rng.randint(3, 8)
        rank = rng.randint(1, n)  # generators confined to the first coordinates
        small = [GnElement(n, rng.randint(0, 1), tuple(rng.randint(-2, 2) if k < rank else 0
                                                        for k in range(n)))
                 for _ in range(rng.randint(0, 6))]
        gens = small + [rng.choice(small) for _ in range(rng.randint(0, 2)) if small]
        if rng.random() < 0.5 and gens:
            # a target inside the subgroup
            target = gn_product((gn_pow(rng.choice(gens), rng.randint(-2, 2))
                                 for _ in range(rng.randint(0, 4))), n)
            target = gn_mul(target, gn_nu(n)) if rng.random() < 0.3 else target
        else:
            target = GnElement(n, rng.randint(0, 1), tuple(rng.randint(-1, 1) if k < rank else 0
                                                           for k in range(n)))
        expected = _subgroup_contains_by_hnf(gens, target)
        assert _subgroup_contains(gens, target) == expected, (gens, target)
        answers.add(expected)
    assert answers == {True, False}


def test_one_reduction_decides_every_target():
    # check_prop71 reduces the orbit once and tests every target against it.
    rng = random.Random(61)
    for _ in range(200):
        n = rng.randint(4, 8)
        G = GnInstance(n)
        gens = [GnElement(n, rng.randint(0, 1), tuple(rng.randint(-2, 2) for _ in range(n)))
                for _ in range(rng.randint(0, 4))]
        contains = G.subgroup_membership(gens)
        targets = G.degree_zero_generators() + [gn_product(gens, n)] + [
            GnElement(n, rng.randint(0, 1), tuple(rng.randint(-1, 1) for _ in range(n)))]
        for target in targets:
            expected = _subgroup_contains_by_hnf(gens, target)
            assert contains(target) == expected


def test_conjugated_variant_of_canonical_prime():
    # Conjugating the canonical pair by X_2 lands on the word X_1^2 X_2^-2,
    # supported on the half-twist X_2^-1 X_1 X_2, and stays prime.
    n = 5
    G = GnInstance(n)
    pair = canonical_prime(n)
    b = BraidWord(n, (2,))
    h2 = G.act(pair.h, b.letters)
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
        assert g.vec[0] == 0
        assert G.inv(g).vec[0] == 0
        i = rng.randint(1, 4)
        assert G.act(g, (rng.choice([1, -1]) * i,)).vec[0] == 0
        h = GnElement(5, 0, (0,) + tuple(rng.randint(-3, 3) for _ in range(4)))
        assert G.mul(g, h).vec[0] == 0


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


# ---------------------------------------------------------------------------
# the action member


def _act_letter_by_letter(g, letters):
    """The retired fold of the action-group interface, act_generator once
    per letter: the differential oracle of GnInstance.act."""
    for letter in letters:
        g = act_generator(g, abs(letter), 1 if letter > 0 else -1)
    return g


def test_act_matches_the_letter_by_letter_fold():
    rng = random.Random(67)
    for n in range(4, 13):
        G = GnInstance(n)
        sequences = [(), quadrangle_relator(n).letters, c_word(n).letters]
        sequences += [(s * i,) for i in range(1, n) for s in (1, -1)]
        sequences += [random_word(n, 30, rng).letters for _ in range(3)]
        for _ in range(3):
            g = GnElement(n, rng.randint(0, 1), tuple(rng.randint(-9, 9) for _ in range(n)))
            for letters in sequences:
                assert G.act(g, letters) == _act_letter_by_letter(g, letters), (g, letters)
            for letter in (0, n, -n):
                with pytest.raises(ValueError):
                    G.act(g, (1, letter))


def test_bounded_orbit_is_the_image_under_every_short_word():
    rng = random.Random(71)
    n, bound = 5, 3
    G = GnInstance(n)
    letters = [s * i for i in range(1, n) for s in (1, -1)]
    for S in (canonical_prime(n).h, GnElement(n, 1, tuple(rng.randint(-3, 3) for _ in range(n)))):
        orbit = _bounded_orbit(G, S, bound)
        words = itertools.chain.from_iterable(
            itertools.product(letters, repeat=k) for k in range(bound + 1))
        assert len(orbit) == len(set(orbit))
        assert set(orbit) == {act_word(S, BraidWord(n, w)) for w in words}


# ---------------------------------------------------------------------------
# a second action group: the finite quotient G(n)/4Z^n


def _mod4(g):
    """The image in G(n)/4Z^n, with coordinates in 0..3.  The elements
    (0, v) with v = 0 mod 4 form a central, action-invariant subgroup: beta
    reads only parities, and the bit terms of the action are even on it."""
    return GnElement(g.n, g.bit, tuple([x % 4 for x in g.vec]))


class Mod4Instance:
    """G(n)/4Z^n, a finite TB_n-group of order 2 . 4^n, with exactly the
    documented members of an action group."""

    def __init__(self, n):
        self.n = n

    def identity(self):
        return gn_identity(self.n)

    def mul(self, a, b):
        return _mod4(gn_mul(a, b))

    def inv(self, a):
        return _mod4(gn_inv(a))

    def act(self, g, letters):
        return _mod4(act_word(g, BraidWord(self.n, tuple(letters))))

    def generating_set(self):
        return [gn_generator(self.n, k) for k in range(self.n)]

    def degree_zero_generators(self):
        return self.generating_set()[1:] + [gn_nu(self.n)]

    def subgroup_membership(self, generators):
        # The preimage in G(n) of the subgroup: generators and 4Z^n.
        kernel = [gn_pow(gn_generator(self.n, k), 4) for k in range(self.n)]
        return GnInstance(self.n).subgroup_membership(list(generators) + kernel)


@pytest.mark.parametrize("n", [5, 6])
def test_checkers_run_unchanged_on_the_finite_quotient(n):
    G, Q = GnInstance(n), Mod4Instance(n)
    pair = canonical_prime(n)
    rng = random.Random(73)
    one, nu = gn_identity(n), gn_nu(n)
    candidates = [(pair.h, nu), (gn_u(n, 1), nu), (gn_mul(pair.h, nu), nu), (pair.h, one),
                  (gn_s1(n), nu), (nu, nu)]
    candidates += [(GnElement(n, rng.randint(0, 1), tuple(rng.randint(-3, 3) for _ in range(n))),
                    rng.choice((one, nu))) for _ in range(2)]
    for u, tau in candidates:
        for report, image in ((check_prime_frame(G, u, tau), check_prime_frame(Q, _mod4(u), tau)),
                              (check_prop71(G, u), check_prop71(Q, _mod4(u)))):
            assert list(image.conditions) == list(report.conditions)
            # Reduction mod 4 is a homomorphism commuting with the action:
            # what holds in G(n) holds on the image.
            for name, passed in report.conditions.items():
                assert image.conditions[name] or not passed, (u, tau, name)
    h = _mod4(pair.h)
    assert check_prime_frame(Q, h, nu).verdict == "pass"
    # Condition 0 at bound 3 holds in G(5) but not in G(6); the image agrees.
    verdict = check_prop71(Q, h, bound=3).verdict
    assert verdict == check_prop71(G, pair.h, bound=3).verdict
    assert verdict == {5: "pass-up-to-bound(3)", 6: "fail(0)"}[n]
    s1_report = check_prop71(Q, gn_s1(n))
    assert s1_report.conditions["1a"] is False
    assert s1_report.verdict == {5: "fail(1a)", 6: "fail(0)"}[n]
    image_pair = make_pair(Q, h, pair.ht)
    assert image_pair.tau == nu
    for _ in range(4):
        target = HalfTwist(random_word(n, 6, rng), rng.randint(1, n - 1), rng.random() < 0.5)
        assert transport(Q, image_pair, target) == _mod4(transport(G, pair, target))
    samples = [frame(n, 2), frame(n, 3), frame(n, 4), _transversal_to_x1(n)]
    report = axiom_spot_check(Q, h, pair.ht, samples, tau=nu)
    assert report.verdict == "pass"
    assert report.witness["checked"] == {"2": 1, "3": 3, "skipped": 0}
    assert prime_identity_suite(Q, image_pair, cases=5).passed
    assert transport_uniqueness(Q, image_pair)
