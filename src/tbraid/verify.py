"""
Randomized and exhaustive verification suites.

Each suite function returns an ordered mapping from check name to a boolean.
All randomness is drawn from a seeded generator, so a (cases, seed) pair
fully determines the outcome; a negative number of cases raises ValueError.
The suites back the command-line `verify` command and the acceptance tests;
they are the executable evidence for the structural facts the package relies
on (faithful action conventions, section well-definedness, the coordinate
map being a homomorphism, kernel detection, the prime-element machinery).

Every check is recorded through one primes.Checks recorder: checks(name,
passed) once per case, so a name fails as soon as one of its cases fails,
and keeps the place of its first call.  A check whose loop may run zero
times (a loop over `cases`) is registered as passing before the loop, so
the names and their order do not depend on `cases`.  Every case is
evaluated, also after its check has failed, so the cases drawn from the
seeded generator never depend on which checks pass, even where a check's
expression itself draws from it (section-independence).
"""

from __future__ import annotations

import itertools
import random
from functools import lru_cache
from typing import Callable, Sequence

from . import braid, primes, quotient
from .braid import (
    BraidWord,
    HalfTwist,
    Perm,
    bn_equal,
    commutator_word,
    concat,
    conj_word,
    frame,
    ht_conjugate,
    ht_endpoints,
    ht_word,
    inversions,
    linking_matrix,
    power_word,
    psi,
    quadrangle_relator,
    random_word,
    tits_lift,
    transversal_commutator,
    transversal_pair,
    z_ij,
    z_ij_chain,
)
from .freegroup import FreeWord, fw_apply
from .gn import (
    GnElement,
    act_generator,
    act_word,
    embed,
    gn_commutator,
    gn_generator,
    gn_identity,
    gn_inv,
    gn_mul,
    gn_nu,
    gn_pow,
    gn_s1,
    gn_u,
    q_value,
    s_ij,
)
from .primes import (
    Checks,
    GnInstance,
    PolarizedPair,
    axiom_spot_check,
    canonical_prime,
    case_rng,
    check_prime_frame,
    check_prop71,
    make_pair,
    transport,
    transport_uniqueness,
)
from .quotient import (
    c_word,
    in_kernel,
    lift,
    normal_form,
    s2_table,
    tbn_equal,
)


def _rand_pure_word(n: int, rng: random.Random, factors: int = 3) -> BraidWord:
    """A random pure word: a product of conjugated squared half-twists."""
    parts = []
    for _ in range(max(factors, 1)):
        i = rng.randint(1, n - 1)
        j = rng.randint(i + 1, n)
        sq = power_word(z_ij(n, i, j), rng.choice([2, -2]))
        parts.append(conj_word(sq, random_word(n, 4, rng)))
    return concat(*parts)


# ---------------------------------------------------------------------------
# suite: artin


def _random_order_reduce(letters: Sequence[int], rng: random.Random) -> tuple[int, ...]:
    """Freely reduce by cancelling a randomly chosen adjacent pair each step."""
    word = list(letters)
    while True:
        hits = [k for k in range(len(word) - 1) if word[k] == -word[k + 1]]
        if not hits:
            return tuple(word)
        k = rng.choice(hits)
        del word[k:k + 2]


def artin_suite(cases: int = 200, seed: int = 0) -> dict[str, bool]:
    rng = case_rng(cases, seed)
    checks = Checks()

    for n in range(3, 9):
        for i in range(1, n - 1):
            checks("braid-relations", bn_equal(BraidWord(n, (i, i + 1, i)),
                                               BraidWord(n, (i + 1, i, i + 1))))
        for i in range(1, n):
            for j in range(i + 2, n):
                checks("braid-relations", bn_equal(BraidWord(n, (i, j)), BraidWord(n, (j, i))))

    checks("inverse-pairs", all(
        bn_equal(BraidWord(n, (i, -i)), BraidWord(n, ()))
        for n in range(2, 9) for i in range(1, n)
    ))

    checks("descending-invariant", True)
    for _ in range(cases):
        n = rng.randint(2, 6)
        w = random_word(n, 50, rng)
        descending = FreeWord(n, tuple(range(n, 0, -1)))
        checks("descending-invariant", braid.artin_apply(w, descending) == descending)

    checks("injectivity-sample", True)
    images = braid.artin_images(random_word(5, 12, rng, min_len=4))
    seen: dict[tuple[int, ...], tuple[int, ...]] = {}
    for _ in range(cases):
        raw = tuple(rng.choice([1, -1]) * rng.randint(1, 5) for _ in range(rng.randint(0, 12)))
        fw = FreeWord(5, raw)
        image = fw_apply(images, fw)
        checks("injectivity-sample", seen.get(image.letters, fw.letters) == fw.letters)
        seen[image.letters] = fw.letters

    checks("reduction-confluence", True)
    for _ in range(cases):
        raw = [rng.choice([1, -1]) * rng.randint(1, 4) for _ in range(rng.randint(0, 20))]
        checks("reduction-confluence",
               _random_order_reduce(raw, rng) == FreeWord(4, tuple(raw)).letters)

    for n in range(4, 8):
        for i in range(1, n):
            for j in range(i + 1, n + 1):
                checks("z-forms-agree", bn_equal(z_ij(n, i, j), z_ij_chain(n, i, j)))

    for n in range(4, 8):
        x1 = BraidWord(n, (1,))
        gens = [BraidWord(n, (1, 1)), BraidWord(n, (2, 1, 1, 2))]
        gens += [BraidWord(n, (j,)) for j in range(3, n)]
        for g in gens:
            checks("centralizer-generators-commute",
                   bn_equal(commutator_word(g, x1), BraidWord(n, ())))

    for _ in range(max(cases // 10, 10)):
        n = rng.randint(4, 6)
        p = _rand_pure_word(n, rng, factors=2)
        b = random_word(n, 6, rng)
        lk = linking_matrix(p)
        lk_conj = linking_matrix(conj_word(p, b))
        perm = psi(b)
        relabeled = [[0] * n for _ in range(n)]
        for a in range(1, n + 1):
            for c in range(1, n + 1):
                relabeled[perm(a) - 1][perm(c) - 1] = lk[a - 1][c - 1]
        checks("linking-conjugation", tuple(tuple(row) for row in relabeled) == lk_conj)

    return checks


# ---------------------------------------------------------------------------
# suite: tits


@lru_cache(maxsize=None)
def _all_perms(n: int) -> tuple[Perm, ...]:
    return tuple([Perm(n, p) for p in itertools.permutations(range(1, n + 1))])


def tits_suite(cases: int = 200, seed: int = 0) -> dict[str, bool]:
    rng = case_rng(cases, seed)
    checks = Checks()

    for n in range(2, 6):
        for p in _all_perms(n):
            w = tits_lift(p)
            checks("positive-section", psi(w) == p and len(w) == inversions(p)
                   and all(letter > 0 for letter in w.letters))

    for n in range(3, 6):
        for p in _all_perms(n):
            w0 = tits_lift(p)
            for _ in range(2):
                w1 = tits_lift(p, rng)
                checks("well-defined", psi(w1) == p and bn_equal(w0, w1))

    checks("length-additivity", True)
    for _ in range(cases):
        n = rng.randint(3, 6)
        p = rng.choice(_all_perms(n))
        i = rng.randint(1, n - 1)
        lifted = concat(tits_lift(p), BraidWord(n, (i,)))
        q = psi(lifted)
        if inversions(q) == inversions(p) + 1:
            checks("length-additivity", bn_equal(tits_lift(q), lifted))

    return checks


# ---------------------------------------------------------------------------
# suite: gn-presentation


def gn_presentation_suite(cases: int = 1000, seed: int = 0) -> dict[str, bool]:
    rng = case_rng(cases, seed)
    checks = Checks()
    one = gn_identity

    for n in range(4, 9):
        nu = gn_nu(n)
        s1, us = gn_s1(n), [gn_u(n, i) for i in range(1, n)]
        for i in range(1, n):
            expected = nu if i == 2 else one(n)
            checks("presentation-relations", gn_commutator(s1, us[i - 1]) == expected)
        for i in range(1, n):
            for j in range(i + 1, n):
                expected = nu if j == i + 1 else one(n)
                checks("presentation-relations", gn_commutator(us[i - 1], us[j - 1]) == expected)
        for g in [s1] + us:
            checks("presentation-relations", gn_commutator(nu, g) == one(n))
        checks("presentation-relations", gn_mul(nu, nu) == one(n))

    checks("commutator-q-law", True)
    for _ in range(cases):
        n = rng.randint(4, 8)
        a = GnElement(n, rng.randint(0, 1), tuple(rng.randint(-3, 3) for _ in range(n)))
        b = GnElement(n, rng.randint(0, 1), tuple(rng.randint(-3, 3) for _ in range(n)))
        expected = GnElement(n, q_value(a.vec, b.vec, n), (0,) * n)
        checks("commutator-q-law", gn_commutator(a, b) == expected)

    checks("powers-and-inverses", True)
    for _ in range(min(cases, 200)):
        n = rng.randint(4, 8)
        g = GnElement(n, rng.randint(0, 1), tuple(rng.randint(-3, 3) for _ in range(n)))
        m = rng.randint(-4, 4)
        step, acc = (g if m >= 0 else gn_inv(g)), gn_identity(n)
        for _ in range(abs(m)):
            acc = gn_mul(acc, step)
        checks("powers-and-inverses",
               gn_pow(g, m) == acc and gn_mul(g, gn_inv(g)) == gn_identity(n))

    for n in range(4, 8):
        pairs = [(i, j) for i in range(1, n) for j in range(i + 1, n + 1)]
        for (i, j) in pairs:
            for (k, l) in pairs:
                shared = len({i, j} & {k, l})
                expected = gn_nu(n) if shared == 1 else gn_identity(n)
                checks("sij-commutator-table",
                       gn_commutator(s_ij(n, i, j), s_ij(n, k, l)) == expected)

    for n in range(4, 8):
        for k in range(1, n - 1):
            for j in range(1, n):
                sjn = s_ij(n, j, n)
                moved = act_generator(sjn, k, 1)
                if j not in (k, k + 1):
                    checks("hurwitz-moves", moved == sjn)
                elif j == k:
                    checks("hurwitz-moves", moved == s_ij(n, k + 1, n))
                else:
                    skn, sk1n = s_ij(n, k, n), s_ij(n, k + 1, n)
                    checks("hurwitz-moves", moved == gn_mul(gn_mul(sk1n, skn), gn_inv(sk1n))
                           and moved == gn_mul(skn, gn_nu(n)))

    checks("embedding-chain", True)
    for _ in range(min(cases, 200)):
        n = rng.randint(4, 7)
        a = GnElement(n, rng.randint(0, 1), tuple(rng.randint(-2, 2) for _ in range(n)))
        b = GnElement(n, rng.randint(0, 1), tuple(rng.randint(-2, 2) for _ in range(n)))
        checks("embedding-chain",
               embed(gn_mul(a, b), n + 1) == gn_mul(embed(a, n + 1), embed(b, n + 1))
               and embed(gn_inv(a), n + 1) == gn_inv(embed(a, n + 1)))
        for i in range(1, n):
            checks("embedding-chain",
                   embed(act_generator(a, i, 1), n + 1) == act_generator(embed(a, n + 1), i, 1))

    return checks


# ---------------------------------------------------------------------------
# suite: gn-action


def gn_action_suite(cases: int = 300, seed: int = 0) -> dict[str, bool]:
    rng = case_rng(cases, seed)
    checks = Checks()

    checks("multiplicative", True)
    for _ in range(cases):
        n = rng.randint(4, 8)
        i = rng.randint(1, n - 1)
        sign = rng.choice([1, -1])
        a = GnElement(n, rng.randint(0, 1), tuple(rng.randint(-3, 3) for _ in range(n)))
        b = GnElement(n, rng.randint(0, 1), tuple(rng.randint(-3, 3) for _ in range(n)))
        checks("multiplicative", act_generator(gn_mul(a, b), i, sign) == gn_mul(
            act_generator(a, i, sign), act_generator(b, i, sign)))

    for n in range(4, 9):
        basis = [gn_generator(n, k) for k in range(n)] + [gn_nu(n)]
        for i in range(1, n - 1):
            for g in basis:
                checks("braid-relations", act_word(g, BraidWord(n, (i, i + 1, i))) == act_word(
                    g, BraidWord(n, (i + 1, i, i + 1))))
        for i in range(1, n):
            for j in range(i + 2, n):
                for g in basis:
                    checks("braid-relations", act_word(g, BraidWord(n, (i, j))) == act_word(
                        g, BraidWord(n, (j, i))))
        for i in range(1, n):
            for g in basis:
                checks("braid-relations", act_word(g, BraidWord(n, (i, -i))) == g
                       and act_word(g, BraidWord(n, (-i, i))) == g)

    for n in range(4, 9):
        relator = quadrangle_relator(n)
        for g in [gn_generator(n, k) for k in range(n)] + [gn_nu(n)]:
            checks("quadrangle-trivial", act_word(g, relator) == g)

    for n in range(4, 8):
        for i in range(1, n):
            s = s_ij(n, i, i + 1)
            for g in [gn_generator(n, k) for k in range(n)]:
                conj = gn_mul(gn_mul(gn_inv(s), g), s)
                checks("squares-are-conjugation", act_word(g, BraidWord(n, (i, i))) == conj)
    for _ in range(min(cases, 50)):
        n = rng.randint(4, 7)
        b = random_word(n, 6, rng)
        s1_b = act_word(gn_s1(n), b)
        word = conj_word(BraidWord(n, (1, 1)), b)
        for k in range(n):
            g = gn_generator(n, k)
            conj = gn_mul(gn_mul(gn_inv(s1_b), g), s1_b)
            checks("squares-are-conjugation", act_word(g, word) == conj)

    return checks


# ---------------------------------------------------------------------------
# suite: quotient


def quotient_suite(cases: int = 500, seed: int = 0) -> dict[str, bool]:
    rng = case_rng(cases, seed)
    checks = Checks()

    for n in range(4, 8):
        table = s2_table(n)
        for i in range(1, n):
            nf = normal_form(BraidWord(n, (i, i)))
            checks("squared-generators",
                   nf.perm.is_identity() and nf.g == table[i - 1] == s_ij(n, i, i + 1))

    checks("homomorphism-on-pure", True)
    for _ in range(cases):
        n = rng.randint(4, 7)
        p1 = _rand_pure_word(n, rng, factors=rng.randint(1, 3))
        p2 = _rand_pure_word(n, rng, factors=rng.randint(1, 3))
        g1, g2 = normal_form(p1).g, normal_form(p2).g
        checks("homomorphism-on-pure", normal_form(concat(p1, p2)).g == gn_mul(g1, g2))

    checks("equivariance", True)
    for _ in range(cases):
        n = rng.randint(4, 7)
        p = _rand_pure_word(n, rng, factors=rng.randint(1, 3))
        b = random_word(n, 8, rng)
        checks("equivariance", normal_form(conj_word(p, b)).g == act_word(normal_form(p).g, b))

    checks("linking-determines-abelian", True)
    for _ in range(cases):
        n = rng.randint(4, 7)
        p = _rand_pure_word(n, rng, factors=rng.randint(1, 3))
        lk = linking_matrix(p)
        combo = [0] * n
        for i in range(1, n):
            for j in range(i + 1, n + 1):
                if lk[i - 1][j - 1]:
                    for k, x in enumerate(s_ij(n, i, j).vec):
                        combo[k] += lk[i - 1][j - 1] * x
        checks("linking-determines-abelian", tuple(combo) == normal_form(p).g.vec)

    # Rescanning through a randomized reduced word for the section must give
    # the same normal form, whatever reduced-word convention is picked.
    checks("section-independence", True)
    for _ in range(min(cases, 200)):
        n = rng.randint(4, 7)
        nf = normal_form(random_word(n, 25, rng))
        checks("section-independence",
               normal_form(concat(tits_lift(nf.perm, rng), lift(nf.g))) == nf)

    checks("lift-roundtrip", True)
    for _ in range(min(cases, 200)):
        n = rng.randint(4, 7)
        g = GnElement(n, rng.randint(0, 1), tuple(rng.randint(-3, 3) for _ in range(n)))
        nf = normal_form(lift(g))
        checks("lift-roundtrip", nf.perm.is_identity() and nf.g == g)

    checks("degree-law", True)
    for _ in range(cases):
        n = rng.randint(4, 7)
        w = random_word(n, 60, rng)
        ell, a0, _, _ = quotient.degree_decomposition(w)
        checks("degree-law", braid.exponent_sum(w) == ell + 2 * a0)

    for n in range(4, 8):
        c = c_word(n)
        nf = normal_form(c)
        checks("central-element", nf.perm.is_identity() and nf.g == gn_nu(n)
               and in_kernel(concat(c, c)))
        for i in range(1, n):
            gen = BraidWord(n, (i,))
            checks("central-element", tbn_equal(concat(c, gen), concat(gen, c)))

    for _ in range(max(cases // 10, 50)):
        n = rng.randint(4, 7)
        b = random_word(n, 8, rng)
        i = rng.randint(1, n - 2)
        y1 = conj_word(BraidWord(n, (i,)), b)
        y2 = conj_word(BraidWord(n, (i + 1,)), b)
        nu = gn_nu(n)
        for e1, e2 in ((2, 2), (2, -2), (-2, -2)):
            nf = normal_form(commutator_word(power_word(y1, e1), power_word(y2, e2)))
            checks("adjacent-squares", nf.perm.is_identity() and nf.g == nu)

    for _ in range(max(cases // 10, 50)):
        n = rng.randint(4, 7)
        w = random_word(n, 8, rng)
        i = rng.randint(1, n - 1)
        h1 = HalfTwist(w, i)
        a, b = sorted(ht_endpoints(h1))
        h2word = z_ij(n, a, b)
        nf1 = normal_form(concat(ht_word(h1), ht_word(h1)))
        nf2 = normal_form(concat(h2word, h2word))
        checks("equal-endpoints-squares", nf1.perm == nf2.perm and nf1.g.vec == nf2.g.vec)

    return checks


# ---------------------------------------------------------------------------
# suite: kernel


def kernel_suite(cases: int = 100, seed: int = 0) -> dict[str, bool]:
    rng = case_rng(cases, seed)
    checks = Checks()

    checks("quadrangle-conjugates", True)
    for _ in range(cases):
        n = rng.randint(4, 7)
        b = random_word(n, 20, rng)
        checks("quadrangle-conjugates", in_kernel(conj_word(quadrangle_relator(n), b)))

    checks("transversal-conjugates", True)
    for _ in range(cases):
        n = rng.randint(4, 7)
        b = random_word(n, 20, rng)
        t1, t2 = transversal_pair(n)
        word = commutator_word(ht_word(ht_conjugate(t1, b)), ht_word(ht_conjugate(t2, b)))
        checks("transversal-conjugates", in_kernel(word))

    # A word with a nontrivial permutation or exponent sum is outside the
    # kernel; both invariants are read off the word, not off the scan.
    checks("non-kernel-rejected", True)
    rejected = 0
    while rejected < cases:
        n = rng.randint(4, 7)
        w = random_word(n, 20, rng, min_len=1)
        if psi(w).is_identity() and braid.exponent_sum(w) == 0:
            continue
        rejected += 1
        checks("non-kernel-rejected", not in_kernel(w))

    for n in range(4, 7):
        empty = BraidWord(n, ())
        for word in (quadrangle_relator(n), transversal_commutator(n)):
            checks("kernel-words-bn-nontrivial", not bn_equal(word, empty) and in_kernel(word))

    return checks


# ---------------------------------------------------------------------------
# suite: primes


def primes_suite(cases: int = 50, seed: int = 0) -> dict[str, bool]:
    rng = case_rng(cases, seed)
    checks = Checks()

    for n in range(4, 8):
        pair = canonical_prime(n)
        G = GnInstance(n)
        report = check_prime_frame(G, pair.h, pair.tau, seed=seed)
        checks("canonical-prime-passes", report.verdict == "pass" and pair.h.vec[0] == 0
               and make_pair(G, pair.h, pair.ht).tau == pair.tau == gn_nu(n))

    G5 = GnInstance(5)
    pair5 = canonical_prime(5)
    h5 = pair5.h
    mutants = [
        (h5, gn_identity(5), "1"),
        (h5, gn_s1(5), "1"),
        (gn_mul(h5, gn_nu(5)), gn_nu(5), "2a"),
        (gn_mul(gn_u(5, 1), gn_u(5, 2)), gn_nu(5), "1"),
        (transport(G5, pair5, frame(5, 2)), gn_nu(5), "1"),
        (gn_s1(5), gn_nu(5), "1"),
    ]
    for candidate, tau, expected in mutants:
        report = check_prime_frame(G5, candidate, tau, seed=seed)
        checks("mutants-fail", report.verdict == f"fail({expected})")
    report = check_prime_frame(G5, gn_mul(gn_u(5, 1), gn_u(5, 2)), gn_nu(5), seed=seed)
    checks("mutants-fail", report.conditions["3"] is False)

    checks("conjugation-stability", True)
    for _ in range(cases):
        n = rng.randint(4, 7)
        G = GnInstance(n)
        pair = canonical_prime(n)
        b = random_word(n, 6, rng)
        moved = PolarizedPair(G.act(pair.h, b.letters), ht_conjugate(pair.ht, b), pair.tau)
        # adjacent, disjoint and transversal-to-support samples, transported
        # alongside the pair so the configurations are preserved
        _, t2 = transversal_pair(n)
        transversal_to_x1 = ht_conjugate(t2, braid.frame_transport(n, 2, 1))
        samples = [ht_conjugate(frame(n, 2), b), ht_conjugate(transversal_to_x1, b)]
        if n >= 5:
            samples.append(ht_conjugate(frame(n, 3), b))
        report = axiom_spot_check(G, moved.h, moved.ht, samples, tau=moved.tau)
        checks("conjugation-stability",
               report.verdict == "pass" and report.witness["checked"]["3"] >= 1)

    checks("coherent-pairs-share-tau", True)
    for _ in range(min(cases, 20)):
        n = rng.randint(4, 7)
        G = GnInstance(n)
        pair = canonical_prime(n)
        j = rng.randint(1, n - 1)
        target = HalfTwist(random_word(n, 5, rng), j, rng.random() < 0.5)
        g = transport(G, pair, target)
        checks("coherent-pairs-share-tau", make_pair(G, g, target).tau == pair.tau)

    for n in (4, 5):
        G = GnInstance(n)
        pair = canonical_prime(n)
        reversed_support = HalfTwist(pair.ht.conj, pair.ht.index, not pair.ht.flipped)
        anti = transport(G, pair, reversed_support)
        checks("anti-coherent-inverts", anti == gn_mul(gn_inv(pair.h), pair.tau))

    for n in (5, 6):
        G = GnInstance(n)
        for pair in (canonical_prime(n), make_pair(G, gn_u(n, 1), frame(n, 1))):
            report = primes.prime_identity_suite(G, pair, cases=max(cases // 5, 10), seed=seed)
            checks("identity-suite", report.passed)

    for n in (5, 6):
        G = GnInstance(n)
        checks("transport-uniqueness", transport_uniqueness(G, canonical_prime(n), seed=seed))

    for S, verdict in ((h5, "pass-up-to-bound(3)"), (gn_nu(5), "fail(0)"), (gn_s1(5), "fail(1a)")):
        checks("generation-criterion", check_prop71(G5, S, bound=3, seed=seed).verdict == verdict)

    upair = make_pair(G5, gn_u(5, 1), frame(5, 1))
    checks("frame-family-transport", check_prime_frame(G5, gn_u(5, 1), gn_nu(5)).verdict == "pass"
           and upair.tau == gn_nu(5) and transport(G5, upair, frame(5, 3)) == gn_u(5, 3))

    return checks


SUITES: dict[str, Callable[[int, int], dict[str, bool]]] = {
    "artin": artin_suite,
    "tits": tits_suite,
    "gn-presentation": gn_presentation_suite,
    "gn-action": gn_action_suite,
    "quotient": quotient_suite,
    "kernel": kernel_suite,
    "primes": primes_suite,
}
