"""The Garside left normal form of B_n against the Artin action, and
bn_equal against the normal forms alone.

bn_equal answers "not equal" when the exponent sum or the permutation
differs, and otherwise compares bn_normal_form; the Artin action, which is
faithful, is the differential oracle of the normal form here, and the
unfiltered comparison of normal forms is the oracle of bn_equal.
"""

import itertools
import os
import random
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

import tbraid
from tbraid import braid
from tbraid.braid import (
    BraidWord,
    HalfTwist,
    Perm,
    artin_images,
    bn_equal,
    bn_normal_form,
    commutator_word,
    concat,
    format_word,
    ht_word,
    inv_word,
    power_word,
    psi,
    quadrangle_relator,
    random_word,
    tits_lift,
    transversal_commutator,
)


def artin_equal(w1, w2):
    return artin_images(w1) == artin_images(w2)


def delta(n):
    return tits_lift(Perm(n, tuple(range(n, 0, -1))))


def spell(n, nf):
    """The word Delta^k A_1 ... A_r of a normal form."""
    k, factors = nf
    return concat(power_word(delta(n), k), *(tits_lift(Perm(n, f)) for f in factors))


def all_words(n, max_len):
    letters = [s * i for i in range(1, n) for s in (1, -1)]
    for length in range(max_len + 1):
        for t in itertools.product(letters, repeat=length):
            yield BraidWord(n, t)


def partition(words, key):
    classes = {}
    for w in words:
        classes.setdefault(key(w), []).append(w.letters)
    return sorted(sorted(c) for c in classes.values())


@pytest.mark.parametrize("n,max_len", [(3, 6), (4, 5)])
def test_normal_form_partitions_words_like_the_artin_action(n, max_len):
    words = list(all_words(n, max_len))
    by_nf = partition(words, bn_normal_form)
    assert by_nf == partition(words, lambda w: tuple(img.letters for img in artin_images(w)))
    # the ball holds many distinct elements and many coincidences
    assert len(words) / 20 < len(by_nf) < len(words) / 2


def rewrite(w, rng, steps=12):
    """Apply braid-relation rewrites and free insertions at random places;
    the result equals w in B_n."""
    letters = list(w.letters)
    for _ in range(steps):
        p = rng.randint(0, len(letters))
        a, b, c = (letters[p:p + 3] + [None] * 3)[:3]
        if b is not None and abs(abs(a) - abs(b)) >= 2:
            letters[p:p + 2] = [b, a]
        elif (c is not None and a == c and abs(abs(a) - abs(b)) == 1
              and (a > 0) == (b > 0)):
            letters[p:p + 3] = [b, a, b]
        else:
            x = rng.choice([1, -1]) * rng.randint(1, w.n - 1)
            letters[p:p] = [x, -x]
    return BraidWord(w.n, tuple(letters))


def insert(w, extra, rng):
    p = rng.randint(0, len(w))
    return BraidWord(w.n, w.letters[:p] + tuple(extra) + w.letters[p:])


def nontrivial_insert(w, rng):
    """w with a nontrivial element of B_n inserted: a kernel word of the
    quotient map (n >= 4) or one generator."""
    n = w.n
    if n >= 4 and rng.random() < 0.5:
        extra = rng.choice([transversal_commutator(n), quadrangle_relator(n)])
    else:
        extra = BraidWord(n, (rng.choice([1, -1]) * rng.randint(1, n - 1),))
    return insert(w, extra.letters, rng)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_bn_equal_matches_the_artin_oracle_on_seeded_pairs(n):
    rng = random.Random(1000 + n)
    equal = unequal = 0
    for _ in range(60):
        w = random_word(n, 10, rng)
        for other in (rewrite(w, rng), nontrivial_insert(w, rng)):
            expected = artin_equal(w, other)
            assert bn_equal(w, other) == expected, (format_word(w), format_word(other))
            equal += expected
            unequal += not expected
    assert equal == 60 and unequal == 60


def half_twist_pairs(n, rng):
    """Consecutive, disjoint and transversal frame pairs conjugated by one
    random word (the last two for n >= 4), and a pair of random half-twists."""
    b = random_word(n, 6, rng)
    a = rng.randint(1, n - 2)
    yield HalfTwist(b, a), HalfTwist(b, a + 1)
    if n >= 4:
        a = rng.randint(1, n - 3)
        yield HalfTwist(b, a), HalfTwist(b, a + 2)
        yield HalfTwist(b, a + 1), HalfTwist(concat(BraidWord(n, (a, a + 2)), b), a + 1)
    yield (HalfTwist(random_word(n, 6, rng), rng.randint(1, n - 1)),
           HalfTwist(random_word(n, 6, rng), rng.randint(1, n - 1)))


def seeded_pairs(n, rng, draws=15):
    """(kind, w1, w2) for every kind of pair that bn_equal is asked about:
    a braid-relation rewrite (equal); one generator inserted (another
    exponent sum); X_i X_j^-1 inserted with i != j (the same exponent sum,
    another permutation); a transversal commutator or a quadrangle relator
    inserted (both invariants agree, unequal); and the commutator and triple
    words of classify_pair."""
    for _ in range(draws):
        w = random_word(n, 16, rng)
        i, j = rng.sample(range(1, n), 2)
        yield "rewrite", w, rewrite(w, rng)
        yield "generator", w, insert(w, [rng.choice([1, -1]) * rng.randint(1, n - 1)], rng)
        yield "swap", w, insert(w, [i, -j], rng)
        if n >= 4:
            yield "transversal", w, insert(w, transversal_commutator(n).letters, rng)
            yield "quadrangle", w, insert(w, quadrangle_relator(n).letters, rng)
        for h1, h2 in half_twist_pairs(n, rng):
            w1, w2 = ht_word(h1), ht_word(h2)
            yield "commutator", commutator_word(w1, w2), BraidWord(n, ())
            yield "triple", concat(w1, w2, w1), concat(w2, w1, w2)


@pytest.mark.parametrize("n", range(3, 9))
def test_bn_equal_matches_the_unfiltered_normal_forms(n):
    verdicts = {}
    for kind, w1, w2 in seeded_pairs(n, random.Random(3000 + n)):
        expected = bn_normal_form(w1) == bn_normal_form(w2)
        assert bn_equal(w1, w2) == expected, (kind, format_word(w1), format_word(w2))
        verdicts.setdefault(kind, set()).add(expected)
    assert verdicts.pop("rewrite") == {True}
    assert verdicts.pop("triple") == verdicts.pop("commutator") == {True, False}
    assert verdicts == {kind: {False} for kind in verdicts}
    assert len(verdicts) == (2 if n == 3 else 4)


class ReachedNormalForm(Exception):
    pass


def test_unequal_invariants_never_reach_the_normal_form(monkeypatch):
    def refuse(w):
        raise ReachedNormalForm(format_word(w))

    monkeypatch.setattr(braid, "bn_normal_form", refuse)
    reached = set()
    for n in range(3, 9):
        for kind, w1, w2 in seeded_pairs(n, random.Random(4000 + n), draws=5):
            decided = (braid.exponent_sum(w1), psi(w1)) != (braid.exponent_sum(w2), psi(w2))
            if decided:
                assert not bn_equal(w1, w2), (kind, format_word(w1), format_word(w2))
            else:
                with pytest.raises(ReachedNormalForm):
                    bn_equal(w1, w2)
                reached.add(kind)
            if kind not in ("commutator", "triple"):
                assert decided == (kind in ("generator", "swap")), kind
    assert {"rewrite", "transversal", "quadrangle", "commutator"} <= reached


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 8])
def test_normal_forms_are_canonical(n):
    rng = random.Random(2000 + n)
    for _ in range(40):
        w = random_word(n, 30, rng)
        nf = bn_normal_form(w)
        k, factors = nf
        assert bn_normal_form(spell(n, nf)) == nf
        assert all(f != tuple(range(1, n + 1)) and f != tuple(range(n, 0, -1))
                   for f in factors)
        assert bn_normal_form(concat(w, inv_word(w))) == (0, ())
        assert bn_normal_form(concat(inv_word(w), w)) == (0, ())
    d2 = power_word(delta(n), 2)
    assert bn_normal_form(d2) == (2, ())
    for i in range(1, n):
        x = BraidWord(n, (i,))
        assert bn_normal_form(concat(d2, x)) == bn_normal_form(concat(x, d2))
        # a generator is one simple factor, or Delta itself on two strands
        assert bn_normal_form(x) == ((1, ()) if n == 2 else (0, (psi(x).images,)))
        assert bn_normal_form(inv_word(x))[0] == -1


def test_normal_form_examples():
    assert bn_normal_form(BraidWord(3, ())) == (0, ())
    assert bn_normal_form(BraidWord(3, (1, 2, 1))) == (1, ())
    assert bn_normal_form(BraidWord(3, (-1, -2, -1))) == (-1, ())
    # X_1 X_1 is two factors: X_1 does not absorb a second crossing
    assert bn_normal_form(BraidWord(3, (1, 1))) == (0, ((2, 1, 3), (2, 1, 3)))
    # X_2 X_1 X_1 regroups as (X_2 X_1)(X_1)
    assert bn_normal_form(BraidWord(3, (2, 1, 1))) == (0, ((2, 3, 1), (2, 1, 3)))
    assert bn_normal_form(BraidWord(2, (-1, -1, 1))) == (-1, ())


def test_bn_equal_is_fast_on_words_with_huge_artin_images():
    # (1 -2)^15 has Artin images of 7.0M letters; the normal form is polynomial.
    w = power_word(BraidWord(3, (1, -2)), 20)
    half = power_word(BraidWord(3, (1, -2)), 10)
    rewritten = concat(half, BraidWord(3, (2, 1, 2, -1, -2, -1)), half)
    start = time.perf_counter()
    assert bn_equal(w, rewritten)
    assert not bn_equal(w, concat(half, BraidWord(3, (1,)), half))
    assert time.perf_counter() - start < 2.0


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def test_cli_bn_equality_on_long_words_is_quick():
    rng = random.Random(8)
    w1 = random_word(8, 1000, rng, min_len=1000)
    w2 = rewrite(w1, rng, steps=40)
    w3 = nontrivial_insert(w1, rng)
    src = str(Path(tbraid.__file__).resolve().parents[1])
    for other, code, verdict in ((w2, 0, "equal"), (w3, 1, "not-equal")):
        proc = subprocess.run(
            [sys.executable, "-m", "tbraid.cli", "--n", "8", "eq", "--group", "bn",
             format_word(w1), format_word(other)],
            capture_output=True, text=True, timeout=5, preexec_fn=_limit_memory,
            env={**os.environ, "PYTHONPATH": src})
        assert (proc.returncode, proc.stdout) == (code, verdict + "\n"), proc.stderr
