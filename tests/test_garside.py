"""The Garside left normal form of B_n against the Artin action.

bn_equal decides equality through bn_normal_form; the Artin action, which is
faithful, is the differential oracle here.
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
from tbraid.braid import (
    BraidWord,
    Perm,
    artin_images,
    bn_equal,
    bn_normal_form,
    concat,
    format_word,
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


def nontrivial_insert(w, rng):
    """w with a nontrivial element of B_n inserted: a kernel word of the
    quotient map (n >= 4) or one generator."""
    n = w.n
    if n >= 4 and rng.random() < 0.5:
        extra = rng.choice([transversal_commutator(n), quadrangle_relator(n)])
    else:
        extra = BraidWord(n, (rng.choice([1, -1]) * rng.randint(1, n - 1),))
    p = rng.randint(0, len(w))
    return BraidWord(n, w.letters[:p] + extra.letters + w.letters[p:])


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
