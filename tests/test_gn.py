"""Tests for the coordinate group, including an independent rewriting oracle.

The oracle canonicalizes a formal product of generator letters by bubble
sorting with the presentation's swap rule (each transposed pair with pairing
value 1 emits one central factor nu), never touching the closed-form cocycle
used by the implementation.
"""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import tbraid
from tbraid.braid import BraidWord
from tbraid.gn import (
    GnElement,
    act_generator,
    act_word,
    action_images,
    beta,
    embed,
    format_element,
    gn_commutator,
    gn_generator,
    gn_identity,
    gn_inv,
    gn_mul,
    gn_nu,
    gn_pow,
    gn_product,
    gn_s1,
    gn_u,
    parse_element,
    q_value,
    s_ij,
)


def q_form(n):
    """The pairing Q as a symmetric 0/1 matrix on indices 0..n-1, where index
    0 is S_1 and index i >= 1 is V_i: the presentation oracle's own copy."""
    q = [[0] * n for _ in range(n)]
    q[0][2] = q[2][0] = 1
    for i in range(1, n - 1):
        q[i][i + 1] = q[i + 1][i] = 1
    return q


def oracle_canonical(letters, n):
    """Presentation-based canonical form of a formal generator word.

    letters: sequence of (k, e) with generator index k in 0..n-1 and
    exponent e = +-1, possibly prefixed by central factors given as "nu".
    """
    q = q_form(n)
    word = [l for l in letters if l != "nu"]
    bit = sum(1 for l in letters if l == "nu") % 2
    swapped = True
    while swapped:
        swapped = False
        for idx in range(len(word) - 1):
            (k1, e1), (k2, e2) = word[idx], word[idx + 1]
            if k1 > k2:
                bit = (bit + e1 * e2 * q[k1][k2]) % 2
                word[idx], word[idx + 1] = word[idx + 1], word[idx]
                swapped = True
    vec = [0] * n
    for k, e in word:
        vec[k] += e
    return bit, tuple(vec)


def element_letters(g):
    out = ["nu"] * g.bit
    for k, e in enumerate(g.vec):
        out.extend([(k, 1 if e > 0 else -1)] * abs(e))
    return out


def test_q_form():
    q = q_form(5)
    assert q[0][2] == q[2][0] == 1
    assert q[1][2] == q[2][3] == q[3][4] == 1
    assert q[0][1] == q[0][3] == q[0][4] == q[1][3] == 0
    assert all(q[i][i] == 0 for i in range(5))
    for n in (3, 5, 8):
        units = [gn_generator(n, k).vec for k in range(n)]
        q = q_form(n)
        assert all(q_value(units[k], units[l], n) == q[k][l] for k in range(n) for l in range(n))


def test_mul_examples():
    n = 4
    u1, u2 = gn_u(n, 1), gn_u(n, 2)
    assert gn_mul(u1, u2) == GnElement(n, 0, (0, 1, 1, 0))
    assert gn_mul(u2, u1) == GnElement(n, 1, (0, 1, 1, 0))
    assert gn_commutator(u1, u2) == gn_nu(n)
    g = GnElement(n, 1, (2, -1, 0, 3))
    assert gn_mul(gn_identity(n), g) == g
    s1, u3 = gn_s1(n), gn_u(n, 3)
    assert gn_mul(s1, u3) == gn_mul(u3, s1)
    with pytest.raises(ValueError):
        gn_mul(gn_s1(4), gn_s1(5))


def test_inv_examples():
    n = 4
    assert gn_inv(gn_nu(n)) == gn_nu(n)
    assert gn_inv(gn_u(n, 1)) == GnElement(n, 0, (0, -1, 0, 0))
    g = gn_mul(gn_u(n, 1), gn_u(n, 2))
    assert gn_inv(g) == gn_mul(gn_inv(gn_u(n, 2)), gn_inv(gn_u(n, 1)))
    assert gn_mul(g, gn_inv(g)) == gn_identity(n)


def test_pow_examples():
    n = 4
    g = gn_mul(gn_u(n, 1), gn_u(n, 2))
    assert gn_pow(g, 0) == gn_identity(n)
    assert gn_pow(gn_nu(n), 2) == gn_identity(n)
    assert gn_pow(g, 2) == gn_mul(g, g)
    assert gn_pow(g, -3) == gn_inv(gn_pow(g, 3))


def test_mul_against_rewriting_oracle():
    rng = random.Random(1)
    for _ in range(300):
        n = rng.randint(4, 7)
        a = GnElement(n, rng.randint(0, 1), tuple(rng.randint(-2, 2) for _ in range(n)))
        b = GnElement(n, rng.randint(0, 1), tuple(rng.randint(-2, 2) for _ in range(n)))
        product = gn_mul(a, b)
        bit, vec = oracle_canonical(element_letters(a) + element_letters(b), n)
        assert (product.bit, product.vec) == (bit, vec)


def test_s_ij_frozen_table():
    expected = {
        (1, 2): (0, (1, 0, 0, 0)),
        (1, 3): (1, (1, 0, 1, 0)),
        (1, 4): (0, (1, 0, 1, 1)),
        (2, 3): (1, (1, 1, 1, 0)),
        (2, 4): (0, (1, 1, 1, 1)),
        (3, 4): (0, (1, 1, 2, 1)),
    }
    for (i, j), (bit, vec) in expected.items():
        assert s_ij(4, i, j) == GnElement(4, bit, vec)
    with pytest.raises(ValueError):
        s_ij(4, 3, 3)


def test_s_ij_against_rewriting_oracle():
    # The product shape: nu . u_{j-1}..u_1 . u_{i-1}..u_2 . s_1 (with the
    # leading factors dropped in the degenerate cases).
    for n in range(4, 8):
        for i in range(1, n):
            for j in range(i + 1, n + 1):
                letters = []
                if (i, j) != (1, 2):
                    if i >= 2:
                        letters.append("nu")
                        letters += [(m, 1) for m in range(j - 1, 0, -1)]
                        letters += [(m, 1) for m in range(i - 1, 1, -1)]
                    else:
                        letters += [(m, 1) for m in range(j - 1, 1, -1)]
                letters.append((0, 1))
                bit, vec = oracle_canonical(letters, n)
                assert s_ij(n, i, j) == GnElement(n, bit, vec)


def test_s_ij_matches_the_product_of_factors():
    # s_ij multiplies out its factors on one vector; the oracle multiplies the
    # dense elements with gn_product.
    for n in range(3, 21):
        for i in range(1, n):
            for j in range(i + 1, n + 1):
                if i >= 2:
                    factors = [gn_nu(n)] + [gn_u(n, m) for m in range(j - 1, 0, -1)]
                    factors += [gn_u(n, m) for m in range(i - 1, 1, -1)]
                else:
                    factors = [gn_u(n, m) for m in range(j - 1, 1, -1)]
                assert s_ij(n, i, j) == gn_product(factors + [gn_s1(n)], n), (n, i, j)


def test_ab_vector():
    assert gn_nu(4).vec == (0, 0, 0, 0)
    assert s_ij(4, 1, 2).vec == (1, 0, 0, 0)
    assert s_ij(4, 1, 3).vec == (1, 0, 1, 0)


def test_act_generator_examples():
    n = 4
    assert act_generator(gn_s1(n), 2, 1) == GnElement(n, 1, (1, 0, 1, 0))
    assert act_generator(gn_u(n, 1), 1, 1) == GnElement(n, 1, (0, -1, 0, 0))
    assert act_generator(gn_s1(n), 3, 1) == gn_s1(n)
    with pytest.raises(ValueError):
        act_generator(gn_s1(n), 4, 1)
    with pytest.raises(ValueError):
        act_generator(gn_s1(n), 1, 2)
    with pytest.raises(ValueError):
        act_generator(gn_s1(n), 0, -1)
    with pytest.raises(ValueError):
        act_generator(gn_s1(n), -1, -1)


def test_act_word_examples():
    n = 4
    g = gn_u(n, 1)
    assert act_word(g, BraidWord(n, ())) == g
    assert act_word(gn_u(n, 1), BraidWord(n, (1, 1))) == gn_u(n, 1)
    assert act_word(gn_u(n, 2), BraidWord(n, (1, 1))) == GnElement(n, 1, (0, 0, 1, 0))
    with pytest.raises(ValueError):
        act_word(g, BraidWord(n + 1, (1,)))


def test_action_is_invertible():
    rng = random.Random(2)
    for _ in range(100):
        n = rng.randint(4, 7)
        g = GnElement(n, rng.randint(0, 1), tuple(rng.randint(-3, 3) for _ in range(n)))
        i = rng.randint(1, n - 1)
        assert act_generator(act_generator(g, i, 1), i, -1) == g
        assert act_generator(act_generator(g, i, -1), i, 1) == g


def test_presentation_relations():
    for n in range(4, 8):
        nu, s1 = gn_nu(n), gn_s1(n)
        us = [gn_u(n, i) for i in range(1, n)]
        for i in range(1, n):
            expected = nu if i == 2 else gn_identity(n)
            assert gn_commutator(s1, us[i - 1]) == expected
        for i in range(1, n):
            for j in range(i + 1, n):
                expected = nu if j == i + 1 else gn_identity(n)
                assert gn_commutator(us[i - 1], us[j - 1]) == expected
        assert gn_mul(nu, nu) == gn_identity(n)
        for g in [s1] + us:
            assert gn_commutator(nu, g) == gn_identity(n)


def test_commutator_is_the_pairing():
    rng = random.Random(4)
    for _ in range(200):
        n = rng.randint(4, 8)
        a = GnElement(n, rng.randint(0, 1), tuple(rng.randint(-3, 3) for _ in range(n)))
        b = GnElement(n, rng.randint(0, 1), tuple(rng.randint(-3, 3) for _ in range(n)))
        assert gn_commutator(a, b) == GnElement(n, q_value(a.vec, b.vec, n), (0,) * n)
        assert (beta(a.vec, b.vec, n) + beta(b.vec, a.vec, n)) % 2 == q_value(a.vec, b.vec, n)


def test_embedding():
    g = s_ij(4, 2, 3)
    assert embed(g, 6) == GnElement(6, g.bit, g.vec + (0, 0))
    assert embed(g, 6) == s_ij(6, 2, 3)
    with pytest.raises(ValueError):
        embed(g, 3)


def test_element_text_roundtrip():
    g = GnElement(5, 1, (0, 1, 1, 0, 0))
    assert format_element(g) == "1;0,1,1,0,0"
    assert parse_element("1;0,1,1,0,0", 5) == g
    with pytest.raises(ValueError, match="bit"):
        parse_element("2;0,0,0,0,0", 5)
    with pytest.raises(ValueError, match="coordinates"):
        parse_element("1;0,0", 5)
    with pytest.raises(ValueError, match="'x'"):
        parse_element("1;0,x,0,0,0", 5)


def test_guards_raise_under_python_O():
    # python -O strips assert statements; a guard that protects a result must
    # still raise there.
    src = str(Path(tbraid.__file__).resolve().parents[1])
    # A forward map whose abelianization is not an involution: the round trip
    # through it must refuse the forward rows as inverse rows.
    code = ("from tbraid import gn\n"
            "gn.action_images = lambda n, i: tuple(gn.GnElement(3, 0, v) for v in\n"
            "    ((1, 1, 0), (0, 1, 0), (0, 0, 1)))\n"
            "gn.action_inverse_images(3, 1)\n")
    result = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True,
                            text=True, env={**os.environ, "PYTHONPATH": src})
    assert result.returncode != 0
    assert "AssertionError: bad abelian inverse" in result.stderr


def test_action_step_mutants_raise_under_python_O():
    # Wrong images of the moved generators must make action_step raise, also
    # under python -O: an image moved at a coordinate other than i, one moved
    # onto u_7, outside the generators X_3 moves, and X_2 with u_1 left out.
    src = str(Path(tbraid.__file__).resolve().parents[1])
    code = ("from tbraid import gn\n"
            "real = gn._moved_images\n"
            "def mutant(change):\n"
            "    def moved(n, i):\n"
            "        images = real(n, i)\n"
            "        change(n, images)\n"
            "        return images\n"
            "    return moved\n"
            "cases = [(6, 3, lambda n, im: im.update({2: gn.gn_mul(im[2], gn.gn_u(n, 4))})),\n"
            "         (8, 3, lambda n, im: im.update({4: gn.gn_mul(im[4], gn.gn_u(n, 7))})),\n"
            "         (5, 2, lambda n, im: im.pop(1))]\n"
            "for n, i, change in cases:\n"
            "    gn._moved_images = mutant(change)\n"
            "    try:\n"
            "        gn.action_step(n, i)\n"
            "    except AssertionError as exc:\n"
            "        print(exc)\n"
            "    else:\n"
            "        print('accepted')\n")
    result = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True,
                            text=True, env={**os.environ, "PYTHONPATH": src}, check=True)
    assert result.stdout.splitlines() == [
        "closed-form action of X_3^1 on G(6) disagrees at 0;0,0,1,0,0,0",
        "closed-form action of X_3^1 on G(8) reads an unmoved generator",
        "closed-form action of X_2^1 on G(5) reads an unmoved generator",
    ]


def test_the_scan_table_keeps_no_generator_images():
    # action_step keeps one O(n) step per letter; the n generator images it
    # is read from are O(n^2) per letter and must not outlive it.  A fresh
    # process, so that no earlier test has filled a cache.
    src = str(Path(tbraid.__file__).resolve().parents[1])
    code = ("import tracemalloc\n"
            "from tbraid.braid import BraidWord\n"
            "from tbraid.quotient import normal_form\n"
            "tracemalloc.start()\n"
            "normal_form(BraidWord(24, (1,)))\n"
            "print(tracemalloc.get_traced_memory()[0])\n")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": src}, check=True)
    # 0.07 MB without caches of the images, 0.32 MB with them.
    assert int(result.stdout) < 160_000


@pytest.mark.parametrize("n", range(3, 25))
def test_abelianized_action_is_an_involution(n):
    for i in range(1, n):
        m = [img.vec for img in action_images(n, i)]
        square = [[sum(m[r][k] * m[k][c] for k in range(n)) for c in range(n)] for r in range(n)]
        assert square == [[int(r == c) for c in range(n)] for r in range(n)]
