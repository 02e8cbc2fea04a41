import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from tbraid.braid import (
    BraidWord,
    Perm,
    bn_equal,
    concat,
    conj_word,
    inv_word,
    parse_word,
    power_word,
    psi,
    quadrangle_relator,
    tits_lift,
    transversal_commutator,
)
from tbraid.gn import GnElement, gn_identity, gn_mul, gn_nu, gn_pow, gn_s1, s_ij
from tbraid.quotient import (
    TbnNormalForm,
    c_word,
    degree_decomposition,
    in_kernel,
    lift,
    normal_form,
    s2_table,
    tbn_equal,
    tbn_inv,
    tbn_mul,
)


# The group law by the word round trip, the differential oracle of tbn_mul
# and tbn_inv: spell the factors as words, concatenate and rescan.
def word_of(nf: TbnNormalForm) -> BraidWord:
    """One word representing the normal form: section word, then pure lift."""
    return concat(tits_lift(nf.perm), lift(nf.g))


def word_mul(a: TbnNormalForm, b: TbnNormalForm) -> TbnNormalForm:
    return normal_form(concat(word_of(a), word_of(b)))


def word_inv(a: TbnNormalForm) -> TbnNormalForm:
    return normal_form(inv_word(word_of(a)))


def random_element(rng: random.Random, perm: Perm) -> TbnNormalForm:
    """(perm, g) with a seeded g whose coordinates lie in [-3, 3]."""
    n = perm.n
    return TbnNormalForm(perm, GnElement(n, rng.randint(0, 1),
                                         tuple(rng.randint(-3, 3) for _ in range(n))))


def test_s2_table():
    table = s2_table(5)
    assert len(table) == 4
    assert table[0] == gn_s1(5)
    assert table[1] == GnElement(5, 1, (1, 1, 1, 0, 0))
    for i in range(1, 5):
        assert table[i - 1] == s_ij(5, i, i + 1)
    with pytest.raises(ValueError):
        s2_table(3)


def test_normal_form_examples():
    nf = normal_form(BraidWord(4, ()))
    assert nf.perm.is_identity() and nf.g == gn_identity(4)

    nf = normal_form(BraidWord(4, (1, 1)))
    assert nf.perm.is_identity() and nf.g == gn_s1(4)

    nf = normal_form(c_word(4))
    assert nf.perm.is_identity() and nf.g == gn_nu(4)

    nf = normal_form(quadrangle_relator(5))
    assert nf.perm.is_identity() and nf.g == gn_identity(5)

    with pytest.raises(ValueError):
        normal_form(BraidWord(3, (1,)))


def test_normal_form_respects_bn_equality():
    rng = random.Random(9)
    for _ in range(40):
        n = rng.randint(4, 6)
        w = BraidWord(n, tuple(rng.choice([1, -1]) * rng.randint(1, n - 1)
                               for _ in range(rng.randint(0, 12))))
        # Insert a trivial relation at a random spot: same element of B_n.
        i = rng.randint(1, n - 2)
        relation = (i, i + 1, i, -(i + 1), -i, -(i + 1))
        cut = rng.randint(0, len(w.letters))
        w2 = BraidWord(n, w.letters[:cut] + relation + w.letters[cut:])
        assert bn_equal(w, w2)
        assert normal_form(w) == normal_form(w2)


def test_tbn_equal_examples():
    n = 5
    comm = transversal_commutator(n)
    assert tbn_equal(comm, BraidWord(n, ()))
    assert not bn_equal(comm, BraidWord(n, ()))
    assert tbn_equal(BraidWord(n, (1, 2, 1)), BraidWord(n, (2, 1, 2)))
    assert not tbn_equal(BraidWord(n, (1,)), BraidWord(n, (2,)))
    with pytest.raises(ValueError):
        tbn_equal(BraidWord(4, ()), BraidWord(5, ()))


def test_in_kernel_examples():
    n = 5
    relator = quadrangle_relator(n)
    assert in_kernel(relator)
    rng = random.Random(13)
    for _ in range(10):
        b = BraidWord(n, tuple(rng.choice([1, -1]) * rng.randint(1, n - 1)
                               for _ in range(rng.randint(0, 20))))
        assert in_kernel(conj_word(relator, b))
    assert not in_kernel(BraidWord(n, (1, 1)))


def test_lift_examples():
    assert lift(gn_identity(4)).letters == ()
    assert lift(gn_s1(4)).letters == (1, 1)
    assert lift(gn_nu(4)) == c_word(4)
    rng = random.Random(17)
    for _ in range(40):
        n = rng.randint(4, 7)
        g = GnElement(n, rng.randint(0, 1), tuple(rng.randint(-3, 3) for _ in range(n)))
        nf = normal_form(lift(g))
        assert nf.perm.is_identity() and nf.g == g


def test_tbn_mul_examples():
    n = 4
    a = normal_form(BraidWord(n, (1,)))
    assert tbn_mul(a, a) == normal_form(BraidWord(n, (1, 1)))
    assert tbn_mul(a, tbn_inv(a)) == normal_form(BraidWord(n, ()))
    s1_nf = normal_form(BraidWord(n, (1, 1)))
    twice = tbn_mul(s1_nf, s1_nf)
    assert twice.g == gn_pow(gn_s1(n), 2)
    rng = random.Random(23)
    for _ in range(25):
        w1 = BraidWord(5, tuple(rng.choice([1, -1]) * rng.randint(1, 4) for _ in range(8)))
        w2 = BraidWord(5, tuple(rng.choice([1, -1]) * rng.randint(1, 4) for _ in range(8)))
        assert tbn_mul(normal_form(w1), normal_form(w2)) == normal_form(concat(w1, w2))

    # The resumed scan against the word round trip, on arbitrary coordinates.
    rng = random.Random(41)
    for n in (4, 5, 6, 8):
        for _ in range(8):
            a, b = (random_element(rng, Perm(n, tuple(rng.sample(range(1, n + 1), n))))
                    for _ in range(2))
            assert tbn_mul(a, b) == word_mul(a, b)
            assert tbn_inv(a) == word_inv(a)

    # Inverses and associativity over S_4, each permutation with a seeded g;
    # the third factor is sampled (the full cube of triples is slow).
    rng = random.Random(43)
    s4 = [random_element(rng, Perm(4, p)) for p in itertools.permutations(range(1, 5))]
    one = normal_form(BraidWord(4, ()))
    for a in s4:
        inv = tbn_inv(a)
        assert tbn_mul(a, inv) == one == tbn_mul(inv, a)
    thirds = rng.sample(s4, 3)
    for a in s4:
        for b in s4:
            ab = tbn_mul(a, b)
            for c in thirds:
                assert tbn_mul(ab, c) == tbn_mul(a, tbn_mul(b, c))

    # normal_form is a homomorphism on the reduced words of length <= 2 in B_4.
    gens = [k for k in range(-3, 4) if k]
    ball = [()] + [(x,) for x in gens] + [(x, y) for x in gens for y in gens if y != -x]
    nfs = {u: normal_form(BraidWord(4, u)) for u in ball}
    for u in ball:
        for v in ball:
            assert tbn_mul(nfs[u], nfs[v]) == normal_form(BraidWord(4, u + v))


def test_group_law_guards():
    three = TbnNormalForm(Perm(3, (1, 2, 3)), gn_identity(3))
    with pytest.raises(ValueError):
        tbn_mul(three, three)
    with pytest.raises(ValueError):
        tbn_inv(three)
    with pytest.raises(ValueError):
        tbn_mul(normal_form(BraidWord(4, ())), normal_form(BraidWord(5, ())))
    with pytest.raises(ValueError):
        TbnNormalForm(Perm(4, (1, 2, 3, 4)), gn_identity(5))


def test_word_of_round_trip():
    rng = random.Random(29)
    for _ in range(25):
        n = rng.randint(4, 6)
        w = BraidWord(n, tuple(rng.choice([1, -1]) * rng.randint(1, n - 1)
                               for _ in range(rng.randint(0, 15))))
        nf = normal_form(w)
        assert normal_form(word_of(nf)) == nf


def test_degree_decomposition_examples():
    assert degree_decomposition(BraidWord(4, (1,))) == (1, 0, (0, 0, 0), 0)
    assert degree_decomposition(BraidWord(4, (2, 2))) == (0, 1, (1, 1, 0), 1)
    assert degree_decomposition(quadrangle_relator(4)) == (0, 0, (0, 0, 0), 0)


def test_degree_law():
    from tbraid.braid import exponent_sum, inversions

    rng = random.Random(31)
    for _ in range(100):
        n = rng.randint(4, 7)
        w = BraidWord(n, tuple(rng.choice([1, -1]) * rng.randint(1, n - 1)
                               for _ in range(rng.randint(0, 60))))
        ell, a0, _, _ = degree_decomposition(w)
        assert exponent_sum(w) == ell + 2 * a0
        assert ell == inversions(psi(w))


def test_adjacent_square_commutators_are_central():
    n = 5
    nu = gn_nu(n)
    rng = random.Random(37)
    for _ in range(20):
        b = BraidWord(n, tuple(rng.choice([1, -1]) * rng.randint(1, n - 1) for _ in range(6)))
        i = rng.randint(1, n - 2)
        y1 = conj_word(BraidWord(n, (i,)), b)
        y2 = conj_word(BraidWord(n, (i + 1,)), b)
        for e1, e2 in ((2, 2), (2, -2), (-2, -2)):
            word = concat(power_word(y1, e1), power_word(y2, e2),
                          power_word(y1, -e1), power_word(y2, -e2))
            nf = normal_form(word)
            assert nf.perm.is_identity() and nf.g == nu
    # centrality of the class against every generator
    c = c_word(n)
    for i in range(1, n):
        gen = BraidWord(n, (i,))
        assert tbn_equal(concat(c, gen), concat(gen, c))
    assert in_kernel(concat(c, c))


def test_json_record():
    nf = normal_form(parse_word("1 1", 4))
    assert nf.to_json() == {"n": 4, "perm": [1, 2, 3, 4], "bit": 0, "vec": [1, 0, 0, 0]}


def test_normal_form_distinguishes_bit():
    # Words equal in B_n modulo the kernel but differing by the central
    # element have distinct normal forms.
    n = 4
    w1 = BraidWord(n, (2, 1, 1, -2, -2, -2))
    w2 = BraidWord(n, (-2, 1, 1, 2, -2, -2))
    nf1, nf2 = normal_form(w1), normal_form(w2)
    assert nf1.g.vec == nf2.g.vec
    assert nf1.g.bit != nf2.g.bit
    assert gn_mul(nf2.g, gn_nu(n)) == nf1.g


def test_importing_the_quotient_leaves_the_primes_layer_unloaded():
    # The package imports no submodule of its own, so a quotient user does
    # not pay for compiling the prime-element checkers.
    import tbraid.quotient

    src = str(Path(tbraid.quotient.__file__).resolve().parents[1])
    code = "import sys, tbraid.quotient\nprint('tbraid.primes' in sys.modules)\n"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": src})
    assert result.returncode == 0, result.stderr
    assert result.stdout == "False\n"
