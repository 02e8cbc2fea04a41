import random

import pytest

from tbraid.braid import (
    BraidWord,
    HalfTwist,
    Perm,
    artin_apply,
    artin_images,
    bn_equal,
    classify_pair,
    commutator_word,
    concat,
    conj_word,
    exponent_sum,
    format_word,
    frame,
    frame_transport,
    ht_conjugate,
    ht_endpoints,
    ht_word,
    inv_word,
    inversions,
    linking_matrix,
    parse_word,
    power_word,
    psi,
    quadrangle_relator,
    tits_lift,
    transversal_commutator,
    transversal_pair,
    z_ij,
    z_ij_chain,
)
from tbraid.freegroup import FreeWord


def test_word_validation():
    with pytest.raises(ValueError):
        BraidWord(4, (4,))
    with pytest.raises(ValueError):
        BraidWord(4, (0,))
    with pytest.raises(ValueError):
        BraidWord(1, ())


def test_word_text_roundtrip():
    w = parse_word("1 -2 1 1", 4)
    assert w.letters == (1, -2, 1, 1)
    assert format_word(w) == "1 -2 1 1"
    assert parse_word("", 4).letters == ()
    with pytest.raises(ValueError, match="x"):
        parse_word("1 x", 4)
    with pytest.raises(ValueError, match="7"):
        parse_word("7", 4)


def test_psi_examples():
    assert psi(BraidWord(3, (1,))).images == (2, 1, 3)
    assert psi(BraidWord(3, ())).images == (1, 2, 3)
    p1 = psi(BraidWord(3, (1, 2, 1)))
    p2 = psi(BraidWord(3, (2, 1, 2)))
    assert p1 == p2 == Perm(3, (3, 2, 1))
    assert p1(1) == 3


def test_psi_is_a_right_action():
    rng = random.Random(3)
    for _ in range(50):
        n = rng.randint(2, 6)
        w1 = BraidWord(n, tuple(rng.choice([1, -1]) * rng.randint(1, n - 1) for _ in range(6)))
        w2 = BraidWord(n, tuple(rng.choice([1, -1]) * rng.randint(1, n - 1) for _ in range(6)))
        combined = psi(concat(w1, w2))
        for x in range(1, n + 1):
            assert combined(x) == psi(w2)(psi(w1)(x))


def psi_by_scanning(w):
    """psi by the definition: each letter +-i scans all n positions and
    exchanges the values i and i+1 wherever they stand."""
    a = list(range(1, w.n + 1))
    for letter in w.letters:
        i = abs(letter)
        for x in range(w.n):
            if a[x] == i:
                a[x] = i + 1
            elif a[x] == i + 1:
                a[x] = i
    return Perm(w.n, tuple(a))


@pytest.mark.parametrize("n", range(2, 17))
def test_psi_matches_the_scanning_oracle(n):
    rng = random.Random(300 + n)
    for length in [0, 1, 2, 200] + [rng.randint(0, 200) for _ in range(20)]:
        w = BraidWord(n, tuple(rng.choice([1, -1]) * rng.randint(1, n - 1) for _ in range(length)))
        assert psi(w) == psi_by_scanning(w), format_word(w)


def test_artin_images_examples():
    imgs = artin_images(BraidWord(3, (1,)))
    assert [w.letters for w in imgs] == [(2,), (2, 1, -2), (3,)]
    imgs = artin_images(BraidWord(3, (-1,)))
    assert [w.letters for w in imgs] == [(-1, 2, 1), (1,), (3,)]
    imgs = artin_images(BraidWord(3, (1, -1)))
    assert [w.letters for w in imgs] == [(1,), (2,), (3,)]


def test_descending_product_is_fixed():
    rng = random.Random(5)
    for _ in range(100):
        n = rng.randint(2, 6)
        w = BraidWord(n, tuple(rng.choice([1, -1]) * rng.randint(1, n - 1)
                               for _ in range(rng.randint(0, 50))))
        descending = FreeWord(n, tuple(range(n, 0, -1)))
        assert artin_apply(w, descending) == descending


def test_bn_equal_examples():
    assert bn_equal(BraidWord(4, (1, 2, 1)), BraidWord(4, (2, 1, 2)))
    assert bn_equal(BraidWord(4, (1, 3)), BraidWord(4, (3, 1)))
    comm = transversal_commutator(4)
    assert not bn_equal(concat(BraidWord(4, (2,)), comm), BraidWord(4, (2,)))
    with pytest.raises(ValueError):
        bn_equal(BraidWord(4, ()), BraidWord(5, ()))


def test_exponent_sum():
    assert exponent_sum(BraidWord(4, (1, 2, 1))) == 3
    assert exponent_sum(BraidWord(4, ())) == 0
    assert exponent_sum(BraidWord(4, (1, -2))) == 0


def test_linking_matrix_examples():
    assert linking_matrix(BraidWord(4, (1, 1)))[0][1] == 1
    assert linking_matrix(BraidWord(4, ())) == ((0,) * 4,) * 4
    # The quadrangle relator is pure with nonzero linking numbers even though
    # its image in the quotient (hence its abelian coordinate) is trivial.
    assert linking_matrix(quadrangle_relator(4)) == (
        (0, 1, -1, 0),
        (1, 0, 0, -1),
        (-1, 0, 0, 1),
        (0, -1, 1, 0),
    )
    with pytest.raises(ValueError):
        linking_matrix(BraidWord(4, (1,)))


def test_linking_additive_under_concatenation():
    rng = random.Random(11)
    for _ in range(25):
        n = rng.randint(3, 6)
        words = []
        for _ in range(2):
            i = rng.randint(1, n - 1)
            j = rng.randint(i + 1, n)
            b = BraidWord(n, tuple(rng.choice([1, -1]) * rng.randint(1, n - 1)
                                   for _ in range(4)))
            words.append(conj_word(power_word(z_ij(n, i, j), rng.choice([2, -2])), b))
        total = linking_matrix(concat(*words))
        parts = [linking_matrix(w) for w in words]
        for a in range(n):
            for b_ in range(n):
                assert total[a][b_] == sum(p[a][b_] for p in parts)


def test_tits_lift_examples():
    assert tits_lift(Perm(3, (1, 2, 3))).letters == ()
    assert tits_lift(Perm(4, (1, 3, 2, 4))).letters == (2,)
    w = tits_lift(Perm(3, (3, 2, 1)))
    assert w.letters == (1, 2, 1)
    assert psi(w) == Perm(3, (3, 2, 1))
    assert len(w) == inversions(Perm(3, (3, 2, 1)))


def test_tits_lift_order_independent():
    rng = random.Random(7)
    import itertools

    for images in itertools.permutations(range(1, 5)):
        p = Perm(4, images)
        w0 = tits_lift(p)
        for _ in range(3):
            w1 = tits_lift(p, rng)
            assert psi(w1) == p and len(w1) == inversions(p)
            assert bn_equal(w0, w1)


def test_half_twist_examples():
    assert ht_word(frame(4, 2)).letters == (2,)
    assert ht_word(HalfTwist(BraidWord(4, (1, 3)), 2)).letters == (-3, -1, 2, 1, 3)
    assert ht_endpoints(frame(4, 1)) == (1, 2)
    assert ht_endpoints(frame(4, 1, flipped=True)) == (2, 1)
    assert ht_endpoints(HalfTwist(BraidWord(4, (2,)), 1)) == (1, 3)


def test_ht_conjugate():
    h = frame(4, 1)
    assert ht_conjugate(h, BraidWord(4, ())) == h
    assert ht_endpoints(ht_conjugate(h, BraidWord(4, (2,)))) == (1, 3)
    b = BraidWord(4, (2, -1, 3))
    round_trip = ht_conjugate(ht_conjugate(h, b), inv_word(b))
    assert bn_equal(ht_word(round_trip), ht_word(h))


def test_classify_pair_examples():
    rel = classify_pair(frame(4, 1), frame(4, 3))
    assert (rel.commute, rel.triple, rel.common_endpoints) == (True, False, 0)
    assert rel.label == "disjoint-or-transversal"
    rel = classify_pair(frame(4, 1), frame(4, 2))
    assert (rel.commute, rel.triple, rel.common_endpoints) == (False, True, 1)
    assert rel.label == "consecutive"
    # Transversal pairs commute only in the quotient, not in B_n itself.
    t1, t2 = transversal_pair(4)
    rel = classify_pair(t1, t2)
    assert (rel.commute, rel.triple, rel.common_endpoints) == (False, False, 0)
    assert rel.label == "raw"


def test_z_ij_examples():
    assert z_ij(4, 1, 2).letters == (1,)
    assert bn_equal(z_ij(4, 2, 3), BraidWord(4, (2,)))
    conj = BraidWord(4, (2,))
    assert ht_endpoints(HalfTwist(conj, 1)) == (1, 3)
    for n in range(4, 7):
        for i in range(1, n):
            for j in range(i + 1, n + 1):
                assert bn_equal(z_ij(n, i, j), z_ij_chain(n, i, j))
    with pytest.raises(ValueError):
        z_ij(4, 2, 2)


def test_frame_transport_moves_frame_generators():
    for n in range(4, 8):
        for i in range(1, n):
            for j in range(1, n):
                t = frame_transport(n, i, j)
                assert bn_equal(conj_word(BraidWord(n, (i,)), t), BraidWord(n, (j,)))
                moved = ht_conjugate(frame(n, i), t)
                assert ht_endpoints(moved) == (j, j + 1)


def test_quadrangle_relator():
    relator = quadrangle_relator(4)
    assert not bn_equal(relator, BraidWord(4, ()))
    assert psi(relator).is_identity()
    assert exponent_sum(relator) == 0
    with pytest.raises(ValueError):
        quadrangle_relator(3)


def test_transversal_commutator_identity():
    # The canonical transversal commutator equals the quadrangle expression
    # (X_3)^-2_{X_2^-1} (X_1)^-2_{X_2^-1} X_1^2 X_3^2 exactly in B_n.
    for n in range(4, 7):
        lhs = transversal_commutator(n)
        x2inv = BraidWord(n, (-2,))
        rhs = concat(
            power_word(conj_word(BraidWord(n, (3,)), x2inv), -2),
            power_word(conj_word(BraidWord(n, (1,)), x2inv), -2),
            BraidWord(n, (1, 1, 3, 3)),
        )
        assert bn_equal(lhs, rhs)
        assert psi(lhs).is_identity()
        assert exponent_sum(lhs) == 0


def test_centralizer_generators_fix_x1():
    for n in range(4, 7):
        x1 = BraidWord(n, (1,))
        gens = [BraidWord(n, (1, 1)), BraidWord(n, (2, 1, 1, 2))]
        gens += [BraidWord(n, (j,)) for j in range(3, n)]
        for g in gens:
            assert bn_equal(commutator_word(g, x1), BraidWord(n, ()))
            moved = ht_conjugate(frame(n, 1), g)
            assert bn_equal(ht_word(moved), x1)
            assert ht_endpoints(moved) == (1, 2)
