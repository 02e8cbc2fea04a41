"""
Normal forms and decision procedures for the quotient of B_n by commutators
of transversal half-twists (written TB_n here).

TB_n splits over the symmetric group after fixing the positive section
p |-> tits_lift(p): every element factors uniquely as (section of its
permutation) . (pure part), and the image of the pure part in the coordinate
group G(n) is a complete invariant.  The pair (permutation, GnElement) is
therefore a normal form: two words are equal in TB_n iff their normal forms
agree componentwise.

The scan below is a right action of letters on normal forms: started from
(perm, g) it reads letters left to right and maintains the invariant
"processed prefix = tits_lift(perm) . Lambda^-1(g)" where Lambda is the
coordinate map on pure elements, fixed by

    Lambda(X_i^2) = s_{i, i+1},
    Lambda(p_b)   = act_word(Lambda(p), b).

For the letter X_i^e the pure part is conjugated through the letter (the
generator action on g), and whenever the letter folds into the section
(a positive letter at a descent, or an inverse letter at an ascent) the
squared-generator coordinate s_{i,i+1}^{+-1} is absorbed into g on the left.

The scan state is flat: the position of each value in the permutation, a
bit and a list of coordinates.  Each letter is one flat step of _scan_table,
applied inline: the closed-form action gn.action_step (O(1) bit terms and one
rewritten coordinate) and, when it folds, the sparse left factor s_{i,i+1}^{+-1}, whose
up to i+1 nonzero coordinates make a letter X_i cost O(i).  The one-line
images and one GnElement are built at the end.

The normal form of a word is its scan from the identity, and the group law
never leaves the coordinates: with T = tits_lift,

    (p, g) . (q, h) = (pq, g' h)  where (pq, g') = scan of T(q) from (p, g),
    (p, g)^-1       = scan of T(p)^-1 from (1, g^-1),

so a product or an inverse scans at most n(n-1)/2 letters.

Completeness of the invariant rests on the coordinate map being an
isomorphism from the pure part of TB_n onto G(n); the verification suites
exercise the load-bearing consequences (homomorphism and equivariance of
Lambda, section independence, kernel detection) rather than assuming them.
"""

from __future__ import annotations

import dataclasses
from functools import lru_cache

from .braid import (BraidWord, Perm, concat, inv_word, inversions, power_word, tits_lift,
                    z_ij)
from .gn import GnElement, _q_pairs, action_step, gn_identity, gn_inv, gn_mul, s_ij


@dataclasses.dataclass(frozen=True)
class TbnNormalForm:
    """The complete invariant of a TB_n element: the permutation and the
    G(n)-coordinate of the pure part relative to the positive section."""

    perm: Perm
    g: GnElement

    def __post_init__(self):
        if self.perm.n != self.g.n:
            raise ValueError(f"mismatched sizes {self.perm.n} and {self.g.n}")

    @property
    def n(self) -> int:
        return self.perm.n

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "perm": list(self.perm.images),
            "bit": self.g.bit,
            "vec": list(self.g.vec),
        }


def _require_quotient_n(n: int) -> None:
    if n < 4:
        raise ValueError(f"the transversal quotient needs n >= 4, got {n}")


@lru_cache(maxsize=None)
def _identity(n: int) -> TbnNormalForm:
    _require_quotient_n(n)
    return TbnNormalForm(Perm(n, tuple(range(1, n + 1))), gn_identity(n))


@lru_cache(maxsize=None)
def s2_table(n: int) -> tuple[GnElement, ...]:
    """Coordinates of the squared frame generators: entry i-1 is
    Lambda(X_i^2) = s_{i, i+1}, multiplied out by gn.s_ij in O(n) per entry."""
    _require_quotient_n(n)
    return tuple(s_ij(n, i, i + 1) for i in range(1, n))


def c_word(n: int) -> BraidWord:
    """The word [X_1^2, X_2^2], whose normal form is (identity, nu).  It
    generates the (central, order-2) commutator subgroup of the pure part."""
    _require_quotient_n(n)
    return BraidWord(n, (1, 1, 2, 2, -1, -1, -2, -2))


@lru_cache(maxsize=None)
def _scan_table(n: int) -> dict[int, tuple]:
    """The scan's step for each letter X_i^sign, keyed by letter: the flat tuple
    (i, row, linear, diagonal, cross, positive, fold_bit, fold_beta, fold_vec).
    Its first five fields are gn.action_step(n, letter), the action on g:
    vec[i] becomes the sum of c * vec[k] over row = ((k, c), ...) and the
    linear, diagonal and cross bit terms are added.  positive is sign > 0, and
    the fold adds f = s_{i,i+1}^sign: its bit, the b with beta(f, e_b) odd
    (read off the Q-pairs) and its nonzero coordinates.  Each step costs O(n)
    to build, so the table costs O(n^2) on first use at each n."""
    _require_quotient_n(n)
    table = {}
    for i, s in enumerate(s2_table(n), 1):
        for sign in (1, -1):
            f = s if sign > 0 else gn_inv(s)
            odd = [0] * n  # odd[b] = beta(f, e_b), the sum over Q-pairs (k, b), mod 2
            for k, b in _q_pairs(n):
                odd[b] += f.vec[k]
            fold_beta = tuple(b for b in range(n) if odd[b] & 1)
            fold_vec = tuple((k, x) for k, x in enumerate(f.vec) if x)
            table[sign * i] = action_step(n, sign * i) + (sign > 0, f.bit, fold_beta, fold_vec)
    return table


def _scan(start: TbnNormalForm, letters: tuple[int, ...]) -> TbnNormalForm:
    """The normal form of start . letters: the right action of the letters on
    normal forms, keeping the loop invariant above."""
    n = start.n
    table, images = _scan_table(n), start.perm.images
    pos = [0] + sorted(range(1, n + 1), key=lambda k: images[k - 1])  # pos[v] = position of v
    bit, vec = start.g.bit, list(start.g.vec)  # g = nu^bit . s_1^vec[0] . u_1^vec[1] ...
    for letter in letters:
        i, row, linear, diagonal, cross, positive, fold_bit, fold_beta, fold_vec = table[letter]
        for k in linear:
            bit += vec[k]
        for k in diagonal:
            v = vec[k]
            bit += v * (v - 1) >> 1
        for k, l in cross:
            bit += vec[k] * vec[l]
        x = 0
        for k, c in row:
            x += c * vec[k]
        vec[i] = x
        pi, pj = pos[i], pos[i + 1]
        pos[i], pos[i + 1] = pj, pi
        # A letter that does not extend the positive section leaves a squared
        # generator behind; absorb its coordinate into the pure part.
        if positive != (pi < pj):
            bit += fold_bit
            for k in fold_beta:
                bit += vec[k]
            for k, c in fold_vec:
                vec[k] += c
        bit &= 1
    images = tuple(sorted(range(1, n + 1), key=pos.__getitem__))  # the one-line images
    return TbnNormalForm(Perm(n, images), GnElement(n, bit, tuple(vec)))


def normal_form(w: BraidWord) -> TbnNormalForm:
    """The scan of w from the identity.

    >>> nf = normal_form(BraidWord(4, (1, 1)))
    >>> nf.perm.is_identity(), nf.g.bit, nf.g.vec
    (True, 0, (1, 0, 0, 0))
    """
    return _scan(_identity(w.n), w.letters)


def tbn_equal(w1: BraidWord, w2: BraidWord) -> bool:
    """Equality in the quotient: equality of normal forms."""
    if w1.n != w2.n:
        raise ValueError(f"mismatched strand counts {w1.n} and {w2.n}")
    return normal_form(w1) == normal_form(w2)


def in_kernel(w: BraidWord) -> bool:
    """Whether w lies in the kernel of B_n -> TB_n (trivial normal form)."""
    return normal_form(w) == _identity(w.n)


def lift(g: GnElement) -> BraidWord:
    """A pure word whose normal form is (identity, g).

    The degree coordinate is realised by X_1^2, the coordinate V_1 by
    Z_23^2 Z_13^-2 and each V_j (j >= 2) by Z_{1,j+1}^2 Z_{1,j}^-2; a final
    central correction word fixes the bit.  The result is one canonical
    representative, not a shortest one.
    """
    n = g.n
    _require_quotient_n(n)
    factors = [BraidWord(n, (1, 1)),
               concat(power_word(z_ij(n, 2, 3), 2), power_word(z_ij(n, 1, 3), -2))]
    factors += [concat(power_word(z_ij(n, 1, j + 1), 2), power_word(z_ij(n, 1, j), -2))
                for j in range(2, n)]
    word = concat(*[power_word(f, x) for f, x in zip(factors, g.vec)])
    nf = normal_form(word)
    if not (nf.perm.is_identity() and nf.g.vec == g.vec):
        raise AssertionError("lift missed its target")
    if nf.g.bit != g.bit:
        word = concat(word, c_word(n))
    return word


def tbn_mul(a: TbnNormalForm, b: TbnNormalForm) -> TbnNormalForm:
    """The product (p, g)(q, h) = (pq, g'h), (pq, g') the scan of tits_lift(q) from (p, g).

    >>> x1 = normal_form(BraidWord(4, (1,)))
    >>> tbn_mul(x1, x1) == normal_form(BraidWord(4, (1, 1)))
    True
    """
    if a.n != b.n:
        raise ValueError(f"mismatched sizes {a.n} and {b.n}")
    c = _scan(a, tits_lift(b.perm).letters)
    return TbnNormalForm(c.perm, gn_mul(c.g, b.g))


def tbn_inv(a: TbnNormalForm) -> TbnNormalForm:
    """The inverse of (p, g): the scan of tits_lift(p)^-1 from (1, g^-1)."""
    start = TbnNormalForm(_identity(a.n).perm, gn_inv(a.g))
    return _scan(start, inv_word(tits_lift(a.perm)).letters)


def degree_decomposition(w: BraidWord) -> tuple[int, int, tuple[int, ...], int]:
    """Coordinates of w along the filtration of the quotient: the Coxeter
    length of its permutation, the degree coordinate, the remaining free
    abelian coordinates and the central bit.  Satisfies

        exponent_sum(w) = length + 2 * degree.
    """
    nf = normal_form(w)
    return (inversions(nf.perm), nf.g.vec[0], nf.g.vec[1:], nf.g.bit)
