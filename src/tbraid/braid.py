"""
Braid words, the symmetric-group projection, the Garside normal form, the
Artin action, half-twists.

Conventions, used consistently across the package:

- Conjugation is written on the right: X_Y = Y^-1 X Y.  Every action in this
  package is a right action, so composite words act letter by letter, left to
  right.
- A braid word on n strands is a sequence of nonzero letters +-i with
  1 <= i <= n-1.  The letter +i is the frame generator X_i, the positive
  half-twist exchanging punctures i and i+1; -i is its inverse.  Words are
  kept verbatim (no reduction): equality in B_n is a semantic question and is
  answered by bn_equal, by the exponent sum and psi first and then by the
  Garside left normal form, unique to each element and polynomial in word
  length.  The Artin action below is faithful as well, but its images grow
  exponentially with word length; it stays as the executable witness of
  these conventions.
- Permutations are stored in one-line notation, the tuple ((1)p, ..., (n)p),
  and compose as right actions, matching psi.
- The Artin action of X_i on the free group F_n sends
      x_i |-> x_{i+1},   x_{i+1} |-> x_{i+1} x_i x_{i+1}^-1,
  fixing the other generators; its inverse sends
      x_i |-> x_i^-1 x_{i+1} x_i,   x_{i+1} |-> x_i.
  With this orientation the descending product x_n x_{n-1} ... x_1 is fixed
  by every braid, which is the executable witness of the convention.

A half-twist is any conjugate of a frame generator; it is represented by the
conjugating word rather than an embedded arc.  Since all half-twists are
conjugate, nothing group-theoretic is lost.  A half-twist exchanges the two
punctures at the images of (i, i+1) under its conjugator's permutation; an
order on this pair is called its polarization.
"""

from __future__ import annotations

import dataclasses
import random

from .freegroup import FreeWord, fw_identity_images


@dataclasses.dataclass(frozen=True)
class BraidWord:
    """A word in the frame generators of the braid group on n strands."""

    n: int
    letters: tuple[int, ...] = ()

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"braid group needs n >= 2 strands, got {self.n}")
        letters = tuple(self.letters)
        for letter in letters:
            if letter == 0 or abs(letter) > self.n - 1:
                raise ValueError(f"letter {letter} out of range for n = {self.n}")
        object.__setattr__(self, "letters", letters)

    def __len__(self) -> int:
        return len(self.letters)


@dataclasses.dataclass(frozen=True)
class Perm:
    """A permutation of {1..n} in one-line notation: images[x-1] = (x)p."""

    n: int
    images: tuple[int, ...]

    def __post_init__(self):
        if sorted(self.images) != list(range(1, self.n + 1)):
            raise ValueError(f"{self.images} is not a permutation of 1..{self.n}")

    def __call__(self, x: int) -> int:
        return self.images[x - 1]

    def is_identity(self) -> bool:
        return all(self.images[k] == k + 1 for k in range(self.n))


def inversions(p: Perm) -> int:
    """Coxeter length of p: the number of out-of-order pairs in one line."""
    a = p.images
    return sum(1 for i in range(p.n) for j in range(i + 1, p.n) if a[i] > a[j])


# ---------------------------------------------------------------------------
# word utilities


def concat(*words: BraidWord) -> BraidWord:
    n = words[0].n
    if any(w.n != n for w in words):
        raise ValueError("cannot concatenate words on different strand counts")
    letters: tuple[int, ...] = ()
    for w in words:
        letters += w.letters
    return BraidWord(n, letters)


def inv_word(w: BraidWord) -> BraidWord:
    return BraidWord(w.n, tuple([-letter for letter in reversed(w.letters)]))


def conj_word(w: BraidWord, b: BraidWord) -> BraidWord:
    """The word for w_b = b^-1 w b."""
    return concat(inv_word(b), w, b)


def commutator_word(a: BraidWord, b: BraidWord) -> BraidWord:
    """The word for [a, b] = a b a^-1 b^-1."""
    return concat(a, b, inv_word(a), inv_word(b))


def power_word(w: BraidWord, m: int) -> BraidWord:
    base = w if m >= 0 else inv_word(w)
    return BraidWord(w.n, base.letters * abs(m))


def random_word(n: int, max_len: int, rng: random.Random, min_len: int = 0) -> BraidWord:
    """A word of length uniform in [min_len, max_len] with uniformly drawn
    letters; the length is drawn first, then each letter's sign and index."""
    length = rng.randint(min_len, max_len)
    return BraidWord(n, tuple(rng.choice([1, -1]) * rng.randint(1, n - 1) for _ in range(length)))


def parse_word(text: str, n: int) -> BraidWord:
    """Parse the shared text format: whitespace-separated signed integers.

    The empty string is the identity.  Malformed or out-of-range tokens raise
    ValueError naming the offending token.
    """
    letters = []
    for token in text.split():
        try:
            letter = int(token)
        except ValueError:
            raise ValueError(f"bad word token {token!r}") from None
        if letter == 0 or abs(letter) > n - 1:
            raise ValueError(f"bad word token {token!r}: out of range for n = {n}")
        letters.append(letter)
    return BraidWord(n, tuple(letters))


def format_word(w: BraidWord) -> str:
    return " ".join(str(letter) for letter in w.letters)


# ---------------------------------------------------------------------------
# the projection onto the symmetric group


def psi(w: BraidWord) -> Perm:
    """The projection B_n -> S_n sending X_i to the transposition (i, i+1).

    >>> psi(BraidWord(3, (1,))).images
    (2, 1, 3)
    >>> psi(BraidWord(3, (1, 2, 1))).images
    (3, 2, 1)
    """
    where = _invariants(w)  # the values, in order of position, are psi's one line
    return Perm(w.n, tuple(sorted(range(1, w.n + 1), key=where.__getitem__)))


def _invariants(w: BraidWord) -> list[int]:
    """[exponent sum, then the position of each value 1..n in psi(w)], in one
    pass: X_i^+-1 exchanges the positions of the values i and i+1."""
    where, total = list(range(w.n + 1)), 0
    for letter in w.letters:
        i = abs(letter)
        where[i], where[i + 1] = where[i + 1], where[i]
        total += 1 if letter > 0 else -1
    where[0] = total
    return where


def exponent_sum(w: BraidWord) -> int:
    """The abelianization B_n -> Z: the sum of letter signs."""
    return sum(1 if letter > 0 else -1 for letter in w.letters)


# ---------------------------------------------------------------------------
# the Artin action


def _act_letter(images: list[FreeWord], i: int, positive: bool) -> list[FreeWord]:
    """Post-compose generator images with the elementary action of X_i^±1.

    The substituted letters are reduced once, by the FreeWord constructor.
    """
    if positive:
        sub = {i: (i + 1,), i + 1: (i + 1, i, -(i + 1))}
    else:
        sub = {i: (-i, i + 1, i), i + 1: (i,)}
    for k in (i, i + 1):
        sub[-k] = tuple(-x for x in reversed(sub[k]))
    n = images[0].n
    return [FreeWord(n, tuple([x for letter in img.letters for x in sub.get(letter, (letter,))]))
            for img in images]


def artin_images(w: BraidWord) -> list[FreeWord]:
    """Images of the free generators x_1..x_n under the right action of w.

    >>> [img.letters for img in artin_images(BraidWord(3, (1,)))]
    [(2,), (2, 1, -2), (3,)]
    >>> [img.letters for img in artin_images(BraidWord(3, (-1,)))]
    [(-1, 2, 1), (1,), (3,)]
    """
    images = fw_identity_images(w.n)
    for letter in w.letters:
        images = _act_letter(images, abs(letter), letter > 0)
    return images


def artin_apply(w: BraidWord, fw: FreeWord) -> FreeWord:
    """Apply the braid w to a single free word, letter by letter."""
    if fw.n != w.n:
        raise ValueError(f"free word rank {fw.n} does not match n = {w.n}")
    images = [fw]
    for letter in w.letters:
        images = _act_letter(images, abs(letter), letter > 0)
    return images[0]


# ---------------------------------------------------------------------------
# the Garside normal form


def _left_weight(a: list[int], b: list[int]) -> bool:
    """Make the pair of simple factors (a, b) left-weighted in place: while
    some X_{g+1} starts b but does not finish a, move it from b into a.
    Factors are 0-based one-line permutations; returns whether any moved."""
    last = len(a) - 1
    pos = [0] * len(a)
    for x, v in enumerate(a):
        pos[v] = x
    moved = False
    g = 0
    while g < last:
        if b[g] > b[g + 1] and pos[g] < pos[g + 1]:
            a[pos[g]], a[pos[g + 1]] = g + 1, g
            pos[g], pos[g + 1] = pos[g + 1], pos[g]
            b[g], b[g + 1] = b[g + 1], b[g]
            moved = True
            if g:
                g -= 1
        else:
            g += 1
    return moved


def bn_normal_form(w: BraidWord) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """The left-greedy (Garside) normal form Delta^k A_1 ... A_r of w in B_n.

    Delta is the positive half twist of all n strands, with permutation
    (n, ..., 1).  Each A_j is a simple element (a positive braid in which two
    strands cross at most once), stored as its permutation psi(A_j); no A_j
    is 1 or Delta, and each pair is left-weighted: every generator that
    starts A_{j+1} finishes A_j.  The form is unique to the element.

    Each X_i^-1 is written Delta^-1 (Delta X_i^-1), a simple second factor;
    moving a Delta^-1 to the front conjugates every factor before it by
    Delta, which exchanges X_i and X_{n-i}.  The positive factors are then
    appended one at a time and left-weighted backwards, stopping at the
    first pair that does not change.

    >>> bn_normal_form(BraidWord(3, (1, 2, 1)))
    (1, ())
    >>> bn_normal_form(BraidWord(3, (-1, 2)))
    (-1, ((3, 1, 2), (1, 3, 2)))
    """
    n = w.n
    identity = list(range(n))
    delta = identity[::-1]
    k = negatives = sum(1 for letter in w.letters if letter < 0)
    factors: list[list[int]] = []
    for letter in w.letters:
        negatives -= letter < 0
        g = abs(letter) - 1 if negatives % 2 == 0 else n - 1 - abs(letter)
        factor = (identity if letter > 0 else delta).copy()
        x, y = factor.index(g), factor.index(g + 1)
        factor[x], factor[y] = g + 1, g
        factors.append(factor)
        j = len(factors) - 1
        while j and _left_weight(factors[j - 1], factors[j]):
            j -= 1
        while factors and factors[-1] == identity:
            factors.pop()
    lead = 0
    while lead < len(factors) and factors[lead] == delta:
        lead += 1
    # tuple() of a list, not of a generator: a generator's tuple is resized
    # after the fact, which strands freed tuples on CPython's per-size free
    # lists and grows the process by megabytes over many calls.
    return lead - k, tuple([tuple([v + 1 for v in f]) for f in factors[lead:]])


def bn_equal(w1: BraidWord, w2: BraidWord) -> bool:
    """Exact equality in B_n.  Words that differ in exponent sum or in psi,
    two homomorphisms, are unequal (O(n + length)); the rest are compared by
    their Garside normal forms.  The Artin action is faithful too, but its
    images grow exponentially with word length; it stays as the witness of
    the package's conventions."""
    if w1.n != w2.n:
        raise ValueError(f"mismatched strand counts {w1.n} and {w2.n}")
    return _invariants(w1) == _invariants(w2) and bn_normal_form(w1) == bn_normal_form(w2)


# ---------------------------------------------------------------------------
# linking numbers of pure braids


def linking_matrix(w: BraidWord) -> tuple[tuple[int, ...], ...]:
    """Pairwise linking numbers of a pure braid word.

    lk[i][j] is half the signed number of crossings between strands i+1 and
    j+1 (the letter +-k crosses the two strands currently occupying positions
    k, k+1 with sign +-1).  These are the abelianization coordinates of the
    pure braid group, additive under concatenation.

    >>> linking_matrix(BraidWord(3, (1, 1)))
    ((0, 1, 0), (1, 0, 0), (0, 0, 0))
    """
    if not psi(w).is_identity():
        raise ValueError("linking numbers are defined for pure braids only")
    n = w.n
    cross = [[0] * n for _ in range(n)]
    pos = list(range(1, n + 1))  # strand id currently at each position
    for letter in w.letters:
        k = abs(letter)
        a, b = pos[k - 1], pos[k]
        sign = 1 if letter > 0 else -1
        cross[a - 1][b - 1] += sign
        cross[b - 1][a - 1] += sign
        pos[k - 1], pos[k] = pos[k], pos[k - 1]
    if any(c % 2 for row in cross for c in row):
        raise AssertionError("odd crossing count on a pure braid")
    return tuple(tuple(c // 2 for c in row) for row in cross)


# ---------------------------------------------------------------------------
# the positive section of S_n


def tits_lift(p: Perm, rng: random.Random | None = None) -> BraidWord:
    """A positive braid word of length inversions(p) projecting onto p.

    The reduced word is found by bubble-sorting the one-line notation:
    repeatedly swap an adjacent descent (the leftmost one by default, or a
    random one when rng is given).  All reduced words of p lift to the same
    braid element, so the sort order does not matter semantically.

    >>> tits_lift(Perm(3, (3, 2, 1))).letters
    (1, 2, 1)
    """
    a = list(p.images)
    word: list[int] = []
    while True:
        descents = [k for k in range(p.n - 1) if a[k] > a[k + 1]]
        if not descents:
            return BraidWord(p.n, tuple(word))
        k = descents[0] if rng is None else rng.choice(descents)
        word.append(k + 1)
        a[k], a[k + 1] = a[k + 1], a[k]


# ---------------------------------------------------------------------------
# half-twists


@dataclasses.dataclass(frozen=True)
class HalfTwist:
    """The half-twist (X_index)_conj = conj^-1 X_index conj, with an order on
    its two endpoints.  flipped=False means the endpoints are read as the
    conjugator's permutation applied to (index, index+1); flipped=True
    reverses that order (the opposite polarization)."""

    conj: BraidWord
    index: int
    flipped: bool = False

    def __post_init__(self):
        if not 1 <= self.index <= self.conj.n - 1:
            raise ValueError(f"index {self.index} out of range for n = {self.conj.n}")

    @property
    def n(self) -> int:
        return self.conj.n


def frame(n: int, i: int, flipped: bool = False) -> HalfTwist:
    """The i-th frame half-twist X_i, with its standard polarization."""
    return HalfTwist(BraidWord(n, ()), i, flipped)


def ht_word(h: HalfTwist) -> BraidWord:
    """The braid word conj^-1 . X_index . conj.

    >>> ht_word(HalfTwist(BraidWord(4, (1, 3)), 2)).letters
    (-3, -1, 2, 1, 3)
    """
    return concat(inv_word(h.conj), BraidWord(h.n, (h.index,)), h.conj)


def ht_endpoints(h: HalfTwist) -> tuple[int, int]:
    """The ordered pair of punctures exchanged by the half-twist."""
    p = psi(h.conj)
    a, b = p(h.index), p(h.index + 1)
    return (b, a) if h.flipped else (a, b)


def ht_conjugate(h: HalfTwist, b: BraidWord) -> HalfTwist:
    """(h)_b: endpoints transform by psi(b); the polarization flag carries."""
    if h.n != b.n:
        raise ValueError(f"mismatched strand counts {h.n} and {b.n}")
    return HalfTwist(concat(h.conj, b), h.index, h.flipped)


@dataclasses.dataclass(frozen=True)
class PairRelation:
    """The algebraic relation record of two half-twists.

    commute / triple are decided exactly in B_n; common_endpoints counts the
    shared punctures.  The derived label is advisory: commuting pairs with no
    common endpoint may be disjoint or transversal, and no relation used here
    separates the two.
    """

    commute: bool
    triple: bool
    common_endpoints: int
    label: str


def classify_pair(h1: HalfTwist, h2: HalfTwist) -> PairRelation:
    if h1.n != h2.n:
        raise ValueError(f"mismatched strand counts {h1.n} and {h2.n}")
    n = h1.n
    w1, w2 = ht_word(h1), ht_word(h2)
    commute = bn_equal(commutator_word(w1, w2), BraidWord(n, ()))
    triple = bn_equal(concat(w1, w2, w1), concat(w2, w1, w2))
    common = len(set(ht_endpoints(h1)) & set(ht_endpoints(h2)))
    if commute and common == 0:
        label = "disjoint-or-transversal"
    elif triple and common == 1:
        label = "consecutive"
    else:
        label = "raw"
    return PairRelation(commute, triple, common, label)


# ---------------------------------------------------------------------------
# canonical constructions


def z_ij(n: int, i: int, j: int) -> BraidWord:
    """The standard pure-braid half-twist Z_ij with endpoints {i, j}:

        Z_12 = X_1,
        Z_1j = (X_1)_{X_2 ... X_{j-1}}          for j >= 3,
        Z_ij = (X_1)_{X_2 ... X_{j-1} X_1 ... X_{i-1}}  for i >= 2.
    """
    if not 1 <= i < j <= n:
        raise ValueError(f"need 1 <= i < j <= {n}, got ({i}, {j})")
    conj = tuple(range(2, j)) + tuple(range(1, i))
    return conj_word(BraidWord(n, (1,)), BraidWord(n, conj))


def z_ij_chain(n: int, i: int, j: int) -> BraidWord:
    """The chain form (X_i)_{X_{i+1} ... X_{j-1}} of the same element.

    Equal to z_ij in B_n; kept as a separate constructor so the equality can
    be checked rather than assumed.
    """
    if not 1 <= i < j <= n:
        raise ValueError(f"need 1 <= i < j <= {n}, got ({i}, {j})")
    return conj_word(BraidWord(n, (i,)), BraidWord(n, tuple(range(i + 1, j))))


def frame_transport(n: int, i: int, j: int) -> BraidWord:
    """A positive-frame word t with (X_i)_t = X_j, preserving the frame
    polarization.  Built from the consecutive step (X_i)_{X_{i+1} X_i} =
    X_{i+1}, chained upward (and inverted for downward moves)."""
    if not (1 <= i <= n - 1 and 1 <= j <= n - 1):
        raise ValueError(f"frame indices out of range for n = {n}")
    if i == j:
        return BraidWord(n, ())
    if i < j:
        letters: tuple[int, ...] = ()
        for m in range(i, j):
            letters += (m + 1, m)
        return BraidWord(n, letters)
    return inv_word(frame_transport(n, j, i))


def quadrangle_relator(n: int) -> BraidWord:
    """The word Y_1^2 Y_3^2 Y_4^-2 Y_2^-2 over the standard good quadrangle

        (Y_1, Y_2, Y_3, Y_4) = (X_1, (X_3)_{X_2^-1}, X_3, (X_1)_{X_2^-1}).

    It is nontrivial in B_n but normally generates the kernel of the
    projection onto the transversal-commutator quotient.
    """
    if n < 4:
        raise ValueError(f"good quadrangles need n >= 4, got {n}")
    x2inv = BraidWord(n, (-2,))
    y2 = conj_word(BraidWord(n, (3,)), x2inv)
    y4 = conj_word(BraidWord(n, (1,)), x2inv)
    return concat(
        BraidWord(n, (1, 1, 3, 3)),
        inv_word(concat(y4, y4)),
        inv_word(concat(y2, y2)),
    )


def transversal_pair(n: int) -> tuple[HalfTwist, HalfTwist]:
    """The standard transversal pair (X_2, (X_2)_{X_1 X_3}): the two arcs
    share no puncture and cross exactly once."""
    if n < 4:
        raise ValueError(f"transversal pairs need n >= 4, got {n}")
    return frame(n, 2), HalfTwist(BraidWord(n, (1, 3)), 2)


def transversal_commutator(n: int) -> BraidWord:
    """The word [X_2, (X_2)_{X_1 X_3}], the canonical commutator of a
    transversal pair: trivial in the quotient, nontrivial in B_n, and equal
    in B_n to (X_3)^-2_{X_2^-1} (X_1)^-2_{X_2^-1} X_1^2 X_3^2."""
    a, b = transversal_pair(n)
    return commutator_word(ht_word(a), ht_word(b))
