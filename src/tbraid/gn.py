"""
Exact arithmetic in the coordinate group G(n), a central extension of Z^n by
Z/2.

Let A(n) be the free abelian group on S_1, V_1, ..., V_{n-1}, carrying the
symmetric Z/2-valued pairing Q with

    Q(S_1, V_2) = 1,   Q(V_i, V_{i+1}) = 1   (all other pairs 0).

G(n) is generated by s_1, u_1, ..., u_{n-1} (abelianizing to S_1, V_1, ...),
together with a central involution nu, subject to: generators with Q = 0
commute, and each pair with Q = 1 has commutator nu.  Every element is then
uniquely

    nu^bit . s_1^{v0} . u_1^{v1} . ... . u_{n-1}^{v_{n-1}}

in this fixed generator order, which is the canonical form stored here.
Multiplication reorders the concatenation back into canonical form; each swap
of a pair with Q = 1 contributes nu, giving the 2-cocycle

    beta(x, y) = sum over k > j of x[k] y[j] Q[k][j]  (mod 2).

The group carries an action of the braid quotient: the generator action
tables below define automorphisms satisfying the braid relations, under which
the quadrangle relator acts trivially.  The table is read as the right action
g |-> g_{X_i}; the abelianized action of each X_i is an involution, so the
inverse action reuses the forward vectors and fixes their central bits.

In closed form the action of X_i^+-1 is affine on (bit, vec): with I_k, b_k
the vector and bit of the image of generator k, the image of
nu^bit . s_1^{v0} . u_1^{v1} ... has vector sum v_k I_k, which differs from
vec only at coordinate i, replaced by a combination of coordinates i-1, i,
i+1 (and 0 for X_2), and bit

    bit + sum v_k b_k + sum C(v_k, 2) beta(I_k, I_k)
        + sum over k < l of v_k v_l beta(I_k, I_l)   (mod 2),

a quadratic form in which only terms with a moved generator (i-1, i, i+1,
and 0 for X_2) are nonzero.  action_step derives these O(1) terms once per
letter, in O(n), from the images of the moved generators (_moved_images, the
one copy of the per-generator rules), and checks them against the generic
product of powers (_apply_images) on the moved units before use; its flat
tuple is the one runtime form of the action, applied by act_generator,
act_letters and act_word here and by the quotient's scan.

Elements also serve as the pure-braid coordinates of the quotient's normal
form: s_ij below is the image of the squared half-twist with endpoints
{i, j}, and slot 0 of the vector is the degree coordinate.
"""

from __future__ import annotations

import dataclasses
from functools import lru_cache
from itertools import repeat
from typing import Iterable, Mapping, Sequence

from .braid import BraidWord


@dataclasses.dataclass(frozen=True)
class GnElement:
    """Canonical form nu^bit . s_1^{vec[0]} . u_1^{vec[1]} ... of an element
    of G(n).  vec has length n; bit is 0 or 1."""

    n: int
    bit: int
    vec: tuple[int, ...]

    def __post_init__(self):
        if self.n < 3:
            raise ValueError(f"G(n) needs n >= 3, got {self.n}")
        if len(self.vec) != self.n:
            raise ValueError(f"vector length {len(self.vec)} != n = {self.n}")
        object.__setattr__(self, "bit", self.bit % 2)
        object.__setattr__(self, "vec", tuple(self.vec))


@lru_cache(maxsize=None)
def _q_pairs(n: int) -> tuple[tuple[int, int], ...]:
    """Index pairs (k, j) with k > j and Q[k][j] = 1."""
    return ((2, 0),) + tuple((i + 1, i) for i in range(1, n - 1))


def beta(x: Sequence[int], y: Sequence[int], n: int) -> int:
    """The reordering cocycle: swaps of x-generators past y-generators."""
    return sum(x[k] * y[j] for k, j in _q_pairs(n)) % 2


def q_value(x: Sequence[int], y: Sequence[int], n: int) -> int:
    """The full pairing Q(x, y) = beta(x, y) + beta(y, x) mod 2."""
    return (beta(x, y, n) + beta(y, x, n)) % 2


def gn_identity(n: int) -> GnElement:
    return GnElement(n, 0, (0,) * n)


def gn_nu(n: int) -> GnElement:
    """The central involution nu = [u_1, u_2]."""
    return GnElement(n, 1, (0,) * n)


def gn_generator(n: int, k: int) -> GnElement:
    """Canonical generator number k: s_1 for k = 0, u_k for 1 <= k <= n-1."""
    if not 0 <= k <= n - 1:
        raise ValueError(f"generator index {k} out of range for n = {n}")
    vec = [0] * n
    vec[k] = 1
    return GnElement(n, 0, tuple(vec))


def gn_s1(n: int) -> GnElement:
    return gn_generator(n, 0)


def gn_u(n: int, i: int) -> GnElement:
    if not 1 <= i <= n - 1:
        raise ValueError(f"u-index {i} out of range for n = {n}")
    return gn_generator(n, i)


def gn_mul(a: GnElement, b: GnElement) -> GnElement:
    if a.n != b.n:
        raise ValueError(f"mismatched sizes {a.n} and {b.n}")
    bit = (a.bit + b.bit + beta(a.vec, b.vec, a.n)) % 2
    return GnElement(a.n, bit, tuple([x + y for x, y in zip(a.vec, b.vec)]))


def gn_inv(a: GnElement) -> GnElement:
    bit = (a.bit + beta(a.vec, a.vec, a.n)) % 2
    return GnElement(a.n, bit, tuple([-x for x in a.vec]))


def gn_pow(g: GnElement, m: int) -> GnElement:
    bit = (m * g.bit + (m * (m - 1) // 2) * beta(g.vec, g.vec, g.n)) % 2
    return GnElement(g.n, bit, tuple([m * x for x in g.vec]))


def gn_commutator(a: GnElement, b: GnElement) -> GnElement:
    """[a, b] = a b a^-1 b^-1; always central, equal to nu^Q(ab(a), ab(b))."""
    return gn_mul(gn_mul(a, b), gn_mul(gn_inv(a), gn_inv(b)))


def gn_product(factors: Iterable[GnElement], n: int) -> GnElement:
    out = gn_identity(n)
    for f in factors:
        out = gn_mul(out, f)
    return out


def s_ij(n: int, i: int, j: int) -> GnElement:
    """The distinguished element s_ij, the coordinate of the squared
    half-twist with endpoints {i, j}:

        s_12 = s_1
        s_1j = u_{j-1} ... u_2 . s_1                       (j >= 3)
        s_2j = nu . u_{j-1} ... u_1 . s_1                  (j >= 3)
        s_ij = nu . u_{j-1} ... u_1 . u_{i-1} ... u_2 . s_1  (i >= 3)
    """
    if not 1 <= i < j <= n:
        raise ValueError(f"need 1 <= i < j <= {n}, got ({i}, {j})")
    if i >= 2:
        bit, factors = 1, [*range(j - 1, 0, -1), *range(i - 1, 1, -1), 0]
    else:
        bit, factors = 0, [*range(j - 1, 1, -1), 0]
    # Multiplied out left to right on one vector, O(1) per factor: the
    # generator g_m adds beta(vec, e_m), the coordinates k with (k, m) a Q-pair.
    above = [[] for _ in range(n)]
    for k, m in _q_pairs(n):
        above[m].append(k)
    vec = [0] * n
    for m in factors:
        bit += sum([vec[k] for k in above[m]])
        vec[m] += 1
    return GnElement(n, bit, tuple(vec))


def embed(g: GnElement, m: int) -> GnElement:
    """The natural embedding G(n) -> G(m) for m >= n (zero-padding)."""
    if m < g.n:
        raise ValueError(f"cannot embed G({g.n}) into smaller G({m})")
    return GnElement(m, g.bit, g.vec + (0,) * (m - g.n))


# ---------------------------------------------------------------------------
# the generator action


def _moved_images(n: int, i: int) -> dict[int, GnElement]:
    """Images of the canonical generators that X_i moves, keyed by index;
    every other generator is fixed.  Per-generator rules:

        X_1:        u_1 -> u_1^-1 nu,  u_2 -> u_1 u_2
        X_2:        s_1 -> u_2 s_1,  u_1 -> u_2 u_1,  u_2 -> u_2^-1 nu,
                    u_3 -> u_2 u_3
        X_k, k>=3:  u_{k-1} -> u_k u_{k-1},  u_k -> u_k^-1 nu,
                    u_{k+1} -> u_k u_{k+1}
    """
    if not 1 <= i <= n - 1:
        raise ValueError(f"generator index {i} out of range for n = {n}")
    u = gn_u(n, i)
    left = ((0, 1) if i == 2 else (i - 1,) if i >= 3 else ()) + ((i + 1,) if i + 1 < n else ())
    images = {k: gn_mul(u, gn_generator(n, k)) for k in left}
    images[i] = gn_mul(gn_nu(n), gn_inv(u))
    return images


def action_images(n: int, i: int) -> tuple[GnElement, ...]:
    """Images of all the canonical generators under the action of X_i: those
    of _moved_images, and the unit for every other one."""
    moved = _moved_images(n, i)
    return tuple(moved[k] if k in moved else gn_generator(n, k) for k in range(n))


def _apply_images(images: Mapping[int, GnElement], g: GnElement) -> GnElement:
    """Apply to g the endomorphism mapping generator k to images[k] (or to
    itself when missing), one power and one product per nonzero coordinate
    of g.  This generic path fixes the bits of the inverse images and checks
    each closed-form action."""
    out = GnElement(g.n, g.bit, (0,) * g.n)
    for k, e in enumerate(g.vec):
        if e:
            out = gn_mul(out, gn_pow(images.get(k) or gn_generator(g.n, k), e))
    return out


def _inverse_images(n: int, images: Mapping[int, GnElement]) -> dict[int, GnElement]:
    """The images, under the inverse action, of the generators that the
    action with the given images moves.  The abelianized X_i action is an
    involution, so each forward vector is the candidate inverse vector;
    composing it with the forward map proves it and fixes its central bit."""
    inverse = {}
    for k, image in images.items():
        round_trip = _apply_images(images, GnElement(n, 0, image.vec))
        if round_trip.vec != gn_generator(n, k).vec:
            raise AssertionError("bad abelian inverse")
        inverse[k] = GnElement(n, round_trip.bit, image.vec)
    return inverse


def action_inverse_images(n: int, i: int) -> tuple[GnElement, ...]:
    """Images of the canonical generators under the inverse of the X_i
    action (see _inverse_images)."""
    fwd = action_images(n, i)
    inverse = _inverse_images(n, {k: g for k, g in enumerate(fwd) if g != gn_generator(n, k)})
    return tuple(inverse.get(k, g) for k, g in enumerate(fwd))


# ---------------------------------------------------------------------------
# the generator action in closed form


@lru_cache(maxsize=None)
def action_step(n: int, letter: int) -> tuple:
    """The closed form of the letter X_i^sign = letter (see the module
    docstring), the one form of the action that act_generator, act_letters
    and the quotient's scan apply: the flat tuple (i, row, linear, diagonal,
    cross), every part O(1) long because X_i moves only the generators i-1,
    i, i+1 (and 0 for X_2).

    i, row:   the one coordinate the action rewrites and its new value, the
              sum of c * vec[k] over row = ((k, c), ...).
    linear:   the k with b_k odd.
    diagonal: the k with beta(I_k, I_k) odd.
    cross:    the pairs k < l with beta(I_k, I_l) odd.

    It is read off the images of the moved generators (_moved_images, or
    _inverse_images of them), in O(n).  Before it is returned it is checked
    against _apply_images on the moved units, their squares and e_k + e_l
    for each cross pair, and every index it reads must be a moved generator
    or i, so that it fixes every other unit as the images do.
    """
    i, sign = abs(letter), (1 if letter > 0 else -1)
    images = _moved_images(n, i)
    if sign < 0:
        images = _inverse_images(n, images)
    moved = sorted(images)
    # An unmoved generator has b_k = 0 and beta(e_k, e_l) = 0 for k <= l, and
    # beta pairs only coordinates at distance <= 2, so cross pairs lie within
    # distance 2 of the moved set once the checks below pass.
    near = range(max(moved[0] - 2, 0), min(moved[-1] + 3, n))
    vecs = {k: images[k].vec if k in images else gn_generator(n, k).vec for k in near}
    cross = tuple((k, l) for k in near for l in near
                  if k < l and (k in images or l in images) and beta(vecs[k], vecs[l], n))
    step = (i,
            tuple((k, vecs[k][i]) for k in sorted({i, *moved}) if vecs[k][i]),
            tuple(k for k in moved if images[k].bit),
            tuple(k for k in moved if beta(vecs[k], vecs[k], n)),
            cross)
    if not {k for k, _ in step[1]}.union(step[2], step[3], *cross) <= {i, *moved}:
        raise AssertionError(
            f"closed-form action of X_{i}^{sign} on G({n}) reads an unmoved generator")
    checks = [gn_pow(gn_generator(n, k), power) for power in (1, 2) for k in moved]
    checks += [gn_mul(gn_generator(n, k), gn_generator(n, l)) for k, l in cross]
    for g in checks:
        if _act_steps(g, (step,)) != _apply_images(images, g):
            raise AssertionError(
                f"closed-form action of X_{i}^{sign} on G({n}) disagrees at {format_element(g)}")
    return step


def _act_steps(g: GnElement, steps: Iterable[tuple]) -> GnElement:
    """Apply the action steps (see action_step) to g in turn."""
    bit, vec = g.bit, list(g.vec)
    for i, row, linear, diagonal, cross in steps:
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
    return GnElement(g.n, bit & 1, tuple(vec))


def act_generator(g: GnElement, i: int, sign: int) -> GnElement:
    """The automorphism of G(n) attached to the braid letter X_i^sign.

    It replaces coordinate i of the vector by a linear combination of
    coordinates i-1, i, i+1 (and 0 for X_2), and adds to the bit a mod-2
    quadratic form in those coordinates: the step action_step(n, sign * i).

    >>> act_generator(GnElement(4, 0, (1, 0, 0, 0)), 2, 1)
    GnElement(n=4, bit=1, vec=(1, 0, 1, 0))
    >>> act_generator(GnElement(4, 0, (0, 1, 0, 0)), 1, 1)
    GnElement(n=4, bit=1, vec=(0, -1, 0, 0))
    >>> act_generator(GnElement(4, 0, (1, 0, 0, 0)), 3, 1)
    GnElement(n=4, bit=0, vec=(1, 0, 0, 0))
    """
    if sign not in (1, -1):
        raise ValueError(f"sign must be +-1, got {sign}")
    if not 1 <= i <= g.n - 1:
        raise ValueError(f"generator index {i} out of range for n = {g.n}")
    return _act_steps(g, (action_step(g.n, sign * i),))


def act_letters(g: GnElement, letters: Iterable[int]) -> GnElement:
    """Right action of signed letters read left to right (see action_step)."""
    return _act_steps(g, map(action_step, repeat(g.n), letters))


def act_word(g: GnElement, w: BraidWord) -> GnElement:
    """Right action of a braid word, folded letter by letter."""
    if g.n != w.n:
        raise ValueError(f"mismatched sizes {g.n} and {w.n}")
    return act_letters(g, w.letters)


# ---------------------------------------------------------------------------
# text format


def parse_element(text: str, n: int) -> GnElement:
    """Parse the shared element format "bit;v0,v1,...,v{n-1}"."""
    head, sep, tail = text.partition(";")
    if not sep:
        raise ValueError(f"bad element {text!r}: missing ';'")
    if head.strip() not in ("0", "1"):
        raise ValueError(f"bad element bit {head!r}: must be 0 or 1")
    parts = tail.split(",")
    if len(parts) != n:
        raise ValueError(f"bad element {text!r}: expected {n} coordinates")
    vec = []
    for token in parts:
        try:
            vec.append(int(token))
        except ValueError:
            raise ValueError(f"bad element coordinate {token.strip()!r}") from None
    return GnElement(n, int(head), tuple(vec))


def format_element(g: GnElement) -> str:
    return f"{g.bit};{','.join(str(x) for x in g.vec)}"
