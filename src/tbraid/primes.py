"""
Prime elements of groups acted on by the transversal-commutator quotient.

A group G together with a right action of TB_n by automorphisms is called an
action group here.  The checkers use exactly these members of it: n,
identity(), mul(a, b), inv(a), act(g, letters) (the right action of a
sequence of signed letters, X_i^sign written sign * i, read left to right),
generating_set(), degree_zero_generators() (the targets of condition 0 of
check_prop71) and subgroup_membership(gens) (the exact membership test
t -> bool of the subgroup generated by gens).  Elements compare with ==,
which is equality in the group and must agree with hash.  GnInstance, the
coordinate group, is the built-in one.

An element g of such a group is prime with supporting half-twist X and
central element tau (tau central, tau^2 = 1, fixed by the action) when

    (1) g_{X^-1} = g^-1 tau,
    (2) for every half-twist Y adjacent to X:
            (a) g_{Y^-1 X^-1}   = g^-1 . g_{Y^-1}
            (b) g_{X Y^-1 X^-1} = g_X^-1 . g_{X Y^-1}
    (3) g_Z = g for every half-twist Z disjoint from X.

Primes satisfy an existence-and-uniqueness transport principle: given a
polarized pair (g, X) and any polarized half-twist T, there is exactly one
prime with support T obtained by pushing g along any polarization-preserving
braid moving X to T.  transport() below realises it; uniqueness reduces to
the polarized centralizer of a frame generator X_i being generated by

    X_i^2,  X_{i+1} X_i^2 X_{i+1},  and the frame generators disjoint from X_i,

each of which fixes a prime supported on X_i.

The checkers implement the two finite criteria that replace the quantified
axioms: the frame criterion (conditions on X_1, X_2 and the far generators
only) and the generation criterion for n >= 5 (whose generation hypothesis is
undecidable through the abstract interface and is therefore checked against a
bounded orbit, with the bound recorded in the verdict).
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import random
from typing import Any, Callable, Sequence

from .braid import (
    BraidWord,
    HalfTwist,
    bn_equal,
    concat,
    conj_word,
    frame,
    frame_transport,
    ht_conjugate,
    ht_endpoints,
    ht_word,
    inv_word,
    random_word,
)
from .gn import (GnElement, act_letters, gn_generator, gn_identity, gn_inv, gn_mul, gn_nu,
                 gn_pow, q_value)
from .quotient import c_word, normal_form, tbn_equal


class GnInstance:
    """The coordinate group G(n) as an action group; elements are GnElement,
    whose == and hash compare canonical forms.

    act is gn.act_letters, the step loop act_word runs; a letter 0 or of
    absolute value >= n raises ValueError.  The degree-zero subgroup
    (vanishing first coordinate, g.vec[0] == 0) is closed under the action
    and under products within fixed degree.
    """

    def __init__(self, n: int):
        if n < 4:
            raise ValueError(f"GnInstance needs n >= 4, got {n}")
        self.n = n

    def identity(self) -> GnElement:
        return gn_identity(self.n)

    def mul(self, a: GnElement, b: GnElement) -> GnElement:
        return gn_mul(a, b)

    def inv(self, a: GnElement) -> GnElement:
        return gn_inv(a)

    act = staticmethod(act_letters)

    def generating_set(self) -> list[GnElement]:
        return [gn_generator(self.n, k) for k in range(self.n)]

    def degree_zero_generators(self) -> list[GnElement]:
        return [g for g in self.generating_set() if g.vec[0] == 0] + [gn_nu(self.n)]

    def subgroup_membership(self, generators: Sequence[GnElement]) -> Callable[[GnElement], bool]:
        """Membership in the subgroup generated by generators, reduced once."""
        return functools.partial(_reduced_contains, *_reduce_subgroup(list(generators)))


@dataclasses.dataclass(frozen=True)
class PolarizedPair:
    """A prime element together with its polarized supporting half-twist and
    its central element tau = h . h_{X^-1}."""

    h: Any
    ht: HalfTwist
    tau: Any


def make_pair(G, h, ht: HalfTwist) -> PolarizedPair:
    """Assemble a polarized pair, deriving tau = h . h_{X^-1}."""
    tau = G.mul(h, G.act(h, inv_word(ht_word(ht)).letters))
    return PolarizedPair(h, ht, tau)


@dataclasses.dataclass
class PrimeReport:
    """Structured pass/fail evidence for a prime-element check.

    verdict is "pass", "fail(<condition>)" or "pass-up-to-bound(<L>)"; the
    conditions dict records every individual check, bound the orbit bound of
    a bounded generation check (None otherwise), seed the randomness used,
    and witness free-form failure details.
    """

    verdict: str
    conditions: dict[str, bool]
    bound: int | None = None
    seed: int = 0
    witness: dict | None = None

    @property
    def passed(self) -> bool:
        return self.verdict.startswith("pass")

    def to_json(self) -> dict:
        return {
            "verdict": self.verdict,
            "conditions": self.conditions,
            "bound": self.bound,
            "seed": self.seed,
            "witness": self.witness,
        }


class Checks(dict[str, bool]):
    """An ordered record of named checks, filled by calling it:
    checks(name, passed) folds passed into the entry for name, which stays
    True only while everything folded into it passed.  A name keeps the
    place of its first call, so a check whose loop may run zero times is
    registered first with checks(name, True)."""

    def __call__(self, name: str, passed: bool) -> None:
        self[name] = self.get(name, True) and passed


def case_rng(cases: int, seed: int) -> random.Random:
    """The seeded generator a randomized suite draws its cases from; a
    negative case count raises ValueError."""
    if cases < 0:
        raise ValueError(f"cases must be >= 0, got {cases}")
    return random.Random(seed)


def _finish_report(conditions: dict[str, bool], bound: int | None, seed: int,
                   witness: dict) -> PrimeReport:
    """The report whose verdict names the first failing condition, if any."""
    for name, passed in conditions.items():
        if not passed:
            return PrimeReport(f"fail({name})", conditions, bound, seed, witness or None)
    verdict = "pass" if bound is None else f"pass-up-to-bound({bound})"
    return PrimeReport(verdict, conditions, bound, seed, witness or None)


def _adjacent_identities(G, g, x: tuple[int, ...], y: tuple[int, ...]) -> tuple[bool, bool]:
    """Axiom (2) for g on the adjacent half-twists X and Y with words x and
    y: identities (a) and (b) of the module docstring."""
    x_inv, y_inv = tuple(-a for a in reversed(x)), tuple(-a for a in reversed(y))
    a = G.act(g, y_inv + x_inv) == G.mul(G.inv(g), G.act(g, y_inv))
    b = G.act(g, x + y_inv + x_inv) == G.mul(G.inv(G.act(g, x)), G.act(g, x + y_inv))
    return a, b


def _frame_identities(G, u) -> tuple[bool, bool, bool]:
    """The identities both criteria impose on u: conditions 2a, 2b and 3 of
    check_prime_frame, which are conditions 1a, 1b and 3 of check_prop71."""
    far = all(G.act(u, (j,)) == u for j in range(3, G.n))
    return (*_adjacent_identities(G, u, (1,), (2,)), far)


# ---------------------------------------------------------------------------
# the frame criterion


def check_prime_frame(G, u, tau, seed: int = 0) -> PrimeReport:
    """Check the frame criterion for u with claimed central element tau.

    Conditions (all equalities in G, actions written as subscripts):

        1:  u_{X_1^-1} = u^-1 tau, with tau^2 = 1, tau fixed by every
            generator, and tau commuting with a sample of elements
            (centrality through the abstract interface is only samplable);
        2a: u_{X_2^-1 X_1^-1} = u^-1 . u_{X_2^-1};
        2b: u_{X_1 X_2^-1 X_1^-1} = u_{X_1}^-1 . u_{X_1 X_2^-1};
        3:  u_{X_j} = u for all j >= 3.

    A pass certifies that u is prime with supporting half-twist X_1 and
    central element tau.
    """
    n = G.n
    if n < 4:
        raise ValueError(f"the frame criterion needs n >= 4, got {n}")
    rng = random.Random(seed)
    # Conditions 2a, 2b and 3 are exact finite checks; within (1) only the
    # centrality of tau is sampled (membership in the centre is not decidable
    # through the abstract interface).  Invariance of tau under the n-1
    # generators implies invariance under the whole action.
    witness: dict = {"sampled": ["tau-centrality"]}

    centrality_sample = list(G.generating_set())
    for _ in range(8):
        letters = [rng.choice([1, -1]) * rng.randint(1, n - 1) for _ in range(4)]
        centrality_sample.append(G.act(u, letters))

    cond1 = G.act(u, (-1,)) == G.mul(G.inv(u), tau)
    if not cond1:
        witness["1"] = "u_{X_1^-1} != u^-1 tau"
    if G.mul(tau, tau) != G.identity():
        cond1 = False
        witness["1"] = "tau^2 != 1"
    for j in range(1, n):
        if G.act(tau, (j,)) != tau or G.act(tau, (-j,)) != tau:
            cond1 = False
            witness["1"] = f"tau moved by generator {j}"
            break
    for sample in centrality_sample:
        if G.mul(tau, sample) != G.mul(sample, tau):
            cond1 = False
            witness["1"] = "tau fails to commute with a sampled element"
            break

    cond2a, cond2b, cond3 = _frame_identities(G, u)
    conditions = {"1": cond1, "2a": cond2a, "2b": cond2b, "3": cond3}
    return _finish_report(conditions, None, seed, witness)


# ---------------------------------------------------------------------------
# the generation criterion


def check_prop71(G, S, bound: int = 3, seed: int = 0) -> PrimeReport:
    """Check the generation criterion for S (needs n >= 5).

    Conditions:

        0:  the subgroup generated by the orbit of S under conjugator words
            of length <= bound contains G.degree_zero_generators()
            (bounded surrogate for "the orbit generates G");
        1a: S_{X_2^-1 X_1^-1} = S^-1 . S_{X_2^-1};
        1b: S_{X_1 X_2^-1 X_1^-1} = S_{X_1}^-1 . S_{X_1 X_2^-1};
        with tau = S . S_{X_1^-1} and T = S_{X_2^-1}:
        2a: tau_{X_1^2} = tau;
        2b: tau_T = tau^-1_{X_1}, conjugation by the group element T;
        3:  S_{X_j} = S for all j >= 3;
        4:  S_c = S for the central word c = [X_1^2, X_2^2].

    A pass (always bound-qualified) certifies that S is prime with
    supporting half-twist X_1 and central element tau.
    """
    n = G.n
    if n < 5:
        raise ValueError(f"the generation criterion needs n >= 5, got {n}")
    if bound < 0:
        raise ValueError(f"the orbit bound must be >= 0, got {bound}")
    witness: dict = {}
    contains = G.subgroup_membership(_bounded_orbit(G, S, bound))
    cond0 = all(contains(target) for target in G.degree_zero_generators())
    if not cond0:
        witness["0"] = "a configured generator is outside the bounded orbit subgroup"

    cond1a, cond1b, cond3 = _frame_identities(G, S)
    tau = make_pair(G, S, frame(n, 1)).tau
    T = G.act(S, (-2,))
    cond2a = G.act(tau, (1, 1)) == tau
    tau_T = G.mul(G.inv(T), G.mul(tau, T))
    cond2b = tau_T == G.act(G.inv(tau), (1,))
    cond4 = G.act(S, c_word(n).letters) == S

    conditions = {"0": cond0, "1a": cond1a, "1b": cond1b,
                  "2a": cond2a, "2b": cond2b, "3": cond3, "4": cond4}
    return _finish_report(conditions, bound, seed, witness)


def _bounded_orbit(G, S, bound: int) -> list:
    """Orbit of S under every conjugator word of length <= bound."""
    moves = [(s * i,) for i in range(1, G.n) for s in (1, -1)]
    seen = {S}
    frontier = [S]
    for _ in range(bound):
        new_frontier = []
        for g in frontier:
            for move in moves:
                moved = G.act(g, move)
                if moved not in seen:
                    seen.add(moved)
                    new_frontier.append(moved)
        frontier = new_frontier
    return list(seen)


# ---------------------------------------------------------------------------
# exact subgroup membership in the coordinate group


def _reduce_subgroup(gens: Sequence[GnElement]) -> tuple[list[tuple[int, GnElement]], bool]:
    """The subgroup H of G(n) generated by gens, reduced once: its pivots
    (col, p), one per column in increasing order, and whether nu lies in H.

    Euclid's reduction runs column by column on the elements themselves, with
    the row operation g <- g . p^-q for a pivot p.  The invariant: every row
    is an element of H, central bit included, and the rows generate H.  nu
    lies in H when a leftover row (vector 0) is nu or two pivots have Q = 1
    (their commutator is nu); otherwise the pivots commute and independent
    vectors determine their products.
    """
    rows, pivots = list(gens), []
    for col in range(gens[0].n if gens else 0):
        live = [g for g in rows if g.vec[col]]
        rows = [g for g in rows if not g.vec[col]]
        while live:
            live.sort(key=lambda g: abs(g.vec[col]))
            p = live[0]
            reduced = [gn_mul(g, gn_pow(p, -(g.vec[col] // p.vec[col]))) for g in live[1:]]
            rows += [g for g in reduced if not g.vec[col]]
            live = [g for g in reduced if g.vec[col]]
            if live:
                live.append(p)
            else:
                pivots.append((col, p))
    nu_in_h = any(g.bit for g in rows) or any(
        q_value(a.vec, b.vec, a.n) for (_, a), (_, b) in itertools.combinations(pivots, 2))
    return pivots, nu_in_h


def _reduced_contains(pivots: Sequence[tuple[int, GnElement]], nu_in_h: bool,
                      target: GnElement) -> bool:
    """Whether target lies in H: reduced by the pivots, it reaches vector 0
    exactly when it lies in H up to the centre, and is then 1 or nu."""
    t = target
    for col, p in pivots:
        q, r = divmod(t.vec[col], p.vec[col])
        if r:
            return False
        t = gn_mul(t, gn_pow(p, -q))
    return not any(t.vec) and (not t.bit or nu_in_h)


# ---------------------------------------------------------------------------
# transport


def _transport_conjugator(ht: HalfTwist, target: HalfTwist) -> BraidWord:
    """A braid b with (ht)_b = target as polarized half-twists.

    b is assembled from the frame transport between the two indices; if the
    ordered endpoints come out reversed, b is corrected by one extra factor
    of the target half-twist itself (which fixes the half-twist and swaps its
    endpoints).
    """
    n = ht.n
    if target.n != n:
        raise ValueError(f"mismatched strand counts {n} and {target.n}")
    b = concat(inv_word(ht.conj), frame_transport(n, ht.index, target.index), target.conj)
    moved = ht_conjugate(ht, b)
    if not bn_equal(ht_word(moved), ht_word(target)):
        raise AssertionError("transport conjugator failed to move the support")
    if ht_endpoints(moved) != ht_endpoints(target):
        if set(ht_endpoints(moved)) != set(ht_endpoints(target)):
            raise AssertionError("transport endpoints disagree as sets")
        b = concat(b, ht_word(target))
    return b


def transport(G, pair: PolarizedPair, target: HalfTwist):
    """The unique prime element coherent with the pair and supported on the
    polarized target half-twist: the pair's element pushed along a braid
    moving its support onto the target.  Uniqueness makes the result
    independent of the choice of that braid.
    """
    return G.act(pair.h, _transport_conjugator(pair.ht, target).letters)


# ---------------------------------------------------------------------------
# the canonical prime of the coordinate group


def canonical_prime(n: int) -> PolarizedPair:
    """The canonical prime of the coordinate group: the image of the pure
    word (X_1^2)_{X_2^-1} . X_2^-2, supported on the frame half-twist X_1
    with its frame polarization, with central element nu."""
    if n < 4:
        raise ValueError(f"the canonical prime needs n >= 4, got {n}")
    word = BraidWord(n, (2, 1, 1, -2, -2, -2))
    h = normal_form(word).g
    return PolarizedPair(h, frame(n, 1), gn_nu(n))


# ---------------------------------------------------------------------------
# sampled axiom checks


def axiom_spot_check(G, g, X: HalfTwist, samples: Sequence[HalfTwist], tau) -> PrimeReport:
    """Check the prime-element axioms for g against sampled half-twists.

    Samples sharing one endpoint with X exercise axiom (2); samples with no
    common endpoint that commute with X in the quotient exercise the
    conclusion of axiom (3), which covers disjoint and transversal samples
    alike (the action only sees the quotient, where both classes commute);
    axiom (1) is checked directly against tau.
    """
    witness: dict = {"checked": {"2": 0, "3": 0, "skipped": 0}}
    x_word = ht_word(X)
    x_inv = inv_word(x_word)
    cond1 = G.act(g, x_inv.letters) == G.mul(G.inv(g), tau)
    cond1 = cond1 and G.mul(tau, tau) == G.identity()
    cond2 = True
    cond3 = True
    for Y in samples:
        if Y.n != X.n:
            raise ValueError(f"mismatched strand counts {X.n} and {Y.n}")
        y_word = ht_word(Y)
        common = len(set(ht_endpoints(X)) & set(ht_endpoints(Y)))
        if common == 1:
            witness["checked"]["2"] += 1
            if not all(_adjacent_identities(G, g, x_word.letters, y_word.letters)):
                cond2 = False
                witness["2"] = "axiom (2) failed on an adjacent sample"
        elif common == 0 and tbn_equal(concat(x_word, y_word, x_inv), y_word):
            witness["checked"]["3"] += 1
            if G.act(g, y_word.letters) != g:
                cond3 = False
                witness["3"] = "a commuting weakly disjoint sample moved g"
        else:
            witness["checked"]["skipped"] += 1
    conditions = {"1": cond1, "2": cond2, "3": cond3}
    return _finish_report(conditions, None, 0, witness)


# ---------------------------------------------------------------------------
# the identity suite for a polarized pair


def _cp_generator_words(n: int, i: int) -> list[BraidWord]:
    """Elements of the polarized centralizer of the frame half-twist X_i:
    its square, the squares conjugated through each consecutive neighbour,
    and the frame generators disjoint from it."""
    return ([BraidWord(n, (i, i))]
            + [BraidWord(n, (j, i, i, j)) for j in (i + 1, i - 1) if 1 <= j <= n - 1]
            + [BraidWord(n, (j,)) for j in range(1, n) if abs(j - i) >= 2])


CP_WORD_LENGTH = 3
UNIQUENESS_TARGETS = 20
UNIQUENESS_PERTURBATIONS = 5


def _random_cp_letters(ht: HalfTwist, rng: random.Random) -> tuple[int, ...]:
    """The letters of a random element of the polarized centralizer of ht:
    CP_WORD_LENGTH factors drawn from _cp_generator_words, each inverted or
    not, conjugated through ht's conjugator."""
    words = _cp_generator_words(ht.n, ht.index)
    letters: tuple[int, ...] = ()
    for _ in range(CP_WORD_LENGTH):
        w = rng.choice(words)
        letters += w.letters if rng.random() < 0.5 else inv_word(w).letters
    return conj_word(BraidWord(ht.n, letters), ht.conj).letters


def prime_identity_suite(G, pair: PolarizedPair, cases: int = 50,
                         seed: int = 0) -> PrimeReport:
    """Exercise the identity zoo of a polarized pair (all equalities in G):

    - basic action identities: g_X = g_{X^-1} = g^-1 tau, g_{X^2} = g,
      g_{Y^-2} = g tau and [g, g_{Y^-1}] = tau for consecutive Y;
    - transported-pair identities on orderly / non-orderly adjacent targets:
          L(T)_{T^-1} = L(T)^-1 tau,
          L(T)_{Y^-1} = L(T) L(Y),
          L(T)_{Y'^-1} = L(Y')^-1 L(T);
    - the commutator dichotomy for coherent pairs: tau on adjacent supports,
      trivial on disjoint and on transversal supports;
    - the transported frame family xi_i = transport to X_i:
          (xi_i)_{X_i^-1} = xi_i^-1 tau,
          (xi_i)_{X_{i-1}^-1} = xi_i xi_{i-1},
          (xi_i)_{X_{i+1}^-1} = xi_i xi_{i+1},
          xi_i fixed by far generators,
          [xi_i, xi_j] = tau for |i-j| = 1 and 1 for |i-j| >= 2;
    - invariance of h under the polarized centralizer of its support;
    - simultaneous conjugation: one braid transports both h and its
      polarization-reversed partner h^-1 tau.
    """
    rng = case_rng(cases, seed)
    n = G.n
    h, X, tau = pair.h, pair.ht, pair.tau
    x = ht_word(X).letters
    checks = Checks()

    h_x = G.act(h, x)
    h_xinv = G.act(h, inv_word(ht_word(X)).letters)
    target = G.mul(G.inv(h), tau)
    checks("support-involution", h_x == target and h_xinv == target and G.act(h, x + x) == h)

    # Consecutive neighbours of the support: conjugates of the frame pair.
    for Y in (HalfTwist(X.conj, j) for j in (X.index + 1, X.index - 1) if 1 <= j <= n - 1):
        y_inv = inv_word(ht_word(Y)).letters
        checks("neighbour-inverse-square", G.act(h, y_inv + y_inv) == G.mul(h, tau))
        h_y = G.act(h, y_inv)
        comm = G.mul(G.mul(h, h_y), G.mul(G.inv(h), G.inv(h_y)))
        checks("neighbour-commutator", comm == tau)

    # Orderly / non-orderly adjacent transports.
    checks("transport-support-inverse", True)
    checks("transport-orderly-adjacent", True)
    checks("transport-reversed-adjacent", True)
    for _ in range(cases):
        j = rng.randint(1, n - 2)
        b = random_word(n, 6, rng)
        T = HalfTwist(b, j)
        Y = HalfTwist(b, j + 1)          # orderly adjacent to T
        Yp = HalfTwist(b, j + 1, True)   # the same support, reversed
        lT = transport(G, pair, T)
        lY = transport(G, pair, Y)
        lYp = transport(G, pair, Yp)
        lT_tinv = G.act(lT, inv_word(ht_word(T)).letters)
        lT_yinv = G.act(lT, inv_word(ht_word(Y)).letters)
        checks("transport-support-inverse", lT_tinv == G.mul(G.inv(lT), tau))
        checks("transport-orderly-adjacent", lT_yinv == G.mul(lT, lY))
        checks("transport-reversed-adjacent", lT_yinv == G.mul(G.inv(lYp), lT))

    # Commutator dichotomy over coherent pairs.
    checks("dichotomy-adjacent", True)
    checks("dichotomy-disjoint", True)
    checks("dichotomy-transversal", True)
    for _ in range(cases):
        b = random_word(n, 6, rng)
        configs = [
            ("adjacent", HalfTwist(b, 1), HalfTwist(b, 2)),
            ("disjoint", HalfTwist(b, 1), HalfTwist(b, 3)),
            ("transversal", HalfTwist(b, 2), HalfTwist(concat(BraidWord(n, (1, 3)), b), 2)),
        ]
        for kind, t1, t2 in configs:
            g1 = transport(G, pair, t1)
            g2 = transport(G, pair, t2)
            comm = G.mul(G.mul(g1, g2), G.mul(G.inv(g1), G.inv(g2)))
            checks(f"dichotomy-{kind}", comm == (tau if kind == "adjacent" else G.identity()))

    # The transported frame family; the end indices have no step down or up.
    xi = {i: transport(G, pair, frame(n, i)) for i in range(1, n)}
    for i in range(1, n):
        checks("frame-family-support", G.act(xi[i], (-i,)) == G.mul(G.inv(xi[i]), tau))
        checks("frame-family-step-down",
               i == 1 or G.act(xi[i], (-(i - 1),)) == G.mul(xi[i], xi[i - 1]))
        checks("frame-family-step-up",
               i == n - 1 or G.act(xi[i], (-(i + 1),)) == G.mul(xi[i], xi[i + 1]))
        checks("frame-family-far", all(G.act(xi[i], (j,)) == xi[i]
                                       for j in range(1, n) if abs(j - i) >= 2))
        checks("frame-family-commutators", all(
            G.mul(G.mul(xi[i], xi[j]), G.mul(G.inv(xi[i]), G.inv(xi[j])))
            == (tau if j == i + 1 else G.identity())
            for j in range(i + 1, n)))

    # Invariance under the polarized centralizer of the support (checked on
    # generators conjugated through the pair's own conjugator).
    checks("centralizer-invariance", all(G.act(h, conj_word(w, X.conj).letters) == h
                                         for w in _cp_generator_words(n, X.index)))

    # Simultaneous conjugation of h and its reversed partner.
    checks("simultaneous-conjugation", True)
    partner = G.mul(G.inv(h), tau)
    for _ in range(min(cases, 10)):
        j = rng.randint(1, n - 1)
        tgt = HalfTwist(random_word(n, 5, rng), j)
        c1, c2 = _random_cp_letters(X, rng), _random_cp_letters(X, rng)
        base = _transport_conjugator(X, tgt).letters
        g1, g2 = G.act(h, c1 + base), G.act(partner, c2 + base)
        checks("simultaneous-conjugation",
               G.act(h, base) == g1 and G.act(partner, base) == g2)

    return _finish_report(checks, None, seed, {})


def transport_uniqueness(G, pair: PolarizedPair, seed: int = 0) -> bool:
    """Transporting along centralizer-perturbed conjugators changes nothing."""
    rng = random.Random(seed)
    n = G.n
    for _ in range(UNIQUENESS_TARGETS):
        j = rng.randint(1, n - 1)
        target = HalfTwist(random_word(n, 6, rng), j, rng.random() < 0.5)
        base = _transport_conjugator(pair.ht, target).letters
        reference = G.act(pair.h, base)
        for _ in range(UNIQUENESS_PERTURBATIONS):
            if G.act(pair.h, _random_cp_letters(pair.ht, rng) + base) != reference:
                return False
    return True
