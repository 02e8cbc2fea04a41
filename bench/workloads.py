"""Queries of the in-process workloads, each with an answer known by construction.

A round is a fixed mix of queries drawn from a seeded generator; every round
of a workload has the same composition, so whole rounds are comparable across
seeds and runs.  A query's `call` is the timed program call.  Its answer is
reduced by `observe` (outside the timed interval) and compared with
`expected`, which the benchmark derives from how it built the input, never
from running the same call.

The program is called through module attributes (`quotient.normal_form`, not
an imported name), so the span wrappers of a traced run see these calls too.
Words, permutations and degrees are built with the benchmark's own helpers,
so that a fault in the program's word utilities cannot shape both an input
and the answer expected for it.
"""

from __future__ import annotations

import dataclasses
import random
from typing import Any, Callable

from tbraid import braid, gn, primes, quotient
from tbraid.braid import BraidWord, HalfTwist, Perm

from reference import artin_cost


@dataclasses.dataclass
class Query:
    kind: str
    call: Callable[[], Any]
    expected: Any
    observe: Callable[[Any], Any] = lambda answer: answer
    letters: int = 0


# ---------------------------------------------------------------------------
# words and permutations, computed by the benchmark itself


def random_word(rng: random.Random, n: int, length: int) -> BraidWord:
    return BraidWord(n, tuple(rng.choice((1, -1)) * rng.randint(1, n - 1)
                              for _ in range(length)))


def perm_of(w: BraidWord) -> tuple[int, ...]:
    """One-line images of w's permutation: each letter swaps values i, i+1."""
    a = list(range(1, w.n + 1))
    where = list(range(-1, w.n))  # where[v] = index of value v in a
    for letter in w.letters:
        i = abs(letter)
        p, q = where[i], where[i + 1]
        a[p], a[q] = i + 1, i
        where[i], where[i + 1] = q, p
    return tuple(a)


def inversion_count(images: tuple[int, ...]) -> int:
    n = len(images)
    return sum(1 for i in range(n) for j in range(i + 1, n) if images[i] > images[j])


def exponent_sum(w: BraidWord) -> int:
    return sum(1 if letter > 0 else -1 for letter in w.letters)


def compose(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    """Right-action product: x(pq) = (xp)q."""
    return tuple(q[v - 1] for v in p)


def invert(p: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * len(p)
    for x, v in enumerate(p, start=1):
        out[v - 1] = x
    return tuple(out)


def cat(n: int, *parts) -> BraidWord:
    letters: tuple[int, ...] = ()
    for part in parts:
        letters += part.letters if isinstance(part, BraidWord) else tuple(part)
    return BraidWord(n, letters)


def inverse(w: BraidWord) -> BraidWord:
    return BraidWord(w.n, tuple(-x for x in reversed(w.letters)))


def conjugate(w: BraidWord, b: BraidWord) -> BraidWord:
    return cat(w.n, inverse(b), w, b)


def kernel_word(rng: random.Random, n: int, conj_length: int) -> BraidWord:
    """A conjugated quadrangle relator or transversal commutator: trivial in
    TB_n, nontrivial in B_n."""
    base = rng.choice((braid.quadrangle_relator, braid.transversal_commutator))(n)
    return conjugate(base, random_word(rng, n, conj_length))


# ---------------------------------------------------------------------------
# tbn-word-problem


WORD_NS = (4, 8, 16)
WORD_SIZES = ((100, 4), (1000, 1))   # (word length, words of each query kind per round)


def degree_answer(w: BraidWord) -> tuple[tuple[int, ...], int]:
    """The permutation of w and, by the degree law exponent_sum = inversions
    + 2 * degree, the degree coordinate of its normal form."""
    p = perm_of(w)
    return p, (exponent_sum(w) - inversion_count(p)) // 2


def _nf_observe(nf) -> tuple[tuple[int, ...], int]:
    return nf.perm.images, nf.g.vec[0]


def word_problem_round(rng: random.Random, scale: float = 1.0) -> list[Query]:
    """For each n and word length: nf of a random word; eq against the word
    with a kernel word inserted (equal) and against the word times c_word
    (same permutation, different central bit); kernel on a conjugated
    relator (yes) and on it times c_word (no)."""
    queries = []
    for n in WORD_NS:
        central = quotient.c_word(n)
        for nominal, count in WORD_SIZES:
            for _ in range(count):
                length = max(8, round(nominal * scale))
                w = random_word(rng, n, length)
                cut = rng.randint(0, length)
                inserted = cat(n, w.letters[:cut], kernel_word(rng, n, 8), w.letters[cut:])
                with_c = cat(n, w, central)
                k = kernel_word(rng, n, max(1, (length - 16) // 2))
                k_c = cat(n, k, central)
                queries += [
                    Query("nf", lambda w=w: quotient.normal_form(w), degree_answer(w),
                          _nf_observe, len(w)),
                    Query("eq-equal", lambda a=w, b=inserted: quotient.tbn_equal(a, b), True,
                          letters=len(w) + len(inserted)),
                    Query("eq-central", lambda a=w, b=with_c: quotient.tbn_equal(a, b), False,
                          letters=len(w) + len(with_c)),
                    Query("kernel-yes", lambda k=k: quotient.in_kernel(k), True, letters=len(k)),
                    Query("kernel-no", lambda k=k_c: quotient.in_kernel(k), False,
                          letters=len(k_c)),
                ]
    return queries


# ---------------------------------------------------------------------------
# bn-equality


BN_NS = (4, 5, 6)
TWIST_POWERS = (1, 2, 3)
EQ_LENGTHS = (12, 24)
BN_DRAWS = 2


def braid_rewrite(rng: random.Random, w: BraidWord, moves: int) -> BraidWord:
    """Apply random braid-relation moves: far commutation, aba -> bab, and
    insertion or deletion of a cancelling pair.  The element is unchanged."""
    letters = list(w.letters)
    for _ in range(moves):
        far = [p for p in range(len(letters) - 1)
               if abs(abs(letters[p]) - abs(letters[p + 1])) >= 2]
        triple = [p for p in range(len(letters) - 2)
                  if letters[p] == letters[p + 2]
                  and abs(abs(letters[p]) - abs(letters[p + 1])) == 1
                  and (letters[p] > 0) == (letters[p + 1] > 0)]
        cancel = [p for p in range(len(letters) - 1) if letters[p] == -letters[p + 1]]
        kind = rng.choice([k for k, sites in (("far", far), ("triple", triple),
                                              ("cancel", cancel), ("insert", [0]))
                           if sites])
        if kind == "far":
            p = rng.choice(far)
            letters[p], letters[p + 1] = letters[p + 1], letters[p]
        elif kind == "triple":
            p = rng.choice(triple)
            x, y = letters[p], letters[p + 1]
            letters[p:p + 3] = [y, x, y]
        elif kind == "cancel":
            p = rng.choice(cancel)
            del letters[p:p + 2]
        else:
            p = rng.randint(0, len(letters))
            x = rng.choice((1, -1)) * rng.randint(1, w.n - 1)
            letters[p:p] = [x, -x]
    return BraidWord(w.n, tuple(letters))


def pair_answer(kind: str) -> tuple[bool, bool, int, str]:
    """classify_pair's record for a pair conjugated from a frame pair.
    Consecutive frame generators satisfy the braid relation and do not
    commute (their commutator moves a 3-cycle); far ones commute and fail
    the braid relation (the two sides have different permutations);
    transversal ones neither commute (their commutator is nontrivial in B_n)
    nor satisfy the braid relation (different permutations)."""
    return {
        "consecutive": (False, True, 1, "consecutive"),
        "disjoint": (True, False, 0, "disjoint-or-transversal"),
        "transversal": (False, False, 0, "raw"),
    }[kind]


def twisted_pair(rng: random.Random, n: int, kind: str, power: int):
    """A frame pair of the given kind at a random place a, both half-twists
    conjugated by the twist power (a, -(a+1))^power acting on the pair's
    strands.  The Artin images then grow exponentially in the power at a
    rate that does not depend on a, so every draw costs about the same."""
    a = rng.randint(1, n - 3) if kind != "consecutive" else rng.randint(1, n - 2)
    if kind == "consecutive":
        h1, h2 = HalfTwist(BraidWord(n, ()), a), HalfTwist(BraidWord(n, ()), a + 1)
    elif kind == "disjoint":
        h1, h2 = HalfTwist(BraidWord(n, ()), a), HalfTwist(BraidWord(n, ()), a + 2)
    else:
        h1, h2 = HalfTwist(BraidWord(n, ()), a + 1), HalfTwist(BraidWord(n, (a, a + 2)), a + 1)
    twist = (a, -(a + 1)) * power
    return tuple(HalfTwist(cat(n, h.conj, twist), h.index, rng.random() < 0.5) for h in (h1, h2))


# Artin cost (see artin_cost) of a bn_equal query at the nominal word
# lengths: about the median over random words.  Each query is drawn until
# its cost is within EQ_COST_BAND of this, because the cost of random words
# is heavy-tailed (quartiles 0.6 and 1.7 times the median) and would make
# one seed's round cost several times another's.
EQ_COST = {("eq-rewrite", 12): 600, ("eq-generator", 12): 600, ("eq-kernel", 12): 6000,
           ("eq-rewrite", 24): 3200, ("eq-generator", 24): 3200, ("eq-kernel", 24): 28000}
EQ_COST_BAND = 1.1


def eq_pair(rng: random.Random, n: int, length: int, kind: str):
    """A random word and its partner: a braid-relation rewrite (equal), the
    word with one generator inserted (unequal exponent sum) or the word with
    a kernel word inserted (same permutation and exponent sum, unequal)."""
    w = random_word(rng, n, length)
    if kind == "eq-rewrite":
        return w, braid_rewrite(rng, w, 12)
    p = rng.randint(0, length)
    inserted = ((rng.choice((1, -1)) * rng.randint(1, n - 1),) if kind == "eq-generator"
                else kernel_word(rng, n, 2))
    return w, cat(n, w.letters[:p], inserted, w.letters[p:])


def banded_eq_pair(rng: random.Random, n: int, length: int, kind: str):
    """eq_pair drawn until its Artin cost is within the band around
    EQ_COST (at the nominal lengths; any draw at other lengths)."""
    target = EQ_COST.get((kind, length))
    while True:
        w, other = eq_pair(rng, n, length, kind)
        if target is None:
            return w, other
        high = target * EQ_COST_BAND
        if target / EQ_COST_BAND <= artin_cost(w, high) + artin_cost(other, high) <= high:
            return w, other


def _pair_observe(rel) -> tuple[bool, bool, int, str]:
    return rel.commute, rel.triple, rel.common_endpoints, rel.label


def bn_equality_round(rng: random.Random, scale: float = 1.0) -> list[Query]:
    """BN_DRAWS times for each n: classify_pair on consecutive, disjoint and
    transversal frame pairs conjugated by a common twist power (Artin images
    grow exponentially with the power), and bn_equal of random words against
    the three partners of eq_pair, of banded cost.  Two draws of each put
    enough queries of like cost at the middle of the round that its median
    latency does not hang on one draw."""
    queries = []
    for n in BN_NS:
        for _ in range(BN_DRAWS):
            for power in TWIST_POWERS[:max(1, round(len(TWIST_POWERS) * scale))]:
                for kind in ("consecutive", "disjoint", "transversal"):
                    h1, h2 = twisted_pair(rng, n, kind, power)
                    queries.append(Query(f"classify-{kind}",
                                         lambda h1=h1, h2=h2: braid.classify_pair(h1, h2),
                                         pair_answer(kind), _pair_observe,
                                         len(h1.conj) + len(h2.conj) + 2))
            for nominal in EQ_LENGTHS:
                length = max(2, round(nominal * scale))
                for kind, expected in (("eq-rewrite", True), ("eq-generator", False),
                                       ("eq-kernel", False)):
                    w, other = banded_eq_pair(rng, n, length, kind)
                    queries.append(Query(kind, lambda a=w, b=other: braid.bn_equal(a, b),
                                         expected, letters=len(w) + len(other)))
    return queries


# ---------------------------------------------------------------------------
# tbn-coordinates


COORD_NS = (5, 6, 8)


def random_element(rng: random.Random, n: int):
    """Random signs on coordinates of a fixed size, so that every draw costs
    the same (lift lengths grow with the coordinates' sizes)."""
    return gn.GnElement(n, rng.randint(0, 1), tuple(rng.choice((-2, 2)) for _ in range(n)))


def random_perm(rng: random.Random, n: int) -> Perm:
    """A random permutation with half the maximal number of inversions, so
    that every draw's section word has the same length."""
    images = list(range(1, n + 1))
    for _ in range(n * (n - 1) // 4):
        k = rng.choice([k for k in range(n - 1) if images[k] < images[k + 1]])
        images[k], images[k + 1] = images[k + 1], images[k]
    return Perm(n, tuple(images))


def random_normal_form(rng: random.Random, n: int):
    return quotient.TbnNormalForm(random_perm(rng, n), random_element(rng, n))


def _degree_of_product(*factors) -> int:
    """Degree coordinate of a product, from additivity of the exponent sum
    inversions(p) + 2 * degree over the factors."""
    perm = tuple(range(1, factors[0].n + 1))
    total = 0
    for f in factors:
        perm = compose(perm, f.perm.images)
        total += inversion_count(f.perm.images) + 2 * f.g.vec[0]
    return (total - inversion_count(perm)) // 2


def _perm_and_degree(nf) -> tuple[tuple[int, ...], int]:
    return nf.perm.images, nf.g.vec[0]


def prime_queries(n: int) -> list[Query]:
    """Frame criterion on the canonical prime (passes at every n) and, at
    n = 5, on the primes_suite mutants (each fails its named condition) and
    the generation criterion at bounds 3 and 4."""
    G = primes.GnInstance(n)
    pair = primes.canonical_prime(n)
    nu = gn.gn_nu(n)
    verdict = lambda report: report.verdict  # noqa: E731
    queries = [Query("prime-frame", lambda: primes.check_prime_frame(G, pair.h, pair.tau),
                     "pass", verdict)]
    if n != 5:
        return queries
    h, s1 = pair.h, gn.gn_s1(n)
    u1u2 = gn.gn_mul(gn.gn_u(n, 1), gn.gn_u(n, 2))
    mutants = [
        (h, gn.gn_identity(n), "1"),
        (h, s1, "1"),
        (gn.gn_mul(h, nu), nu, "2a"),
        (u1u2, nu, "1"),
        (primes.transport(G, pair, braid.frame(n, 2)), nu, "1"),
        (s1, nu, "1"),
    ]
    for candidate, tau, condition in mutants:
        queries.append(Query("prime-frame-mutant",
                             lambda c=candidate, t=tau: primes.check_prime_frame(G, c, t),
                             f"fail({condition})", verdict))
    for bound in (3, 4):
        queries.append(Query(f"prop71-b{bound}",
                             lambda b=bound: primes.check_prop71(G, h, bound=b),
                             f"pass-up-to-bound({bound})", verdict))
    for S, condition in ((nu, "0"), (s1, "1a")):
        queries.append(Query("prop71-b3-mutant",
                             lambda S=S: primes.check_prop71(G, S, bound=3),
                             f"fail({condition})", verdict))
    return queries


def inverse_query(a, identity, full_check: bool) -> Query:
    """tbn_inv(a), checked by its permutation and degree and, when
    full_check, by tbn_mul(a, tbn_inv(a)) being the identity.  The full check
    runs outside the timed interval and costs as much as a product, so it is
    made at the smallest n only."""
    expected = (invert(a.perm.images), -inversion_count(a.perm.images) - a.g.vec[0])
    if not full_check:
        return Query("tbn-inv", lambda: quotient.tbn_inv(a), expected, _perm_and_degree)
    return Query("tbn-inv", lambda: quotient.tbn_inv(a), (expected, identity),
                 lambda inv: (_perm_and_degree(inv), quotient.tbn_mul(a, inv)))


def coordinates_round(rng: random.Random, scale: float = 1.0) -> list[Query]:
    """For each n: lift, tbn_inv and tbn_mul on random normal forms of fixed
    size; act_word round trips and the quadrangle relator's trivial action;
    transport of the u_1 prime to conjugated frame half-twists; the prime
    checkers."""
    queries = []
    act_length = max(4, round(20 * scale))
    for n in COORD_NS:
        a, b = random_normal_form(rng, n), random_normal_form(rng, n)
        g = random_element(rng, n)
        identity = quotient.TbnNormalForm(Perm(n, tuple(range(1, n + 1))), gn.gn_identity(n))
        w = random_word(rng, n, act_length)
        w_inv = inverse(w)
        relator = conjugate(braid.quadrangle_relator(n), random_word(rng, n, act_length // 2))
        queries += [
            Query("lift", lambda g=g: quotient.lift(g),
                  quotient.TbnNormalForm(identity.perm, g), quotient.normal_form),
            inverse_query(a, identity, full_check=n == COORD_NS[0]),
            Query("tbn-mul", lambda a=a, b=b: quotient.tbn_mul(a, b),
                  (compose(a.perm.images, b.perm.images), _degree_of_product(a, b)),
                  _perm_and_degree),
            Query("act-roundtrip",
                  lambda g=g, w=w, w_inv=w_inv: gn.act_word(gn.act_word(g, w), w_inv), g,
                  letters=2 * len(w)),
            Query("act-relator", lambda g=g, r=relator: gn.act_word(g, r), g,
                  letters=len(relator)),
        ]
        G = primes.GnInstance(n)
        upair = primes.make_pair(G, gn.gn_u(n, 1), braid.frame(n, 1))
        nu = gn.gn_nu(n)
        for flipped in (False, True):
            j = rng.randint(1, n - 1)
            conj = random_word(rng, n, 5)
            # Uniqueness of transport: the prime on X_j is u_j, and on X_j with
            # reversed polarization it is u_j^-1 nu; pushing along conj moves it.
            u_j = gn.gn_u(n, j)
            start = gn.gn_mul(gn.gn_inv(u_j), nu) if flipped else u_j
            queries.append(Query("transport",
                                 lambda G=G, pair=upair, t=HalfTwist(conj, j, flipped):
                                 primes.transport(G, pair, t),
                                 gn.act_word(start, conj), letters=len(conj)))
        queries += prime_queries(n)
    return queries


ROUNDS: dict[str, tuple[Callable[..., list[Query]], tuple[int, ...]]] = {
    "tbn-word-problem": (word_problem_round, WORD_NS),
    "bn-equality": (bn_equality_round, BN_NS),
    "tbn-coordinates": (coordinates_round, COORD_NS),
}
