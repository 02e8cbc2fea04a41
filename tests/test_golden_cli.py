"""Pinned CLI output of the normal-form scan, the G(n) action and the checks
built on them.

`tb nf`, `tb eq --group tbn` and `tb kernel` at n = 4, 8 and 16 run on
seeded 100- and 1,000-letter words, and their stdout and exit codes must
match tests/golden_cli.txt byte for byte, so that a change to the scan
cannot silently change an answer.  The words are drawn here with
random.Random, independently of the package's own word generator; the
kernel and not-equal cases insert a conjugated transversal commutator
(trivial in TB_n) or the central word [X_1^2, X_2^2] (the element nu).

`tb act` (seeded elements under the same kinds of words and the quadrangle
relator), `tb prime-check` and `tb prop71-check --bound 3` (seeded elements
and the canonical prime) and one `tb verify all` run pin the generator
action and the layers that read it.

`tb eq --group bn`, `tb lk`, `tb classify`, `tb lift` and `tb --dump-tables`
at n = 4, 5 and 6, human and JSON, pin the braid-group layer, the linking
numbers, the lift and the tables: seeded words of 12 and 100 letters (a
braid relation or a transversal commutator inserted, and w followed by its
letters reversed, which is pure), half-twists with seeded 6-letter
conjugators and elements with coordinates in [-3, 3].

Further `tb eq --group bn` pairs, human and JSON, pin the verdicts that the
exponent sum or the permutation decides before any normal form: one
generator inserted, or X_i X_j^-1 inserted (same exponent sum, another
permutation), on 100-letter words at n = 4, 5, 6, 8 and 16; and a braid
relation or a transversal commutator inserted into 300-letter words at
n = 8 and 16.  `tb classify` runs on consecutive, disjoint and transversal
frame pairs conjugated by twist powers 1 to 3 at n = 4, 5 and 6.

`tb --help`, `tb verify --help` (its suite choices) and `tb --n 16
--dump-tables`, human and JSON, pin the parser, which names the suites
without importing the verification layer, and the action tables at a size
whose images are built from the moved generators alone.  Help is rendered
80 columns wide, whatever the terminal.
"""

import os
import random
from pathlib import Path
from unittest import mock

from test_cli import invoke

from tbraid.braid import quadrangle_relator, transversal_commutator

GOLDEN = Path(__file__).with_name("golden_cli.txt")
NS = (4, 8, 16)
LENGTHS = (100, 100, 1000, 1000)
PRIME_NS = (5, 8, 16)
BN_NS = (4, 5, 6)
INVARIANT_NS = (4, 5, 6, 8, 16)
LONG_BN_NS = (8, 16)


def _word(rng, n, length):
    return [rng.choice((1, -1)) * rng.randint(1, n - 1) for _ in range(length)]


def _inv(letters):
    return [-x for x in reversed(letters)]


def _text(letters):
    return " ".join(str(x) for x in letters)


def _element(rng, n, bound=9):
    vec = ",".join(str(rng.randint(-bound, bound)) for _ in range(n))
    return f"{rng.randint(0, 1)};{vec}"


def _canonical_prime(n, bit=1):
    """The canonical prime's coordinate nu . u_1^-1 in the element format."""
    return f"{bit};0,-1" + ",0" * (n - 2)


def cases():
    """(name, argv) for every pinned command, in a fixed order."""
    rng = random.Random(20261019)
    for n in NS:
        central = [1, 1, 2, 2, -1, -1, -2, -2]
        relator = list(transversal_commutator(n).letters)
        for k, length in enumerate(LENGTHS):
            w = _word(rng, n, length)
            b = _word(rng, n, 12)
            cut = rng.randint(0, length)
            same = w[:cut] + _inv(b) + relator + b + w[cut:]  # equal to w in TB_n
            other = w[:cut] + central + w[cut:]               # w . nu, up to conjugation
            head = ["--n", str(n)]
            tag = f"n{n}.L{length}.{k}"
            yield f"{tag}.nf", head + ["--json", "nf", _text(w)]
            yield f"{tag}.nf-human", head + ["nf", _text(same)]
            yield f"{tag}.eq-same", head + ["--json", "eq", "--group", "tbn", _text(w), _text(same)]
            yield f"{tag}.eq-nu", head + ["--json", "eq", "--group", "tbn", _text(w), _text(other)]
            yield f"{tag}.eq-human", head + ["eq", "--group", "tbn", _text(same), _text(other)]
            yield f"{tag}.kernel-word", head + ["--json", "kernel", _text(w)]
            yield f"{tag}.kernel-yes", head + ["--json", "kernel", _text(same + _inv(w))]
            yield f"{tag}.kernel-nu", head + ["kernel", _text(other + _inv(w))]
    yield from action_cases()
    yield from prime_cases()
    yield "verify-all.n5", ["--n", "5", "--json", "verify", "all", "--cases", "50", "--seed", "7"]
    yield from braid_cases()
    yield from bn_invariant_cases()
    yield "help", ["--help"]
    yield "verify-help", ["verify", "--help"]
    yield "tables.n16", ["--n", "16", "--dump-tables"]
    yield "tables.n16-json", ["--n", "16", "--json", "--dump-tables"]


def action_cases():
    rng = random.Random(20261020)
    for n in NS:
        head = ["--n", str(n)]
        relator = _text(quadrangle_relator(n).letters)
        for k, length in enumerate(LENGTHS):
            g = _element(rng, n)
            w = _word(rng, n, length)
            tag = f"act.n{n}.L{length}.{k}"
            yield f"{tag}.word", head + ["act", g, _text(w)]
            yield f"{tag}.word-json", head + ["--json", "act", g, _text(w)]
            yield f"{tag}.round-trip", head + ["act", g, _text(w + _inv(w))]
            yield f"{tag}.relator", head + ["act", g, relator]


def prime_cases():
    rng = random.Random(20261021)
    for n in PRIME_NS:
        head = ["--n", str(n)]
        identity, nu = "0;" + ",".join("0" * n), "1;" + ",".join("0" * n)
        elements = [_canonical_prime(n), _canonical_prime(n, 0)]
        elements += [_element(rng, n, bound=3) for _ in range(3)]
        for k, u in enumerate(elements):
            tau = nu if k < 2 else rng.choice((identity, nu))
            tag = f"prime.n{n}.{k}"
            yield f"{tag}.prime-check", head + ["prime-check", u, tau]
            yield f"{tag}.prime-check-json", head + ["--json", "prime-check", u, tau]
            yield f"{tag}.prop71", head + ["--bound", "3", "prop71-check", u]
            yield f"{tag}.prop71-json", head + ["--json", "prop71-check", u, "--bound", "3"]


def _half_twist(rng, index, conj):
    return f"{index}|{_text(conj)}|{rng.choice('+-')}"


def braid_cases():
    rng = random.Random(20261022)
    for n in BN_NS:
        head = ["--n", str(n)]
        transversal = list(transversal_commutator(n).letters)
        for length in (12, 100):
            w = _word(rng, n, length)
            i, cut = rng.randint(1, n - 2), rng.randint(0, length)
            relation = [i, i + 1, i, -(i + 1), -i, -(i + 1)]  # trivial in B_n
            same = w[:cut] + relation + w[cut:]
            other = w[:cut] + transversal + w[cut:]
            pure = w + w[::-1]
            tag = f"bn.n{n}.L{length}"
            yield f"{tag}.eq-same", head + ["--json", "eq", "--group", "bn", _text(w), _text(same)]
            yield f"{tag}.eq-transversal", head + ["--json", "eq", "--group", "bn",
                                                   _text(w), _text(other)]
            yield f"{tag}.eq-human", head + ["eq", "--group", "bn", _text(same), _text(other)]
            yield f"{tag}.lk", head + ["lk", _text(pure)]
            yield f"{tag}.lk-json", head + ["--json", "lk", _text(pure)]
        for kind in ("consecutive", "disjoint", "random"):
            conj = _word(rng, n, 6)
            i, j = rng.randint(1, n - 3), rng.randint(1, n - 1)
            j = {"consecutive": i + 1, "disjoint": i + 2}.get(kind, j)
            ht1 = _half_twist(rng, i, conj)
            ht2 = _half_twist(rng, j, _word(rng, n, 6) if kind == "random" else conj)
            tag = f"classify.n{n}.{kind}"
            yield f"{tag}", head + ["classify", ht1, ht2]
            yield f"{tag}-json", head + ["--json", "classify", ht1, ht2]
        for k in range(2):
            g = _element(rng, n, bound=3)
            yield f"lift.n{n}.{k}", head + ["lift", g]
            yield f"lift.n{n}.{k}-json", head + ["--json", "lift", g]
        yield f"tables.n{n}", head + ["--dump-tables"]
        yield f"tables.n{n}-json", head + ["--json", "--dump-tables"]


def _twisted_pair(rng, n, kind, power):
    """A frame pair of the given kind at a random place a, both half-twists
    conjugated by the twist (a, -(a+1))^power, with random polarizations."""
    a = rng.randint(1, n - 2 if kind == "consecutive" else n - 3)
    index1, index2, conj2 = {"consecutive": (a, a + 1, []), "disjoint": (a, a + 2, []),
                             "transversal": (a + 1, a + 1, [a, a + 2])}[kind]
    twist = [a, -(a + 1)] * power
    return _half_twist(rng, index1, twist), _half_twist(rng, index2, conj2 + twist)


def bn_invariant_cases():
    rng = random.Random(20261023)
    for n in INVARIANT_NS:
        head = ["--n", str(n)]
        w = _word(rng, n, 100)
        cut = rng.randint(0, 100)
        i, j = rng.sample(range(1, n), 2)
        generator = w[:cut] + [rng.choice((1, -1)) * rng.randint(1, n - 1)] + w[cut:]
        moved = w[:cut] + [i, -j] + w[cut:]  # same exponent sum, another permutation
        tag = f"bn-invariant.n{n}"
        for kind, other in (("generator", generator), ("perm", moved)):
            yield f"{tag}.{kind}", head + ["--json", "eq", "--group", "bn", _text(w), _text(other)]
            yield f"{tag}.{kind}-human", head + ["eq", "--group", "bn", _text(other), _text(w)]
    for n in LONG_BN_NS:
        head = ["--n", str(n)]
        w = _word(rng, n, 300)
        i, cut = rng.randint(1, n - 2), rng.randint(0, 300)
        same = w[:cut] + [i, i + 1, i, -(i + 1), -i, -(i + 1)] + w[cut:]
        other = w[:cut] + list(transversal_commutator(n).letters) + w[cut:]
        tag = f"bn.n{n}.L300"
        yield f"{tag}.eq-same", head + ["--json", "eq", "--group", "bn", _text(w), _text(same)]
        yield f"{tag}.eq-transversal", head + ["eq", "--group", "bn", _text(w), _text(other)]
    for n in BN_NS:
        head = ["--n", str(n)]
        for power in (1, 2, 3):
            for kind in ("consecutive", "disjoint", "transversal"):
                ht1, ht2 = _twisted_pair(rng, n, kind, power)
                tag = f"classify-twisted.n{n}.p{power}.{kind}"
                yield f"{tag}", head + ["classify", ht1, ht2]
                yield f"{tag}-json", head + ["--json", "classify", ht1, ht2]


def render():
    """The golden file's text: one block per case, name, exit code, stdout."""
    blocks = []
    with mock.patch.dict(os.environ, COLUMNS="80"):
        for name, argv in cases():
            code, out, err = invoke(argv)
            assert err == "", (name, err)
            blocks.append(f"== {name} exit={code}\n{out}")
    return "".join(blocks)


def test_scan_cli_output_is_pinned():
    expected = GOLDEN.read_text().split("== ")
    actual = render().split("== ")
    assert len(actual) == len(expected)
    for got, want in zip(actual, expected):
        assert got == want
