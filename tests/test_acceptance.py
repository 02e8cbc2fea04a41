"""Acceptance criteria, one test per criterion.

Each test prints one pass/fail line with its runtime and enforces the stated
budget.  Randomized checks run at the stated sizes with a fixed seed.
"""

import json
import random
import subprocess
import sys
import time

from tbraid.braid import (
    BraidWord,
    HalfTwist,
    bn_equal,
    concat,
    conj_word,
    format_word,
    frame,
    power_word,
    transversal_commutator,
    transversal_pair,
)
from tbraid.gn import gn_identity, gn_mul, gn_nu, gn_s1, gn_u
from tbraid.primes import (
    GnInstance,
    axiom_spot_check,
    canonical_prime,
    check_prime_frame,
    check_prop71,
    make_pair,
    prime_identity_suite,
    transport,
    transport_uniqueness,
)
from tbraid.quotient import c_word, in_kernel, normal_form, tbn_equal
from tbraid import verify


class Criterion:
    def __init__(self, number: int, budget: float):
        self.number = number
        self.budget = budget
        self.start = time.perf_counter()

    def finish(self, ok: bool) -> None:
        elapsed = time.perf_counter() - self.start
        status = "PASS" if ok and elapsed < self.budget else "FAIL"
        print(f"criterion {self.number}: {status} ({elapsed:.2f}s / budget {self.budget:.0f}s)",
              flush=True)
        assert ok
        assert elapsed < self.budget, f"criterion {self.number} exceeded {self.budget}s"


def test_criterion_1_artin_harness():
    crit = Criterion(1, 5.0)
    checks = verify.artin_suite(cases=500, seed=0)
    ok = checks["braid-relations"] and checks["inverse-pairs"]
    ok = ok and checks["descending-invariant"]
    crit.finish(ok)


def test_criterion_2_transversal_commutator_identity():
    crit = Criterion(2, 1.0)
    ok = True
    for n in range(4, 7):
        lhs = transversal_commutator(n)
        x2inv = BraidWord(n, (-2,))
        rhs = concat(
            power_word(conj_word(BraidWord(n, (3,)), x2inv), -2),
            power_word(conj_word(BraidWord(n, (1,)), x2inv), -2),
            BraidWord(n, (1, 1, 3, 3)),
        )
        ok = ok and bn_equal(lhs, rhs)
        ok = ok and not bn_equal(lhs, BraidWord(n, ()))
        ok = ok and tbn_equal(lhs, BraidWord(n, ()))
    crit.finish(ok)


def test_criterion_3_kernel_suite():
    crit = Criterion(3, 10.0)
    checks = verify.kernel_suite(cases=100, seed=0)
    crit.finish(all(checks.values()))


def test_criterion_4_coordinate_group_suite():
    crit = Criterion(4, 10.0)
    ok = all(verify.gn_presentation_suite(cases=1000, seed=0).values())
    ok = ok and all(verify.gn_action_suite(cases=300, seed=0).values())
    crit.finish(ok)


def test_criterion_5_coordinate_map_coherence():
    crit = Criterion(5, 20.0)
    checks = verify.quotient_suite(cases=500, seed=0)
    ok = all(checks[name] for name in (
        "homomorphism-on-pure", "equivariance", "linking-determines-abelian",
        "lift-roundtrip", "section-independence"))
    crit.finish(ok)


def test_criterion_6_structure_constants():
    crit = Criterion(6, 10.0)
    rng = random.Random(0)
    ok = True
    for n in range(4, 8):
        c = c_word(n)
        nf = normal_form(c)
        ok = ok and nf.perm.is_identity() and nf.g == gn_nu(n)
        ok = ok and in_kernel(concat(c, c))
        for i in range(1, n):
            gen = BraidWord(n, (i,))
            ok = ok and tbn_equal(concat(c, gen), concat(gen, c))
    for _ in range(50):
        n = rng.randint(4, 7)
        b = BraidWord(n, tuple(rng.choice([1, -1]) * rng.randint(1, n - 1)
                               for _ in range(rng.randint(0, 8))))
        i = rng.randint(1, n - 2)
        y1 = conj_word(BraidWord(n, (i,)), b)
        y2 = conj_word(BraidWord(n, (i + 1,)), b)
        comm = concat(power_word(y1, 2), power_word(y2, 2),
                      power_word(y1, -2), power_word(y2, -2))
        nf = normal_form(comm)
        ok = ok and nf.perm.is_identity() and nf.g == gn_nu(n)
    from tbraid.braid import exponent_sum
    from tbraid.quotient import degree_decomposition

    for _ in range(500):
        n = rng.randint(4, 7)
        w = BraidWord(n, tuple(rng.choice([1, -1]) * rng.randint(1, n - 1)
                               for _ in range(rng.randint(0, 60))))
        ell, a0, _, _ = degree_decomposition(w)
        ok = ok and exponent_sum(w) == ell + 2 * a0
    crit.finish(ok)


def test_criterion_7_prime_machinery():
    crit = Criterion(7, 30.0)
    ok = True
    for n in range(4, 8):
        pair = canonical_prime(n)
        ok = ok and check_prime_frame(GnInstance(n), pair.h, pair.tau).verdict == "pass"

    G5 = GnInstance(5)
    h5 = canonical_prime(5).h
    mutants = [
        (h5, gn_identity(5), "fail(1)"),
        (h5, gn_s1(5), "fail(1)"),
        (gn_mul(h5, gn_nu(5)), gn_nu(5), "fail(2a)"),
        (gn_mul(gn_u(5, 1), gn_u(5, 2)), gn_nu(5), "fail(1)"),
        (transport(G5, canonical_prime(5), frame(5, 2)), gn_nu(5), "fail(1)"),
        (gn_s1(5), gn_nu(5), "fail(1)"),
    ]
    for candidate, tau, expected in mutants:
        ok = ok and check_prime_frame(G5, candidate, tau).verdict == expected

    rng = random.Random(0)
    from tbraid.braid import frame_transport, ht_conjugate
    from tbraid.primes import PolarizedPair

    _, partner = transversal_pair(6)
    transversal_to_x1 = ht_conjugate(partner, frame_transport(6, 2, 1))
    G6 = GnInstance(6)
    base = canonical_prime(6)
    for _ in range(50):
        b = BraidWord(6, tuple(rng.choice([1, -1]) * rng.randint(1, 5)
                               for _ in range(rng.randint(0, 6))))
        moved = PolarizedPair(G6.act(base.h, b.letters),
                              ht_conjugate(base.ht, b), base.tau)
        samples = [ht_conjugate(frame(6, j), b) for j in (2, 3, 4, 5)]
        samples.append(ht_conjugate(transversal_to_x1, b))
        report = axiom_spot_check(G6, moved.h, moved.ht, samples, tau=moved.tau)
        ok = ok and report.verdict == "pass"

    for n in (5, 6):
        G = GnInstance(n)
        for pair in (canonical_prime(n), make_pair(G, gn_u(n, 1), frame(n, 1))):
            report = prime_identity_suite(G, pair, cases=50, seed=0)
            ok = ok and report.passed
    crit.finish(ok)


def test_criterion_8_generation_criterion():
    crit = Criterion(8, 30.0)
    G = GnInstance(5)
    ok = check_prop71(G, canonical_prime(5).h, bound=3).verdict == "pass-up-to-bound(3)"
    ok = ok and check_prop71(G, gn_nu(5), bound=3).verdict == "fail(0)"
    ok = ok and check_prop71(G, gn_s1(5), bound=3).verdict == "fail(1a)"
    crit.finish(ok)


def test_criterion_9_transport_uniqueness():
    crit = Criterion(9, 10.0)
    ok = True
    for n in (5, 6):
        G = GnInstance(n)
        pair = canonical_prime(n)
        ok = ok and transport_uniqueness(G, pair, seed=0)
        reversed_target = HalfTwist(pair.ht.conj, pair.ht.index, True)
        anti = transport(G, pair, reversed_target)
        ok = ok and anti == gn_mul(G.inv(pair.h), pair.tau)
    crit.finish(ok)


def _cli(args: list[str]) -> tuple[int, str]:
    proc = subprocess.run([sys.executable, "-m", "tbraid.cli"] + args,
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout


def test_criterion_10_cli_conformance():
    crit = Criterion(10, 120.0)
    ok = True

    word = format_word(transversal_commutator(5))
    code, out = _cli(["--n", "5", "--json", "eq", "--group", "tbn", word, ""])
    ok = ok and code == 0 and out == '"equal"\n'

    code, out = _cli(["--n", "4", "--json", "nf", "1 1"])
    ok = ok and code == 0 and out == '{"perm":[1,2,3,4],"bit":0,"vec":[1,0,0,0]}\n'

    code, out = _cli(["--n", "5", "--json", "verify", "all",
                      "--cases", "200", "--seed", "0"])
    ok = ok and code == 0
    payload = json.loads(out)
    ok = ok and payload["pass"] is True
    ok = ok and set(payload["suites"]) == {
        "artin", "tits", "gn-presentation", "gn-action",
        "quotient", "kernel", "primes"}
    crit.finish(ok)
