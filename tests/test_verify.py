"""The verification suites' recorded check names, their order, and failure."""

import contextlib
import io

import pytest

from tbraid import quotient, verify
from tbraid.braid import frame, inv_word
from tbraid.cli import run
from tbraid.gn import gn_s1, gn_u
from tbraid.primes import Checks, GnInstance, make_pair, prime_identity_suite

SUITE_CHECKS = {
    "artin": ["braid-relations", "inverse-pairs", "descending-invariant",
              "injectivity-sample", "reduction-confluence", "z-forms-agree",
              "centralizer-generators-commute", "linking-conjugation"],
    "tits": ["positive-section", "well-defined", "length-additivity"],
    "gn-presentation": ["presentation-relations", "commutator-q-law", "powers-and-inverses",
                        "sij-commutator-table", "hurwitz-moves", "embedding-chain"],
    "gn-action": ["multiplicative", "braid-relations", "quadrangle-trivial",
                  "squares-are-conjugation"],
    "quotient": ["squared-generators", "homomorphism-on-pure", "equivariance",
                 "linking-determines-abelian", "section-independence", "lift-roundtrip",
                 "degree-law", "central-element", "adjacent-squares",
                 "equal-endpoints-squares"],
    "kernel": ["quadrangle-conjugates", "transversal-conjugates", "non-kernel-rejected",
               "kernel-words-bn-nontrivial"],
    "primes": ["canonical-prime-passes", "mutants-fail", "conjugation-stability",
               "coherent-pairs-share-tau", "anti-coherent-inverts", "identity-suite",
               "transport-uniqueness", "generation-criterion", "frame-family-transport"],
}

IDENTITY_CONDITIONS = [
    "support-involution", "neighbour-inverse-square", "neighbour-commutator",
    "transport-support-inverse", "transport-orderly-adjacent", "transport-reversed-adjacent",
    "dichotomy-adjacent", "dichotomy-disjoint", "dichotomy-transversal",
    "frame-family-support", "frame-family-step-down", "frame-family-step-up",
    "frame-family-far", "frame-family-commutators", "centralizer-invariance",
    "simultaneous-conjugation",
]


def test_checks_fold_and_keep_first_call_order():
    checks = Checks()
    checks("a", True)
    checks("b", False)
    checks("a", False)
    checks("a", True)
    checks("b", True)
    assert list(checks.items()) == [("a", False), ("b", False)]


def test_suites_record_every_check_in_order_at_zero_cases():
    assert list(verify.SUITES) == list(SUITE_CHECKS)
    for name, fn in verify.SUITES.items():
        checks = fn(0, 0)
        assert list(checks) == SUITE_CHECKS[name], name
        assert all(v is True for v in checks.values()), name


@pytest.mark.parametrize("name", list(SUITE_CHECKS))
def test_suites_refuse_a_negative_case_count(name):
    with pytest.raises(ValueError, match="cases must be >= 0, got -3"):
        verify.SUITES[name](-3, 0)


def test_prime_identity_suite_reports_are_pinned():
    G = GnInstance(5)
    s1_pair = make_pair(G, gn_s1(5), frame(5, 1))
    u2_pair = make_pair(G, gn_u(5, 2), frame(5, 1))
    # The conditions that fail for each (pair, cases); all others pass.
    expected = {
        (s1_pair, 0): ("fail(neighbour-inverse-square)", {
            "neighbour-inverse-square", "neighbour-commutator", "frame-family-support",
            "frame-family-step-down", "frame-family-step-up", "frame-family-commutators"}),
        (s1_pair, 10): ("fail(neighbour-inverse-square)", {
            "neighbour-inverse-square", "neighbour-commutator", "transport-support-inverse",
            "transport-orderly-adjacent", "transport-reversed-adjacent", "dichotomy-adjacent",
            "frame-family-support", "frame-family-step-down", "frame-family-step-up",
            "frame-family-commutators"}),
        (u2_pair, 0): ("fail(support-involution)", {
            "support-involution", "neighbour-inverse-square", "neighbour-commutator",
            "frame-family-support", "frame-family-step-down", "frame-family-step-up",
            "frame-family-far", "frame-family-commutators", "centralizer-invariance"}),
        (u2_pair, 10): ("fail(support-involution)", {
            "support-involution", "neighbour-inverse-square", "neighbour-commutator",
            "transport-support-inverse", "transport-orderly-adjacent",
            "transport-reversed-adjacent", "dichotomy-adjacent", "frame-family-support",
            "frame-family-step-down", "frame-family-step-up", "frame-family-far",
            "frame-family-commutators", "centralizer-invariance", "simultaneous-conjugation"}),
    }
    for (pair, cases), (verdict, failing) in expected.items():
        report = prime_identity_suite(G, pair, cases=cases, seed=0)
        assert report.to_json() == {
            "verdict": verdict,
            "conditions": {name: name not in failing for name in IDENTITY_CONDITIONS},
            "bound": None,
            "seed": 0,
            "witness": None,
        }
        assert list(report.conditions) == IDENTITY_CONDITIONS


def _inverted_section(monkeypatch):
    """Make the suites' positive section return the inverse of each lift."""
    real = verify.tits_lift
    monkeypatch.setattr(verify, "tits_lift", lambda p, rng=None: inv_word(real(p, rng)))


def test_a_wrong_section_fails_exactly_the_checks_that_use_it(monkeypatch):
    _inverted_section(monkeypatch)
    uses_section = {("tits", "positive-section"), ("tits", "well-defined"),
                    ("tits", "length-additivity"), ("quotient", "section-independence")}
    for name, fn in verify.SUITES.items():
        checks = fn(5, 0)
        assert list(checks) == SUITE_CHECKS[name], name
        for check, passed in checks.items():
            assert passed is ((name, check) not in uses_section), (name, check)


def test_kernel_suite_rejects_a_scan_that_trivialises_even_words(monkeypatch):
    # Every even-length word gets the trivial normal form, so in_kernel
    # accepts even words whose permutation or exponent sum is nontrivial.
    real = quotient._scan
    monkeypatch.setattr(quotient, "_scan", lambda start, letters: (
        quotient._identity(start.n) if len(letters) % 2 == 0 else real(start, letters)))
    checks = verify.kernel_suite(20, 0)
    assert checks["non-kernel-rejected"] is False
    assert checks["quadrangle-conjugates"] and checks["transversal-conjugates"]


def test_verify_command_reports_a_failing_suite(monkeypatch):
    _inverted_section(monkeypatch)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run(["--n", "5", "verify", "tits", "--cases", "5"])
    assert code == 1
    assert out.getvalue().splitlines() == [
        "[FAIL] tits",
        "    positive-section: FAIL",
        "    well-defined: FAIL",
        "    length-additivity: FAIL",
        "all: FAIL",
    ]
