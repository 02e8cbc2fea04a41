"""
Command-line surface.

Shared text formats:

- braid words: whitespace-separated signed integers ("1 -2 1 1"); the empty
  string is the identity; "-" reads the word from stdin;
- group elements: "bit;v0,v1,...,v{n-1}", e.g. "1;0,1,1,0,0";
- half-twists: "i|w|p" with generator index i, conjugator word w and
  polarization p in {+, -}.

Exit codes: 0 for success / "equal" / pass, 1 for "not-equal" / fail,
2 for usage or format errors.  With --json exactly one JSON document is
written to stdout.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from typing import Callable

from .braid import (
    BraidWord,
    HalfTwist,
    bn_equal,
    classify_pair,
    format_word,
    linking_matrix,
    parse_word,
)
from .gn import act_word, action_images, format_element, gn_nu, parse_element, s_ij
from .quotient import in_kernel, lift, normal_form, tbn_equal

# The names of verify.SUITES: only the commands that need primes or verify import them.
SUITE_NAMES = ("artin", "tits", "gn-presentation", "gn-action", "quotient", "kernel", "primes")


def _emit(args, payload, human: str) -> None:
    if args.json:
        import json
        sys.stdout.write(json.dumps(payload, separators=(",", ":")) + "\n")
    else:
        sys.stdout.write(human + "\n")


def _read_word(args, text: str) -> BraidWord:
    if text == "-":
        text = sys.stdin.read()
    return parse_word(text, args.n)


def _parse_half_twist(text: str, n: int) -> HalfTwist:
    parts = text.split("|")
    if len(parts) != 3:
        raise ValueError(f"bad half-twist {text!r}: expected 'i|word|+' or 'i|word|-'")
    index_text, word_text, pol = parts
    try:
        index = int(index_text)
    except ValueError:
        raise ValueError(f"bad half-twist index {index_text!r}") from None
    if pol not in ("+", "-"):
        raise ValueError(f"bad half-twist polarization {pol!r}: expected '+' or '-'")
    return HalfTwist(parse_word(word_text, n), index, pol == "-")


def _require_n(args, minimum: int, why: str) -> None:
    if args.n is None:
        raise ValueError("--n is required for this command")
    if args.n < minimum:
        raise ValueError(f"{why} needs --n >= {minimum}, got {args.n}")


def _cmd_nf(args) -> int:
    _require_n(args, 4, "the quotient normal form")
    nf = normal_form(_read_word(args, args.word))
    record = {"perm": list(nf.perm.images), "bit": nf.g.bit, "vec": list(nf.g.vec)}
    human = (f"perm: {' '.join(str(x) for x in nf.perm.images)}\n"
             f"bit: {nf.g.bit}\nvec: {' '.join(str(x) for x in nf.g.vec)}")
    _emit(args, record, human)
    return 0


def _cmd_eq(args) -> int:
    minimum = 2 if args.group == "bn" else 4
    _require_n(args, minimum, "equality")
    w1 = _read_word(args, args.word1)
    w2 = _read_word(args, args.word2)
    equal = bn_equal(w1, w2) if args.group == "bn" else tbn_equal(w1, w2)
    verdict = "equal" if equal else "not-equal"
    _emit(args, verdict, verdict)
    return 0 if equal else 1


def _cmd_kernel(args) -> int:
    _require_n(args, 4, "kernel membership")
    answer = in_kernel(_read_word(args, args.word))
    verdict = "yes" if answer else "no"
    _emit(args, verdict, verdict)
    return 0 if answer else 1


def _cmd_act(args) -> int:
    _require_n(args, 4, "the coordinate action")
    g = parse_element(args.element, args.n)
    moved = act_word(g, _read_word(args, args.word))
    _emit(args, format_element(moved), format_element(moved))
    return 0


def _cmd_lift(args) -> int:
    _require_n(args, 4, "lifting")
    word = lift(parse_element(args.element, args.n))
    _emit(args, format_word(word), format_word(word))
    return 0


def _cmd_lk(args) -> int:
    _require_n(args, 2, "linking numbers")
    matrix = linking_matrix(_read_word(args, args.word))
    human = "\n".join(" ".join(str(x) for x in row) for row in matrix)
    _emit(args, [list(row) for row in matrix], human)
    return 0


def _cmd_classify(args) -> int:
    _require_n(args, 2, "classification")
    h1 = _parse_half_twist(args.ht1, args.n)
    h2 = _parse_half_twist(args.ht2, args.n)
    rel = classify_pair(h1, h2)
    record = dataclasses.asdict(rel)
    human = (f"commute: {rel.commute}\ntriple: {rel.triple}\n"
             f"common_endpoints: {rel.common_endpoints}\nlabel: {rel.label}")
    _emit(args, record, human)
    return 0


def _report_exit(args, report) -> int:
    human_lines = [f"verdict: {report.verdict}"]
    human_lines += [f"  {name}: {'ok' if value else 'FAIL'}"
                    for name, value in report.conditions.items()]
    _emit(args, report.to_json(), "\n".join(human_lines))
    return 0 if report.passed else 1


def _cmd_prime_check(args) -> int:
    from .primes import GnInstance, check_prime_frame
    _require_n(args, 4, "the frame criterion")
    G = GnInstance(args.n)
    u = parse_element(args.element, args.n)
    tau = parse_element(args.tau, args.n)
    return _report_exit(args, check_prime_frame(G, u, tau, seed=args.seed))


def _cmd_prop71_check(args) -> int:
    from .primes import GnInstance, check_prop71
    _require_n(args, 5, "the generation criterion")
    G = GnInstance(args.n)
    S = parse_element(args.element, args.n)
    return _report_exit(args, check_prop71(G, S, bound=args.bound, seed=args.seed))


def _cmd_verify(args) -> int:
    from .verify import SUITES
    names = list(SUITES) if args.suite == "all" else [args.suite]
    results = {name: SUITES[name](args.cases, args.seed) for name in names}
    ok = all(all(checks.values()) for checks in results.values())
    payload = {"suites": results, "cases": args.cases, "seed": args.seed, "pass": ok}
    lines = []
    for name, checks in results.items():
        suite_ok = all(checks.values())
        lines.append(f"[{'pass' if suite_ok else 'FAIL'}] {name}")
        for check, value in checks.items():
            lines.append(f"    {check}: {'pass' if value else 'FAIL'}")
    lines.append("all: pass" if ok else "all: FAIL")
    _emit(args, payload, "\n".join(lines))
    return 0 if ok else 1


def _cmd_dump_tables(args) -> int:
    _require_n(args, 4, "table dumps")
    n = args.n
    sij = {f"s_{i}{j}": format_element(s_ij(n, i, j))
           for i in range(1, n) for j in range(i + 1, n + 1)}
    actions = {
        f"X_{i}": {f"g{k}": format_element(img)
                   for k, img in enumerate(action_images(n, i))}
        for i in range(1, n)
    }
    payload = {"n": n, "nu": format_element(gn_nu(n)), "s_ij": sij, "actions": actions}
    human = [f"nu = {format_element(gn_nu(n))}"]
    human += [f"{k} = {v}" for k, v in sij.items()]
    for gen, images in actions.items():
        human.append(f"{gen}-action:")
        human += [f"  {k} -> {v}" for k, v in images.items()]
    _emit(args, payload, "\n".join(human))
    return 0


def at_least(minimum: int) -> Callable[[str], int]:
    """The argparse type of an integer >= minimum, named count in argparse's
    messages (--cases needs 1: no sampled case would pass vacuously)."""
    def count(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        return value
    return count


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tb",
        description="Braid group words, the transversal-commutator quotient, "
                    "normal forms and prime-element checks.",
    )
    parser.add_argument("--n", type=int, default=None, help="number of strands")
    parser.add_argument("--json", action="store_true", help="emit one JSON document")
    parser.add_argument("--seed", type=int, default=0, help="randomness seed")
    parser.add_argument("--cases", type=at_least(1), default=200,
                        help="randomized-suite size for verify")
    parser.add_argument("--bound", type=at_least(0), default=3,
                        help="orbit bound for the generation criterion")
    parser.add_argument("--dump-tables", action="store_true",
                        help="print the coordinate and action tables and exit")
    sub = parser.add_subparsers(dest="command", required=False)

    p = sub.add_parser("nf", help="normal form of a word in the quotient")
    p.add_argument("word")
    p.set_defaults(func=_cmd_nf)

    p = sub.add_parser("eq", help="decide equality of two words")
    p.add_argument("--group", choices=("bn", "tbn"), default="tbn")
    p.add_argument("word1")
    p.add_argument("word2")
    p.set_defaults(func=_cmd_eq)

    p = sub.add_parser("kernel", help="is the word trivial in the quotient?")
    p.add_argument("word")
    p.set_defaults(func=_cmd_kernel)

    p = sub.add_parser("act", help="act with a braid word on a coordinate element")
    p.add_argument("element")
    p.add_argument("word")
    p.set_defaults(func=_cmd_act)

    p = sub.add_parser("lift", help="a pure word with the given coordinate")
    p.add_argument("element")
    p.set_defaults(func=_cmd_lift)

    p = sub.add_parser("lk", help="linking matrix of a pure braid word")
    p.add_argument("word")
    p.set_defaults(func=_cmd_lk)

    p = sub.add_parser("classify", help="relation record of two half-twists")
    p.add_argument("ht1")
    p.add_argument("ht2")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("prime-check", help="frame criterion for a prime element")
    p.add_argument("element")
    p.add_argument("tau")
    p.set_defaults(func=_cmd_prime_check)

    p = sub.add_parser("prop71-check", help="generation criterion (n >= 5)")
    p.add_argument("element")
    # A subcommand copy of a global option leaves the global value in place
    # unless it is given, and then wins.
    p.add_argument("--bound", type=at_least(0), default=argparse.SUPPRESS)
    p.set_defaults(func=_cmd_prop71_check)

    p = sub.add_parser("verify", help="run verification suites")
    p.add_argument("suite", nargs="?", default="all",
                   choices=sorted(SUITE_NAMES) + ["all"])
    p.add_argument("--cases", type=at_least(1), default=argparse.SUPPRESS)
    p.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    p.set_defaults(func=_cmd_verify)

    return parser


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.dump_tables:
            return _cmd_dump_tables(args)
        if args.command is None:
            parser.error("a subcommand is required")
        return args.func(args)
    except SystemExit as exc:  # argparse usage errors and --help
        return int(exc.code or 0)
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
