"""Per-layer rows: the cost of one call of each layer's public functions on
fixed-size seeded inputs, timed directly with tracing off (a span wrapper
would add its own cost to calls of a few microseconds).

`scale` shrinks every input for smoke tests; the row names keep the nominal
sizes.
"""

from __future__ import annotations

import contextlib
import io
import random
import statistics
import time
from typing import Callable

from tbraid import braid, cli, gn, primes, quotient

from workloads import random_element, random_word

NF_NS = (4, 8, 16)
NF_LENGTHS = (100, 1000, 10000)
NF_LETTERS_PER_ROW = 10000   # letters scanned per (n, L) row, at least one word
CLI_PARSE_REPEATS = 20

# X_1^2 is pure with exponent sum 2, so its normal form is (identity, s_1).
TRIVIAL_NF_OUTPUT = "perm: 1 2 3 4\nbit: 0\nvec: 1 0 0 0\n"


def _median_s(calls: list[Callable[[], object]]) -> float:
    times = []
    for call in calls:
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def cli_parse_s(tally) -> float:
    """Median time from entering cli.run to the start of the subcommand, for
    the trivial query `--n 4 nf "1 1"`, whose output is checked."""
    real = cli.normal_form
    entered: list[float] = []

    def first_call(w):
        entered.append(time.perf_counter())
        return real(w)

    times = []
    cli.normal_form = first_call
    try:
        for _ in range(CLI_PARSE_REPEATS):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                start = time.perf_counter()
                code = cli.run(["--n", "4", "nf", "1 1"])
            times.append(entered[-1] - start)
            tally.record(code == 0 and out.getvalue() == TRIVIAL_NF_OUTPUT, "cli nf '1 1'")
    finally:
        cli.normal_form = real
    return statistics.median(times)


def rows(seed: int, tally, scale: float = 1.0) -> dict[str, float]:
    rng = random.Random(f"layers/{seed}")
    out: dict[str, float] = {}

    n = 8
    samples = [(random_element(rng, n), rng.randint(1, n - 1), rng.choice((1, -1)))
               for _ in range(max(20, round(2000 * scale)))]
    out["gn.act_generator.us_per_call"] = 1e6 * _median_s(
        [lambda s=s: gn.act_generator(*s) for s in samples])
    pairs = [(random_element(rng, n), random_element(rng, n)) for _ in range(len(samples))]
    out["gn.gn_mul.us_per_call"] = 1e6 * _median_s([lambda p=p: gn.gn_mul(*p) for p in pairs])

    for n in NF_NS:
        for nominal in NF_LENGTHS:
            length = max(8, round(nominal * scale))
            words = [random_word(rng, n, length)
                     for _ in range(max(1, round(NF_LETTERS_PER_ROW * scale) // length))]
            per_letter = []
            for w in words:
                start = time.perf_counter()
                quotient.normal_form(w)
                per_letter.append((time.perf_counter() - start) / length)
            out[f"quotient.normal_form.us_per_letter.n{n}.L{nominal}"] = (
                1e6 * statistics.median(per_letter))

    n = 6
    elements = [quotient.normal_form(random_word(rng, n, max(8, round(100 * scale))))
                for _ in range(5)]
    out["quotient.lift.ms_per_call"] = 1e3 * _median_s(
        [lambda e=e: quotient.lift(e.g) for e in elements])
    out["quotient.tbn_mul.ms_per_call"] = 1e3 * _median_s(
        [lambda a=a, b=b: quotient.tbn_mul(a, b) for a, b in zip(elements, elements[1:])])
    out["quotient.tbn_inv.ms_per_call"] = 1e3 * _median_s(
        [lambda e=e: quotient.tbn_inv(e) for e in elements])

    n = 8
    words = [random_word(rng, n, max(8, round(100 * scale))) for _ in range(200)]
    out["braid.psi.us_per_call"] = 1e6 * _median_s([lambda w=w: braid.psi(w) for w in words])
    perms = [braid.Perm(n, tuple(rng.sample(range(1, n + 1), n))) for _ in range(200)]
    out["braid.tits_lift.us_per_call"] = 1e6 * _median_s(
        [lambda p=p: braid.tits_lift(p) for p in perms])

    n = 5
    G = primes.GnInstance(n)
    pair = primes.canonical_prime(n)
    out["primes.check_prime_frame.ms_per_call"] = 1e3 * _median_s(
        [lambda: primes.check_prime_frame(G, pair.h, pair.tau)] * 10)
    for bound, repeats in ((3, 5), (4, 3)):
        out[f"primes.check_prop71.ms_per_call.b{bound}"] = 1e3 * _median_s(
            [lambda b=bound: primes.check_prop71(G, pair.h, bound=b)] * repeats)
    targets = [braid.HalfTwist(random_word(rng, n, 4), rng.randint(1, n - 1)) for _ in range(10)]
    out["primes.transport.ms_per_call"] = 1e3 * _median_s(
        [lambda t=t: primes.transport(G, pair, t) for t in targets])

    out["cli.parse_s"] = cli_parse_s(tally)
    return out
