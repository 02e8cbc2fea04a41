#!/usr/bin/env python3
"""The tbraid benchmark.

Run from the repository root:

    python3 bench/run.py --workload tbn-word-problem --seed 1 --seconds 10 --trace 0

Workloads (inputs drawn from --seed; every answer checked against one known
by construction):

- tbn-word-problem: nf, eq --group tbn and kernel queries in TB_n;
- bn-equality: bn_equal and classify_pair in B_n through the Artin action;
- verify-all: one `tb --n 5 --json verify all --cases 200 --seed <seed>`
  process;
- tbn-coordinates (not in BENCHMARK.json; run it by hand): lift, tbn_mul,
  tbn_inv, act_word, transport and the prime checkers on coordinates.

The in-process workloads run as a closed loop with one client: ROUND_DRAWS
rounds of queries (a fixed mix, see workloads.py) are drawn from the seed
before timing starts and then run in turn until --seconds of timed work,
scaled as below, have passed.  Only the query calls are timed; every round's
answers are checked after it.

Times are scaled to a nominal machine speed.  A shared host changes speed
by up to 1.7 times in spells (see reference.py), so a raw time says as much
about the other tenants as about the program.  The benchmark keeps itself and its
children on one CPU, and measures the machine's slowness right before and
after each timed interval: for a query, or a slice of the verify process, by
a fixed pure-Python computation in a reference process (reference.py); for
a start-up sample, by a bare interpreter start.  Each time is divided by the
mean of the two.  The unscaled values are in the notes.

With --trace 0 the run reports the end-to-end metrics:

- setup_s: median, over start-up samples spread across the run, of the time
  from starting a fresh interpreter to tbraid imported and the lazily cached
  tables built for the workload's strand counts (setup_probe.py);
- per-query latency: each query position of a round gets the median of its
  scaled latencies over the run's rounds;
- wall_s: the time of one round, the sum of the per-query latencies;
  throughput_qps is queries per round over wall_s;
- latency_p50_ms: the median per-query latency;
- latency_tail_ms: over all timed queries of the run, the latency at the
  highest percentile with ten queries beyond it (the notes name the
  percentile and the count);
- peak_rss_mb: peak resident memory of the process that ran the queries;
- cli_start_ms: the median over the start-up samples of the scaled wall time
  of one `tb` process answering `tb --n 4 nf "1 1"`.

On verify-all the single query is the verify process, so wall_s and both
latencies are its scaled time.

With --trace 1 it runs the rounds (or the verify command, in process)
untraced for half of --seconds and then as many rounds with span wrappers installed
(spans.py), and reports per-layer metrics: counts and self and busy times per
round from the traced pass, the tracing overhead (traced minus untraced time
of a round), and per-call rows on fixed inputs, timed untraced (layers.py).
Per-layer times are not scaled.

Human-readable notes come first: among them letters_per_s (input braid
letters per second of round time) and error_rate (wrong answers and raised
exceptions over answers checked).  The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.  The exit code is 0 if
every answer was right, 1 if any was wrong, and 2 if the benchmark could not
run (for example when src/tbraid is missing).
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import json
import os
import random
import resource
import select
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable

import reference

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"

WORKLOADS = ("tbn-word-problem", "bn-equality", "verify-all", "tbn-coordinates")
START_UP_SAMPLES = 12     # at least this many set-up and CLI start samples
TAIL_BEYOND = 10          # samples beyond the reported tail percentile
ROUND_DRAWS = 4           # rounds of inputs drawn per run, run in turn
CHILD_TIMEOUT_S = 60
VERIFY_TIMEOUT_S = 150
SLICE_S = 0.25            # the verify process runs in slices this long
VERIFY_CASES = 200
VERIFY_NS = (4, 5, 6, 7, 8)

# The shim of the `tb` console script, so the checkout needs no install.
TB = [sys.executable, "-c", "import sys; from tbraid.cli import main; sys.exit(main())"]
TRIVIAL_QUERY = ["--n", "4", "nf", "1 1"]

VERIFY_CHECKS = {
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

END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput_qps": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "cli_start_ms": "ms",
}


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


@dataclasses.dataclass
class Tally:
    """Answers checked against their known values."""

    attempted: int = 0
    failed: int = 0
    first_failure: str | None = None

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if self.first_failure is None:
                self.first_failure = what

    def check(self, query, answer, error) -> None:
        if error is not None:
            self.record(False, f"{query.kind}: raised {error!r}")
            return
        try:
            observed = query.observe(answer)
        except Exception as exc:  # a malformed answer is a wrong answer
            self.record(False, f"{query.kind}: answer {answer!r} unreadable ({exc!r})")
            return
        self.record(observed == query.expected,
                    f"{query.kind}: got {observed!r}, expected {query.expected!r}")

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


class Reference:
    """The reference process (reference.py), on the benchmark's CPU.  The
    caller stops it with close(), which waits until it has ended."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen([sys.executable, str(BENCH / "reference.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        self.samples: list[float] = []

    def slowness(self) -> float:
        """Time the reference computation once: its time over its nominal
        time, so 1.25 means the machine runs at 80% of the nominal speed."""
        self.proc.stdin.write(b"\n")
        self.proc.stdin.flush()
        readable, _, _ = select.select([self.proc.stdout], [], [], CHILD_TIMEOUT_S)
        line = self.proc.stdout.readline() if readable else b""
        if not line:
            raise BenchError("the reference process did not answer")
        self.samples.append(float(line))
        return self.samples[-1] / reference.NOMINAL_S

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=CHILD_TIMEOUT_S)
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()
            self.proc.stdout.close()


@dataclasses.dataclass
class Loop:
    latencies: list[list[float]]   # per round, per query position
    slowness: list[list[float]]    # the same: the machine's slowness during it
    letters: int

    @property
    def rounds(self) -> int:
        return len(self.latencies)

    @property
    def round_walls(self) -> list[float]:
        return [sum(row) for row in self.latencies]

    @property
    def timed_s(self) -> float:
        """Timed work so far, scaled: a run does the same amount of work
        however fast the machine runs, so the number of rounds, and with it
        the percentile of latency_tail_ms, depends on the program alone."""
        return sum(map(sum, self.scaled_latencies()))

    def typical_latencies(self) -> list[float]:
        """For each query position, the median over the rounds of its
        latency scaled to the nominal machine speed.  A position holds a
        query of one kind and size in every round, on inputs of ROUND_DRAWS
        draws, so this is the typical cost of that kind of query rather
        than of one draw.  The scaling removes the machine's changes of
        speed (see reference.py), and the median over rounds spread across
        the run what is left of them."""
        return [statistics.median(column) for column in zip(*self.scaled_latencies())]

    def scaled_latencies(self) -> list[list[float]]:
        return [[x / s for x, s in zip(row, slow)]
                for row, slow in zip(self.latencies, self.slowness)]


def closed_loop(make_round: Callable, key: str, seconds: float, tally: Tally,
                rounds: int | None = None, ref: Reference | None = None,
                around: Callable[[], contextlib.AbstractContextManager] = contextlib.nullcontext,
                between: Callable[[Loop], None] = lambda loop: None) -> Loop:
    """Draw ROUND_DRAWS rounds of queries from `key`, then run them in turn
    until `seconds` of scaled timed work (or exactly `rounds` rounds).  Only
    the query calls are timed.  With `ref`, the reference runs before the
    first query and after every query, outside their timed intervals, and a
    query's slowness is the mean of the samples just before and after it;
    without it the slowness is 1.  Every round's answers are checked after it, and
    `between` runs after each round."""
    draws = [make_round(random.Random(f"{key}/{i}")) for i in range(ROUND_DRAWS)]
    loop = Loop([], [], 0)
    while (loop.rounds < rounds if rounds is not None
           else loop.rounds == 0 or loop.timed_s < seconds):
        queries = draws[loop.rounds % ROUND_DRAWS]
        answers, latencies, slowness = [], [], []
        before = ref.slowness() if ref is not None else 1.0
        with around():
            clock = time.perf_counter
            for q in queries:
                start = clock()
                try:
                    answer, error = q.call(), None
                except Exception as exc:  # counted as a failed query
                    answer, error = None, exc
                latencies.append(clock() - start)
                answers.append((answer, error))
                after = ref.slowness() if ref is not None else 1.0
                slowness.append((before + after) / 2)
                before = after
        loop.latencies.append(latencies)
        loop.slowness.append(slowness)
        for q, (answer, error) in zip(queries, answers):
            tally.check(q, answer, error)
        loop.letters += sum(q.letters for q in queries)
        between(loop)
    return loop


def tail(samples: list[float]) -> tuple[float, float]:
    """The value at the highest percentile with TAIL_BEYOND samples beyond
    it, and that percentile (the maximum when there are too few samples)."""
    ordered = sorted(samples)
    if len(ordered) <= TAIL_BEYOND:
        return ordered[-1], 100.0
    index = len(ordered) - TAIL_BEYOND - 1
    return ordered[index], 100.0 * (index + 1) / len(ordered)


# ---------------------------------------------------------------------------
# child processes


def _child_env() -> dict[str, str]:
    return dict(os.environ, PYTHONPATH=str(SRC))


def _run_child(args: list[str], timeout: float):
    """Run a child to completion: its stdout, wall time, own resource usage
    and exit code.  The child is killed and reaped if it overruns."""
    start = time.perf_counter()
    proc = subprocess.Popen(args, stdout=subprocess.PIPE, env=_child_env())
    chunks = []
    try:
        while True:
            remaining = start + timeout - time.perf_counter()
            if remaining <= 0:
                raise BenchError(f"child {args[3:]} exceeded {timeout} s")
            readable, _, _ = select.select([proc.stdout], [], [], remaining)
            if readable:
                chunk = os.read(proc.stdout.fileno(), 1 << 16)
                if not chunk:
                    break
                chunks.append(chunk)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        if proc.returncode is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    return b"".join(chunks).decode(), wall, usage, proc.returncode


def _run_sliced(args: list[str], timeout: float, ref: Reference):
    """Run a long child to completion in slices of SLICE_S: between slices
    the child is stopped (SIGSTOP) and the reference sampled, so that each
    slice is scaled by the mean slowness just before and after it, as a
    query of the in-process loop is.  Returns its stdout, wall time (slices
    only), scaled time, own resource usage and exit code.  The child is
    killed and reaped if it overruns."""
    before = ref.slowness()
    start = time.perf_counter()
    proc = subprocess.Popen(args, stdout=subprocess.PIPE, env=_child_env())
    fd = proc.stdout.fileno()
    chunks, wall, scaled = [], 0.0, 0.0
    try:
        while True:
            ended = False
            while not ended and (remaining := start + SLICE_S - time.perf_counter()) > 0:
                readable, _, _ = select.select([fd], [], [], remaining)
                if readable:
                    chunk = os.read(fd, 1 << 16)
                    chunks.append(chunk)
                    ended = not chunk
            if not ended:
                os.kill(proc.pid, signal.SIGSTOP)
            _, status, usage = os.wait4(proc.pid, 0 if ended else os.WUNTRACED)
            stop = time.perf_counter()
            after = ref.slowness()
            wall += stop - start
            scaled += (stop - start) / ((before + after) / 2)
            before = after
            if not os.WIFSTOPPED(status):
                proc.returncode = os.waitstatus_to_exitcode(status)
                break
            if wall > timeout:
                raise BenchError(f"child {args[3:]} exceeded {timeout} s")
            os.kill(proc.pid, signal.SIGCONT)
            start = time.perf_counter()
        while chunk := os.read(fd, 1 << 16):   # what it wrote just before it ended
            chunks.append(chunk)
    finally:
        if proc.returncode is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    return b"".join(chunks).decode(), wall, scaled, usage, proc.returncode


def setup_seconds(ns) -> float:
    """Fresh interpreter to ready: import tbraid and build the tables for ns."""
    args = [sys.executable, str(BENCH / "setup_probe.py"), str(SRC), ",".join(map(str, ns))]
    start = time.perf_counter()
    proc = subprocess.Popen(args, stdout=subprocess.PIPE, env=_child_env())
    try:
        readable, _, _ = select.select([proc.stdout], [], [], CHILD_TIMEOUT_S)
        line = proc.stdout.readline() if readable else b""
        elapsed = time.perf_counter() - start
        proc.wait(timeout=CHILD_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if line != b"ready\n" or proc.returncode != 0:
        raise BenchError("the set-up probe did not report ready")
    return elapsed


def interpreter_start_slowness() -> float:
    """The time of a bare interpreter start (`python3 -c pass`) over its
    nominal time: the machine's slowness at starting processes.  It tracks
    the spells of a shared host in process start-up, which the pure-Python
    reference does not."""
    _, wall, _, code = _run_child([sys.executable, "-c", "pass"], CHILD_TIMEOUT_S)
    if code != 0:
        raise BenchError("a bare interpreter did not start")
    return wall / reference.INTERPRETER_START_NOMINAL_S


def cli_start_seconds(tally: Tally) -> float:
    """One `tb` process answering the trivial query; its output is checked."""
    from layers import TRIVIAL_NF_OUTPUT

    out, wall, _, code = _run_child(TB + TRIVIAL_QUERY, CHILD_TIMEOUT_S)
    tally.record(code == 0 and out == TRIVIAL_NF_OUTPUT, "tb --n 4 nf '1 1'")
    return wall


def verify_args(seed: int, cases: int) -> list[str]:
    return ["--n", "5", "--json", "verify", "all", "--cases", str(cases), "--seed", str(seed)]


def verify_output_ok(text: str, seed: int, cases: int) -> bool:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError:
        return False
    return (doc.get("pass") is True and doc.get("seed") == seed and doc.get("cases") == cases
            and list(doc.get("suites", {})) == list(VERIFY_CHECKS)
            and all(list(doc["suites"][s]) == checks
                    and all(v is True for v in doc["suites"][s].values())
                    for s, checks in VERIFY_CHECKS.items()))


def run_cli_in_process(args: list[str]) -> tuple[float, str, int]:
    from tbraid import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        start = time.perf_counter()
        code = cli.run(args)
        wall = time.perf_counter() - start
    return wall, out.getvalue(), code


# ---------------------------------------------------------------------------
# the two kinds of run


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(workload: str, seed: int, seconds: float, tally: Tally, notes: list[str],
               scale: float) -> dict:
    import workloads
    from setup_probe import build_tables

    ns = VERIFY_NS if workload == "verify-all" else workloads.ROUNDS[workload][1]
    setups: list[tuple[float, float]] = []       # (seconds, slowness)
    cli_starts: list[tuple[float, float]] = []
    ref = Reference()
    try:
        def sample_start_up() -> None:
            """One set-up and one CLI start sample, each scaled by the mean
            of the bare interpreter starts just before and after it."""
            before = interpreter_start_slowness()
            setup = setup_seconds(ns)
            between = interpreter_start_slowness()
            cli_start = cli_start_seconds(tally)
            after = interpreter_start_slowness()
            setups.append((setup, (before + between) / 2))
            cli_starts.append((cli_start, (between + after) / 2))

        def spread_start_up(loop: Loop) -> None:
            """Take the start-up samples evenly over the timed rounds."""
            if loop.timed_s >= len(setups) * seconds / START_UP_SAMPLES:
                sample_start_up()

        if workload == "verify-all":
            # Half the start-up samples before the verify process and half
            # after it, so that a spell of load on the machine spoils at most
            # one half.
            for _ in range(START_UP_SAMPLES // 2):
                sample_start_up()
            cases = max(1, round(VERIFY_CASES * scale))
            out, wall, scaled, usage, code = _run_sliced(TB + verify_args(seed, cases),
                                                         VERIFY_TIMEOUT_S, ref)
            tally.record(code == 0 and verify_output_ok(out, seed, cases), "tb verify all")
            peak_kb = usage.ru_maxrss
            while len(setups) < START_UP_SAMPLES:
                sample_start_up()
            raw = [wall]
            latencies = typical = [scaled]
        else:
            make_round = workloads.ROUNDS[workload][0]
            build_tables(ns)
            loop = closed_loop(lambda rng: make_round(rng, scale), f"{workload}/{seed}",
                               seconds, tally, ref=ref, between=spread_start_up)
            latencies = [x for row in loop.scaled_latencies() for x in row]
            typical = loop.typical_latencies()
            raw = [statistics.median(column) for column in zip(*loop.latencies)]
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            notes.append(f"rounds: {loop.rounds}; round wall min {min(loop.round_walls):.3f} s, "
                         f"median {statistics.median(loop.round_walls):.3f} s")
            notes.append(f"letters_per_s: {loop.letters / sum(loop.round_walls):.1f}")
            while len(setups) < START_UP_SAMPLES:
                sample_start_up()
    finally:
        ref.close()

    tail_s, percentile = tail(latencies)
    notes.append(f"queries: {len(latencies)} over {len(typical)} query positions; "
                 f"latency_tail_ms is the p{percentile:.2f} of all {len(latencies)}")
    slowness = sorted(x / reference.NOMINAL_S for x in ref.samples)
    notes.append(f"slowness: median {statistics.median(slowness):.3f} over {len(slowness)} "
                 f"reference samples (min {slowness[0]:.3f}, max {slowness[-1]:.3f}); unscaled: "
                 f"wall_s {sum(raw):.4f}, setup_s {statistics.median(x for x, _ in setups):.4f}, "
                 f"cli_start_ms {1e3 * statistics.median(x for x, _ in cli_starts):.2f}")
    values = {
        "setup_s": statistics.median(x / s for x, s in setups),
        "throughput_qps": len(typical) / sum(typical),
        "latency_p50_ms": 1e3 * statistics.median(typical),
        "latency_tail_ms": 1e3 * tail_s,
        "wall_s": sum(typical),
        "peak_rss_mb": peak_kb / 1024,
        "cli_start_ms": 1e3 * statistics.median(x / s for x, s in cli_starts),
    }
    return {name: _metric(values[name], unit) for name, unit in END_TO_END_UNITS.items()}


PER_LAYER_UNITS = {
    "gn.act_generator.calls": "count",
    "gn.act_generator.us_per_call": "us",
    "gn.gn_mul.us_per_call": "us",
    **{f"quotient.normal_form.us_per_letter.n{n}.L{length}": "us"
       for n in (4, 8, 16) for length in (100, 1000, 10000)},
    "quotient.normal_form.busy_s": "s",
    "quotient.normal_form.letters": "count",
    "quotient.lift.ms_per_call": "ms",
    "quotient.tbn_mul.ms_per_call": "ms",
    "quotient.tbn_inv.ms_per_call": "ms",
    "braid.artin_images.calls": "count",
    "braid.artin_images.self_ms": "ms",
    "braid.artin_images.letters": "count",
    "braid.artin_images.image_letters_max": "count",
    "freegroup.image_letters_total": "count",
    "braid.bn_equal.busy_s": "s",
    "braid.classify_pair.busy_s": "s",
    "braid.psi.us_per_call": "us",
    "braid.tits_lift.us_per_call": "us",
    "primes.check_prime_frame.ms_per_call": "ms",
    "primes.check_prop71.ms_per_call.b3": "ms",
    "primes.check_prop71.ms_per_call.b4": "ms",
    "primes.transport.ms_per_call": "ms",
    "primes.axiom_spot_check.busy_s": "s",
    "primes.prime_identity_suite.busy_s": "s",
    **{f"verify.{suite}.s": "s" for suite in VERIFY_CHECKS},
    "cli.parse_s": "s",
    **{f"{module}.self_s": "s" for module in ("braid", "gn", "quotient", "primes", "verify")},
    "trace.overhead_s": "s",
    "trace.overhead_share": "ratio",
}


def per_layer(workload: str, seed: int, seconds: float, tally: Tally, notes: list[str],
              scale: float) -> dict:
    import layers
    import spans
    import workloads
    from setup_probe import build_tables

    tracer = spans.Tracer()
    if workload == "verify-all":
        cases = max(1, round(VERIFY_CASES * scale))
        build_tables(VERIFY_NS)
        untraced, out, code = run_cli_in_process(verify_args(seed, cases))
        tally.record(code == 0 and verify_output_ok(out, seed, cases), "verify all")
        with spans.installed(tracer):
            traced, out, code = run_cli_in_process(verify_args(seed, cases))
        tally.record(code == 0 and verify_output_ok(out, seed, cases), "verify all, traced")
        rounds = 1
    else:
        make_round, ns = workloads.ROUNDS[workload]
        build_tables(ns)
        key = f"{workload}/{seed}"
        # Half the time untraced, then as many rounds traced.
        base = closed_loop(lambda rng: make_round(rng, scale), key, seconds / 2, tally)
        again = closed_loop(lambda rng: make_round(rng, scale), key, seconds, tally,
                            rounds=base.rounds, around=lambda: spans.installed(tracer))
        untraced, traced = sum(base.typical_latencies()), sum(again.typical_latencies())
        rounds = again.rounds
    notes.append(f"per round: untraced wall {untraced:.3f} s, traced wall {traced:.3f} s; "
                 f"counts and times below are per round, over {rounds} traced rounds")

    def stat(name: str) -> spans.SpanStat:
        total = tracer.stat(name)
        return spans.SpanStat(calls=total.calls // rounds, total_s=total.total_s / rounds,
                              self_s=total.self_s / rounds, busy_s=total.busy_s / rounds,
                              letters=total.letters // rounds)

    values = layers.rows(seed, tally, scale)
    values.update({
        "gn.act_generator.calls": stat("gn.act_generator").calls,
        "quotient.normal_form.busy_s": stat("quotient.normal_form").busy_s,
        "quotient.normal_form.letters": stat("quotient.normal_form").letters,
        "braid.artin_images.calls": stat("braid.artin_images").calls,
        "braid.artin_images.self_ms": 1e3 * stat("braid.artin_images").self_s,
        "braid.artin_images.letters": stat("braid.artin_images").letters,
        "braid.artin_images.image_letters_max": tracer.image_letters_max,
        "freegroup.image_letters_total": tracer.image_letters_total // rounds,
        "braid.bn_equal.busy_s": stat("braid.bn_equal").busy_s,
        "braid.classify_pair.busy_s": stat("braid.classify_pair").busy_s,
        "primes.axiom_spot_check.busy_s": stat("primes.axiom_spot_check").busy_s,
        "primes.prime_identity_suite.busy_s": stat("primes.prime_identity_suite").busy_s,
        **{f"verify.{suite}.s": stat(f"verify.{suite}").total_s for suite in VERIFY_CHECKS},
        **{f"{module}.self_s": tracer.module_self_s(module) / rounds
           for module in ("braid", "gn", "quotient", "primes", "verify")},
        "trace.overhead_s": traced - untraced,
        "trace.overhead_share": (traced - untraced) / untraced,
    })
    return {name: _metric(values[name], unit) for name, unit in PER_LAYER_UNITS.items()}


def measure(workload: str, seed: int, seconds: float, trace: bool,
            scale: float = 1.0) -> tuple[dict, list[str]]:
    """One run of a workload: the result object and human-readable notes.
    `scale` shrinks every input (smoke tests only); names keep nominal sizes."""
    tally, notes = Tally(), []
    run = per_layer if trace else end_to_end
    metrics = run(workload, seed, seconds, tally, notes, scale)
    notes.append(f"error_rate: {tally.error_rate} ({tally.failed} of {tally.attempted})")
    if tally.first_failure:
        notes.append(f"first failure: {tally.first_failure}")
    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    return result, notes


def import_program() -> None:
    """Put src/ first on the path and make sure tbraid comes from there."""
    if not (SRC / "tbraid" / "__init__.py").is_file():
        raise BenchError(f"no program at {SRC / 'tbraid'}")
    sys.path.insert(0, str(SRC))
    import tbraid

    if Path(tbraid.__file__).resolve().parent != (SRC / "tbraid").resolve():
        raise BenchError(f"tbraid imported from {tbraid.__file__}, not from {SRC}")


def pin_to_one_cpu() -> None:
    """Keep the benchmark and every process it starts on one CPU, so that
    the reference process measures the core that the program runs on."""
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        import_program()
        pin_to_one_cpu()
        result, notes = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        sys.stderr.write(f"bench: {exc}\n")
        return 2
    for line in notes:
        print(f"# {line}")
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
