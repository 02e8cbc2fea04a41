"""Span tracing of tbraid's public functions, installed from outside the package.

`installed(tracer)` replaces each traced function in every tbraid module
namespace that holds it (its definition and all of its import sites), so a
call from one module into another goes through a wrapper that opens a span.
It also wraps the `verify.SUITES` entries, and the `FreeWord` constructor
at its import site in `braid`, where the Artin action builds its images.
Leaving the context restores the original objects.

Spans are aggregated in memory as they close: per span name the number of
calls, the total time, the self time (duration minus the time covered by
child spans) and the busy time (the union of the name's own spans, so
recursion is not counted twice).  Counts are kept at the same boundaries:
input braid letters of `normal_form` and `artin_images`, and the letters and
longest length of the free words the Artin action produces.
"""

from __future__ import annotations

import contextlib
import dataclasses
import sys
import time

# Traced functions, by defining module.
TRACED = {
    "braid": ("artin_images", "bn_equal", "classify_pair", "psi", "tits_lift"),
    "gn": ("act_generator", "act_word", "gn_mul"),
    "quotient": ("normal_form", "tbn_equal", "in_kernel", "lift", "tbn_mul", "tbn_inv"),
    "primes": ("check_prime_frame", "check_prop71", "transport",
               "axiom_spot_check", "prime_identity_suite"),
}

# Spans whose first argument is a braid word: its letters are counted.
LETTER_INPUTS = ("quotient.normal_form", "braid.artin_images")


@dataclasses.dataclass
class SpanStat:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    busy_s: float = 0.0
    letters: int = 0
    open: int = 0


class Tracer:
    """In-memory span aggregates and counters of one traced run."""

    def __init__(self):
        self.stats: dict[str, SpanStat] = {}
        self.image_letters_total = 0
        self.image_letters_max = 0
        self._stack: list[list[float]] = []

    def stat(self, name: str) -> SpanStat:
        return self.stats.setdefault(name, SpanStat())

    def module_self_s(self, module: str) -> float:
        prefix = module + "."
        return sum(s.self_s for name, s in self.stats.items() if name.startswith(prefix))

    def wrap(self, name: str, fn):
        stat = self.stat(name)
        stack = self._stack
        clock = time.perf_counter
        count_letters = name in LETTER_INPUTS

        def traced(*args, **kwargs):
            if count_letters:
                stat.letters += len(args[0].letters)
            children = [0.0]
            stack.append(children)
            stat.open += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                stat.open -= 1
                if stack:
                    stack[-1][0] += duration
                stat.calls += 1
                stat.total_s += duration
                stat.self_s += duration - children[0]
                if not stat.open:
                    stat.busy_s += duration

        traced.__wrapped__ = fn
        return traced

    def counting_free_word(self, real):
        def free_word(*args, **kwargs):
            word = real(*args, **kwargs)
            length = len(word.letters)
            self.image_letters_total += length
            if length > self.image_letters_max:
                self.image_letters_max = length
            return word

        return free_word


def _tbraid_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "tbraid" or name.startswith("tbraid."))]


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Route every call to a traced function through `tracer` while open."""
    from tbraid import braid, freegroup, verify

    modules = {m.__name__.rpartition(".")[2]: m for m in _tbraid_modules()}
    wrappers = {}
    for module, names in TRACED.items():
        for name in names:
            fn = getattr(modules[module], name)
            wrappers[id(fn)] = (fn, tracer.wrap(f"{module}.{name}", fn))
    replaced = []
    for m in _tbraid_modules():
        for attr, value in list(vars(m).items()):
            if id(value) in wrappers and wrappers[id(value)][0] is value:
                replaced.append((m, attr, value))
                setattr(m, attr, wrappers[id(value)][1])
    replaced.append((braid, "FreeWord", braid.FreeWord))
    braid.FreeWord = tracer.counting_free_word(freegroup.FreeWord)
    suites = dict(verify.SUITES)
    for name, fn in suites.items():
        verify.SUITES[name] = tracer.wrap(f"verify.{name}", fn)
    try:
        yield tracer
    finally:
        verify.SUITES.update(suites)
        for m, attr, value in reversed(replaced):
            setattr(m, attr, value)
