"""The machine-speed reference: a fixed computation of the benchmark's own.

A few cores of a shared host do not run at a steady speed: on a 2-CPU
shared x86-64 VM a fixed pure-Python loop flips between two speeds about 1.7
times apart, in phases of a fraction of a second to many seconds, as other
tenants load the host.  The reference times one fixed, pure-Python
computation, the free-group substitution of `artin_cost` on a fixed word,
that never calls the program.  Its time, taken right before and after a
timed call of the program on the same core, measures how fast the machine
ran the call (see `Reference.slowness` in run.py).

Run as a script (`python3 bench/reference.py`) it is the reference process:
for each line read from stdin it times the computation (see `once`) and
writes the seconds it took; it exits at end of input.  A process of its own
keeps the reference clear of the program's interpreter state (heap, gc
settings).
"""

from __future__ import annotations

import collections
import random
import sys
import time

Word = collections.namedtuple("Word", "n letters")

_rng = random.Random(0)
REF_WORD = Word(5, tuple(_rng.choice((1, -1)) * _rng.randint(1, 4) for _ in range(12)))
# Seconds that one reference computation and one bare interpreter start
# (`python3 -c pass`) take at the speed to which reported times are scaled:
# about their medians on a 2-CPU shared x86-64 VM.
NOMINAL_S = 0.7e-3
INTERPRETER_START_NOMINAL_S = 50e-3


def artin_cost(w, cap: float = float("inf")) -> int:
    """Letters written while the Artin action of w is applied letter by
    letter to the free generators, by the substitution X_i: x_i -> x_{i+1},
    x_{i+1} -> x_{i+1} x_i x_{i+1}^-1 with free reduction: the work of
    computing w's Artin images.  Counting stops once it passes cap."""
    images = [[k] for k in range(1, w.n + 1)]
    total = 0
    for letter in w.letters:
        i = abs(letter)
        sub = ({i: (i + 1,), i + 1: (i + 1, i, -(i + 1))} if letter > 0
               else {i: (-i, i + 1, i), i + 1: (i,)})
        for img in images:
            out: list[int] = []
            for x in img:
                seq = sub.get(abs(x), (abs(x),))
                for y in (seq if x > 0 else [-y for y in reversed(seq)]):
                    if out and out[-1] == -y:
                        out.pop()
                    else:
                        out.append(y)
            img[:] = out
            total += len(out)
        if total > cap:
            break
    return total


def once(timed: int = 3) -> float:
    """The median of `timed` timings of the computation, after one untimed
    run that warms the caches, so that the program's use of the shared
    core's caches just before does not show in it."""
    artin_cost(REF_WORD)
    times = []
    for _ in range(timed):
        start = time.perf_counter()
        artin_cost(REF_WORD)
        times.append(time.perf_counter() - start)
    return sorted(times)[timed // 2]


if __name__ == "__main__":
    for _ in sys.stdin:
        sys.stdout.write(f"{once()!r}\n")
        sys.stdout.flush()
