"""Set-up of one workload process: import tbraid and build its lazily cached
tables for the given strand counts.

Run as a script (`python3 bench/setup_probe.py <src dir> 4,8,16`) it is the
fresh interpreter whose time to "ready" is one sample of setup_s.
"""

from __future__ import annotations

import sys


def build_tables(ns) -> None:
    from tbraid import gn, quotient

    for n in ns:
        quotient.s2_table(n)
        for i in range(1, n):
            gn.action_images(n, i)
            gn.action_inverse_images(n, i)


if __name__ == "__main__":
    sys.path.insert(0, sys.argv[1])
    build_tables(int(x) for x in sys.argv[2].split(","))
    sys.stdout.write("ready\n")
    sys.stdout.flush()
