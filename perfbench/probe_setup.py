"""Set-up probe, run in a fresh interpreter: imports qalt and qalt.cli
and parses every input line, then prints the seconds this took."""

import sys
import time

t0 = time.perf_counter()
import qalt  # noqa: E402
import qalt.cli  # noqa: E402,F401

for path in sys.argv[1:]:
    with open(path) as fh:
        for line in fh:
            qalt.parse_pd(line.partition("#")[0])
print(time.perf_counter() - t0)
