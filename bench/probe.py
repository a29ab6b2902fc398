"""Set-up probe, run in a fresh interpreter by ``run.py``.

Usage: ``python3 bench/probe.py <module> <n>``.  Prints the seconds from
importing ``<module>`` (a plaplab module) to having the unit square and its
grid at resolution ``n`` built.
"""

import importlib
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

t0 = time.perf_counter()
importlib.import_module(sys.argv[1])
from plaplab.fields import build_grid  # noqa: E402
from plaplab.geometry import Domain  # noqa: E402

build_grid(Domain.unit_square(), int(sys.argv[2]))
print(repr(time.perf_counter() - t0))
