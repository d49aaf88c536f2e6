"""Print the median time of one ``holonomy._rk4`` step for each product it is given.

    python3 tools/rk4_steps.py

One line per case: the product, its sizes, the steps per run and the median
and quartiles, over 15 timed runs after one warm-up, of microseconds per
step.  The cases are the products that ``holonomy`` hands ``_rk4``:

- ``dot``: ``np.ndarray.dot`` on one n x n value, n = 1..4, as ``pexp`` and
  the tail of a halving pair step;
- ``pair``: ``np.ndarray.dot`` on the halving pair's block-diagonal
  (2n, 2n) nodes and (2n, n) value, n = 1..4;
- ``grid``: ``_grid_product`` on the circle grid, the nodes (n, n, n, p) and
  the value (n, n, p) with the grid innermost, as backward transport lays
  them out, n = 2, 3 and p = 16, 32.

The nodes are seeded uniform draws in [-1, 1), the values start at the
identity and h is 1e-3, so no value overflows.  Only the standard library
and numpy are used; the program is imported from ``src/``.
"""

from __future__ import annotations

import os
import statistics
import sys
import time

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from mctwist import holonomy  # noqa: E402

RUNS = 15


def cases():
    """(product, sizes, h, nodes of shape (3, steps, ...), g, product function)."""
    rnd = np.random.default_rng(1)
    for n in (1, 2, 3, 4):
        yield ("dot", "n=%d" % n, 1e-3, rnd.uniform(-1, 1, (3, 2000, n, n)), np.eye(n),
               np.ndarray.dot)
    for n in (1, 2, 3, 4):
        nodes = np.zeros((3, 2000, 2 * n, 2 * n))
        nodes[..., :n, :n], nodes[..., n:, n:] = rnd.uniform(-1, 1, (2, 3, 2000, n, n))
        yield ("pair", "n=%d" % n, np.repeat([[1e-3], [2e-3]], n, axis=0), nodes,
               np.concatenate((np.eye(n), np.eye(n))), np.ndarray.dot)
    for n in (2, 3):
        for p in (16, 32):
            yield ("grid", "n=%d p=%d" % (n, p), 1e-3, rnd.uniform(-1, 1, (3, 200, n, n, n, p)),
                   np.repeat(np.eye(n)[:, :, None], p, axis=2), holonomy._grid_product)


def main() -> int:
    for product, sizes, h, nodes, g, dot in cases():
        steps = nodes.shape[1]
        holonomy._rk4(h, *nodes, g, dot)  # warm-up
        times = []
        for _ in range(RUNS):
            start = time.perf_counter()
            holonomy._rk4(h, *nodes, g, dot)
            times.append((time.perf_counter() - start) / steps * 1e6)
        q1, med, q3 = statistics.quantiles(times, n=4)
        print("%-4s %-9s %5d steps  median %6.2f us/step  (q1 %6.2f, q3 %6.2f)"
              % (product, sizes, steps, med, q1, q3), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
