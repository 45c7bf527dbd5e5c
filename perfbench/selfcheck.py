"""Self-check of the computed cell-update counter against brute force.

The tracer reports ``metric.cell_updates`` from a closed formula over the
call's arguments.  Here the same quantity is counted the slow way on tiny
keep="all" tables: for every stored source layer, every source cell, and
every integer offset in the bounding box whose norm is within the step
radius, add one.  The source windows come from the layers the DP actually
returned, so the check also pins the formula's window model to the kernel.

Run directly (``python3 perfbench/selfcheck.py``) or from a traced child.
"""

from __future__ import annotations

import itertools
import math
import os
import sys

from tracer import dp_cell_updates

# (dimension, horizon, dt, dx, vmax): step radius 2 in d = 1, 2.83 in d = 2
TINY_TABLES = ((1, 2.0, 0.25, 0.125, 1.0), (2, 1.0, 0.25, 0.125, 1.415))


def brute_force_cell_updates(table, step_radius: float) -> int:
    d = table.dimension
    box = range(-math.ceil(step_radius), math.ceil(step_radius) + 1)
    n_offsets = sum(1 for o in itertools.product(box, repeat=d)
                    if math.sqrt(sum(c * c for c in o)) <= step_radius + 1e-9)
    count = 0
    for layer in table.layers[:-1]:         # each layer is a source once
        for _ in itertools.product(*(range(n) for n in layer.shape)):
            count += n_offsets
    return count


def check_cell_update_formula() -> list[str]:
    """Failure messages; empty when the formula matches brute force."""
    import hjhom

    failures = []
    for d, horizon, dt, dx, vmax in TINY_TABLES:
        spec = hjhom.cosine_spec(d, 2.0, (1.0, (1,) + (0,) * (d - 1)))
        table = hjhom.compute_metric_table(hjhom.build_lagrangian(spec),
                                           horizon=horizon, dt=dt, dx=dx,
                                           vmax=vmax, keep="all")
        want = brute_force_cell_updates(table, vmax * dt / dx)
        got = dp_cell_updates(d, horizon, dt, dx, vmax)
        if got != want:
            failures.append(f"cell-update formula d={d}: {got} != brute force {want}")
    return failures


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src"))
    problems = check_cell_update_formula()
    print("\n".join(problems) or "cell-update formula matches brute force")
    sys.exit(1 if problems else 0)
