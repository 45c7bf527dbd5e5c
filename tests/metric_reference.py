"""Reference metric DP shared by the metric tests and the acceptance suite."""

import itertools

import numpy as np


def brute_metric(lagrangian, n_steps, dt, dx, vmax, source=0.0):
    """Reference DP over a dict of integer lattice indices j, the points
    source + j dx (independent of the array/tile implementation): L is read
    at the unreduced midpoints, with no residue tiles and no reduction mod 1."""
    d = lagrangian.dimension
    s = int(np.floor(vmax * dt / dx + 1e-9))
    offs = [o for o in itertools.product(range(-s, s + 1), repeat=d)
            if np.linalg.norm(o) <= vmax * dt / dx + 1e-9]
    vals = {(0,) * d: 0.0}
    for _ in range(n_steps):
        new = {}
        for j, val in vals.items():
            for o in offs:
                tgt = tuple(np.add(j, o))
                mid = source + (np.asarray(j) + np.asarray(o) / 2.0) * dx
                v = np.asarray(o) * dx / dt
                cost = val + dt * float(lagrangian(mid, v))
                if cost < new.get(tgt, np.inf):
                    new[tgt] = cost
        vals = new
    return vals
