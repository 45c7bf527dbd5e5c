"""The two oracles against their plain reference loops, bit for bit.

``solve_fd_oracle`` updates u in place through preallocated buffers with V
evaluated once, and at each step only the nodes that can still reach a
target; ``cell_problem_oracle`` relaxes the torus by one gather per step.
The references below are the straightforward forms: a per-step
Lax-Friedrichs loop over the whole box that evaluates H through
``hamiltonian_reference`` and reads the targets through
``interpolation_reference``, and the ``np.roll`` min-plus loop.  Both oracles
must return exactly their bytes on seeded random cases, and the FD oracle
also on hypothesis-drawn ones.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hamiltonian_reference import hamiltonian
from interpolation_reference import brute_interpolate
from hjhom import build_lagrangian, cosine_spec
from hjhom.effective import cell_problem_oracle
from hjhom.metric import _offsets
from hjhom.solver import _fd_schedule, affine_data, bump_data, cone_data, solve_fd_oracle
from hjhom.util import grid_points


def reference_grid(u0, spec, eps, t, targets, points_per_eps, box_margin):
    """Viscosity alpha and grid axes exactly as solve_fd_oracle chooses them."""
    d = spec.dimension
    dv = spec.potential.upper_bound() - spec.potential.coefficient_lower_bound()
    alpha = 2.0 * (np.sqrt(u0.lipschitz**2 + max(dv, 0.0)) + 0.2)
    speed = alpha * d + 1.0
    h = eps / points_per_eps
    lo = targets.min(axis=0) - speed * t - box_margin
    hi = targets.max(axis=0) + speed * t + box_margin
    return alpha, [np.arange(l, hh + h, h) for l, hh in zip(lo, hi)]


def reference_fd(u0, spec, eps, t, targets, points_per_eps, box_margin=1.0):
    """Lax-Friedrichs values at the targets, every node updated at every step
    through one ``hamiltonian`` call and a scalar corner loop per target; box,
    CFL step and viscosity exactly as solve_fd_oracle chooses them."""
    d = spec.dimension
    targets = np.asarray(targets, dtype=float).reshape(-1, d)
    alpha, axes = reference_grid(u0, spec, eps, t, targets, points_per_eps, box_margin)
    h = eps / points_per_eps
    nodes = grid_points(axes)
    u = u0(nodes).reshape(tuple(len(a) for a in axes))
    n_steps = int(np.ceil(t / (0.45 * h / (alpha * d))))
    dt_fd = t / n_steps
    xov = np.mod(nodes / eps, 1.0)
    ctr = tuple(slice(1, -1) for _ in range(d))
    for _ in range(n_steps):
        up = np.pad(u, 1, mode="edge")
        grads = []
        visc = np.zeros_like(u)
        for ax in range(d):
            sl_p, sl_m = list(ctr), list(ctr)
            sl_p[ax], sl_m[ax] = slice(2, None), slice(0, -2)
            fwd, bwd = up[tuple(sl_p)], up[tuple(sl_m)]
            grads.append((fwd - bwd) / (2 * h))
            visc += (fwd - 2 * u + bwd) / (2 * h)
        grad = np.stack(grads, axis=-1).reshape(-1, d)
        ham = hamiltonian(spec, xov, grad).reshape(u.shape)
        u = u - dt_fd * ham + dt_fd * alpha * visc
    return brute_interpolate(axes, u, targets) + t * spec.normalization_shift


def reference_cell(lagrangian, p, t_long, dt, dx, vmax):
    """-w(T, 0)/T of the torus value iteration, one np.roll per offset."""
    d = lagrangian.dimension
    p = np.atleast_1d(np.asarray(p, dtype=float))
    big_m = int(round(1.0 / dx))
    n_steps = int(round(t_long / dt))
    base = grid_points([np.arange(big_m)] * d).reshape((big_m,) * d + (d,))
    shifted = []
    for o in _offsets(d, vmax * dt / dx):
        mid = np.mod((base + o / 2.0) * dx, 1.0)
        cost = (dt * lagrangian(mid, np.broadcast_to(o * dx / dt, mid.shape))
                - float(p @ (o * dx)))
        shifted.append((tuple(int(c) for c in o), cost))
    w = np.zeros((big_m,) * d)
    for _ in range(n_steps):
        new = np.full_like(w, np.inf)
        for o, cost in shifted:
            np.minimum(new, np.roll(w + cost, o, axis=tuple(range(d))), out=new)
        w = new
    return -w[(0,) * d] / (n_steps * dt)


def random_spec(rng, d):
    """a0 + random amplitudes on wave vectors that include (1, 1) in d = 2."""
    waves = [(1,), (2,)] if d == 1 else [(1, 0), (0, 1), (1, 1), (1, -2)]
    amps = rng.uniform(-1.0, 1.0, size=len(waves))
    return cosine_spec(d, rng.uniform(2.5, 4.0), *zip(amps, waves))


def random_u0(rng, d, family):
    if family == "cone":
        return cone_data(d, rng.uniform(0.5, 1.5))
    if family == "affine":
        return affine_data(rng.uniform(-1.0, 1.0, size=d))
    return bump_data(d, [(rng.uniform(-1.0, 1.0), rng.uniform(-0.5, 0.5, size=d),
                          rng.uniform(0.3, 0.8))])


@pytest.mark.parametrize("seed, d, family, eps, t, points_per_eps", [
    (1, 1, "cone", 0.25, 0.5, 16),
    (2, 1, "affine", 0.3, 0.5, 10),
    (3, 1, "bumps", 0.2, 0.25, 7),
    (4, 2, "cone", 0.5, 0.125, 4),
    (5, 2, "affine", 0.3, 0.125, 5),
    (6, 2, "bumps", 0.7, 0.25, 3),
])
def test_fd_oracle_matches_reference_loop(seed, d, family, eps, t, points_per_eps):
    rng = np.random.default_rng(seed)
    spec = random_spec(rng, d)
    u0 = random_u0(rng, d, family)
    # many targets: a last-bit change in the small viscosity term reaches
    # only a few nodes' sums
    targets = rng.uniform(-1.0, 1.0, size=(256 if d == 1 else 64, d))
    got = solve_fd_oracle(u0, spec, eps, t, targets, points_per_eps=points_per_eps)
    want = reference_fd(u0, spec, eps, t, targets, points_per_eps)
    assert got.values.tobytes() == want.tobytes()


@st.composite
def window_cases(draw):
    """Small Lax-Friedrichs problems: d, u0 family, rng seed, eps, t,
    points_per_eps, the box margin in grid steps, a target layout and 1-6
    targets.  A margin of 2 or more steps makes the window shrink on every
    side; at 0 the outermost targets sit within speed * t of the box's faces,
    in its edge cells when speed * t < h, so the window keeps touching them."""
    return (draw(st.sampled_from([1, 2])),
            draw(st.sampled_from(["cone", "affine", "bumps"])),
            draw(st.integers(0, 2**32 - 1)),
            draw(st.sampled_from([0.25, 0.5, 1.0])),
            draw(st.sampled_from([0.015625, 0.0625, 0.125])),
            draw(st.integers(3, 6)),
            draw(st.sampled_from([0, 1, 2, 5])),
            draw(st.sampled_from(["spread", "clustered", "nodes", "faces"])),
            draw(st.integers(1, 6)))


@settings(max_examples=40, deadline=None)
@given(window_cases())
# box margin 0 at a short t: the core is the whole grid, or all but one face
@example((1, "cone", 0, 1.0, 0.015625, 3, 0, "spread", 3))
@example((2, "bumps", 1, 1.0, 0.015625, 3, 0, "faces", 4))
def test_fd_oracle_window_matches_reference_loop(case):
    # the oracle updates only the nodes that can still reach the targets'
    # cells; the reference updates every node at every step
    d, family, seed, eps, t, points_per_eps, margin_steps, layout, count = case
    rng = np.random.default_rng(seed)
    spec = random_spec(rng, d)
    u0 = random_u0(rng, d, family)
    h = eps / points_per_eps
    box_margin = margin_steps * h
    targets = rng.uniform(-0.5, 0.5, size=(count, d))
    if layout == "clustered":
        targets = targets[0] + rng.uniform(0.0, 2 * h, size=(count, d))
    elif layout != "spread" and count > 2:
        # two corners fix the box; the others move to nodes inside it, on
        # every axis ("nodes") or on the first only, a cell face ("faces")
        targets[:2] = targets.min(axis=0), targets.max(axis=0)
        _, axes = reference_grid(u0, spec, eps, t, targets, points_per_eps, box_margin)
        for ax in range(d if layout == "nodes" else 1):
            inside = axes[ax][(axes[ax] >= targets[0, ax]) & (axes[ax] <= targets[1, ax])]
            if len(inside):
                targets[2:, ax] = rng.choice(inside, size=count - 2)
    got = solve_fd_oracle(u0, spec, eps, t, targets, points_per_eps=points_per_eps,
                          box_margin=box_margin)
    want = reference_fd(u0, spec, eps, t, targets, points_per_eps, box_margin)
    assert got.values.tobytes() == want.tobytes()


@pytest.mark.parametrize("core, shape, n_steps", [
    (((4, 6),), (12,), 9),              # the window shrinks from both faces
    (((4, 6),), (12,), 3),              # fewer steps than the reach to a face
    (((0, 3),), (10,), 6),              # the core touches the lower face
    (((2, 9),), (10,), 4),              # ... and the upper face
    (((5, 5),), (11,), 1),              # one step: the core alone
    (((0, 1),), (2,), 5),               # the core is the whole grid
    (((3, 4), (0, 7)), (9, 8), 7),      # d = 2, one axis whole throughout
    (((1, 2), (6, 8)), (7, 11), 5),
])
def test_fd_schedule_covers_each_later_window_widened_by_one(core, shape, n_steps):
    windows = [win for win, steps in _fd_schedule(core, shape, n_steps)
               for _ in range(steps)]
    assert len(windows) == n_steps
    # a step updates every node that can still reach the core, and no other
    for k, win in enumerate(windows):
        r = n_steps - 1 - k
        assert win == tuple((max(first - r, 0), min(last + r, n - 1) + 1)
                            for (first, last), n in zip(core, shape))
    # so each step's neighbours were all updated at the step before
    for before, after in zip(windows, windows[1:]):
        for (b0, b1), (a0, a1), n in zip(before, after, shape):
            assert b0 <= max(a0 - 1, 0) and min(a1 + 1, n) <= b1


@pytest.mark.parametrize("seed, d, dt, dx, vmax", [
    (11, 1, 0.125, 0.0625, 4.0),
    (12, 1, 0.25, 0.125, 6.0),
    (13, 2, 0.25, 0.125, 5.0),
    (14, 2, 0.125, 0.25, 3.0),
    (15, 1, 0.125, 1 / 6, 4.0),
    (16, 2, 0.25, 1 / 12, 2.0),
    (17, 2, 0.125, 1 / 6, 5.0),
])
def test_cell_oracle_matches_roll_loop(seed, d, dt, dx, vmax):
    rng = np.random.default_rng(seed)
    lagr = build_lagrangian(random_spec(rng, d))
    for p in rng.uniform(-1.5, 1.5, size=(3, d)):
        got = cell_problem_oracle(lagr, p, t_long=8.0, dt=dt, dx=dx, vmax=vmax)
        want = reference_cell(lagr, p, 8.0, dt, dx, vmax)
        assert np.float64(got).tobytes() == np.float64(want).tobytes()
