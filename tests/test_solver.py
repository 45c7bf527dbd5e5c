import numpy as np
import pytest

from hjhom import (
    ConfigurationError,
    DomainError,
    build_lagrangian,
    compute_metric_table,
    cosine_spec,
    normalize,
)
from hjhom.effective import build_effective_model
from hjhom.harness import target_set
from hjhom.solver import (
    InitialData,
    affine_data,
    bump_data,
    cone_data,
    solve_effective,
    solve_fd_oracle,
    solve_oscillatory,
    zero_data,
)
from hjhom.util import golden_minimize, grid_points, interpolate

from metric_reference import brute_metric

FREE = build_lagrangian(cosine_spec(1, 1.0))


def free_table(horizon=4.0, dt=0.25, dx=0.25, vmax=4.0):
    return compute_metric_table(FREE, horizon=horizon, dt=dt, dx=dx, vmax=vmax,
                                keep="integers")


def hopf_lax_free_abs(t, y):
    # min_x |x| + (y-x)^2/(4t) + t, closed form for V = 1
    return abs(y) if abs(y) >= 2 * t else y * y / (4 * t) + t


def max_slope(points, values):
    """max |v_i - v_j| / |p_i - p_j| over all pairs of distinct points."""
    num = np.abs(values[:, None] - values[None, :])
    den = np.linalg.norm(points[:, None] - points[None, :], axis=-1)
    off = den > 1e-12
    return float(np.max(num[off] / den[off]))


def test_initial_data_lipschitz_certificates():
    rng = np.random.default_rng(3)
    for data in (cone_data(1), affine_data([0.7]), zero_data(2),
                 bump_data(1, [(1.0, [0.0], 1.0), (-0.5, [2.0], 0.5)])):
        pts = rng.uniform(-8.0, 8.0, size=(256, data.dimension))
        assert max_slope(pts, data(pts)) <= data.lipschitz + 1e-9


def test_zero_data_gives_time():
    table = free_table()
    sol = solve_oscillatory(zero_data(1), FREE, eps=0.25, t=1.0,
                            targets=[[0.0], [1.0], [-2.0]], table=table)
    np.testing.assert_allclose(sol.values, 1.0, atol=1e-12)


def test_cone_data_closed_form_any_eps():
    table = free_table(horizon=8.0)
    for eps in (0.5, 0.25, 0.125):
        sol = solve_oscillatory(cone_data(1), FREE, eps=eps, t=1.0,
                                targets=[[3.0], [0.0]], table=table)
        assert sol.values[0] == pytest.approx(3.0, abs=5e-3)
        assert sol.values[1] == pytest.approx(1.0, abs=5e-3)


def test_affine_data_plane_wave():
    table = free_table()
    p = 0.5
    sol = solve_oscillatory(affine_data([p]), FREE, eps=0.25, t=1.0,
                            targets=[[-1.0], [0.0], [2.0]], table=table)
    want = p * np.array([-1.0, 0.0, 2.0]) - 1.0 * (p * p - 1.0)
    np.testing.assert_allclose(sol.values, want, atol=5e-3)


def test_shift_restoration():
    # V = 0 normalizes to V = 1 with shift -1; solutions carry +t*shift
    spec, shift = normalize(cosine_spec(1, 0.0))
    assert shift == -1.0
    lagr = build_lagrangian(spec)
    table = compute_metric_table(lagr, horizon=4.0, dt=0.25, dx=0.25, vmax=4.0,
                                 keep="integers")
    sol = solve_oscillatory(zero_data(1), lagr, eps=0.25, t=1.0,
                            targets=[[0.0]], table=table)
    # working solution is t, original-problem solution is t + t*(-1) = 0
    assert sol.values[0] == pytest.approx(0.0, abs=1e-12)


def test_horizon_error_names_required_t():
    table = free_table(horizon=2.0)
    with pytest.raises(ConfigurationError, match="T = 8"):
        solve_oscillatory(zero_data(1), FREE, eps=0.125, t=1.0,
                          targets=[[0.0]], table=table)


def test_comparison_monotonicity():
    table = free_table()
    lo = cone_data(1)
    hi = InitialData(lambda x: lo.evaluator(x) + 0.7, lo.lipschitz, "cone+const", 1)
    ys = [[-1.5], [0.0], [0.5], [2.0]]
    a = solve_oscillatory(lo, FREE, eps=0.25, t=1.0, targets=ys, table=table)
    b = solve_oscillatory(hi, FREE, eps=0.25, t=1.0, targets=ys, table=table)
    assert np.all(a.values <= b.values + 1e-12)
    # constants pass through exactly
    np.testing.assert_allclose(b.values - a.values, 0.7, atol=1e-12)


def test_finite_propagation():
    table = free_table()
    base = cone_data(1)
    radius = table.vmax * 1.0
    far = bump_data(1, [(-3.0, [radius + 3.0], 0.5)])
    pert_far = lambda x: base.evaluator(x) + far.evaluator(x)  # noqa: E731
    moved = InitialData(pert_far, base.lipschitz + far.lipschitz, "combo", 1)
    a = solve_oscillatory(base, FREE, eps=0.25, t=1.0, targets=[[0.0]], table=table)
    b = solve_oscillatory(moved, FREE, eps=0.25, t=1.0, targets=[[0.0]], table=table)
    assert a.values[0] == b.values[0]


def test_effective_constant_data():
    model = build_effective_model(FREE, v_box_half=3.0, v_step=0.25, n_max=4,
                                  dt=0.25, dx=0.125, vmax=5.0)
    sol = solve_effective(zero_data(1), model, t=2.0, targets=[[0.0], [1.0]])
    want = 2.0 * model.lagrangian_bar([0.0])
    np.testing.assert_allclose(sol.values, want, atol=1e-12)


def test_effective_abs_data_closed_form():
    model = build_effective_model(FREE, v_box_half=4.0, v_step=0.25, n_max=8,
                                  dt=0.125, dx=0.0625, vmax=6.0)
    ys = np.array([-3.0, -1.0, 0.0, 0.5, 2.0, 3.5])
    sol = solve_effective(cone_data(1), model, t=1.0, targets=ys[:, None])
    want = [hopf_lax_free_abs(1.0, y) for y in ys]
    np.testing.assert_allclose(sol.values, want, atol=0.02)


def test_effective_affine_reproduces_legendre_identity():
    model = build_effective_model(FREE, v_box_half=4.0, v_step=0.25, n_max=8,
                                  dt=0.125, dx=0.0625, vmax=6.0)
    p = 0.75
    ys = np.array([[-2.0], [0.0], [1.0]])
    sol = solve_effective(affine_data([p]), model, t=1.0, targets=ys)
    want = p * ys[:, 0] - 1.0 * model.hamiltonian_bar([p])
    np.testing.assert_allclose(sol.values, want, atol=5e-3)


def test_fd_oracle_affine_exact_solution():
    spec = cosine_spec(1, 1.0)
    p = 0.5
    sol = solve_fd_oracle(affine_data([p]), spec, eps=0.25, t=0.5,
                          targets=[[-0.5], [0.0], [1.0]], points_per_eps=32)
    want = p * np.array([-0.5, 0.0, 1.0]) - 0.5 * (p * p - 1.0)
    np.testing.assert_allclose(sol.values, want, atol=0.02)


def test_fd_oracle_zero_data():
    spec = cosine_spec(1, 1.0)
    sol = solve_fd_oracle(zero_data(1), spec, eps=0.25, t=0.5,
                          targets=[[0.0]], points_per_eps=32)
    assert sol.values[0] == pytest.approx(0.5, abs=0.02)


@pytest.mark.parametrize("eps, t", [(0.0, 0.5), (-0.25, 0.5), (2.0, 0.5), (np.nan, 0.5),
                                    (0.25, 0.0), (0.25, -1.0), (0.25, np.nan),
                                    (0.25, np.inf)])
def test_fd_oracle_rejects_eps_and_t_outside_the_domain(eps, t):
    # solve_oscillatory's domain and messages, checked before the box is sized
    message = "t must be positive" if 0 < eps <= 1 else r"eps must lie in \(0, 1\]"
    with pytest.raises(DomainError, match=message):
        solve_fd_oracle(zero_data(1), cosine_spec(1, 1.0), eps=eps, t=t,
                        targets=[[0.0]], points_per_eps=8)


@pytest.mark.parametrize("points_per_eps, box_margin, message", [
    (0, 1.0, "points_per_eps"), (-4, 1.0, "points_per_eps"),
    (np.nan, 1.0, "points_per_eps"), (np.inf, 1.0, "points_per_eps"),
    (8, -5.0, "box_margin"), (8, -0.01, "box_margin"),
    (8, np.nan, "box_margin"), (8, np.inf, "box_margin"),
])
def test_fd_oracle_rejects_grid_arguments_outside_their_range(points_per_eps, box_margin,
                                                             message):
    # 0 used to raise ZeroDivisionError, -4 and a margin of -5 IndexError,
    # and a small negative margin shrank the box silently
    with pytest.raises(ConfigurationError, match=message):
        solve_fd_oracle(zero_data(1), cosine_spec(1, 1.0), eps=0.25, t=0.5,
                        targets=[[0.0]], points_per_eps=points_per_eps,
                        box_margin=box_margin)


def test_fd_oracle_rejects_a_spec_of_dimension_two():
    # the oracle is one-dimensional: its only callers run d = 1
    with pytest.raises(ConfigurationError, match="d = 1 only"):
        solve_fd_oracle(zero_data(2), cosine_spec(2, 1.0), eps=0.25, t=0.5,
                        targets=[[0.0, 0.0]], points_per_eps=4)


def test_fd_oracle_non_finite_state_raises():
    # +inf on x > 0.3: the state goes non-finite and stays so, whenever the
    # solver checks it
    inf_right = InitialData(lambda x: np.where(x[:, 0] > 0.3, np.inf, 0.0), 0.0,
                            "inf-right", 1)
    with np.errstate(invalid="ignore", over="ignore"):
        with pytest.raises(DomainError, match="non-finite"):
            solve_fd_oracle(inf_right, cosine_spec(1, 1.0), eps=0.5, t=0.25,
                            targets=[[0.0]], points_per_eps=8)


@pytest.mark.parametrize("t", [np.nan, np.inf, 0.0, -1.0])
def test_effective_solver_rejects_t_outside_the_domain(t):
    # t = nan used to return [nan]: t <= 0 is false for nan
    model = build_effective_model(FREE, v_box_half=1.0, v_step=0.5, n_max=2,
                                  dt=0.25, dx=0.125, vmax=4.0)
    with pytest.raises(DomainError, match="t must be positive and finite"):
        solve_effective(zero_data(1), model, t, [[0.0]])


def test_fd_vs_representation_small():
    # coarse smoke agreement; the acceptance suite runs the eps = 1/8 case
    # at points_per_eps = 256 against the 0.05 tolerance
    spec = cosine_spec(1, 2.0, (1.0, (1,)))
    lagr = build_lagrangian(spec)
    table = compute_metric_table(lagr, horizon=4.0, dt=0.0625, dx=0.03125,
                                 vmax=5.0, keep="integers")
    ys = [[-0.5], [0.0], [0.75]]
    rep = solve_oscillatory(cone_data(1), lagr, eps=0.25, t=1.0, targets=ys,
                            table=table)
    fd = solve_fd_oracle(cone_data(1), spec, eps=0.25, t=1.0, targets=ys,
                         points_per_eps=128)
    np.testing.assert_allclose(rep.values, fd.values, atol=0.08)


def test_uniform_lipschitz_across_eps():
    # measured Lip_y(u_eps) stays bounded by one constant over the sweep
    lagr = build_lagrangian(cosine_spec(1, 2.0, (1.0, (1,))))
    table = compute_metric_table(lagr, horizon=16.0, dt=0.125, dx=0.0625,
                                 vmax=5.0, keep="integers")
    ys = np.linspace(-2, 2, 17)[:, None]
    lips = []
    for eps in (0.25, 0.125, 0.0625):
        sol = solve_oscillatory(cone_data(1), lagr, eps, 1.0, ys, table=table)
        lips.append(max_slope(ys, sol.values))
    bound = cone_data(1).lipschitz + 0.5
    assert max(lips) <= bound
    assert max(lips) - min(lips) <= 0.2


def test_normalization_shift_identity_machine_precision():
    # solving with H - a and adding back t*a reproduces solving with H
    raw = cosine_spec(1, 0.0, (0.5, (1,)))          # V not normalized
    spec_n, shift = normalize(raw)
    lagr_raw = build_lagrangian(raw)
    lagr_n = build_lagrangian(spec_n)
    kw = dict(horizon=4.0, dt=0.25, dx=0.25, vmax=4.0, keep="integers")
    table_raw = compute_metric_table(lagr_raw, **kw)
    table_n = compute_metric_table(lagr_n, **kw)
    ys = [[-1.0], [0.0], [1.5]]
    a = solve_oscillatory(cone_data(1), lagr_raw, 0.25, 1.0, ys, table=table_raw)
    b = solve_oscillatory(cone_data(1), lagr_n, 0.25, 1.0, ys, table=table_n)
    np.testing.assert_allclose(a.values, b.values, rtol=0, atol=1e-12)


def test_lagrangian_of_another_spec_is_rejected():
    # V = 2 + cos 2 pi x read with the normalized spec of V = 0.5 + cos 2 pi x:
    # the same potential, but its shift -1.5 used to move every value by -1.5
    lagr = build_lagrangian(cosine_spec(1, 2.0, (1.0, (1,))))
    table = compute_metric_table(lagr, horizon=4.0, dt=0.25, dx=0.25, vmax=4.0,
                                 keep="integers")
    other = build_lagrangian(normalize(cosine_spec(1, 0.5, (1.0, (1,))))[0])
    with pytest.raises(ConfigurationError, match="another spec"):
        solve_oscillatory(cone_data(1), other, 0.25, 1.0, [[0.0]], table=table)


# --- the batched effective refinement against the per-target loop ---------

def scalar_golden(fun, lo, hi, iters):
    """The one-interval golden search the array search must reproduce."""
    phi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = float(lo), float(hi)
    c = b - phi * (b - a)
    d = a + phi * (b - a)
    fc, fd = fun(c), fun(d)
    for _ in range(iters):
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - phi * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + phi * (b - a)
            fd = fun(d)
    xm = (a + b) / 2.0
    return xm, fun(xm)


def reference_refine(objective, x0, best, step, lo, hi):
    """Per-target refinement: objective maps one point (d,) to a float."""
    x = np.array(x0, dtype=float)
    step, lo, hi, _ = np.broadcast_arrays(step, lo, hi, x)
    for _ in range(2):
        for ax in range(len(x)):
            def g(s, ax=ax):
                pt = x.copy()
                pt[ax] = s
                return objective(pt)
            s_opt, val = scalar_golden(g, max(lo[ax], x[ax] - step[ax]),
                                       min(hi[ax], x[ax] + step[ax]), 24)
            if val < best:
                best = val
                x[ax] = s_opt
    return best


def reference_effective(u0, model, t, targets):
    """solve_effective's values, one target and one closure at a time."""
    ltab = model.lagrangian_table
    d = ltab.dimension
    vgrid = grid_points(ltab.axes)
    targets = np.asarray(targets, dtype=float).reshape(-1, d)
    values = np.empty(len(targets))
    v_lo = np.asarray([a[0] for a in ltab.axes])
    v_hi = np.asarray([a[-1] for a in ltab.axes])
    v_step = np.asarray([a[1] - a[0] for a in ltab.axes])
    for i, y in enumerate(targets):
        obj = u0(y - t * vgrid) + t * ltab.values.ravel()
        k = int(np.argmin(obj))

        def objective(vv):
            lv = interpolate(ltab.axes, ltab.values, vv[None, :])
            return float(u0((y - t * vv)[None, :])[0] + t * lv[0])

        best = reference_refine(objective, vgrid[k], obj[k], v_step, v_lo, v_hi)
        values[i] = best + t * model.shift
    return values


GOLDEN_FUNCTIONS = {
    "smooth": lambda x: np.cos(3.0 * x) + 0.1 * x * x,
    "steps": lambda x: np.floor(4.0 * x) / 4.0,          # plateaus: fc == fd
    "constant": lambda x: np.zeros_like(x) + 2.0,         # every comparison ties
    "inf-right": lambda x: np.where(x > 0.3, np.inf, (x - 0.1) ** 2),
    "all-inf": lambda x: np.full_like(x, np.inf),         # inf <= inf ties
    "kink": lambda x: np.abs(x - 0.25),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_FUNCTIONS))
def test_array_golden_matches_scalar_golden_bitwise(name):
    fun = GOLDEN_FUNCTIONS[name]
    rng = np.random.default_rng(len(name))
    lo = rng.uniform(-2.0, 0.5, 40)
    hi = lo + rng.uniform(0.0, 2.0, 40)
    hi[:3] = lo[:3]                                      # empty intervals
    calls = []

    def counted(x):
        calls.append(x.shape)
        return fun(x)

    xm, fm = golden_minimize(counted, lo, hi, 24)
    assert calls == [(40,)] * (2 + 24 + 1)               # one call per iteration
    for i in range(40):
        want = scalar_golden(lambda s: float(fun(np.array([s]))[0]), lo[i], hi[i], 24)
        assert (xm[i], fm[i]) == want


def _oscillatory_cases(d):
    if d == 1:
        lagr = build_lagrangian(cosine_spec(1, 2.0, (1.0, (1,))))
        table = compute_metric_table(lagr, horizon=8.0, dt=0.125, dx=0.0625,
                                     vmax=3.0, keep="integers")
        data = [cone_data(1), affine_data([0.6]), affine_data([-5.0]), zero_data(1),
                bump_data(1, [(1.0, [0.3], 0.7), (-2.0, [-1.0], 0.4)])]
    else:
        lagr = build_lagrangian(cosine_spec(2, 3.0, (1.0, (1, 0)), (1.0, (0, 1))))
        table = compute_metric_table(lagr, horizon=4.0, dt=0.25, dx=0.125,
                                     vmax=2.5, keep="integers")
        data = [cone_data(2, 1.3), affine_data([0.4, -0.7]), affine_data([4.0, 3.0]),
                zero_data(2), bump_data(2, [(1.5, [0.2, -0.4], 0.8), (-1.0, [1.0, 1.0], 0.5)])]
    return lagr, table, data


def brute_oscillatory(u0, lagrangian, eps, t, targets, table):
    """u_eps at each target as the minimum over every finite node z of the
    T = t/eps layer of u0(y - eps z) + eps m(T, 0, z), plus t * shift."""
    layer, reach = table.layer(t / eps)
    finite = np.argwhere(np.isfinite(layer))
    z = (finite - reach) * table.dx
    m = layer[tuple(finite.T)]
    return np.array([np.min(u0(y - eps * z) + eps * m) for y in targets]) \
        + t * lagrangian.spec.normalization_shift


def _lattice_targets(rng, n, d, eps, dx):
    """n random targets with y/eps on the dx lattice, a third of them on
    eps Z^d, inside |y_i| <= 2."""
    steps = rng.integers(-round(2 / (eps * dx)), round(2 / (eps * dx)) + 1, size=(n, d))
    steps[: n // 3] -= steps[: n // 3] % round(1 / dx)
    return steps * (eps * dx)


@pytest.mark.parametrize("d", [1, 2])
def test_oscillatory_is_the_brute_force_lattice_minimum(d):
    # affine data with a steep slope puts minimizers on the edge of the
    # reached set; bumps make u0 non-convex
    lagr, table, data = _oscillatory_cases(d)
    rng = np.random.default_rng(7 + d)
    for u0 in data:
        for eps in (0.5, 0.25):
            t = float(rng.choice([0.5, 1.0]))
            ys = _lattice_targets(rng, 7, d, eps, table.dx)
            got = solve_oscillatory(u0, lagr, eps, t, ys, table=table).values
            want = brute_oscillatory(u0, lagr, eps, t, ys, table)
            assert np.array_equal(got, want), (u0.family, eps, t)


@pytest.mark.parametrize("d, a0, terms, dt, dx, vmax, eps_list, count", [
    # the rate-1d and rate-2d benchmark workloads' lattices, sweeps and targets
    (1, 2.0, [(1.0, (1,))], 0.03125, 0.0078125, 4.0, (0.25, 0.125, 0.0625), 17),
    (2, 3.0, [(1.0, (1, 0)), (1.0, (0, 1))], 0.125, 0.125, 4.0, (0.5, 0.25, 0.125), 9),
    # configs/rate_1d.cfg: its lattice, its whole sweep down to eps = 1/64
    # and its 33 targets
    (1, 2.0, [(1.0, (1,))], 0.03125, 0.0078125, 4.0,
     (0.25, 0.125, 0.0625, 0.03125, 0.015625), 33),
    # configs/rate_2d.cfg: its lattice, its whole sweep down to eps = 1/16
    # and its 9 targets
    (2, 3.0, [(1.0, (1, 0)), (1.0, (0, 1))], 0.125, 0.125, 4.0, (0.25, 0.125, 0.0625), 9),
])
def test_stage_two_is_the_whole_layer_minimum_at_rate_sweep_size(d, a0, terms, dt, dx,
                                                                  vmax, eps_list, count):
    # stage 2 searches one unit per axis around the stage-1 minimizer; on the
    # rate sweeps' own tables it must find the minimum over the whole layer
    lagr = build_lagrangian(normalize(cosine_spec(d, a0, *terms))[0])
    t = 1.0
    table = compute_metric_table(lagr, horizon=t / min(eps_list), dt=dt, dx=dx,
                                 vmax=vmax, keep="integers")
    ys = target_set(d, count, 2.0 * t, dx)
    for eps in eps_list:
        got = solve_oscillatory(cone_data(d), lagr, eps, t, ys, table=table).values
        want = brute_oscillatory(cone_data(d), lagr, eps, t, ys, table)
        assert np.array_equal(got, want), eps


def test_oscillatory_matches_the_reference_dp_from_each_source():
    # d = 1, integer y/eps: u_eps(t, y) = min over lattice x/eps of
    # u0(x) + eps m(T, x/eps, y/eps), with the metric from the reference DP
    # started at each source x/eps, built without the tiles
    lagr = build_lagrangian(cosine_spec(1, 2.0, (1.0, (1,))))
    dt, dx, vmax, eps, t = 0.25, 0.25, 2.0, 0.5, 1.0
    table = compute_metric_table(lagr, horizon=t / eps, dt=dt, dx=dx, vmax=vmax,
                                 keep="integers")
    n_steps = round(t / eps / dt)
    reach = round(vmax * t / eps / dx)
    u0 = bump_data(1, [(1.0, [0.3], 0.7), (-2.0, [-1.0], 0.4)])
    ys = np.array([[-1.0], [0.0], [0.5], [1.5]])
    got = solve_oscillatory(u0, lagr, eps, t, ys, table=table).values
    refs = {}
    for y, value in zip(ys[:, 0], got):
        jy = round(y / (eps * dx))
        best = np.inf
        for jx in range(jy - reach, jy + reach + 1):
            if jx not in refs:
                refs[jx] = brute_metric(lagr, n_steps, dt, dx, vmax, source=jx * dx)
            if (jy - jx,) in refs[jx]:
                best = min(best, u0([[jx * eps * dx]])[0] + eps * refs[jx][(jy - jx,)])
        assert value == pytest.approx(best + t * lagr.spec.normalization_shift,
                                      abs=1e-12), y


def test_oscillatory_rejects_a_target_off_the_lattice():
    lagr, table, data = _oscillatory_cases(2)
    # y/eps = 4 sqrt 2 is no multiple of dx = 1/8
    with pytest.raises(ConfigurationError,
                       match=r"target \[1.414.*\]: y/\(eps dx\) = 45.25.* is not an integer"):
        solve_oscillatory(data[0], lagr, 0.25, 1.0, [[0.0, 0.0], [2 ** 0.5, 2 ** 0.5]],
                          table=table)


@pytest.mark.parametrize("d", [1, 2])
def test_batched_effective_matches_per_target_loop(d):
    # far targets and steep affine data push the minimizing velocity to the
    # edge of the Lbar box, where the golden intervals are cut by the box
    if d == 1:
        lagr = build_lagrangian(cosine_spec(1, 2.0, (1.0, (1,))))
        model = build_effective_model(lagr, v_box_half=2.0, v_step=0.25, n_max=4,
                                      dt=0.125, dx=0.0625, vmax=4.0)
    else:
        lagr = build_lagrangian(cosine_spec(2, 3.0, (1.0, (1, 0)), (1.0, (0, 1))))
        model = build_effective_model(lagr, v_box_half=1.5, v_step=0.5, n_max=2,
                                      dt=0.25, dx=0.125, vmax=3.0)
    _, _, data = _oscillatory_cases(d)
    rng = np.random.default_rng(11 + d)
    for u0 in data:
        for t in (0.5, 1.0):
            ys = rng.uniform(-4.0, 4.0, size=(6, d))
            ys[0] = 0.0
            got = solve_effective(u0, model, t, ys).values
            want = reference_effective(u0, model, t, ys)
            assert np.array_equal(got, want), (u0.family, t)


@pytest.mark.parametrize("targets", [[[1.0, 0.0, 0.5, 0.5]], [1.0, 0.0, 0.5],
                                     [0.5], 0.5, [[[0.5, 0.5]]]])
def test_solvers_reject_targets_of_another_width(targets):
    # on a d = 2 problem a (1, 4) target used to be read as two targets and
    # a (3,) target raised a bare ValueError
    lagr, table, data = _oscillatory_cases(2)
    model = build_effective_model(lagr, v_box_half=1.5, v_step=0.5, n_max=2,
                                  dt=0.25, dx=0.125, vmax=3.0)
    with pytest.raises(DomainError, match="targets of shape .* in d = 2"):
        solve_oscillatory(data[0], lagr, 0.25, 1.0, targets, table=table)
    with pytest.raises(DomainError, match="targets of shape .* in d = 2"):
        solve_effective(data[0], model, 1.0, targets)
    # one (d,) point is one target
    point = [0.5, 0.25]
    assert solve_oscillatory(data[0], lagr, 0.25, 1.0, point, table=table).values.tolist() \
        == solve_oscillatory(data[0], lagr, 0.25, 1.0, [point], table=table).values.tolist()
    assert solve_effective(data[0], model, 1.0, point).values.tolist() \
        == solve_effective(data[0], model, 1.0, [point]).values.tolist()


def test_one_dimensional_solvers_take_a_vector_of_targets_not_pairs():
    # in d = 1 an (n,) vector is n targets; (n, 2) points are refused
    lagr, table, data = _oscillatory_cases(1)
    model = build_effective_model(FREE, v_box_half=1.0, v_step=0.5, n_max=2,
                                  dt=0.25, dx=0.125, vmax=4.0)
    ys = np.array([-0.5, 0.0, 0.75])
    calls = [lambda y: solve_oscillatory(data[0], lagr, 0.25, 1.0, y, table=table),
             lambda y: solve_effective(data[0], model, 1.0, y),
             lambda y: solve_fd_oracle(data[0], lagr.spec, 0.25, 1.0, y,
                                       points_per_eps=8)]
    for solve in calls:
        assert solve(ys).values.tolist() == solve(ys[:, None]).values.tolist()
        with pytest.raises(DomainError, match="targets of shape \\(1, 2\\) in d = 1"):
            solve([[0.0, 0.5]])


def test_solvers_accept_an_empty_target_set():
    lagr, table, data = _oscillatory_cases(1)
    model = build_effective_model(FREE, v_box_half=1.0, v_step=0.5, n_max=2,
                                  dt=0.25, dx=0.125, vmax=4.0)
    empty = np.zeros((0, 1))
    assert solve_oscillatory(data[0], lagr, 0.25, 1.0, empty, table=table).values.shape == (0,)
    assert solve_effective(data[0], model, 1.0, empty).values.shape == (0,)
    # the oracle used to raise a bare ValueError while sizing its box
    assert solve_fd_oracle(data[0], lagr.spec, 0.25, 1.0, empty).values.shape == (0,)
