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
from hjhom.metric import MetricTable
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
from hjhom.util import golden_minimize, grid_points

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
    radius = table.cone.speed * 1.0
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


def test_fd_oracle_non_finite_state_raises():
    # +inf on x > 0.3: the state goes non-finite and stays so, whenever the
    # solver checks it
    inf_right = InitialData(lambda x: np.where(x[:, 0] > 0.3, np.inf, 0.0), 0.0,
                            "inf-right", 1)
    with np.errstate(invalid="ignore", over="ignore"):
        with pytest.raises(DomainError, match="non-finite"):
            solve_fd_oracle(inf_right, cosine_spec(1, 1.0), eps=0.5, t=0.25,
                            targets=[[0.0]], points_per_eps=8)


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
        lips.append(max_slope(sol.points, sol.values))
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


# --- the batched refinement against the per-target loops it replaced ------

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


def reference_oscillatory(u0, lagrangian, eps, t, targets, table):
    """solve_oscillatory's values, one target and one closure at a time."""
    big_t = t / eps
    d = table.dimension
    radius = table.cone.speed * t
    targets = np.asarray(targets, dtype=float).reshape(-1, d)
    values = np.empty(len(targets))
    for i, y in enumerate(targets):
        lo = np.ceil((y - radius) / eps).astype(int)
        hi = np.floor((y + radius) / eps).astype(int)
        xs = grid_points([np.arange(l, h + 1) for l, h in zip(lo, hi)]) * eps
        xs = xs[np.linalg.norm(xs - y, axis=1) <= radius + 1e-12]
        obj = u0(xs) + eps * table.interpolate_many(big_t, (y - xs) / eps)
        k = int(np.argmin(obj))

        def objective(pt):
            if np.linalg.norm(pt - y) > radius:
                return np.inf
            return float(u0(pt[None, :])[0]
                         + eps * table.interpolate_many(big_t, (y - pt) / eps)[0])

        best = min(obj[k], reference_refine(objective, xs[k], objective(xs[k]),
                                            eps, -np.inf, np.inf))
        values[i] = best + t * lagrangian.spec.normalization_shift
    return values


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
            lv, _ = ltab.interpolate(vv[None, :])
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


def _random_targets(rng, d, n, radius, eps):
    """Random targets, a third of them on eps Z^d; the first is moved so that
    y_1 - radius is a lattice coordinate (its ball boundary meets the lattice)."""
    pts = rng.uniform(-2.0, 2.0, size=(n, d))
    pts[: n // 3] = np.round(pts[: n // 3] / eps) * eps
    pts[0, 0] += radius - np.floor(radius / eps) * eps
    return pts


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


@pytest.mark.parametrize("d", [1, 2])
def test_batched_oscillatory_matches_per_target_loop(d):
    # affine data with a steep slope puts minimizers on the ball boundary,
    # where the golden points see +inf objectives
    lagr, table, data = _oscillatory_cases(d)
    rng = np.random.default_rng(7 + d)
    for u0 in data:
        for eps in (0.5, 0.25):
            t = float(rng.choice([0.5, 1.0]))
            radius = table.cone.speed * t
            ys = _random_targets(rng, d, 7, radius, eps)
            got = solve_oscillatory(u0, lagr, eps, t, ys, table=table).values
            want = reference_oscillatory(u0, lagr, eps, t, ys, table)
            assert np.array_equal(got, want), (u0.family, eps, t)


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


def test_solvers_accept_an_empty_target_set():
    lagr, table, data = _oscillatory_cases(1)
    model = build_effective_model(FREE, v_box_half=1.0, v_step=0.5, n_max=2,
                                  dt=0.25, dx=0.125, vmax=4.0)
    empty = np.zeros((0, 1))
    assert solve_oscillatory(data[0], lagr, 0.25, 1.0, empty, table=table).values.shape == (0,)
    assert solve_effective(data[0], model, 1.0, empty).values.shape == (0,)


@pytest.mark.parametrize("d", [1, 2])
def test_oscillatory_table_reads_do_not_grow_per_target(d, monkeypatch):
    # the coarse stage reads the table once per target; the refinement reads
    # it 1 + 2 passes x d axes x 27 golden evaluations times for all targets
    lagr, table, data = _oscillatory_cases(d)
    calls = []
    original = MetricTable.interpolate_many

    def counted(self, t, Z):
        calls.append(len(Z))
        return original(self, t, Z)

    monkeypatch.setattr(MetricTable, "interpolate_many", counted)
    n = 9
    ys = np.random.default_rng(d).uniform(-1.0, 1.0, size=(n, d))
    solve_oscillatory(data[0], lagr, 0.25, 1.0, ys, table=table)
    assert len(calls) <= n + 1 + 54 * d
