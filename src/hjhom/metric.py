"""Lattice metric problem: minimal path cost m(t, 0, x) by value iteration.

The metric of the control formulation,
    m(t, x, y) = inf over paths from x to y in time t of integral of L,
is computed on a space-time lattice (time step dt, spatial spacing dx) by

    M(0, .) = +inf except M(0, 0) = 0,
    M(s + dt, z) = min over |z - w| <= vmax dt of
                     M(s, w) + dt L((w + z)/2 mod 1, (z - w)/dt),

i.e. midpoint rule in space, left endpoint in time.  dx must divide 1 and dt
must divide 1 so that integer space-time points are lattice points; the
per-step cost then depends on the source node only through its residue class
mod 1, which makes the cost arrays small periodic tiles.

Each layer is relaxed without gathers: the previous layer is copied into a
+inf-padded frame that starts on a multiple of M = 1/dx, so a frame index's
residue mod M is its position inside a block of M cells.  Reshaped to (B, M)
in d = 1 or (B, M, B, M) in d = 2, the frame takes each offset's M^d cost
tile by a broadcast add into one reused buffer, and the window of that
buffer holding the real sources is min-ed into the target slice.  These are
the same offsets, the same additions and the same minima as adding a
gathered cost array to the layer, so every layer is bitwise-identical to the
gather form (tests/test_metric.py keeps it as the reference).

Values are reported on the cone |x| <= C t.  The table keeps every layer (for
path backtracking) or only integer-time layers (to save memory on long
horizons).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, DomainError, UnreachableError
from .legendre import LagrangianField
from .util import (
    as_int_exact,
    format_float,
    grid_points,
    multilinear,
    round_half_toward_zero,
    write_rows,
)


@dataclass(frozen=True)
class Cone:
    """Space-time cone |x| <= speed * t (Euclidean norm in x)."""

    speed: float

    def contains(self, t, x) -> bool:
        """Membership with tolerance 1e-9."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        return bool(t >= -1e-9 and np.linalg.norm(x) <= self.speed * t + 1e-9)


def default_speed_cap(lagrangian: LagrangianField, max_ratio: float) -> float:
    """Speed cap vmax = 4 sqrt(max V) + 2 max|x|/t from the minimizer Lipschitz
    bound, generous enough that minimizers for targets with |x|/t <= max_ratio
    stay strictly inside the cap."""
    c1 = 4.0 * np.sqrt(max(lagrangian.spec.potential.upper_bound(), 0.0))
    return float(c1 + 2.0 * max_ratio)


@dataclass
class DiscretePath:
    """Uniformly time-stepped polyline with its running cost."""

    dt: float
    nodes: np.ndarray  # (n+1, d)
    cost: float


def path_cost(lagrangian: LagrangianField, dt: float, nodes: np.ndarray,
              incs: np.ndarray) -> float:
    """Running cost of the polyline through ``nodes`` (n+1, d) with step
    increments ``incs`` (n, d), under the table's quadrature (midpoint in
    space, left endpoint in time): a backtracked minimizer called with
    np.diff(nodes, axis=0) reproduces its table value up to roundoff."""
    mids = np.mod((nodes[:-1] + nodes[1:]) / 2.0, 1.0)
    return float(np.sum(dt * lagrangian(mids, incs / dt)))


@dataclass
class MetricTable:
    """m(k dt, 0, z) for lattice z, organized per time layer.

    layers[k] is the value array over indices j in [-reach_k, reach_k]^d
    (position z = j dx); layer_times[k] = k dt for stored k.  Entries are
    +inf where unreachable.  Reported values are restricted to the cone.
    """

    dt: float
    dx: float
    vmax: float
    cone: Cone
    dimension: int
    layer_times: np.ndarray
    layers: list
    reaches: list
    lagrangian: LagrangianField
    offsets: np.ndarray          # (n, d) lattice steps, lexicographic
    tiles: list                  # per-offset cost over source residues mod M
    provenance: dict = field(default_factory=dict)

    # -- lookups ---------------------------------------------------------

    def _layer_index(self, t: float) -> int:
        return self._layer_pos(as_int_exact(t / self.dt, "t/dt"))

    def _layer_pos(self, k: int) -> int:
        times = self.layer_times
        pos = np.searchsorted(times, k)
        if pos >= len(times) or times[pos] != k:
            raise ConfigurationError(
                f"layer k={k} not stored (mode without full layers?)")
        return int(pos)

    def value_at(self, t: float, z) -> float:
        """Exact lattice value at time t (a stored layer) and z = j dx."""
        z = np.atleast_1d(np.asarray(z, dtype=float))
        k = self._layer_index(t)
        j = np.asarray([as_int_exact(c / self.dx, "z/dx") for c in z])
        reach = self.reaches[k]
        if np.any(np.abs(j) > reach):
            return np.inf
        return float(self.layers[k][tuple(j + reach)])

    def interpolate(self, t: float, z) -> float:
        """Multilinear in space at a stored layer time; any other t raises."""
        return float(self._interp_layer(self._layer_index(t), z)[0])

    def interpolate_many(self, t: float, Z: np.ndarray) -> np.ndarray:
        """Vectorized multilinear interpolation at one stored layer time.

        Z has shape (n, d) in physical coordinates; queries outside the
        reachable box return +inf (the DP value there), not a clamp.
        """
        return self._interp_layer(self._layer_index(t), Z)

    def _interp_layer(self, pos: int, Z) -> np.ndarray:
        u = np.asarray(Z, dtype=float).reshape(-1, self.dimension) / self.dx
        u += self.reaches[pos]
        i0 = np.floor(u).astype(int)
        return multilinear(self.layers[pos], i0, u - i0)

    @property
    def horizon(self) -> float:
        return float(self.layer_times[-1] * self.dt)

    def lipschitz_estimate(self) -> float:
        """Measured spatial Lipschitz constant of m over the final cone layer."""
        arr, in_cone = self._cone_cells(len(self.layer_times) - 1, 1)
        worst = 0.0
        for ax in range(self.dimension):
            a = np.moveaxis(arr, ax, 0)
            with np.errstate(invalid="ignore"):
                diff = np.abs(a[1:] - a[:-1]) / self.dx
            # keep only finite pairs inside the cone
            inside = np.moveaxis(in_cone, ax, 0)
            mask = np.isfinite(diff) & inside[1:] & inside[:-1]
            if mask.any():
                worst = max(worst, float(diff[mask].max()))
        return worst

    def _cone_cells(self, pos: int, step: int):
        """Stored layer pos at the points z = i step dx (i integer), as a view,
        and the mask of those inside the cone |z| <= C t (tolerance 1e-9)."""
        reach = self.reaches[pos]
        m = reach // step
        z = np.arange(-m, m + 1) * step * self.dx
        sq = 0.0
        for ax in range(self.dimension):
            sq = sq + (z * z).reshape((-1,) + (1,) * (self.dimension - 1 - ax))
        lim = self.cone.speed * (self.layer_times[pos] * self.dt)
        view = self.layers[pos][(slice(reach - m * step, None, step),) * self.dimension]
        return view, np.sqrt(sq) <= lim + 1e-9

    def integer_cone(self):
        """Integer cone points (k, z) at integer times k >= 1 and the table
        values there (+inf where unreachable), as arrays k (n,), z (n, d) and
        values (n,): layer by layer, z lexicographic within a layer."""
        big_m = as_int_exact(1.0 / self.dx, "1/dx")
        parts = [(np.zeros(0, int), np.zeros((0, self.dimension), int), np.zeros(0))]
        for pos, k in enumerate(self.layer_times):
            t = k * self.dt
            if abs(t - round(t)) > 1e-9 or round(t) == 0:
                continue
            view, in_cone = self._cone_cells(pos, big_m)
            z = np.argwhere(in_cone) - self.reaches[pos] // big_m
            parts.append((np.full(len(z), int(round(t))), z, view[in_cone]))
        return tuple(np.concatenate(a) for a in zip(*parts))

    def to_csv(self, path) -> None:
        """Cone-restricted export: k, z_1..z_d, value; rows are made one layer
        at a time."""
        def rows():
            for pos, k in enumerate(self.layer_times):
                arr, in_cone = self._cone_cells(pos, 1)
                keep = in_cone & np.isfinite(arr)
                z = (np.argwhere(keep) - self.reaches[pos]) * self.dx
                yield from ((int(k), *zz, v) for zz, v in zip(z, arr[keep]))

        cols = ["k"] + [f"z{i+1}" for i in range(self.dimension)] + ["value"]
        write_rows(path, [
            "# schema=hjhom.metric.v1 "
            f"dt={format_float(self.dt)} dx={format_float(self.dx)} "
            f"vmax={format_float(self.vmax)} cone={format_float(self.cone.speed)} "
            f"spec={self.provenance.get('spec', '?')}", ",".join(cols)], rows(), ",")


def _offsets(dimension: int, step_radius: float) -> np.ndarray:
    """Integer vectors o with |o| <= step_radius, lexicographically sorted."""
    s = int(np.floor(step_radius + 1e-9))
    pts = grid_points([np.arange(-s, s + 1)] * dimension)
    keep = np.linalg.norm(pts, axis=1) <= step_radius + 1e-9
    return pts[keep]


def _cost_tiles(lagrangian: LagrangianField, offsets: np.ndarray,
                big_m: int, dx: float, dt: float) -> list:
    """Per-offset cost tile over source residues r in [0, M)^d.

    tile[r] = dt * L( ((2 r + o) mod 2M) / (2M), o dx / dt ); the midpoint of
    the step from source w (residue r) to w + o dx.
    """
    d = offsets.shape[1]
    res = grid_points([np.arange(big_m)] * d).reshape((big_m,) * d + (d,))
    tiles = []
    for o in offsets:
        mid = np.mod((2 * res + o) , 2 * big_m) / (2.0 * big_m)
        v = o * dx / dt
        tiles.append(dt * lagrangian(mid, np.broadcast_to(v, mid.shape)))
    return tiles


def compute_metric_table(lagrangian: LagrangianField, horizon: float,
                         cone: Cone | None = None, dt: float = 0.25,
                         dx: float = 0.25, vmax: float = 4.0,
                         keep: str = "all") -> MetricTable:
    """Value-iterate the metric DP up to the horizon.

    keep: "all" stores every layer (needed for path backtracking);
    "integers" stores only integer-time layers (long-horizon memory saver).
    """
    d = lagrangian.dimension
    if vmax * dt < dx - 1e-12:
        raise ConfigurationError(
            f"vmax*dt = {vmax * dt} < dx = {dx}: neighbors unreachable")
    big_m = as_int_exact(1.0 / dx, "1/dx")
    per_unit = as_int_exact(1.0 / dt, "1/dt")
    n_layers = as_int_exact(horizon / dt, "horizon/dt")
    if n_layers < 1:
        raise ConfigurationError("horizon must cover at least one time step")
    if cone is None:
        cone = Cone(vmax)

    offsets = _offsets(d, vmax * dt / dx)
    if len(offsets) <= 1:
        raise ConfigurationError("empty reachable set: enlarge vmax*dt/dx")
    tiles = _cost_tiles(lagrangian, offsets, big_m, dx, dt)
    s_max = int(np.max(np.abs(offsets)))
    block_tiles = [tile.reshape((1, big_m) * d) for tile in tiles]

    keep_all = keep == "all"
    layer_times = [0]
    layers = [np.zeros((1,) * d)]
    reaches = [0]

    prev = layers[0]
    prev_reach = 0
    for k in range(1, n_layers + 1):
        n = 2 * prev_reach + 1
        new_reach = prev_reach + s_max
        new = np.full((2 * new_reach + 1,) * d, np.inf)
        # frame cell i holds source j = i - a - prev_reach; a + prev_reach is
        # a multiple of M, so j mod M is i's place in its block of M cells.
        # The +inf padding lies outside `window`.
        a = -prev_reach % big_m
        blocks = -(-(a + n) // big_m)
        inner = (slice(a, a + n),) * d
        frame = np.full((blocks * big_m,) * d, np.inf)
        frame[inner] = prev
        buf = np.empty_like(frame)
        window = buf[inner]
        frame_b, buf_b = (f.reshape((blocks, big_m) * d) for f in (frame, buf))
        for o, tile in zip(offsets, block_tiles):
            np.add(frame_b, tile, out=buf_b)
            sl = tuple(slice(s_max + c, s_max + c + n) for c in o)
            np.minimum(new[sl], window, out=new[sl])
        if keep_all or (k % per_unit == 0) or k == n_layers:
            layer_times.append(k)
            layers.append(new)
            reaches.append(new_reach)
        prev, prev_reach = new, new_reach

    return MetricTable(
        dt=dt, dx=dx, vmax=vmax, cone=cone, dimension=d,
        layer_times=np.asarray(layer_times), layers=layers, reaches=reaches,
        lagrangian=lagrangian, offsets=offsets, tiles=tiles,
        provenance={
            "spec": lagrangian.spec.content_hash(),
            "quadrature": "midpoint-space/left-time",
            "keep": keep,
        },
    )


def extract_minimizing_path(table: MetricTable, t: float, x) -> DiscretePath:
    """Backtrack argmin choices from (t, x); ties take the lexicographically
    smallest increment.  Requires a table built with keep="all"."""
    if table.provenance.get("keep") != "all":
        raise ConfigurationError("path extraction requires keep='all' table")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if not table.cone.contains(t, x):
        raise DomainError(f"({t}, {x}) outside the cone")
    k_final = as_int_exact(t / table.dt, "t/dt")
    j = np.asarray([as_int_exact(c / table.dx, "x/dx") for c in x])
    value = table.value_at(t, x)
    if not np.isfinite(value):
        raise UnreachableError(f"metric is +inf at ({t}, {x})")

    # cand holds the sums the DP min-ed into the target, so the table value
    # is their first minimum: the lexicographically smallest such increment
    big_m = as_int_exact(1.0 / table.dx, "1/dx")
    offsets = table.offsets
    tiles = np.stack(table.tiles)
    rows = np.arange(len(offsets))
    nodes = [j]
    cur = j
    for k in range(k_final, 0, -1):
        reach = table.reaches[k - 1]
        src = cur - offsets
        inside = np.all(np.abs(src) <= reach, axis=1)
        prev = table.layers[k - 1][tuple(np.clip(src + reach, 0, 2 * reach).T)]
        cand = np.where(inside, prev + tiles[(rows,) + tuple(np.mod(src, big_m).T)], np.inf)
        best = int(np.argmin(cand))
        if not np.isfinite(cand[best]):
            raise UnreachableError("backtracking found no predecessor")
        cur = src[best]
        nodes.append(cur)
    nodes.reverse()
    pts = np.asarray(nodes, dtype=float) * table.dx
    return DiscretePath(dt=table.dt, nodes=pts, cost=float(value))


def _pull_into_cone(z: np.ndarray, lim: float) -> np.ndarray:
    """Integer point z stepped toward the origin, largest coordinate first,
    until |z| <= lim (at most 8 steps per coordinate).  Modifies z."""
    for _ in range(len(z) * 8):
        if np.linalg.norm(z) <= lim + 1e-9:
            break
        i = int(np.argmax(np.abs(z)))
        z[i] -= np.sign(z[i])
    return z


def metric_point(table: MetricTable, t: float, x, y) -> float:
    """m(t, x, y) reduced to the origin-based table.

    Integer x translates exactly: m(t, x, y) = m(t, 0, y - x), interpolated
    on the table.  Otherwise both endpoints are rounded to integers (ties
    toward 0, pulled into the cone) and the value at (ceil t, [y] - [x]) is
    returned, following the constant-error rounding reduction.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    if not table.cone.contains(t, y - x):
        raise DomainError(f"(t, y-x) = ({t}, {y - x}) outside the cone")
    xr = np.round(x)
    if np.max(np.abs(x - xr)) < 1e-9:
        return table.interpolate(t, y - xr)
    tc = int(np.ceil(t - 1e-12))
    z = round_half_toward_zero(y) - round_half_toward_zero(x)
    return table.value_at(float(tc), _pull_into_cone(z, table.cone.speed * tc))
