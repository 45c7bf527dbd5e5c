"""Lattice metric problem: minimal path cost m(t, 0, x) by value iteration.

The metric of the control formulation,
    m(t, x, y) = inf over paths from x to y in time t of integral of L,
is computed on a space-time lattice (time step dt, spatial spacing dx) by

    M(0, .) = +inf except M(0, 0) = 0,
    M(s + dt, z) = min over |z - w| <= vmax dt of
                     M(s, w) + dt L((w + z)/2 mod 1, (z - w)/dt),

i.e. midpoint rule in space, left endpoint in time.  dx must divide 1 and dt
must divide 1 so that integer space-time points are lattice points; the
cost of a step then depends on its target node only through its residue
class mod 1, so the step costs are one small periodic array, costs[o][r]
for the o-th step into a target of residue r in [0, M)^d, M = 1/dx.
_step_graph builds them for the DP, backtracking and the torus oracle.

Each layer is relaxed without a gathered cost array per step, by one of two
kernels.  Both make the same offsets' additions as adding the gathered cost
array costs[o][j mod M] at the targets j to the layer, and the same minima:
the values are never nan and never -0.0, so a minimum is exact and
order-free.  Every layer is therefore bitwise-identical to the gather form
(tests/test_metric.py keeps it as the reference).

Frames.  Layer k is relaxed from one of two +inf frames, made once per
table, into the other.  Frame row i holds the row z1 = i - s (s the largest
step); in d >= 2 the other axes hold, around a fixed centre cell, the last
layer, the s cells past it and the pitch pad below.  Cells past a layer's
reach stay +inf, as reaches only grow, and a table allocates per layer only
the full layer of a stored time.

d = 1, the chunk kernel.  A reversed sliding-window view of each frame
holds in row o the source j - c_o of every target j, c_o the o-th step.
The costs are tiled to a chunk of L cells, a whole number of blocks of M
with at most CHUNK_CELLS sums, so for a chunk that starts on a multiple of M
one add of the window and the chunk costs into a reused 64-byte-aligned
buffer gives every sum of the chunk, and one min-reduce over the steps
writes its targets into the other frame.

d >= 2, the group kernel.  The steps are grouped by their leading
components (in d = 2 by the first-axis step c0); a group's last components
run over one range [-w, w], because the steps are a lattice ball.  The
source frame's last-axis sliding-window view holds in window q the source
of every target by the last step s - q, over pitch = 8 ceil(width / 8)
cells, width = 2 reach + 1: the pad targets read only +inf and are dropped,
and every row of the reused buffers starts on a 64-byte boundary.  All is
step-major: a group's costs are costs[i:j][::-1], (steps, M, M) in d = 2,
widened to the pitch by one take per layer, and its windows are read with
the step axis first.  The target rows z1 >= 0 are relaxed in blocks of M
rows that start on multiples of M, so row i of a block has residue i: per
group and block, one add of the windows and the widened costs into sums of
shape (steps, rows, pitch), and one min-reduce over axis 0 into scratch
rows, copied into the target rows for the first group and min-ed into them
for the others.

Ufunc buffers.  numpy's ufunc iterator buffers np.getbufsize() cells
(8192 by default).  When the buffer holds two or more rows of an operand
whose rows cannot be joined into one strided run, such as a sliding-window
view, numpy (2.4 measured) copies the operand into it; below two rows it
reads the operand in place.  So every kernel runs with its thread's buffer
at one row of its window (_row_buffer), and gives the caller's size back on
return or raise: a d = 1 table once, at the chunk width, and _relax_rows
per layer and thread, at the pitch.  The size is per thread (a context
variable from numpy 2.0, a thread-local before), and a pool thread starts
with the default.  In d >= 2 the step-major sums make the one row pay: a
reduce over axis 0 loses little at one row, where one over a step axis
second to last lost more than the add gained (see CHANGES.md).  The adds
and minima are elementwise and a minimum is order-free, so the layers are
the same bytes at any buffer size; the costs, whose float sums could
regroup with it, are built outside the sized scopes.

Only half of each layer is relaxed.  Every supported V is a cosine series,
hence even, so a step from w to w + o costs what the step from -w to -w - o
costs.  _cost_tiles makes that bitwise (the cost of -o at residue (-r) mod
M is the cost of o at r; cos 2 pi (1 - y) is not bitwise cos 2 pi y), so a
layer equal to its flip (reversed on every axis) gives a next layer equal to
its flip.  The kernels relax the rows z1 >= 0; the frame rows -s..-1 are
the flip of the rows 1..s, and a stored layer the flip of its rows z1 >= 1
joined to its rows z1 >= 0.  This gives the bytes of the full-frame DP,
m(t, 0, z) = m(t, 0, -z) bitwise.  A potential that is not even would break
this premise.

Threads are a d >= 2 matter.  With threads > 1, the row blocks of a d >= 2
layer whose rows z1 >= 0 hold at least SPLIT_MIN_CELLS cells are split into
contiguous runs, one per thread, each relaxing every group over its rows
with buffers of its own.  The runs are disjoint, so no cell is written by
two threads, and each cell gets the same sums and the same minima as on one
thread: every layer is byte-identical for any thread count.  One thread is
the one-run case of the same loop.  A d = 1 table is built on one thread:
splitting its chunks between two threads was measured no faster on the
rate sweep's d = 1 tables, and slower in most runs (see CHANGES.md).

Entries are +inf where k steps of the stencil do not reach, and the finite
entries are the table's only domain.  The table keeps every layer (for
path backtracking) or only integer-time layers (to save memory on long
horizons).
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigurationError, DomainError, UnreachableError
from .legendre import LagrangianField
from .util import as_int_exact, format_float, grid_points, is_whole, write_rows


# A d >= 2 layer whose rows z1 >= 0 hold at least this many cells is split
# into runs of row blocks, one per thread.  Each run makes a few small numpy
# calls per block, and the threads pass the interpreter lock back and forth
# between them: on two threads a smaller layer took longer than on one
# (measured per layer on the rate_2d.cfg main table, see CHANGES.md).
SPLIT_MIN_CELLS = 200000

# A d = 1 chunk holds at most this many sums (steps x target cells), or one
# block of M cells when a block holds more: its costs and its sums buffer
# then take 512 KB each.  With the window read in place (_row_buffer), this
# size was faster than half of it on all three rate_1d.cfg tables, and
# larger sizes were no faster (see CHANGES.md).
CHUNK_CELLS = 65536


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
    (position z = j dx), so reach_k = layers[k].shape[0] // 2;
    layer_times[k] = k dt for stored k.  Entries are
    +inf where unreachable; the finite entries are the table's domain.
    """

    dt: float
    dx: float
    vmax: float
    dimension: int
    layer_times: np.ndarray
    layers: list
    lagrangian: LagrangianField
    offsets: np.ndarray          # (n, d) lattice steps, lexicographic
    costs: np.ndarray            # (n_steps,) + (M,) * d step costs by target residue

    # -- lookups ---------------------------------------------------------

    def _layer_pos(self, k: int) -> int:
        times = self.layer_times
        pos = np.searchsorted(times, k)
        if pos >= len(times) or times[pos] != k:
            raise ConfigurationError(f"layer k={k} not stored: the table keeps {len(times)} "
                                     f"layers, t = 0 to its horizon {self.horizon}")
        return int(pos)

    def layer(self, t: float) -> tuple:
        """The stored layer at time t and its reach: entry i holds
        m(t, 0, (i - reach) dx).  Any other t raises."""
        layer = self.layers[self._layer_pos(as_int_exact(t / self.dt, "t/dt"))]
        return layer, layer.shape[0] // 2

    def value_at(self, t, z):
        """Exact lattice values at stored times t and points z = j dx: one
        point, a (d,) vector or a scalar in d = 1, at a scalar t gives a
        float; points (n, d) give an (n,) array, at one time t or a time per
        point, t (n,).  A point beyond the reach reads +inf; a time not
        stored or a point off the lattice raises ConfigurationError, and
        points whose last axis is not d, or times neither one nor one per
        point, DomainError."""
        z, t = np.asarray(z, dtype=float), np.asarray(t, dtype=float)
        points = np.atleast_2d(z)
        if (z.ndim > 2 or points.shape[1] != self.dimension or t.ndim > 1
                or t.size not in (1, len(points))):
            raise DomainError(f"times of shape {t.shape} for points of shape {z.shape} "
                              f"on a d = {self.dimension} table")
        j = as_int_exact(points / self.dx, "z/dx")
        ks = np.broadcast_to(as_int_exact(t / self.dt, "t/dt"), len(j))
        values = np.empty(len(j))
        # one read per stored layer: a set of times, not np.unique, whose
        # first call imports numpy.ma (1.2 MB of peak RSS)
        for k in set(ks.tolist()):
            values[ks == k] = self._values(self._layer_pos(k), j[ks == k])
        return float(values[0]) if z.ndim < 2 else values

    def _values(self, pos: int, j: np.ndarray) -> np.ndarray:
        """layers[pos] at lattice points j (n, d); beyond the reach, node 0 masked to +inf."""
        layer = self.layers[pos]
        reach = layer.shape[0] // 2
        inside = np.all(np.abs(j) <= reach, axis=1)
        safe = np.where(inside[:, None], j + reach, 0)
        return np.where(inside, layer[tuple(safe.T)], np.inf)

    @property
    def horizon(self) -> float:
        return float(self.layer_times[-1] * self.dt)

    def integer_cone(self):
        """Reached integer points (k, z) at integer times k >= 1 and the finite
        table values there, as arrays k (n,), z (n, d) and values (n,): layer
        by layer, z lexicographic within a layer."""
        big_m = self.costs.shape[-1]
        parts = [(np.zeros(0, int), np.zeros((0, self.dimension), int), np.zeros(0))]
        for layer, k in zip(self.layers, self.layer_times):
            t = k * self.dt
            if not is_whole(t) or round(t) == 0:
                continue
            reach = layer.shape[0] // 2
            view = layer[(slice(reach % big_m, None, big_m),) * self.dimension]
            reached = np.isfinite(view)
            z = np.argwhere(reached) - reach // big_m
            parts.append((np.full(len(z), int(round(t))), z, view[reached]))
        return tuple(np.concatenate(a) for a in zip(*parts))

    def to_csv(self, path) -> None:
        """Export of the finite cells: k, z_1..z_d, value; rows are made one
        layer at a time."""
        def rows():
            for arr, k in zip(self.layers, self.layer_times):
                keep = np.isfinite(arr)
                z = (np.argwhere(keep) - arr.shape[0] // 2) * self.dx
                yield from ((int(k), *zz, v) for zz, v in zip(z, arr[keep]))

        cols = ["k"] + [f"z{i+1}" for i in range(self.dimension)] + ["value"]
        write_rows(path, [
            "# schema=hjhom.metric.v1 "
            f"dt={format_float(self.dt)} dx={format_float(self.dx)} "
            f"vmax={format_float(self.vmax)} cone={format_float(self.vmax)} "
            f"spec={self.lagrangian.spec.content_hash()}", ",".join(cols)], rows(), ",")


def check_reach(vmax: float, dt: float, dx: float) -> None:
    """vmax, dt and dx finite and > 0, and vmax dt >= dx, so that one step
    reaches the lattice neighbours."""
    for name, value in (("vmax", vmax), ("dt", dt), ("dx", dx)):
        if not (np.isfinite(value) and value > 0):
            raise ConfigurationError(f"{name} = {value} must be finite and > 0")
    if vmax * dt < dx - 1e-12:
        raise ConfigurationError(
            f"vmax*dt = {vmax * dt} < dx = {dx}: neighbors unreachable")


def _offsets(dimension: int, step_radius: float) -> np.ndarray:
    """Integer vectors o with |o| <= step_radius, lexicographically sorted."""
    s = int(np.floor(step_radius + 1e-9))
    pts = grid_points([np.arange(-s, s + 1)] * dimension)
    keep = np.linalg.norm(pts, axis=1) <= step_radius + 1e-9
    return pts[keep]


def _cost_tiles(lagrangian: LagrangianField, offsets: np.ndarray,
                big_m: int, dx: float, dt: float) -> np.ndarray:
    """The steps' costs by target residue, an (n_steps,) + (M,) * d array.

    Cell (o, r) = dt * L( ((2 r - o) mod 2M) / (2M), o dx / dt ); the midpoint
    of the step o into a target of residue r.  The costs are centrally
    symmetric bitwise: the cost of -o at (-r) mod M is the cost of o at r.
    """
    n, d = offsets.shape
    res = grid_points([np.arange(big_m)] * d).reshape((big_m,) * d + (d,))
    steps = offsets[:n // 2 + 1].reshape((-1,) + (1,) * d + (d,))
    mid = np.mod(2 * res - steps, 2 * big_m) / (2.0 * big_m)
    costs = np.empty((n,) + (big_m,) * d)
    costs[:n // 2 + 1] = dt * lagrangian(mid, np.broadcast_to(steps * dx / dt, mid.shape))
    # offsets[n - 1 - i] = -offsets[i]; V is even, so its costs are those of i
    # at the residues (-r) mod M, and the zero offset, its own partner, keeps
    # the lesser of its two roundings at r and (-r) mod M
    flip = np.ix_(*[-np.arange(big_m) % big_m] * d)
    costs[n // 2] = np.minimum(costs[n // 2], costs[n // 2][flip])
    costs[n // 2 + 1:] = costs[n // 2 - 1::-1][(slice(None),) + flip]
    return costs


def _step_graph(lagrangian: LagrangianField, dt: float, dx: float, vmax: float) -> tuple:
    """The lattice's steps |o| <= vmax dt / dx and their costs (_cost_tiles)."""
    check_reach(vmax, dt, dx)
    offsets = _offsets(lagrangian.dimension, vmax * dt / dx)
    if len(offsets) <= 1:
        raise ConfigurationError("empty reachable set: enlarge vmax*dt/dx")
    return offsets, _cost_tiles(lagrangian, offsets, as_int_exact(1.0 / dx, "1/dx"), dx, dt)


def _relax_chunks(windows: np.ndarray, half: np.ndarray, chunk: np.ndarray,
                  sums: np.ndarray) -> None:
    """Relax the d = 1 targets j in [0, reach] into `half` from the previous
    layer's `windows`, in chunks that begin on multiples of M, each by one add
    of its windows and the chunk costs into `sums` and one min-reduce over the
    steps."""
    cells = chunk.shape[1]
    for j0 in range(0, len(half), cells):
        n = min(cells, len(half) - j0)
        np.add(windows[:, j0:j0 + n], chunk[:, :n], out=sums[:, :n])
        np.minimum.reduce(sums[:, :n], axis=0, out=half[j0:j0 + n])


@contextlib.contextmanager
def _row_buffer(row: int):
    """numpy's ufunc buffer on this thread shrunk to one row of `row` cells,
    rounded up to a multiple of 16 (numpy takes no other size), and restored
    on exit: below two rows the iterator reads a window operand in place
    instead of copying it (see the module docstring).  The buffer is never
    grown, so a long row keeps the caller's size."""
    old = np.setbufsize(min(np.getbufsize(), max(16, -(-row // 16) * 16)))
    try:
        yield
    finally:
        np.setbufsize(old)


def _aligned_empty(n: int) -> np.ndarray:
    """An uninitialized float array of n cells whose data starts on a 64-byte
    (cache-line) boundary.  malloc aligns only to 16 bytes, and an add into a
    misaligned buffer was measured 19-40% slower (see CHANGES.md)."""
    raw = np.empty(n + 8)
    # the tail first: numpy keeps the base's data pointer for an empty slice
    return raw[-raw.ctypes.data % 64 // raw.itemsize:][:n]


def _step_groups(offsets: np.ndarray, costs: np.ndarray) -> list:
    """The d >= 2 steps grouped by their leading components, the largest first.

    The steps are a lattice ball, so the last components of a group's steps
    run over one range [-w, w].  Each group is (lead, w, tile), its tile the
    view costs[i:j][::-1] of its run of steps, of shape (2 w + 1,) + (M,) * d:
    step k is (lead, w - k), and cell (k, r) holds its cost into a target of
    residue r.
    """
    # offsets are lexicographic, so each group is one run of them
    leads = [tuple(o[:-1]) for o in offsets.tolist()]
    n = len(leads)
    starts = [i for i in range(n) if i == 0 or leads[i] != leads[i - 1]] + [n]
    return [(leads[i], (j - i) // 2, costs[i:j][::-1])
            for i, j in zip(starts, starts[1:])][::-1]


def _relax_rows(half: np.ndarray, windows: np.ndarray, s_max: int, big_m: int,
                groups: list, rows: tuple, bufs: tuple) -> None:
    """Relax the rows [rows[0], rows[1]) of `half` (row z1 at index z1) group
    by group, in blocks of M rows that start on multiples of M, over the
    windows' pitch of last-axis cells, with this thread's ufunc buffer at one
    pitch.  Each group's sums (2 w + 1, rows, ..., pitch) reduce over axis 0
    into the scratch rows, which the first group copies into every row and
    the others min in on the rows their sources hold."""
    t0, t1 = rows
    d = half.ndim
    width = half.shape[-1]
    pitch = windows.shape[-1]
    reach = width // 2
    prev_reach = reach - s_max
    cols = (np.arange(pitch) - reach) % big_m
    sums_buf, scratch_buf, wide_buf = bufs
    with _row_buffer(pitch):
        for g, (lead, w, tile) in enumerate(groups):
            c0 = lead[0]
            lo, hi = (t0, t1) if g == 0 else (max(t0, c0 - prev_reach),
                                              min(t1, c0 + prev_reach + 1))
            if lo >= hi:
                continue
            for axis in range(2, d):
                tile = np.take(tile, cols[:width], axis=axis)
            shape = tile.shape[:-1] + (pitch,)
            # "clip": cols are in range, and "raise" would take through a temporary
            wide = np.take(tile, cols, axis=-1, mode="clip",
                           out=wide_buf[:int(np.prod(shape))].reshape(shape))
            # step axis first: window q is the source by the last step s_max - q
            src = np.moveaxis(windows[(slice(s_max - c0, None),)
                                      + tuple(slice(s_max - c, s_max - c + width)
                                              for c in lead[1:])
                                      + (slice(s_max - w, s_max + w + 1),)], -2, 0)
            for b in range(lo - lo % big_m, hi, big_m):
                a, e = max(b, lo), min(b + big_m, hi)
                sums = sums_buf[:(e - a) * wide[:, 0].size].reshape(
                    (2 * w + 1, e - a) + shape[2:])
                np.add(src[:, a:e], wide[:, a - b:e - b], out=sums)
                part = scratch_buf[:sums[0].size].reshape(sums.shape[1:])
                np.minimum.reduce(sums, axis=0, out=part)
                if g == 0:
                    half[a:e] = part[..., :width]
                else:
                    np.minimum(half[a:e], part[..., :width], out=half[a:e])


def _group_layer(source: np.ndarray, half: np.ndarray, s_max: int, big_m: int,
                 groups: list, bufs: list, pool) -> None:
    """Relax the d >= 2 rows z1 >= 0 into `half` from the previous layer in
    `source`, group by group, in one run of row blocks per thread when they
    hold SPLIT_MIN_CELLS cells."""
    # window q of the last axis holds in its cell x the source of target
    # x - reach by the last step s_max - q, over a pitch of cells: the pad
    # targets past the width read only +inf, and their minima are dropped
    windows = sliding_window_view(source, -(-half.shape[-1] // 8) * 8, axis=-1)
    parts = len(bufs) if half.size >= SPLIT_MIN_CELLS else 1
    blocks = -(-len(half) // big_m)
    runs = [(big_m * (blocks * i // parts), min(len(half), big_m * (blocks * (i + 1) // parts)))
            for i in range(parts)]
    jobs = [pool.submit(_relax_rows, half, windows, s_max, big_m, groups, run, buf)
            for run, buf in zip(runs[1:], bufs[1:])]
    _relax_rows(half, windows, s_max, big_m, groups, runs[0], bufs[0])
    for job in jobs:
        job.result()


def _split_pool(threads: int):
    """A pool of threads - 1 workers for the row runs past the first, which
    the calling thread relaxes.  One thread needs none: a serial build
    neither imports concurrent.futures (and its logging) nor starts a
    thread."""
    if threads == 1:
        return contextlib.nullcontext()
    from concurrent.futures import ThreadPoolExecutor
    return ThreadPoolExecutor(threads - 1)


def compute_metric_table(lagrangian: LagrangianField, horizon: float, *,
                         dt: float = 0.25, dx: float = 0.25, vmax: float = 4.0,
                         keep: str = "all", threads: int = 1) -> MetricTable:
    """Value-iterate the metric DP up to the horizon.

    keep: "all" stores every layer (needed for path backtracking);
    "integers" stores only integer-time layers (long-horizon memory saver).
    threads: an integer >= 1, and 1 in d = 1.  In d >= 2 the row blocks of
    each layer whose rows z1 >= 0 hold at least SPLIT_MIN_CELLS cells are
    split into that many runs; the layers are the same bytes for any count.
    """
    if keep not in ("all", "integers"):
        raise ConfigurationError(f"keep must be 'all' or 'integers', not {keep!r}")
    if not isinstance(threads, (int, np.integer)) or threads < 1:
        raise ConfigurationError(f"threads must be an integer at least 1, not {threads!r}")
    d = lagrangian.dimension
    if d == 1 and threads > 1:
        raise ConfigurationError(f"threads = {threads}: a d = 1 table takes one thread")
    offsets, costs = _step_graph(lagrangian, dt, dx, vmax)
    big_m = costs.shape[-1]
    per_unit = as_int_exact(1.0 / dt, "1/dt")
    n_layers = as_int_exact(horizon / dt, "horizon/dt")
    if n_layers < 1:
        raise ConfigurationError("horizon must cover at least one time step")

    s_max = int(np.max(np.abs(offsets)))
    # layer k is relaxed from frame (k - 1) % 2 into frame k % 2, whose row i
    # holds the row z1 = i - s_max, and cell centre + i of its other axes the
    # column i: they span the last layer, the steps past it and the pitch
    # pad.  Cells past a layer's reach stay +inf, as reaches only grow
    centre = (n_layers + 1) * s_max
    frames = np.full((2, centre + s_max + 1) + (2 * centre + 8,) * (d - 1), np.inf)
    frames[(0, s_max) + (centre,) * (d - 1)] = 0.0
    if d == 1:
        # row o of the chunk holds costs[o] once per block of M of its cells
        cells = big_m * max(1, CHUNK_CELLS // (len(costs) * big_m))
        chunk = _aligned_empty(len(costs) * cells).reshape(len(costs), cells)
        chunk.reshape(len(costs), -1, big_m)[:] = costs[:, None]
        sums = _aligned_empty(chunk.size).reshape(chunk.shape)
        # row o of a reversed window view starts at frame cell 2 s_max - o,
        # so it reads source j - offsets[o]
        windows = [sliding_window_view(frame, n_layers * s_max + 1)[::-1] for frame in frames]
        # one size for the table: every chunk row has L cells
        scope = _row_buffer(cells)
    else:
        groups = _step_groups(offsets, costs)
        # per thread, sums and a widened tile of a block of M rows of the
        # last layer, and the block's scratch rows, each row a pitch of cells
        width = 2 * s_max * n_layers + 1
        rows = big_m * width ** (d - 2) * -(-width // 8) * 8
        steps = 2 * max(w for _, w, _ in groups) + 1
        bufs = [(_aligned_empty(rows * steps), _aligned_empty(rows),
                 _aligned_empty(rows * steps)) for _ in range(threads)]
        scope = _split_pool(threads)

    keep_all = keep == "all"
    layer_times = [0]
    layers = [np.zeros((1,) * d)]
    with scope as pool:
        for k in range(1, n_layers + 1):
            reach = k * s_max
            layer = frames[k % 2][(slice(None),)
                                  + (slice(centre - reach, centre + reach + 1),) * (d - 1)]
            half = layer[s_max:s_max + reach + 1]
            if d == 1:
                _relax_chunks(windows[(k - 1) % 2], half, chunk, sums)
            else:
                # cell i of the source's other axes holds column i - reach - s_max
                source = frames[(k - 1) % 2][(slice(None),)
                                             + (slice(centre - reach - s_max, None),) * (d - 1)]
                _group_layer(source, half, s_max, big_m, groups, bufs, pool)
            layer[:s_max] = np.flip(layer[s_max + 1:2 * s_max + 1])
            if keep_all or (k % per_unit == 0) or k == n_layers:
                layer_times.append(k)
                layers.append(np.concatenate((np.flip(half[1:]), half)))

    return MetricTable(
        dt=dt, dx=dx, vmax=vmax, dimension=d,
        layer_times=np.asarray(layer_times), layers=layers,
        lagrangian=lagrangian, offsets=offsets, costs=costs)


def extract_minimizing_path(table: MetricTable, t: float, x) -> DiscretePath:
    """Backtrack argmin choices from (t, x); ties take the lexicographically
    smallest increment.  Requires every layer 0..t/dt to be stored, as
    keep="all" stores them."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    k_final = as_int_exact(t / table.dt, "t/dt")
    if table._layer_pos(k_final) != k_final:
        raise ConfigurationError(
            f"path extraction needs every layer up to k={k_final} (keep='all')")
    j = as_int_exact(x / table.dx, "x/dx")
    value = table.value_at(t, x)
    if not np.isfinite(value):
        raise UnreachableError(f"metric is +inf at ({t}, {x})")

    # cand holds the sums the DP min-ed into the target, so the table value
    # is their first minimum: the lexicographically smallest such increment
    big_m = table.costs.shape[-1]
    nodes = [j]
    cur = j
    for k in range(k_final, 0, -1):
        src = cur - table.offsets
        cand = table._values(k - 1, src) + table.costs[(slice(None), *np.mod(cur, big_m))]
        best = int(np.argmin(cand))
        if not np.isfinite(cand[best]):
            raise UnreachableError("backtracking found no predecessor")
        cur = src[best]
        nodes.append(cur)
    nodes.reverse()
    pts = np.asarray(nodes, dtype=float) * table.dx
    return DiscretePath(dt=table.dt, nodes=pts, cost=float(value))

