"""Sweeps: the requested methods evaluated at every node of a grid.

:func:`evaluate_sweep` is the one node loop; the command line, the
simulation-only :func:`sweep_c` and the demos all call it.  Simulation at
node i of master seed m (i counts the nodes evaluated) runs on the
substream ``substream_seed(m, i)``, a splitmix64 avalanche (Steele, Lea &
Flood, OOPSLA 2014), so a node's estimate depends only on (m, i), and the
nodes can run in forked worker processes without changing a byte.

CSV: header ``x,<method>[,...][,sim_ci_low,sim_ci_high]``, rows in
ascending x, 12 significant digits, LF endings; byte-for-byte
deterministic for a fixed configuration and seed.
"""

import math
import os
import threading
import warnings
from collections.abc import Callable

from ._record import fresh, record
from .approx import CrossingQuery, corrected_expansion, main_term
from .distributions import Distribution, Exponential
from .errors import LevelCrossError, MomentUndefinedError
from .exact import ExpExpModel, exact_conditional
from .moments import constants_for
from .sim import DEFAULT_SEED, SimEstimate, _fuses, simulate_conditional, substream_seed

__all__ = [
    "SweepGrid",
    "SweepResult",
    "exp_pair_model",
    "sim_horizon",
    "evaluate_sweep",
    "sweep_c",
    "render_svg",
]

_METHODS = ("main", "corrected", "exact", "sim")

_MAX_NODES = 100_000  # lattice points a SweepGrid may ask for; far more than a sweep runs

_SVG_COLORS = {
    "exact": "#1f77b4",
    "main": "#d62728",
    "corrected": "#2ca02c",
    "sim": "#444444",
}


def _fmt(x: float) -> str:
    return f"{x:.12g}"


@record
class SweepGrid:
    """Drift-rate lattice c_i = c_min + i * delta_c up to c_max, with
    optional locally refined intervals (lo, hi, factor) that subdivide the
    base span by ``factor`` inside [lo, hi]."""

    c_min: float
    c_max: float
    delta_c: float
    refinements: tuple[tuple[float, float, int], ...] = ()

    def __post_init__(self):
        # checked before nodes() builds a lattice that could exhaust memory
        if not 0.0 < self.delta_c < math.inf:
            raise ValueError(f"grid step must be finite and > 0, got {self.delta_c!r}")
        if not 0.0 < self.c_min <= self.c_max < math.inf:
            raise ValueError(f"grid needs finite 0 < min <= max, got {self.c_min}, {self.c_max}")
        count = _points(self.c_min, self.c_max, self.delta_c)
        for lo, hi, factor in self.refinements:
            if not (math.isfinite(hi - lo) and 1 <= factor < math.inf):
                raise ValueError(f"refinement {lo, hi, factor} needs finite bounds, factor >= 1")
            count += _points(lo, hi, self.delta_c / factor)
        if count > _MAX_NODES:
            raise ValueError(f"grid needs more than {_MAX_NODES} nodes; use a larger step")

    def nodes(self) -> list[float]:
        count = _points(self.c_min, self.c_max, self.delta_c)
        pts = {round(self.c_min + i * self.delta_c, 12) for i in range(count)}
        for lo, hi, factor in self.refinements:
            step = self.delta_c / factor
            pts.update(
                round(lo + i * step, 12)
                for i in range(_points(lo, hi, step))
                if self.c_min <= lo + i * step <= self.c_max
            )
        return sorted(pts)


def _points(lo: float, hi: float, step: float) -> int:
    """Points lo + i * step (i >= 0) in [lo, hi], at most ``_MAX_NODES + 1``."""
    return max(math.floor(min((hi - lo) / step, _MAX_NODES) + 1e-9) + 1, 0)


@record
class SweepResult:
    """Rows of (x, {method: value}); a ``sim`` value is the node's
    :class:`SimEstimate`, every other value a float."""

    var: str
    methods: tuple[str, ...]
    rows: list[tuple[float, dict[str, float | SimEstimate]]] = fresh(list)

    def header(self) -> list[str]:
        cols = ["x", *self.methods]
        if "sim" in self.methods:
            cols += ["sim_ci_low", "sim_ci_high"]
        return cols

    def cells(self, values: dict) -> list[float]:
        """A row's numbers under ``header()[1:]``."""
        cells = [values[m].estimate if m == "sim" else values[m] for m in self.methods]
        if "sim" in self.methods:
            cells += [values["sim"].ci_low, values["sim"].ci_high]
        return cells

    def to_csv(self) -> str:
        lines = [",".join(self.header())]
        lines += [",".join(map(_fmt, [x, *self.cells(values)])) for x, values in self.rows]
        return "\n".join(lines) + "\n"


def exp_pair_model(t_dist: Distribution, y_dist: Distribution) -> ExpExpModel:
    """The exact formula's model; only the exponential pair has one."""
    if not (isinstance(t_dist, Exponential) and isinstance(y_dist, Exponential)):
        raise LevelCrossError("exact requires exponential pair")
    return ExpExpModel(lam=t_dist.rate, mu=y_dist.rate)


def sim_horizon(horizon: float, inf_cap: float | None) -> float:
    """The horizon a simulation runs to: ``horizon``, or ``inf_cap`` in
    place of an infinite one."""
    if not math.isinf(horizon):
        return horizon
    if inf_cap is None:
        raise LevelCrossError("simulation cannot run with an infinite horizon; pass --inf-cap")
    return inf_cap


def evaluate_sweep(
    t_dist: Distribution,
    y_dist: Distribution,
    grid: SweepGrid,
    methods: tuple[str, ...],
    *,
    u: float,
    v: float = 0.0,
    var: str = "c",
    c: float = 0.0,
    horizon: float = math.inf,
    inf_cap: float | None = None,
    trials: int = 1000,
    seed: int = DEFAULT_SEED,
) -> SweepResult:
    """Evaluate every requested method at every node of the grid.

    ``var="c"`` sweeps the drift rate at the shared ``horizon`` (simulated
    to ``inf_cap`` when the horizon is infinite); ``var="t"`` sweeps the
    horizon at drift rate ``c``, keeping only the nodes after ``v``.  The
    keywords are the ``levelcross sweep`` options of the same names.

    Simulation nodes run in forked worker processes, one per available
    CPU (see :func:`_worker_count`), largest index first, while this
    process evaluates the other methods.  The result, and the first
    exception raised, are those of evaluating the nodes one by one in this
    process, except that ``trials < 1`` with ``sim`` raises before any
    node's analytic error: a node's estimate depends only on (seed, node
    index), and any node a worker leaves out is evaluated here.
    """
    for m in methods:
        if m not in _METHODS:
            raise LevelCrossError(f"unknown method {m!r}; choose from {', '.join(_METHODS)}")
    if not methods:
        raise LevelCrossError("no methods requested")
    if var not in ("c", "t"):
        raise LevelCrossError("sweep variable must be 'c' or 't'")
    if "sim" in methods and trials < 1:
        raise ValueError("n_trials must be >= 1")

    model = exp_pair_model(t_dist, y_dist) if "exact" in methods else None
    constants = constants_for(t_dist, y_dist) if {"main", "corrected"} & set(methods) else None

    # in a t-sweep each node has its own finite horizon; only a c-sweep
    # carries the shared horizon into the simulator
    sim_t = sim_horizon(horizon, inf_cap) if "sim" in methods and var == "c" else horizon

    nodes = grid.nodes()
    if var == "t":
        nodes = [x for x in nodes if x > v]
        if not nodes:
            raise LevelCrossError("no t nodes exceed v")

    def query_at(x: float) -> CrossingQuery:
        node_c, node_t = (x, horizon) if var == "c" else (c, x)
        return CrossingQuery(u=u, c=node_c, v=v, t=node_t)

    def compute(i: int, query: CrossingQuery, m: str) -> float | SimEstimate:
        if m == "main":
            return main_term(query, constants)
        if m == "corrected":
            return corrected_expansion(query, constants).corrected
        if m == "exact":
            return exact_conditional(model, query)
        node_sim_t = sim_t if var == "c" else query.t
        return simulate_conditional(
            t_dist, y_dist, u, query.c, v, node_sim_t, trials, substream_seed(seed, i)
        )

    # values computed ahead of the in-order pass below, keyed by (node, method)
    ahead: dict[tuple[int, str], float | SimEstimate] = {}
    count = _worker_count(t_dist, y_dist, len(nodes)) if "sim" in methods else 0
    if count:
        workers: list[tuple[int, int]] = []
        failed = True
        try:
            _start_workers(
                workers, count, len(nodes), lambda i: compute(i, query_at(nodes[i]), "sim")
            )
            for i, x in enumerate(nodes):
                query = query_at(x)
                for m in methods:
                    if m != "sim":
                        ahead[i, m] = compute(i, query, m)
            failed = False
        except Exception:
            # work done ahead only saves time: the in-order pass below
            # evaluates what failed again, so it raises exactly where the
            # one-by-one loop would, after the same nodes
            pass
        finally:
            for i, successes in _collect(workers, kill=failed).items():
                seed_i = substream_seed(seed, i)
                ahead[i, "sim"] = SimEstimate.from_counts(successes, trials, seed_i)

    result = SweepResult(var=var, methods=tuple(methods))
    for i, x in enumerate(nodes):
        query = query_at(x)
        values = {m: ahead[i, m] if (i, m) in ahead else compute(i, query, m) for m in methods}
        result.rows.append((x, values))
    return result


def _cpu_count() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


def _worker_count(t_dist: Distribution, y_dist: Distribution, nodes: int) -> int:
    """How many forked workers simulate a sweep's ``nodes``: one per
    available CPU, at most one per node, and none (the nodes run in this
    process) where fewer than two would run, the platform cannot fork,
    other threads are running, or the simulator draws through
    ``sample()`` or ``next_uniform()`` (see :func:`levelcross.sim._fuses`),
    whose calls must all be seen by this process."""
    if not hasattr(os, "fork") or threading.active_count() > 1 or not _fuses(t_dist, y_dist):
        return 0
    count = min(_cpu_count(), nodes)
    return count if count >= 2 else 0


def _start_workers(
    workers: list[tuple[int, int]], count: int, nodes: int, simulate: Callable[[int], SimEstimate]
) -> None:
    """Fork ``count`` workers, appending (pid, read end of its pipe) to
    ``workers`` as each starts, then queue the node indices for them in
    one shared pipe, largest first: a node's cost grows along the grid, so
    the costly nodes start first and the cheap ones fill in behind them.
    A worker claims indices until the queue is empty or a node raises,
    then writes the line ``i successes`` for each node it simulated."""
    queue_r, queue_w = os.pipe()
    try:
        try:
            for _ in range(count):
                r, w = os.pipe()
                try:
                    pid = os.fork()
                except OSError:
                    os.close(r)
                    os.close(w)
                    raise
                if pid == 0:
                    # os._exit: the worker never returns into the caller's
                    # frames and never flushes the stdio buffers it inherited
                    status, lines = 1, bytearray()
                    try:
                        os.close(r)
                        os.close(queue_w)  # the queue ends when the parent closes it
                        while record := os.read(queue_r, 4):
                            i = int.from_bytes(record, "big")
                            lines += b"%d %d\n" % (i, simulate(i).successes)
                        status = 0
                    finally:
                        # sent after leaving the queue: sent one by one, lines could
                        # fill this pipe while the parent waits on a full queue
                        try:
                            os.close(queue_r)
                            os.write(w, lines)
                        finally:
                            os._exit(status)
                os.close(w)
                workers.append((pid, r))
        finally:
            os.close(queue_r)  # with every worker gone, a write below raises
        # writes of at most PIPE_BUF (>= 512) bytes are atomic: no read splits a record
        queue = memoryview(b"".join(i.to_bytes(4, "big") for i in reversed(range(nodes))))
        while queue:
            queue = queue[os.write(queue_w, queue[:512]) :]
    finally:
        os.close(queue_w)


def _collect(workers: list[tuple[int, int]], kill: bool) -> dict[int, int]:
    """Successes per node, read from every worker's pipe to its end; with
    ``kill``, the workers are stopped instead and nothing is read.  Every
    worker is reaped, whatever is raised."""
    counts = {}
    try:
        if kill:
            import signal  # only this rare path needs it

            for pid, _ in workers:
                os.kill(pid, signal.SIGKILL)
        else:
            for _, fd in workers:
                with open(fd, "rb", closefd=False) as pipe:
                    # a dead worker leaves out nodes; a part line lacks "\n"
                    for line in pipe.read().split(b"\n")[:-1]:
                        i, successes = map(int, line.split())
                        counts[i] = successes
    finally:
        for pid, fd in workers:
            os.close(fd)
            os.waitpid(pid, 0)
    return counts


def sweep_c(
    t_dist: Distribution,
    y_dist: Distribution,
    u: float,
    v: float,
    t: float,
    grid: SweepGrid,
    n_trials: int,
    master_seed: int = DEFAULT_SEED,
) -> list[tuple[float, SimEstimate]]:
    """Simulate every node of the grid with its own substream, in forked
    workers where :func:`evaluate_sweep` runs them there; the estimates do
    not depend on which.  Warns when the critical rate lies outside the
    grid, since that is where the estimates are most informative."""
    try:
        c_star = constants_for(t_dist, y_dist).c_star
    except MomentUndefinedError:
        c_star = None  # moment-poor laws can still be simulated
    if c_star is not None and not grid.c_min <= c_star <= grid.c_max:
        warnings.warn(
            f"critical rate c* = {c_star:g} lies outside the sweep grid "
            f"[{grid.c_min:g}, {grid.c_max:g}]",
            RuntimeWarning,
            stacklevel=2,
        )
    result = evaluate_sweep(
        t_dist, y_dist, grid, ("sim",), u=u, v=v, horizon=t, trials=n_trials, seed=master_seed
    )
    return [(c, values["sim"]) for c, values in result.rows]


def _ticks(lo: float, hi: float, n: int = 6) -> list[float]:
    return [lo + i * (hi - lo) / (n - 1) for i in range(n)]


def render_svg(result: SweepResult) -> str:
    """Minimal fixed-viewport SVG 1.1 line plot of a sweep."""
    width, height = 800, 500
    ml, mr, mt, mb = 65, 20, 20, 45
    xs = [x for x, _ in result.rows]
    ys = [y for _, values in result.rows for y in result.cells(values)]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    x_pad = 0.05 * (x_hi - x_lo) or 0.5
    y_pad = 0.05 * (y_hi - y_lo) or 0.5
    x_lo, x_hi = x_lo - x_pad, x_hi + x_pad
    y_lo, y_hi = y_lo - y_pad, y_hi + y_pad

    def px(x: float) -> float:
        return ml + (x - x_lo) / (x_hi - x_lo) * (width - ml - mr)

    def py(y: float) -> float:
        return height - mb - (y - y_lo) / (y_hi - y_lo) * (height - mt - mb)

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
        f'<rect x="{ml}" y="{mt}" width="{width - ml - mr}" height="{height - mt - mb}" '
        'fill="none" stroke="#999999"/>',
    ]
    for tx in _ticks(x_lo, x_hi):
        parts.append(
            f'<line x1="{px(tx):.2f}" y1="{height - mb}" x2="{px(tx):.2f}" '
            f'y2="{height - mb + 5}" stroke="#333333"/>'
        )
        parts.append(
            f'<text x="{px(tx):.2f}" y="{height - mb + 18}" font-size="11" '
            f'text-anchor="middle">{tx:.4g}</text>'
        )
    for ty in _ticks(y_lo, y_hi):
        parts.append(
            f'<line x1="{ml - 5}" y1="{py(ty):.2f}" x2="{ml}" y2="{py(ty):.2f}" '
            'stroke="#333333"/>'
        )
        parts.append(
            f'<text x="{ml - 8}" y="{py(ty):.2f}" font-size="11" '
            f'text-anchor="end" dominant-baseline="middle">{ty:.4g}</text>'
        )
    parts.append(
        f'<text x="{(ml + width - mr) / 2:.2f}" y="{height - 8}" font-size="13" '
        f'text-anchor="middle">{result.var}</text>'
    )

    for m in result.methods:
        color = _SVG_COLORS.get(m, "#777777")
        if m == "sim":
            for x, values in result.rows:
                parts.append(
                    f'<line x1="{px(x):.2f}" y1="{py(values[m].ci_low):.2f}" '
                    f'x2="{px(x):.2f}" y2="{py(values[m].ci_high):.2f}" '
                    f'stroke="{color}" stroke-width="1"/>'
                )
                parts.append(
                    f'<circle cx="{px(x):.2f}" cy="{py(values[m].estimate):.2f}" r="3" '
                    f'fill="{color}"/>'
                )
        else:
            points = " ".join(
                f"{px(x):.2f},{py(values[m]):.2f}" for x, values in result.rows
            )
            parts.append(
                f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
                f'points="{points}"/>'
            )

    # legend: one entry per requested method
    lx, ly = width - mr - 130, mt + 12
    for j, m in enumerate(result.methods):
        color = _SVG_COLORS.get(m, "#777777")
        y0 = ly + 18 * j
        parts.append(f'<rect x="{lx}" y="{y0 - 9}" width="14" height="10" fill="{color}"/>')
        parts.append(f'<text x="{lx + 20}" y="{y0}" font-size="12">{m}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
