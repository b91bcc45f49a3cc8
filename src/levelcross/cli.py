"""Command-line front end: constants, point evaluations, and grid sweeps.

Sweeps write a CSV with header ``x,<method>[,...][,sim_ci_low,sim_ci_high]``
(12 significant digits, LF endings) and optionally a minimal SVG line
plot.  Output is byte-for-byte deterministic for a fixed configuration,
including the seed; the environment variable ``FPT_SEED`` overrides the
built-in default master seed when ``--seed`` is not given.
"""

import argparse
import math
import os
import sys
import warnings
from dataclasses import dataclass, field

from . import __version__
from .approx import CrossingQuery, corrected_expansion, main_term
from .distributions import Distribution, Exponential, Pareto, parse_spec
from .errors import LevelCrossError
from .exact import ExpExpModel, exact_conditional
from .moments import constants_for
from .sim import DEFAULT_SEED, SweepGrid, simulate_conditional, substream_seed

__all__ = ["JobConfig", "SweepResult", "parse_dist_spec", "build_sweep", "run", "main"]

_METHODS = ("main", "corrected", "exact", "sim")

_SVG_COLORS = {
    "exact": "#1f77b4",
    "main": "#d62728",
    "corrected": "#2ca02c",
    "sim": "#444444",
}


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def parse_dist_spec(spec: str) -> Distribution:
    """Parse a distribution spec, warning when a Pareto tail is too heavy
    for the corrected expansion's stated accuracy (shape <= 4)."""
    dist = parse_spec(spec)
    if isinstance(dist, Pareto) and dist.shape <= 4.0:
        warnings.warn(
            f"Pareto shape {dist.shape:g} <= 4: fourth moment is infinite, so the "
            "corrected expansion's error order is not guaranteed",
            RuntimeWarning,
            stacklevel=2,
        )
    return dist


@dataclass
class JobConfig:
    command: str
    t_spec: str = ""
    y_spec: str = ""
    u: float = 0.0
    c: float = 0.0
    v: float = 0.0
    horizon: float = math.inf
    inf_cap: float | None = None
    trials: int = 1000
    seed: int = DEFAULT_SEED
    methods: tuple[str, ...] = ()
    var: str = "c"
    var_min: float = 0.0
    var_max: float = 0.0
    var_step: float = 0.0
    out_csv: str | None = None
    out_svg: str | None = None


@dataclass
class SweepResult:
    var: str
    methods: tuple[str, ...]
    rows: list[tuple[float, dict[str, float]]] = field(default_factory=list)
    metadata: dict = field(default_factory=dict)

    def header(self) -> list[str]:
        cols = ["x", *self.methods]
        if "sim" in self.methods:
            cols += ["sim_ci_low", "sim_ci_high"]
        return cols

    def to_csv(self) -> str:
        lines = [",".join(self.header())]
        for x, values in self.rows:
            cells = [_fmt(x)] + [_fmt(values[m]) for m in self.methods]
            if "sim" in self.methods:
                cells += [_fmt(values["sim_ci_low"]), _fmt(values["sim_ci_high"])]
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"


def _require_exp_pair(t_dist: Distribution, y_dist: Distribution) -> ExpExpModel:
    if not (isinstance(t_dist, Exponential) and isinstance(y_dist, Exponential)):
        raise LevelCrossError("exact requires exponential pair")
    return ExpExpModel(lam=t_dist.rate, mu=y_dist.rate)


def _print_constants(t_dist: Distribution, y_dist: Distribution, out) -> None:
    k = constants_for(t_dist, y_dist)
    print(f"T = {t_dist.spec_string()}", file=out)
    print(f"Y = {y_dist.spec_string()}", file=out)
    print(f"M = {_fmt(k.M)}", file=out)
    print(f"D2 = {_fmt(k.D2)}", file=out)
    print(f"c_star = {_fmt(k.c_star)}", file=out)
    print(f"KF*c = {_fmt(k.kf_coeff)}", file=out)
    print(f"KS*c = {_fmt(k.ks_coeff)}", file=out)


def build_sweep(job: JobConfig) -> SweepResult:
    """Evaluate every requested method on the sweep lattice."""
    t_dist = parse_dist_spec(job.t_spec)
    y_dist = parse_dist_spec(job.y_spec)
    for m in job.methods:
        if m not in _METHODS:
            raise LevelCrossError(f"unknown method {m!r}; choose from {', '.join(_METHODS)}")
    if not job.methods:
        raise LevelCrossError("no methods requested")
    if job.var not in ("c", "t"):
        raise LevelCrossError("sweep variable must be 'c' or 't'")

    model = _require_exp_pair(t_dist, y_dist) if "exact" in job.methods else None
    needs_constants = "main" in job.methods or "corrected" in job.methods
    constants = constants_for(t_dist, y_dist) if needs_constants else None

    # in a t-sweep each node has its own finite horizon; only a c-sweep
    # carries the shared --horizon into the simulator
    sim_horizon = job.horizon
    if "sim" in job.methods and job.var == "c" and math.isinf(job.horizon):
        if job.inf_cap is None:
            raise LevelCrossError(
                "simulation cannot run with an infinite horizon; pass --inf-cap"
            )
        sim_horizon = job.inf_cap

    grid = SweepGrid(job.var_min, job.var_max, job.var_step)
    nodes = grid.nodes()
    if job.var == "t":
        nodes = [x for x in nodes if x > job.v]
        if not nodes:
            raise LevelCrossError("no t nodes exceed v")

    result = SweepResult(var=job.var, methods=tuple(job.methods))
    result.metadata = {
        "tool": f"levelcross {__version__}",
        "t_spec": t_dist.spec_string(),
        "y_spec": y_dist.spec_string(),
        "u": job.u,
        "v": job.v,
        "horizon": job.horizon,
        "sim_horizon_cap": sim_horizon if "sim" in job.methods else None,
        "trials": job.trials if "sim" in job.methods else None,
        "seed": job.seed if "sim" in job.methods else None,
    }
    if constants is not None:
        result.metadata.update(
            M=constants.M,
            D2=constants.D2,
            c_star=constants.c_star,
            kf_coeff=constants.kf_coeff,
            ks_coeff=constants.ks_coeff,
        )

    for i, x in enumerate(nodes):
        c = x if job.var == "c" else job.c
        t = job.horizon if job.var == "c" else x
        query = CrossingQuery(u=job.u, c=c, v=job.v, t=t)
        values: dict[str, float] = {}
        for m in job.methods:
            if m == "main":
                values[m] = main_term(query, constants)
            elif m == "corrected":
                values[m] = corrected_expansion(query, constants).corrected
            elif m == "exact":
                values[m] = exact_conditional(model, query)
            else:  # sim
                sim_t = sim_horizon if job.var == "c" else x
                est = simulate_conditional(
                    t_dist, y_dist, job.u, c, job.v, sim_t,
                    job.trials, substream_seed(job.seed, i),
                )
                values["sim"] = est.estimate
                values["sim_ci_low"] = est.ci_low
                values["sim_ci_high"] = est.ci_high
        result.rows.append((x, values))
    return result


# ---------------------------------------------------------------------------
# SVG output


def _ticks(lo: float, hi: float, n: int = 6) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    return [lo + i * (hi - lo) / (n - 1) for i in range(n)]


def render_svg(result: SweepResult) -> str:
    """Minimal fixed-viewport SVG 1.1 line plot of a sweep."""
    width, height = 800, 500
    ml, mr, mt, mb = 65, 20, 20, 45
    xs = [x for x, _ in result.rows]
    ys: list[float] = []
    for _, values in result.rows:
        ys.extend(values[m] for m in result.methods)
        if "sim" in result.methods:
            ys.extend((values["sim_ci_low"], values["sim_ci_high"]))
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
                    f'<line x1="{px(x):.2f}" y1="{py(values["sim_ci_low"]):.2f}" '
                    f'x2="{px(x):.2f}" y2="{py(values["sim_ci_high"]):.2f}" '
                    f'stroke="{color}" stroke-width="1"/>'
                )
                parts.append(
                    f'<circle cx="{px(x):.2f}" cy="{py(values[m]):.2f}" r="3" '
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


def _write_file(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except BaseException:
        if os.path.exists(path):
            os.unlink(path)  # never leave partial output behind
        raise


# ---------------------------------------------------------------------------
# subcommand drivers


def _cmd_constants(job: JobConfig, out) -> int:
    _print_constants(parse_dist_spec(job.t_spec), parse_dist_spec(job.y_spec), out)
    return 0


def _cmd_approx(job: JobConfig, out) -> int:
    t_dist = parse_dist_spec(job.t_spec)
    y_dist = parse_dist_spec(job.y_spec)
    k = constants_for(t_dist, y_dist)
    res = corrected_expansion(CrossingQuery(job.u, job.c, job.v, job.horizon), k)
    _print_constants(t_dist, y_dist, out)
    print(f"main = {_fmt(res.main)}", file=out)
    print(f"correction_f = {_fmt(res.correction_f)}", file=out)
    print(f"correction_s = {_fmt(res.correction_s)}", file=out)
    print(f"corrected = {_fmt(res.corrected)}", file=out)
    return 0


def _cmd_exact(job: JobConfig, out) -> int:
    model = _require_exp_pair(parse_dist_spec(job.t_spec), parse_dist_spec(job.y_spec))
    value = exact_conditional(model, CrossingQuery(job.u, job.c, job.v, job.horizon))
    print(f"exact = {_fmt(value)}", file=out)
    return 0


def _cmd_simulate(job: JobConfig, out) -> int:
    t_dist = parse_dist_spec(job.t_spec)
    y_dist = parse_dist_spec(job.y_spec)
    horizon = job.horizon
    if math.isinf(horizon):
        if job.inf_cap is None:
            raise LevelCrossError(
                "simulation cannot run with an infinite horizon; pass --inf-cap"
            )
        horizon = job.inf_cap
    est = simulate_conditional(
        t_dist, y_dist, job.u, job.c, job.v, horizon, job.trials, job.seed
    )
    print(f"estimate = {_fmt(est.estimate)}", file=out)
    print(f"ci_low = {_fmt(est.ci_low)}", file=out)
    print(f"ci_high = {_fmt(est.ci_high)}", file=out)
    print(f"trials = {est.trials}", file=out)
    print(f"seed = {est.seed}", file=out)
    return 0


def _cmd_sweep(job: JobConfig, out) -> int:
    result = build_sweep(job)
    # build_sweep has already warned about a heavy Pareto tail
    _print_constants(parse_spec(job.t_spec), parse_spec(job.y_spec), out)
    print(f"var = {result.var}", file=out)
    print(f"rows = {len(result.rows)}", file=out)
    csv_text = result.to_csv()
    if job.out_csv:
        _write_file(job.out_csv, csv_text)
        print(f"csv = {job.out_csv}", file=out)
    else:
        out.write(csv_text)
    if job.out_svg:
        _write_file(job.out_svg, render_svg(result))
        print(f"svg = {job.out_svg}", file=out)

    if "main" in result.methods and "exact" in result.methods:
        # self-consistent summary: recomputed from the serialized digits,
        # so re-deriving it from the CSV gives the identical number
        parsed = [line.split(",") for line in csv_text.strip().split("\n")]
        cols = parsed[0]
        i_main, i_exact = cols.index("main"), cols.index("exact")
        gap = max(abs(float(r[i_main]) - float(r[i_exact])) for r in parsed[1:])
        print(f"max|main-exact| = {_fmt(gap)}", file=out)
    return 0


def _job_from_args(args: argparse.Namespace) -> JobConfig:
    seed = args.seed
    if seed is None:
        seed = int(os.environ.get("FPT_SEED", DEFAULT_SEED))
    horizon = getattr(args, "horizon", math.inf)
    methods = tuple(
        m.strip() for m in getattr(args, "methods", "").split(",") if m.strip()
    )
    return JobConfig(
        command=args.command,
        t_spec=args.t,
        y_spec=args.y,
        u=getattr(args, "u", 0.0),
        c=getattr(args, "c", 0.0) or 0.0,
        v=getattr(args, "v", 0.0),
        horizon=horizon,
        inf_cap=getattr(args, "inf_cap", None),
        trials=getattr(args, "trials", 1000),
        seed=seed,
        methods=methods,
        var=getattr(args, "var", "c"),
        var_min=getattr(args, "min", 0.0) or 0.0,
        var_max=getattr(args, "max", 0.0) or 0.0,
        var_step=getattr(args, "step", 0.0) or 0.0,
        out_csv=getattr(args, "out", None),
        out_svg=getattr(args, "svg", None),
    )


def _horizon(text: str) -> float:
    if text.strip().lower() in ("inf", "infinity"):
        return math.inf
    value = float(text)
    if not value > 0.0:
        raise argparse.ArgumentTypeError("horizon must be positive or 'inf'")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="levelcross",
        description="First level-crossing times of a compound renewal process "
        "minus linear drift: constants, approximations, exact values, simulation.",
    )
    parser.add_argument("--version", action="version", version=f"levelcross {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_pair(p):
        p.add_argument("--t", required=True, metavar="SPEC",
                       help="gap law: exp:RATE | erlang:RATE,K | pareto:A,B | mix2exp:L1,L2,P")
        p.add_argument("--y", required=True, metavar="SPEC", help="jump law, same grammar")

    def add_point(p):
        p.add_argument("--u", type=float, required=True, help="crossing level (> 0)")
        p.add_argument("--v", type=float, default=0.0, help="first renewal time (default 0)")
        p.add_argument("--horizon", type=_horizon, default=math.inf,
                       help="time horizon t, or 'inf' (default)")

    p = sub.add_parser("constants", help="print M, D2, c*, KF*c, KS*c for a pair")
    add_pair(p)

    p = sub.add_parser("approx", help="main and corrected approximations at one point")
    add_pair(p)
    add_point(p)
    p.add_argument("--c", type=float, required=True, help="drift rate (> 0)")

    p = sub.add_parser("exact", help="exact value at one point (exponential pair only)")
    add_pair(p)
    add_point(p)
    p.add_argument("--c", type=float, required=True, help="drift rate (> 0)")

    p = sub.add_parser("simulate", help="Monte Carlo estimate at one point")
    add_pair(p)
    add_point(p)
    p.add_argument("--c", type=float, required=True, help="drift rate (> 0)")
    p.add_argument("--trials", type=int, default=1000, help="trajectories (default 1000)")
    p.add_argument("--seed", type=int, default=None,
                   help="master seed (default: FPT_SEED env or 20170101)")
    p.add_argument("--inf-cap", type=float, default=None, dest="inf_cap",
                   help="horizon substituted when --horizon inf (e.g. 1e4)")

    p = sub.add_parser("sweep", help="evaluate methods over a c- or t-grid; write CSV/SVG")
    add_pair(p)
    add_point(p)
    p.add_argument("--c", type=float, default=None, help="fixed drift rate for --var t")
    p.add_argument("--var", choices=("c", "t"), default="c", help="sweep variable")
    p.add_argument("--min", type=float, required=True, help="grid start")
    p.add_argument("--max", type=float, required=True, help="grid end")
    p.add_argument("--step", type=float, required=True, help="grid span")
    p.add_argument("--methods", default="main", metavar="LIST",
                   help="comma list from: main, corrected, exact, sim")
    p.add_argument("--trials", type=int, default=1000, help="trajectories per node")
    p.add_argument("--seed", type=int, default=None,
                   help="master seed (default: FPT_SEED env or 20170101)")
    p.add_argument("--inf-cap", type=float, default=None, dest="inf_cap",
                   help="horizon substituted for sim when --horizon inf")
    p.add_argument("--out", default=None, metavar="CSV", help="CSV output path")
    p.add_argument("--svg", default=None, metavar="SVG", help="SVG output path")
    return parser


_COMMANDS = {
    "constants": _cmd_constants,
    "approx": _cmd_approx,
    "exact": _cmd_exact,
    "simulate": _cmd_simulate,
    "sweep": _cmd_sweep,
}


def run(job: JobConfig, out=None) -> int:
    """Execute a job; returns the process exit status."""
    out = out if out is not None else sys.stdout
    try:
        return _COMMANDS[job.command](job, out)
    except (LevelCrossError, ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if not hasattr(args, "seed"):
        args.seed = None
    return run(_job_from_args(args))


if __name__ == "__main__":
    sys.exit(main())
