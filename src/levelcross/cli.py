"""Command-line front end: constants, point evaluations, and grid sweeps.

Sweeps run through :func:`levelcross.sweep.evaluate_sweep`; that module
documents the CSV format and the per-node seeding rule.  ``--seed``
defaults to the master seed ``DEFAULT_SEED``.
"""

import argparse
import math
import os
import sys
import warnings

from . import __version__
from .approx import CrossingQuery, corrected_expansion
from .distributions import Distribution, Pareto, parse_spec
from .errors import LevelCrossError, MomentUndefinedError
from .exact import exact_conditional
from .moments import ModelConstants, constants_for
from .sim import DEFAULT_SEED, simulate_conditional
# _fmt is the CSV's number format; the max|main-exact| summary relies on it
from .sweep import SweepGrid, _fmt, evaluate_sweep, exp_pair_model, render_svg, sim_horizon

__all__ = ["parse_dist_spec", "main"]


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


def _pair(args: argparse.Namespace, expansion: bool) -> tuple[Distribution, Distribution]:
    """Parse --t and --y, warning about a heavy Pareto tail only when the
    command evaluates the expansion or its constants."""
    parse = parse_dist_spec if expansion else parse_spec
    return parse(args.t), parse(args.y)


def _print_constants(t_dist: Distribution, y_dist: Distribution, k: ModelConstants | None) -> None:
    print(f"T = {t_dist.spec_string()}")
    print(f"Y = {y_dist.spec_string()}")
    if k is not None:
        print(f"M = {_fmt(k.M)}")
        print(f"D2 = {_fmt(k.D2)}")
        print(f"c_star = {_fmt(k.c_star)}")
        print(f"KF*c = {_fmt(k.kf_coeff)}")
        print(f"KS*c = {_fmt(k.ks_coeff)}")


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


def _cmd_constants(args: argparse.Namespace) -> int:
    t_dist, y_dist = _pair(args, expansion=True)
    _print_constants(t_dist, y_dist, constants_for(t_dist, y_dist))
    return 0


def _cmd_approx(args: argparse.Namespace) -> int:
    t_dist, y_dist = _pair(args, expansion=True)
    k = constants_for(t_dist, y_dist)
    res = corrected_expansion(CrossingQuery(args.u, args.c, args.v, args.horizon), k)
    _print_constants(t_dist, y_dist, k)
    print(f"main = {_fmt(res.main)}")
    print(f"correction_f = {_fmt(res.correction_f)}")
    print(f"correction_s = {_fmt(res.correction_s)}")
    print(f"corrected = {_fmt(res.corrected)}")
    return 0


def _cmd_exact(args: argparse.Namespace) -> int:
    model = exp_pair_model(*_pair(args, expansion=False))
    value = exact_conditional(model, CrossingQuery(args.u, args.c, args.v, args.horizon))
    print(f"exact = {_fmt(value)}")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    t_dist, y_dist = _pair(args, expansion=False)
    horizon = sim_horizon(args.horizon, args.inf_cap)
    est = simulate_conditional(
        t_dist, y_dist, args.u, args.c, args.v, horizon, args.trials, args.seed
    )
    print(f"estimate = {_fmt(est.estimate)}")
    print(f"ci_low = {_fmt(est.ci_low)}")
    print(f"ci_high = {_fmt(est.ci_high)}")
    print(f"trials = {est.trials}")
    print(f"seed = {est.seed}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    methods = tuple(m.strip() for m in args.methods.split(",") if m.strip())
    t_dist, y_dist = _pair(args, expansion=not {"main", "corrected"}.isdisjoint(methods))
    result = evaluate_sweep(
        t_dist, y_dist, SweepGrid(args.min, args.max, args.step), methods,
        u=args.u, v=args.v, var=args.var, c=args.c, horizon=args.horizon,
        inf_cap=args.inf_cap, trials=args.trials, seed=args.seed,
    )
    try:
        k = constants_for(t_dist, y_dist)
    except MomentUndefinedError:
        k = None  # a sim-only sweep of a moment-poor law has no constants
    _print_constants(t_dist, y_dist, k)
    print(f"var = {result.var}")
    print(f"rows = {len(result.rows)}")
    csv_text = result.to_csv()
    if args.out:
        _write_file(args.out, csv_text)
        print(f"csv = {args.out}")
    else:
        sys.stdout.write(csv_text)
    if args.svg:
        _write_file(args.svg, render_svg(result))
        print(f"svg = {args.svg}")

    if "main" in result.methods and "exact" in result.methods:
        # self-consistent summary: recomputed from the serialized digits,
        # so re-deriving it from the CSV gives the identical number
        gap = max(abs(float(_fmt(r["main"])) - float(_fmt(r["exact"]))) for _, r in result.rows)
        print(f"max|main-exact| = {_fmt(gap)}")
    return 0


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
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help=f"master seed (default {DEFAULT_SEED})")
    p.add_argument("--inf-cap", type=float, default=None, dest="inf_cap",
                   help="horizon substituted when --horizon inf (e.g. 1e4)")

    p = sub.add_parser("sweep", help="evaluate methods over a c- or t-grid; write CSV/SVG")
    add_pair(p)
    add_point(p)
    p.add_argument("--c", type=float, default=0.0, help="fixed drift rate for --var t")
    p.add_argument("--var", choices=("c", "t"), default="c", help="sweep variable")
    p.add_argument("--min", type=float, required=True, help="grid start")
    p.add_argument("--max", type=float, required=True, help="grid end")
    p.add_argument("--step", type=float, required=True, help="grid span")
    p.add_argument("--methods", default="main", metavar="LIST",
                   help="comma list from: main, corrected, exact, sim")
    p.add_argument("--trials", type=int, default=1000, help="trajectories per node")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help=f"master seed (default {DEFAULT_SEED})")
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


def main(argv: list[str] | None = None) -> int:
    """Run one command; returns the process exit status."""
    args = build_parser().parse_args(argv)
    try:
        status = _COMMANDS[args.command](args)
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # the reader closed stdout early (`levelcross sweep ... | head`).
        # As the Python docs advise, point stdout at devnull so that the
        # interpreter's final flush of the unwritten rest stays quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (LevelCrossError, ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
