"""First level-crossing times of compound renewal processes with drift.

The process is V(s) - c*s, where V is a compound renewal process (jumps Y
at renewal epochs of a gap law T) and c > 0 a drift rate.  The package
computes the distribution of the first time this process exceeds a level
u > 0, three independent ways:

* closed-form approximations (inverse-Gaussian main term and a corrected
  expansion with two skewness corrections) valid for light and heavy
  tails alike -- :mod:`levelcross.approx`, :mod:`levelcross.moments`;
* exact values when both T and Y are exponential, from the classical
  theta-integral or a Bessel-function integral -- :mod:`levelcross.exact`;
* a reproducible Monte Carlo simulator driven by an explicit 32-bit
  linear congruential generator -- :mod:`levelcross.sim`.

:mod:`levelcross.sweep` evaluates them over a grid of drift rates or horizons.
"""

__version__ = "0.1.0"

from .approx import (
    ApproxResult,
    CrossingQuery,
    corrected_expansion,
    main_term,
)
from .distributions import (
    Distribution,
    Erlang,
    Exponential,
    Mix2Exp,
    MomentSet,
    Pareto,
    parse_spec,
)
from .errors import (
    LevelCrossError,
    MomentUndefinedError,
    PrecisionError,
    QuadratureError,
    SeriesTruncationError,
    SpecParseError,
)
from .exact import (
    ExpExpModel,
    exact_conditional,
    infinite_horizon_cap,
    series_oracle,
    unconditional_exp_first_renewal,
)
from .moments import (
    ModelConstants,
    constants_for,
    model_constants_generic,
)
from .sim import (
    DEFAULT_SEED,
    LcgStream,
    SimEstimate,
    first_crossing_time,
    lcg_next,
    next_uniform,
    simulate_conditional,
    substream_seed,
    wilson_interval,
)
from .sweep import SweepGrid, SweepResult, evaluate_sweep, render_svg, sweep_c

__all__ = [
    "__version__",
    "ApproxResult",
    "CrossingQuery",
    "corrected_expansion",
    "main_term",
    "Distribution",
    "Erlang",
    "Exponential",
    "Mix2Exp",
    "MomentSet",
    "Pareto",
    "parse_spec",
    "LevelCrossError",
    "MomentUndefinedError",
    "PrecisionError",
    "QuadratureError",
    "SeriesTruncationError",
    "SpecParseError",
    "ExpExpModel",
    "exact_conditional",
    "infinite_horizon_cap",
    "series_oracle",
    "unconditional_exp_first_renewal",
    "ModelConstants",
    "constants_for",
    "model_constants_generic",
    "DEFAULT_SEED",
    "LcgStream",
    "SimEstimate",
    "first_crossing_time",
    "lcg_next",
    "next_uniform",
    "simulate_conditional",
    "substream_seed",
    "wilson_interval",
    "SweepGrid",
    "SweepResult",
    "evaluate_sweep",
    "render_svg",
    "sweep_c",
]
