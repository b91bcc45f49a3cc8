"""Deterministic Monte Carlo estimation of the crossing probability.

The uniform source is the 32-bit linear congruential generator

    x_{n+1} = (23456789 * x_n + 22185) mod 2^32,

mapped to (0, 1) by division by 2^32, with any zero state skipped so the
inverse transforms never see u = 0 exactly.  Streams are values: the pure
``lcg_next``/``next_uniform`` functions advance an integer state, and
:class:`LcgStream` wraps one for sampling loops.

``substream_seed`` derives one independent 32-bit seed per sweep node (a
splitmix64 avalanche of master seed and node index); the seeding rule and
the sweep CSV format are documented in :mod:`levelcross.sweep`.
"""

import math
from dataclasses import dataclass, field

from .distributions import Distribution

__all__ = [
    "LCG_MULTIPLIER",
    "LCG_INCREMENT",
    "LCG_MODULUS",
    "lcg_next",
    "next_uniform",
    "LcgStream",
    "substream_seed",
    "SimEstimate",
    "wilson_interval",
    "first_crossing_time",
    "simulate_conditional",
    "DEFAULT_SEED",
]

LCG_MULTIPLIER = 23456789
LCG_INCREMENT = 22185
LCG_MODULUS = 2**32

DEFAULT_SEED = 20170101

_MASK32 = LCG_MODULUS - 1
_MASK64 = 2**64 - 1
_INV_MODULUS = 2.0**-32

# 97.5% standard normal quantile, for the two-sided 95% Wilson interval
_Z975 = 1.959963984540054


def lcg_next(state: int) -> int:
    """One generator step; exact integer arithmetic, masked to 32 bits."""
    return (LCG_MULTIPLIER * state + LCG_INCREMENT) & _MASK32


def next_uniform(state: int) -> tuple[float, int]:
    """Advance the state and map it into (0, 1), skipping a zero state."""
    state = lcg_next(state)
    if state == 0:
        state = lcg_next(state)
    return state * _INV_MODULUS, state


class LcgStream:
    """Mutable wrapper around the pure LCG transition.

    Tracks ``draws`` (uniforms handed out) so tests can audit exactly how
    many variates a sampler consumes.
    """

    __slots__ = ("state", "draws")

    def __init__(self, seed: int):
        self.state = seed & _MASK32
        self.draws = 0

    def next_uniform(self) -> float:
        u, self.state = next_uniform(self.state)
        self.draws += 1
        return u


# the stream method first_crossing_time's fused loop inlines
_NEXT_UNIFORM = LcgStream.next_uniform


def substream_seed(master_seed: int, index: int) -> int:
    """Independent 32-bit seed for grid node ``index``.

    splitmix64 finalizer over (master_seed, index); documented bit-exactly
    in the README so sweeps are reproducible across platforms and
    evaluation orders.
    """
    z = (master_seed * 0x9E3779B97F4A7C15 + (index + 1) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    z ^= z >> 31
    return z & _MASK32


@dataclass(frozen=True)
class SimEstimate:
    estimate: float
    trials: int
    ci_low: float
    ci_high: float
    seed: int
    successes: int = field(default=0)

    @classmethod
    def from_counts(cls, successes: int, trials: int, seed: int) -> "SimEstimate":
        """The estimate and Wilson interval of ``successes`` in ``trials``
        paths drawn from ``seed``."""
        lo, hi = wilson_interval(successes, trials)
        return cls(successes / trials, trials, lo, hi, seed, successes)


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion."""
    if trials <= 0:
        raise ValueError("trials must be >= 1")
    z2 = _Z975 * _Z975
    phat = successes / trials
    denom = 1.0 + z2 / trials
    centre = (phat + z2 / (2.0 * trials)) / denom
    half = (
        _Z975
        * math.sqrt(phat * (1.0 - phat) / trials + z2 / (4.0 * trials * trials))
        / denom
    )
    # the boundary cases are exactly 0 and 1; rounding must not move them
    lo = 0.0 if successes == 0 else max(0.0, centre - half)
    hi = 1.0 if successes == trials else min(1.0, centre + half)
    return lo, hi


def first_crossing_time(
    t_dist: Distribution,
    y_dist: Distribution,
    u: float,
    c: float,
    v: float,
    horizon: float,
    stream: LcgStream,
) -> float | None:
    """Crossing epoch of one trajectory started with a renewal at time v.

    Returns the first renewal epoch s with total jumps minus c*s above u
    (which may be v itself if the first jump already crosses), or None if
    no crossing occurs by the horizon.  Between renewals the path only
    drifts down, so crossings happen at renewal epochs only.

    Draws the same uniforms in the same order, and computes the same
    floats, as calling ``y_dist.sample(stream)`` for each jump and
    ``t_dist.sample(stream)`` for each gap; ``stream.state`` and
    ``stream.draws`` advance exactly as they would.  The generator steps
    inline on a local integer state, and each uniform costs one call of
    its law's ``draw_kernel()`` transform.  When that cannot reproduce
    ``sample()`` (a law without a kernel, or a stream that is not a plain
    :class:`LcgStream`), the draws go through ``sample()`` itself.
    """
    t_kernel, y_kernel = t_dist.draw_kernel(), y_dist.draw_kernel()
    if (
        t_kernel is None
        or y_kernel is None
        or type(stream) is not LcgStream
        or LcgStream.next_uniform is not _NEXT_UNIFORM
    ):
        return _first_crossing_by_sample(t_dist, y_dist, u, c, v, horizon, stream)
    t_draw, t_uniforms = t_kernel
    y_draw, y_uniforms = y_kernel
    t_more, y_more = range(t_uniforms - 1), range(y_uniforms - 1)
    a, b, mask, scale = LCG_MULTIPLIER, LCG_INCREMENT, _MASK32, _INV_MODULUS
    x = stream.state
    s = v
    total = 0.0
    jumps = 0
    # each `x = ... or b` is next_uniform's step: a zero state is skipped
    # by stepping again, and lcg_next(0) == b
    while True:
        x = (a * x + b) & mask or b
        jump = y_draw(x * scale)
        for _ in y_more:
            x = (a * x + b) & mask or b
            jump += y_draw(x * scale)
        total += jump
        jumps += 1
        if total - c * s > u:
            tau = s
            gaps = jumps - 1
            break
        x = (a * x + b) & mask or b
        gap = t_draw(x * scale)
        for _ in t_more:
            x = (a * x + b) & mask or b
            gap += t_draw(x * scale)
        s += gap
        if s > horizon:
            tau = None
            gaps = jumps
            break
    stream.state = x
    stream.draws += jumps * y_uniforms + gaps * t_uniforms
    return tau


def _first_crossing_by_sample(t_dist, y_dist, u, c, v, horizon, stream):
    """first_crossing_time drawing every variate through ``sample()``, on
    any stream; the definition the fused loop reproduces."""
    s = v
    total = y_dist.sample(stream)
    if total - c * s > u:
        return s
    while True:
        s += t_dist.sample(stream)
        if s > horizon:
            return None
        total += y_dist.sample(stream)
        if total - c * s > u:
            return s


def simulate_conditional(
    t_dist: Distribution,
    y_dist: Distribution,
    u: float,
    c: float,
    v: float,
    t: float,
    n_trials: int,
    seed: int,
) -> SimEstimate:
    """Estimate P{v < tau <= t | first renewal at v} from n_trials paths.

    A trajectory counts as a success only for a crossing strictly after v:
    a first jump above u + c*v crosses AT v and is excluded from the
    conditional event.  The horizon must be finite (trajectories above the
    critical rate drift away and would never terminate).
    """
    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")
    if not math.isfinite(t) or not t > v:
        raise ValueError("simulation requires a finite horizon t > v")
    stream = LcgStream(seed)
    successes = 0
    for _ in range(n_trials):
        tau = first_crossing_time(t_dist, y_dist, u, c, v, t, stream)
        if tau is not None and tau > v:
            successes += 1
    return SimEstimate.from_counts(successes, n_trials, seed)
