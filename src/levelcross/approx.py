"""Closed-form approximations for the conditional crossing probability.

The target quantity is P{v < tau <= t | first renewal at v}, where tau is
the first time the compound renewal process minus c*s exceeds the level u.
The main term is an inverse-Gaussian-type integral; the corrected
expansion adds two skewness corrections weighted by K_F and K_S:

    corrected(t) = main(t) + K_F * first(t) + K_S * second(t)

Each of the three integrals is a difference F(x1) - F(1) of endpoint
functions, x1 = c(t-v)/(u+cv) + 1, built from the same three quantities:
a standard normal cdf, a product exp(A) * Phi(-B) and a Gaussian kernel.
One pass evaluates them once at each endpoint and forms all three
differences: ``main_term`` checks the main term, ``corrected_expansion``
all three, and its fields ``correction_f`` and ``correction_s`` are the
two corrections.

Every product of the shape exp(huge) * Phi(-huge) is evaluated as
exp(A + log Phi(-B)); the plain product overflows long before the result
leaves [0, 1].  At drift rates so small that c^2 D^2 underflows or
1 - c M rounds to 1, or that a closed form comes out non-finite or the
main term outside [0, 1], the float arithmetic has broken down and the
closed forms raise PrecisionError, a ValueError.
"""

import math
import sys

from ._record import record
from .errors import PrecisionError
from .moments import ModelConstants
from .specfun import log_std_normal_cdf, std_normal_cdf

__all__ = [
    "CrossingQuery",
    "ApproxResult",
    "main_term",
    "corrected_expansion",
]

# rounding may carry the main term this far outside [0, 1]; farther, the
# arithmetic failed.  The corrections need only be finite.
_RANGE_SLACK = 1e-12
_LARGEST = sys.float_info.max


@record
class CrossingQuery:
    """Evaluation point: finite level u > 0, finite drift rate c > 0,
    first-renewal time v >= 0 and horizon t > v (``math.inf`` for the
    unbounded horizon)."""

    u: float
    c: float
    v: float = 0.0
    t: float = math.inf

    def __post_init__(self):
        if not 0.0 < self.u < math.inf:
            raise ValueError("level u must be finite and > 0")
        if not 0.0 < self.c < math.inf:
            raise ValueError("drift rate c must be finite and > 0")
        if not 0.0 <= self.v < self.t:
            raise ValueError("need 0 <= v < t")

    @property
    def w(self) -> float:
        """Effective level u + c*v seen after the first renewal."""
        return self.u + self.c * self.v


@record
class ApproxResult:
    main: float
    correction_f: float
    correction_s: float
    corrected: float


def _endpoint(x: float, w: float, cd: float, c2d2: float, drift: float, expo: float):
    """(base, prod, gauss) at one x of [1, x1], and their x -> inf limits:

    prod = exp(expo) * Phi(-sqrt(w)/(cD sqrt(x)) * (x*drift + 1)), log-space,
    base = Phi(sqrt(w)/(cD sqrt(x)) * (x*drift - 1)) + prod,
    gauss = exp(-w (x*drift - 1)^2 / (2 x c^2 D^2)).
    """
    if x == math.inf:
        if drift > 0.0:
            return 1.0, 0.0, 0.0  # Gaussian tail beats the constant exponential
        if drift < 0.0:
            prod = math.exp(expo)
            return prod, prod, 0.0
        return 1.0, 0.5, 0.0  # expo == 0 and the Phi arguments tend to 0
    scale = math.sqrt(w) / (cd * math.sqrt(x))
    dev = x * drift - 1.0
    prod = math.exp(expo + log_std_normal_cdf(-scale * (x * drift + 1.0)))
    # grouped as (dev/x)*dev so the square never overflows for huge x
    arg = -w / (2.0 * c2d2) * (dev / x) * dev
    gauss = math.exp(arg) if arg > -745.0 else 0.0
    return std_normal_cdf(scale * dev) + prod, prod, gauss


def _closed_forms(q: CrossingQuery, k: ModelConstants):
    """Unchecked (main, first, second) from one _endpoint call at each of
    x1 and 1; an overflow reads as inf."""
    w, c = q.w, q.c
    cd = c * math.sqrt(k.D2)
    c2d2 = c * c * k.D2
    if c2d2 == 0.0:
        raise PrecisionError(f"drift rate c = {c!r} is too small: c^2 D^2 underflows to 0")
    drift = 1.0 - c * k.M  # positive below the critical rate
    if drift == 1.0:
        raise PrecisionError(f"1 - c M reads 1.0 at drift rate c = {c!r}: c M is lost to rounding")
    expo = 2.0 * w * drift / c2d2
    ratio = w * drift / c2d2
    x1 = math.inf if q.t == math.inf else c * (q.t - q.v) / w + 1.0
    ends = []
    try:
        for x in (x1, 1.0):
            base, prod, gauss = _endpoint(x, w, cd, c2d2, drift, expo)
            first = -(c2d2 / w) * base + 2.0 * drift * prod
            second = -(3.0 * c2d2 / w) * base + 2.0 * drift * (3.0 - 4.0 * ratio) * prod
            if x != math.inf:
                first -= 2.0 * cd / math.sqrt(2.0 * math.pi * x * w) * gauss
                second -= (
                    math.sqrt(2.0)
                    * cd
                    / (math.sqrt(math.pi) * math.sqrt(w) * math.sqrt(x))
                    * (3.0 * (1.0 - ratio) + w / (c2d2 * x))
                    * gauss
                )
            ends.append((base, first, second))
    except OverflowError:
        return math.inf, math.inf, math.inf
    (base1, first1, second1), (base0, first0, second0) = ends
    return base1 - base0, first1 - first0, second1 - second0


def _checked(value: float, c: float, lo: float = -_LARGEST, hi: float = _LARGEST) -> float:
    """value, which must lie in [lo, hi]: outside, or at nan or an
    overflow, the float arithmetic has broken down."""
    if not lo <= value <= hi:
        raise PrecisionError(
            f"closed form reads {value!r} at drift rate c = {c!r}: "
            "the float arithmetic broke down"
        )
    return value


def main_term(q: CrossingQuery, k: ModelConstants) -> float:
    """Inverse-Gaussian-type main approximation of the crossing probability."""
    return _checked(_closed_forms(q, k)[0], q.c, -_RANGE_SLACK, 1.0 + _RANGE_SLACK)


def corrected_expansion(q: CrossingQuery, k: ModelConstants) -> ApproxResult:
    """Main term plus both corrections weighted by K_F and K_S at the
    query's drift rate.  The corrected value may legitimately be negative
    and is not clamped here."""
    main, first, second = _closed_forms(q, k)
    m = _checked(main, q.c, -_RANGE_SLACK, 1.0 + _RANGE_SLACK)
    cf = _checked(first, q.c)
    cs = _checked(second, q.c)
    return ApproxResult(m, cf, cs, m + k.kf_coeff / q.c * cf + k.ks_coeff / q.c * cs)
