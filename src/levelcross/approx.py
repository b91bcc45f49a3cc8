"""Closed-form approximations for the conditional crossing probability.

The target quantity is P{v < tau <= t | first renewal at v}, where tau is
the first time the compound renewal process minus c*s exceeds the level u.
The main term is an inverse-Gaussian-type integral; the corrected
expansion adds two skewness corrections weighted by K_F and K_S:

    corrected(t) = main(t) + K_F * first(t) + K_S * second(t)

All three integrals have closed forms built from the standard normal cdf.

Every product of the shape exp(huge) * Phi(-huge) is evaluated as
exp(A + log Phi(-B)); the plain product overflows long before the result
leaves [0, 1].
"""

import math
from dataclasses import dataclass

from .moments import ModelConstants
from .specfun import log_std_normal_cdf, std_normal_cdf

__all__ = [
    "CrossingQuery",
    "ApproxResult",
    "main_term",
    "first_correction",
    "second_correction",
    "corrected_expansion",
]


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class ApproxResult:
    main: float
    correction_f: float
    correction_s: float
    corrected: float


class _Bracket:
    """Shared endpoint machinery for the three closed forms.

    Endpoints are evaluated at x in [1, x1] with x1 = c(t-v)/(u+cv) + 1;
    the closed forms are differences F(x1) - F(1) of endpoint functions
    built from phi_plus, phi_prod and the Gaussian kernel below.
    """

    def __init__(self, q: CrossingQuery, k: ModelConstants):
        self.w = q.w
        self.c = q.c
        self.cd = q.c * math.sqrt(k.D2)
        self.c2d2 = q.c * q.c * k.D2
        self.drift = 1.0 - q.c * k.M  # positive below the critical rate
        self.expo = 2.0 * self.w * self.drift / self.c2d2
        self.x1 = math.inf if q.t == math.inf else q.c * (q.t - q.v) / self.w + 1.0

    def scale(self, x: float) -> float:
        return math.sqrt(self.w) / (self.cd * math.sqrt(x))

    def phi_plus(self, x: float) -> float:
        """Phi(sqrt(w)/(cD sqrt(x)) * (x*drift - 1)), and its x -> inf limit."""
        if x == math.inf:
            if self.drift > 0.0:
                return 1.0
            if self.drift < 0.0:
                return 0.0
            return 0.5
        return std_normal_cdf(self.scale(x) * (x * self.drift - 1.0))

    def phi_prod(self, x: float) -> float:
        """exp(expo) * Phi(-sqrt(w)/(cD sqrt(x)) * (x*drift + 1)), log-space."""
        if x == math.inf:
            if self.drift > 0.0:
                return 0.0  # Gaussian tail beats the constant exponential
            if self.drift < 0.0:
                return math.exp(self.expo)
            return 0.5  # expo == 0 and the Phi argument tends to 0 from below
        return math.exp(self.expo + log_std_normal_cdf(-self.scale(x) * (x * self.drift + 1.0)))

    def base(self, x: float) -> float:
        """Endpoint of the main-term bracket."""
        return self.phi_plus(x) + self.phi_prod(x)

    def gauss(self, x: float) -> float:
        """exp(-w (x*drift - 1)^2 / (2 x c^2 D^2)), zero in the x -> inf limit."""
        if x == math.inf:
            return 0.0
        # grouped as (t/x)*t so the square never overflows for huge x
        t = x * self.drift - 1.0
        expo = -self.w / (2.0 * self.c2d2) * (t / x) * t
        return math.exp(expo) if expo > -745.0 else 0.0

    def diff(self, endpoint) -> float:
        return endpoint(self.x1) - endpoint(1.0)


def main_term(q: CrossingQuery, k: ModelConstants) -> float:
    """Inverse-Gaussian-type main approximation of the crossing probability."""
    br = _Bracket(q, k)
    return br.diff(br.base)


def first_correction(q: CrossingQuery, k: ModelConstants) -> float:
    """First correction integral; O(1/(u+cv)) and usually negative."""
    br = _Bracket(q, k)

    def endpoint(x: float) -> float:
        val = -(br.c2d2 / br.w) * br.base(x)
        val += 2.0 * br.drift * br.phi_prod(x)
        if x != math.inf:
            val -= 2.0 * br.cd / math.sqrt(2.0 * math.pi * x * br.w) * br.gauss(x)
        return val

    return br.diff(endpoint)


def second_correction(q: CrossingQuery, k: ModelConstants) -> float:
    """Second correction integral; O(1/(u+cv)) like the first."""
    br = _Bracket(q, k)
    ratio = br.w * br.drift / br.c2d2

    def endpoint(x: float) -> float:
        val = -(3.0 * br.c2d2 / br.w) * br.base(x)
        val += 2.0 * br.drift * (3.0 - 4.0 * ratio) * br.phi_prod(x)
        if x != math.inf:
            poly_over_x = 3.0 * (1.0 - ratio) + br.w / (br.c2d2 * x)
            val -= (
                math.sqrt(2.0)
                * br.cd
                / (math.sqrt(math.pi) * math.sqrt(br.w) * math.sqrt(x))
                * poly_over_x
                * br.gauss(x)
            )
        return val

    return br.diff(endpoint)


def corrected_expansion(q: CrossingQuery, k: ModelConstants) -> ApproxResult:
    """Main term plus both corrections weighted by K_F and K_S at the
    query's drift rate.  The corrected value may legitimately be negative
    and is not clamped here."""
    m = main_term(q, k)
    cf = first_correction(q, k)
    cs = second_correction(q, k)
    return ApproxResult(
        main=m,
        correction_f=cf,
        correction_s=cs,
        corrected=m + k.kf(q.c) * cf + k.ks(q.c) * cs,
    )
