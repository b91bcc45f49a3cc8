"""Parametric families for inter-renewal times and jump sizes.

Four families are supported: Exponential, mixture of two Exponentials,
Erlang, and Pareto (in the shifted form with density a*b/(x*b+1)^(a+1),
which has support on all of x > 0).  Each provides the distribution
function, the quantile, closed-form central moments, and sampling from a
caller-supplied uniform stream.  A law's spec string is
``<family>:<fields in declaration order>``, e.g. ``erlang:1.2,2``: each
family class names its ``family``, and one ``spec_string``, one
``parse_spec`` table and one finite-and-positive check serve all four.

A stream is any object with a ``next_uniform() -> float in (0, 1)``
method; :class:`levelcross.sim.LcgStream` is the deterministic one used
throughout.  ``draw_kernel()`` is the one definition of a draw, which
``sample()`` and the simulator both apply to negated uniforms; each
family's kernel binds the law's constants once, not per draw.  A new law
defines ``draw_kernel()``, and ``quantile()`` is derived from it.
"""

import math
from collections.abc import Callable

from ._record import record
from .errors import MomentUndefinedError, SpecParseError

__all__ = [
    "ERLANG_MAX_SHAPE",
    "MomentSet",
    "Distribution",
    "Exponential",
    "Mix2Exp",
    "Erlang",
    "Pareto",
    "parse_spec",
]

# fixed iteration caps keep the numeric quantiles bit-exactly reproducible
_BISECT_STEPS = 90

# one Erlang draw sums `shape` transforms: the cap bounds its work
ERLANG_MAX_SHAPE = 1000


@record
class MomentSet:
    """Mean, variance and third central moment."""

    mean: float
    variance: float
    central3: float


class Distribution:
    """Common interface of the four families."""

    family = None  # the spec name; a law without one has no spec string

    def __post_init__(self):
        for name, value in vars(self).items():
            if not 0.0 < value < math.inf:
                raise ValueError(f"{type(self).__name__} {name} must be finite and > 0")

    def cdf(self, x: float) -> float:
        raise NotImplementedError

    def quantile(self, u: float) -> float:
        """Inverse distribution function; requires u in (0, 1).  A kernel of
        one uniform is the inverse transform, applied here to ``-u``; with
        more, ``cdf`` is bisected over [0, mean], doubling the upper end
        until it brackets u."""
        if not 0.0 < u < 1.0:
            raise ValueError(f"quantile requires u in (0, 1), got {u!r}")
        transform, divisor, n = self.draw_kernel()
        if n == 1:
            return transform(-u) / divisor
        lo, hi = 0.0, self.moments().mean
        while self.cdf(hi) < u:
            hi *= 2.0
        for _ in range(_BISECT_STEPS):
            mid = 0.5 * (lo + hi)
            if self.cdf(mid) < u:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    def draw_kernel(self) -> tuple[Callable[[float], float], float, int]:
        """``(transform, divisor, n)``: one draw is the in-order sum of
        ``transform(-u) / divisor`` over ``n`` fresh uniforms ``u``, and
        ``transform`` skips the argument check.  A family's transform is a
        builtin or a closure over its constants, so take one kernel for
        many draws."""
        raise NotImplementedError

    def moments(self) -> MomentSet:
        raise NotImplementedError

    def spec_string(self) -> str:
        if self.family is None:
            raise NotImplementedError
        return f"{self.family}:" + ",".join(f"{value:g}" for value in vars(self).values())

    def sample(self, stream) -> float:
        """One draw of ``draw_kernel()``, taking its ``n`` uniforms from
        ``stream.next_uniform()``."""
        transform, divisor, n = self.draw_kernel()
        total = transform(-stream.next_uniform()) / divisor
        for _ in range(n - 1):
            total += transform(-stream.next_uniform()) / divisor
        return total


@record
class Exponential(Distribution):
    family = "exp"
    rate: float

    def cdf(self, x: float) -> float:
        if x <= 0.0:
            return 0.0
        return -math.expm1(-self.rate * x)

    def draw_kernel(self):
        # -log1p(-u) / rate with exact sign flips: log1p(-u) / -rate
        return math.log1p, -self.rate, 1

    def moments(self) -> MomentSet:
        r = self.rate
        return MomentSet(1.0 / r, 1.0 / r**2, 2.0 / r**3)


@record
class Mix2Exp(Distribution):
    """Mixture p*Exponential(rate1) + (1-p)*Exponential(rate2), rate1 < rate2."""

    family = "mix2exp"
    rate1: float
    rate2: float
    p: float

    def __post_init__(self):
        if not 0.0 < self.rate1 < self.rate2 < math.inf:
            raise ValueError("Mix2Exp requires 0 < rate1 < rate2 < inf")
        if not 0.0 <= self.p <= 1.0:
            raise ValueError("Mix2Exp weight p must lie in [0, 1]")

    @property
    def q(self) -> float:
        return 1.0 - self.p

    def cdf(self, x: float) -> float:
        if x <= 0.0:
            return 0.0
        return 1.0 - (self.p * math.exp(-self.rate1 * x) + self.q * math.exp(-self.rate2 * x))

    def draw_kernel(self):
        # the branch and the constants are bound once per kernel, not per draw
        p, q, nr1, nr2 = self.p, self.q, -self.rate1, -self.rate2
        if q == 0.0:
            return math.log1p, nr1, 1
        log, log1p, sqrt, exp = math.log, math.log1p, math.sqrt, math.exp
        if self.rate2 == 2.0 * self.rate1:
            # p*w + q*w^2 = 1 - u with w = exp(-rate1 * x); conjugate root
            # form stays stable as q -> 0.  1.0 + m is exactly 1.0 - u.
            pp, q4 = p * p, 4.0 * q

            def closed_form(m):
                return log(2.0 * (1.0 + m) / (p + sqrt(pp + q4 * (1.0 + m))))

            return closed_form, nr1, 1

        # general rates: bisection on the inlined cdf, bracketed by the rate1
        # exponential's quantile (it dominates the mixture).  An unchanged
        # (lo, hi) is a fixed point, so stopping there returns what all
        # _BISECT_STEPS would.
        def bisection(m):
            u = -m
            lo, hi = 0.0, log1p(m) / nr1
            for _ in range(_BISECT_STEPS):
                mid = 0.5 * (lo + hi)
                cdf = 0.0 if mid <= 0.0 else 1.0 - (p * exp(nr1 * mid) + q * exp(nr2 * mid))
                if cdf < u:
                    if lo == mid:
                        break
                    lo = mid
                else:
                    if hi == mid:
                        break
                    hi = mid
            return 0.5 * (lo + hi)

        return bisection, 1.0, 1

    def moments(self) -> MomentSet:
        p, q = self.p, self.q
        l1, l2 = self.rate1, self.rate2
        mean = p / l1 + q / l2
        var = (q * l1**2 + p * l2**2 + p * q * (l1 - l2) ** 2) / (l1**2 * l2**2)
        c3 = (
            -6.0 * p * q**2 / (l1**2 * l2)
            - 6.0 * p**2 * q / (l1 * l2**2)
            + 2.0 * p * (3.0 * q + p**2) / l1**3
            + 2.0 * q * (3.0 * p + q**2) / l2**3
        )
        return MomentSet(mean, var, c3)


@record
class Erlang(Distribution):
    family = "erlang"
    rate: float
    shape: int

    def __post_init__(self):
        # type() is int also rejects a bool, which isinstance would accept
        if not (type(self.shape) is int and 1 <= self.shape <= ERLANG_MAX_SHAPE):
            raise ValueError(f"Erlang shape must be an integer in [1, {ERLANG_MAX_SHAPE}]")
        super().__post_init__()

    def cdf(self, x: float) -> float:
        # 1 - exp(-rx) * sum_{j<k} (rx)^j / j!  -- exact for integer shape
        if x <= 0.0:
            return 0.0
        rx = self.rate * x
        log_rx = math.log(rx)
        tail = 0.0
        for j in range(self.shape):
            tail += math.exp(j * log_rx - math.lgamma(j + 1) - rx)
        return 1.0 - tail

    def moments(self) -> MomentSet:
        k, r = self.shape, self.rate
        return MomentSet(k / r, k / r**2, 2.0 * k / r**3)

    def draw_kernel(self):
        # the sum of `shape` Exponential(rate) draws, added one by one
        return math.log1p, -self.rate, self.shape


@record
class Pareto(Distribution):
    """Density a*b/(x*b + 1)^(a+1) on x > 0; heavy-tailed with index a."""

    family = "pareto"
    shape: float
    scale: float

    def cdf(self, x: float) -> float:
        if x <= 0.0:
            return 0.0
        return -math.expm1(-self.shape * math.log1p(x * self.scale))

    def draw_kernel(self):
        # ((1-u)^(-1/a) - 1)/b, written to survive u -> 1 without cancellation;
        # the transform takes -u and divides by -a: exact sign flips
        expm1, log1p, neg_shape = math.expm1, math.log1p, -self.shape
        return (lambda m: expm1(log1p(m) / neg_shape)), self.scale, 1

    def moments(self) -> MomentSet:
        a, b = self.shape, self.scale
        if a <= 1.0:
            raise MomentUndefinedError(f"Pareto mean requires shape > 1 (got {a:g})")
        if a <= 2.0:
            raise MomentUndefinedError(f"Pareto variance requires shape > 2 (got {a:g})")
        if a <= 3.0:
            raise MomentUndefinedError(
                f"Pareto third central moment requires shape > 3 (got {a:g})"
            )
        mean = 1.0 / ((a - 1.0) * b)
        var = a / ((a - 1.0) ** 2 * (a - 2.0) * b**2)
        c3 = 2.0 * a * (a + 1.0) / ((a - 1.0) ** 3 * (a - 2.0) * (a - 3.0) * b**3)
        return MomentSet(mean, var, c3)


_FAMILIES = {cls.family: cls for cls in (Exponential, Erlang, Pareto, Mix2Exp)}


def parse_spec(spec: str) -> Distribution:
    """Parse ``<family>:<fields in declaration order>``, e.g. ``exp:<rate>``,
    ``erlang:<rate>,<shape>``, ``pareto:<shape>,<scale>`` or
    ``mix2exp:<rate1>,<rate2>,<p>``, into a distribution object.  An
    integral number becomes an ``int`` for an ``int`` field."""
    head, sep, body = spec.strip().partition(":")
    if not sep:
        raise SpecParseError(f"{spec!r}: expected '<family>:<params>'")
    family = head.strip().lower()
    cls = _FAMILIES.get(family)
    if cls is None:
        *others, last = _FAMILIES
        raise SpecParseError(
            f"{spec!r}: unknown family {family!r} (expected {', '.join(others)} or {last})"
        )
    kinds, tokens = cls.__annotations__.values(), body.split(",")
    if len(tokens) != len(kinds):
        raise SpecParseError(
            f"{spec!r}: expected {len(kinds)} comma-separated parameters, got {len(tokens)}"
        )
    args = []
    for token, kind in zip(tokens, kinds):
        try:
            value = float(token)
        except ValueError:
            raise SpecParseError(f"{spec!r}: not a number: {token!r}") from None
        args.append(int(value) if kind is int and value.is_integer() else value)
    try:
        return cls(*args)
    except ValueError as exc:
        raise SpecParseError(f"{spec!r}: {exc}") from None
