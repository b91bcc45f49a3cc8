"""Parametric families for inter-renewal times and jump sizes.

Four families are supported: Exponential, mixture of two Exponentials,
Erlang, and Pareto (in the shifted form with density a*b/(x*b+1)^(a+1),
which has support on all of x > 0).  Each provides the density, the
distribution function, the quantile, closed-form central moments, and
sampling from a caller-supplied uniform stream.

A stream is any object with a ``next_uniform() -> float in (0, 1)``
method; :class:`levelcross.sim.LcgStream` is the deterministic one used
throughout.  ``draw_kernel()`` is the one definition of a draw, which
``sample()`` applies to a stream's uniforms and the simulator to raw
generator states; each family's kernel binds the law's constants once, not
per draw.  A new law defines ``_inverse`` or ``draw_kernel()``; by default
each is derived from the other.
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

_STATE_TO_UNIFORM = 2.0**-32  # levelcross.sim's generator state x is the uniform x * 2^-32


@record
class MomentSet:
    """Mean, variance and third central moment."""

    mean: float
    variance: float
    central3: float


class Distribution:
    """Common interface of the four families."""

    def pdf(self, x: float) -> float:
        raise NotImplementedError

    def cdf(self, x: float) -> float:
        raise NotImplementedError

    def quantile(self, u: float) -> float:
        """Inverse distribution function; requires u in (0, 1)."""
        if not 0.0 < u < 1.0:
            raise ValueError(f"quantile requires u in (0, 1), got {u!r}")
        return self._inverse(u)

    def _inverse(self, u: float) -> float:
        """The quantile without its argument check; by default the kernel
        applied to ``u``, which fits a kernel that inverts one uniform."""
        transform, scale, divisor, _ = self.draw_kernel()
        return transform(u * (scale / _STATE_TO_UNIFORM)) / divisor

    def draw_kernel(self) -> tuple[Callable[[float], float], float, float, int]:
        """``(transform, scale, divisor, n)``: one draw is the in-order sum
        of ``transform(x * scale) / divisor`` over ``n`` fresh generator
        states ``x``, integers in [1, 2^32) that stand for the uniforms
        ``x * 2**-32``.  ``scale`` is ``2**-32`` or ``-2**-32``, so
        ``x * scale`` is exactly the uniform or its negative, and
        ``transform`` skips the argument check.  The default is the inverse
        transform, divided exactly by 1.0; a family's transform is a builtin
        or a closure over its constants, so take one kernel for many draws."""
        return self._inverse, _STATE_TO_UNIFORM, 1.0, 1

    def moments(self) -> MomentSet:
        raise NotImplementedError

    def spec_string(self) -> str:
        raise NotImplementedError

    def sample(self, stream) -> float:
        """One draw of ``draw_kernel()``, taking its ``n`` uniforms from
        ``stream.next_uniform()``."""
        transform, scale, divisor, n = self.draw_kernel()
        sign = scale / _STATE_TO_UNIFORM
        total = transform(stream.next_uniform() * sign) / divisor
        for _ in range(n - 1):
            total += transform(stream.next_uniform() * sign) / divisor
        return total


@record
class Exponential(Distribution):
    rate: float

    def __post_init__(self):
        if not 0.0 < self.rate < math.inf:
            raise ValueError("Exponential rate must be finite and > 0")

    def pdf(self, x: float) -> float:
        if x <= 0.0:
            return 0.0
        return self.rate * math.exp(-self.rate * x)

    def cdf(self, x: float) -> float:
        if x <= 0.0:
            return 0.0
        return -math.expm1(-self.rate * x)

    def draw_kernel(self):
        # -log1p(-u) / rate with exact sign flips: log1p(x * -2^-32) / -rate
        return math.log1p, -_STATE_TO_UNIFORM, -self.rate, 1

    def moments(self) -> MomentSet:
        r = self.rate
        return MomentSet(1.0 / r, 1.0 / r**2, 2.0 / r**3)

    def spec_string(self) -> str:
        return f"exp:{self.rate:g}"


@record
class Mix2Exp(Distribution):
    """Mixture p*Exponential(rate1) + (1-p)*Exponential(rate2), rate1 < rate2."""

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

    def pdf(self, x: float) -> float:
        if x <= 0.0:
            return 0.0
        return self.rate1 * self.p * math.exp(-self.rate1 * x) + self.rate2 * self.q * math.exp(
            -self.rate2 * x
        )

    def cdf(self, x: float) -> float:
        if x <= 0.0:
            return 0.0
        return 1.0 - (self.p * math.exp(-self.rate1 * x) + self.q * math.exp(-self.rate2 * x))

    def draw_kernel(self):
        # the branch and the constants are bound once per kernel, not per draw
        p, q, nr1, nr2 = self.p, self.q, -self.rate1, -self.rate2
        if q == 0.0:
            return Exponential(self.rate1).draw_kernel()
        log, log1p, sqrt, exp = math.log, math.log1p, math.sqrt, math.exp
        if self.rate2 == 2.0 * self.rate1:
            # p*w + q*w^2 = 1 - u with w = exp(-rate1 * x); conjugate root
            # form stays stable as q -> 0
            pp, q4 = p * p, 4.0 * q

            def closed_form(u):
                return log(2.0 * (1.0 - u) / (p + sqrt(pp + q4 * (1.0 - u))))

            return closed_form, _STATE_TO_UNIFORM, nr1, 1

        # general rates: bisection on the inlined cdf, bracketed by the rate1
        # exponential's quantile (it dominates the mixture).  An unchanged
        # (lo, hi) is a fixed point, so stopping there returns what all
        # _BISECT_STEPS would.
        def bisection(u):
            lo, hi = 0.0, log1p(-u) / nr1
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

        return bisection, _STATE_TO_UNIFORM, 1.0, 1

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

    def spec_string(self) -> str:
        return f"mix2exp:{self.rate1:g},{self.rate2:g},{self.p:g}"


@record
class Erlang(Distribution):
    rate: float
    shape: int

    def __post_init__(self):
        if not 0.0 < self.rate < math.inf:
            raise ValueError("Erlang rate must be finite and > 0")
        if not (isinstance(self.shape, int) and 1 <= self.shape <= ERLANG_MAX_SHAPE):
            raise ValueError(f"Erlang shape must be an integer in [1, {ERLANG_MAX_SHAPE}]")

    def pdf(self, x: float) -> float:
        if x <= 0.0:
            return 0.0
        k, r = self.shape, self.rate
        return math.exp(
            k * math.log(r) + (k - 1) * math.log(x) - math.lgamma(k) - r * x
        )

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

    def _inverse(self, u: float) -> float:
        if self.shape == 1:
            return super()._inverse(u)  # the Exponential(rate) quantile
        lo, hi = 0.0, self.shape / self.rate
        while self.cdf(hi) < u:
            hi *= 2.0
        for _ in range(_BISECT_STEPS):
            mid = 0.5 * (lo + hi)
            if self.cdf(mid) < u:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    def moments(self) -> MomentSet:
        k, r = self.shape, self.rate
        return MomentSet(k / r, k / r**2, 2.0 * k / r**3)

    def draw_kernel(self):
        # the sum of `shape` Exponential(rate) draws, added one by one
        return math.log1p, -_STATE_TO_UNIFORM, -self.rate, self.shape

    def spec_string(self) -> str:
        return f"erlang:{self.rate:g},{self.shape}"


@record
class Pareto(Distribution):
    """Density a*b/(x*b + 1)^(a+1) on x > 0; heavy-tailed with index a."""

    shape: float
    scale: float

    def __post_init__(self):
        if not 0.0 < self.shape < math.inf:
            raise ValueError("Pareto shape must be finite and > 0")
        if not 0.0 < self.scale < math.inf:
            raise ValueError("Pareto scale must be finite and > 0")

    def pdf(self, x: float) -> float:
        if x <= 0.0:
            return 0.0
        a, b = self.shape, self.scale
        return a * b / (x * b + 1.0) ** (a + 1.0)

    def cdf(self, x: float) -> float:
        if x <= 0.0:
            return 0.0
        return -math.expm1(-self.shape * math.log1p(x * self.scale))

    def draw_kernel(self):
        # ((1-u)^(-1/a) - 1)/b, written to survive u -> 1 without cancellation;
        # the transform takes -u and divides by -a: exact sign flips
        expm1, log1p, neg_shape = math.expm1, math.log1p, -self.shape
        return (lambda m: expm1(log1p(m) / neg_shape)), -_STATE_TO_UNIFORM, self.scale, 1

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

    def spec_string(self) -> str:
        return f"pareto:{self.shape:g},{self.scale:g}"


def _parse_floats(body: str, n: int, spec: str) -> list[float]:
    parts = body.split(",")
    if len(parts) != n:
        raise SpecParseError(
            f"{spec!r}: expected {n} comma-separated parameters, got {len(parts)}"
        )
    out = []
    for token in parts:
        try:
            out.append(float(token))
        except ValueError:
            raise SpecParseError(f"{spec!r}: not a number: {token!r}") from None
    return out


def parse_spec(spec: str) -> Distribution:
    """Parse ``exp:<rate>``, ``erlang:<rate>,<k>``, ``pareto:<a>,<b>`` or
    ``mix2exp:<rate1>,<rate2>,<p>`` into a distribution object."""
    head, sep, body = spec.strip().partition(":")
    if not sep:
        raise SpecParseError(f"{spec!r}: expected '<family>:<params>'")
    family = head.strip().lower()
    try:
        if family == "exp":
            (rate,) = _parse_floats(body, 1, spec)
            return Exponential(rate)
        if family == "erlang":
            rate, k = _parse_floats(body, 2, spec)
            if not k.is_integer():
                raise SpecParseError(f"{spec!r}: Erlang shape must be an integer, got {k!r}")
            return Erlang(rate, int(k))
        if family == "pareto":
            a, b = _parse_floats(body, 2, spec)
            return Pareto(a, b)
        if family == "mix2exp":
            l1, l2, p = _parse_floats(body, 3, spec)
            return Mix2Exp(l1, l2, p)
    except ValueError as exc:
        if isinstance(exc, SpecParseError):
            raise
        raise SpecParseError(f"{spec!r}: {exc}") from None
    raise SpecParseError(
        f"{spec!r}: unknown family {family!r} (expected exp, erlang, pareto or mix2exp)"
    )
