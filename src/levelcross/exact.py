"""Exact crossing-time results for exponential gaps and exponential jumps.

With T ~ Exponential(lam) and Y ~ Exponential(mu) the conditional
probability P{v < tau <= t | first renewal at v} has two exact
representations, and ``exact_conditional`` routes each query to one.

The theta route is the classical finite-horizon ruin integral for
exponential claims (Asmussen & Albrecher, Ruin Probabilities, 2010,
ch. V) integrated against the first jump.  With beta = lam/c,
r = sqrt(beta mu), k = sqrt(beta/mu), w = u + cv and T = c(t - v):

    B - (beta/(pi r)) e^{E0}
        * int_0^pi e^{-2a sin^2(theta/2)} sin(rw sin theta) 2 sin theta
          / ((1 - k)^2 + 4k sin^2(theta/2)) dtheta,

    a = (2T + w) r,   E0 = -(sqrt(mu) - sqrt(beta))^2 T - (mu - r) w,

where B = e^{-(mu - beta) w} - e^{-mu w} for beta < mu and 1 - e^{-mu w}
otherwise is the value at t = inf.  It needs only elementary functions
and resolves every long horizon, but at short horizons against a high
level the integral term nearly equals B and the difference cancels.
With x = sin^2(theta/2) and |sin y| <= y the integral term is at most
Env = rw e^{E0} sqrt(2/(pi a)), and the theta route is taken only where
room = B/Env - 1 >= 2^-10, compared in logs, which a NaN fails.  The
value is then at least B - Env = room Env, and the quadrature runs at
the tolerance _REL_TOL min(1, room): its error estimate, at most that
times the summed |K15| of its panels, which Env bounds, stays within
_REL_TOL of the value.  The rounding of B minus the term stays below
about 2.2e-16 (1 + 1/room) of the value, at most 2.3e-13.  Where
Env <= B/2 the tolerance is _REL_TOL itself.  Where log Env <= log B - 40
the term is below e^{-40} B ~ 4.2e-18 B, under half an ulp of B (at
least 2^{-54} B ~ 5.6e-17 B), so B minus it rounds to B: the route
returns B and integrates nothing.  Otherwise the integral starts from panels as
wide as sigma = 1/sqrt(a), the width of the factor
e^{-2a sin^2(theta/2)} ~ e^{-theta^2/(2 sigma^2)}: they end at
theta = sigma, 2, 3, 4, 6 and 8 sigma, and the last runs on to pi (one
panel [0, pi] where 8 sigma >= pi).  The shortcut keeps every bit of the
value; the panels do not always: their Kronrod sums round differently
from those over one panel [0, 8 sigma], so a value can move by an ulp
against that split (2 of 3036 random theta-routed queries did, by one).

Every other query takes the Bessel route, a single integral of a Bessel
I_1 kernel:

    sqrt(lam mu c) L e^{-mu(u + cv)}
        * int_0^{t-v} I_1(2 sqrt(lam mu c (y+L) y)) / sqrt((y+L) y)
          * e^{-(mu c + lam) y} dy,        L = v + u/c.

Its integrand is formed entirely in log space: at t = 1000 the Bessel
argument exceeds 2000 and I_1 alone overflows, while log I_1 minus the
exponential decay stays bounded.

Both integrals run on the one adaptive Gauss-Kronrod routine
(``gauss_kronrod``, through ``integrate_log_scaled`` for the Bessel one).
The unconditional value, with an exponential first interval too, is one
integral of the same kind: that of the ruin-time density, an I_0 and an
I_1 term (see ``unconditional_exp_first_renewal``).
``series_oracle`` evaluates the same probability from the renewal-theoretic
series (Erlang convolution densities against a Poisson-type count law),
integrated by adaptive Simpson, and serves as an independent cross-check.
"""

import math

from ._record import record
from .approx import _RANGE_SLACK, CrossingQuery
from .errors import QuadratureError, SeriesTruncationError
from .quadrature import adaptive_simpson, gauss_kronrod, integrate_log_scaled
from .specfun import log_bessel_i0, log_bessel_i1

__all__ = [
    "ExpExpModel",
    "exact_conditional",
    "series_oracle",
    "unconditional_exp_first_renewal",
    "infinite_horizon_cap",
]

# the quadratures' relative error estimate: of the conditional and the
# unconditional value, and of the series' Simpson rule
_REL_TOL = 1e-10


@record
class ExpExpModel:
    """Rates of the exponential gap law (lam) and jump law (mu)."""

    lam: float
    mu: float

    def __post_init__(self):
        if not (0.0 < self.lam < math.inf and 0.0 < self.mu < math.inf):
            raise ValueError("both rates must be finite and > 0")


def _probability(log_value: float) -> float:
    """The probability exp(log_value), 0.0 below the float range.  Raises
    QuadratureError above 1 + _RANGE_SLACK: farther than rounding reaches,
    the integral cancelled to round-off."""
    if log_value > math.log1p(_RANGE_SLACK):
        raise QuadratureError(
            f"the exact value exp({log_value:.6g}) exceeds 1: its integrand "
            "cancelled to round-off"
        )
    return math.exp(log_value) if log_value > -745.0 else 0.0


def infinite_horizon_cap(q: CrossingQuery) -> float:
    """Horizon substituted for t = inf.

    Off the critical rate the integrand decays like
    exp(-(sqrt(mu c) - sqrt(lam))^2 y) and the cap is generous; near the
    critical rate the tail only decays like y^(-3/2) and the cap cuts off
    real mass: at (u, c, v) = (10, 1, 0) the capped value is 0.9436, the
    true one 0.99995.
    """
    return q.v + max(1.0e4, 200.0 * q.w)


def exact_conditional(m: ExpExpModel, q: CrossingQuery) -> float:
    """Exact P{v < tau <= t | first renewal at v} for the exponential pair.

    On both routes t = inf stands for the horizon infinite_horizon_cap(q).
    A query with room = B/Env - 1 >= 2^-10 (see the module docstring)
    takes the theta route, whose error estimate is at most
    _REL_TOL min(1, room) times the integral of |integrand| (see
    :func:`gauss_kronrod`), which Env bounds in turn; since
    room Env = B - Env <= the value, that is _REL_TOL relative to the
    value.  Every other query takes the Bessel route, whose error
    estimate is at most _REL_TOL times the Bessel integral.  There a
    horizon too long for the integral to resolve raises QuadratureError
    (see :func:`integrate_log_scaled` and ``_probability``).
    """
    t = infinite_horizon_cap(q) if q.t == math.inf else q.t
    value = _theta_conditional(m, q, t)
    return _bessel_conditional(m, q, t, _REL_TOL) if value is None else value


def _theta_conditional(m: ExpExpModel, q: CrossingQuery, t: float) -> float | None:
    """The theta route's value at horizon t, or None where
    room = B/Env - 1 >= 2^-10 fails; B itself where log Env <= log B - 40
    (see the module docstring)."""
    beta = m.lam / q.c
    w = q.w
    span = q.c * (t - q.v)
    r = math.sqrt(beta * m.mu)
    rw = r * w
    a = (2.0 * span + w) * r
    e0 = -((math.sqrt(m.mu) - math.sqrt(beta)) ** 2) * span - (m.mu - r) * w
    # B, as e^{-(mu - beta) w} (1 - e^{-beta w}) for beta < mu
    b = math.exp(-max(m.mu - beta, 0.0) * w) * -math.expm1(-min(beta, m.mu) * w)
    if b == 0.0:
        return 0.0  # the value at every horizon is at most B
    if not (b > 0.0 and rw > 0.0):  # a NaN B, or r underflowed to 0
        return None
    log_env = e0 + math.log(rw) - 0.5 * math.log(0.5 * math.pi * a)
    log_b = math.log(b)
    # room = B/Env - 1 >= 2^-10 compared in logs, where B/Env overflows or
    # underflows; NaN, from an overflowed T at beta = mu, fails too
    d = log_b - log_env
    if not d >= math.log1p(2.0**-10):
        return None
    if log_env <= log_b - 40.0:  # the term is under half an ulp of B
        return b
    # _REL_TOL min(1, room): expm1(d) overflows past d = 709
    rel_tol = _REL_TOL * math.expm1(d) if d < math.log(2.0) else _REL_TOL
    k = math.sqrt(beta / m.mu)
    gap = (1.0 - k) ** 2
    two_a, four_k = 2.0 * a, 4.0 * k

    def integrand(theta: float) -> float:
        x = math.sin(0.5 * theta) ** 2
        sin_theta = math.sin(theta)
        return math.exp(-two_a * x) * math.sin(rw * sin_theta) * sin_theta / (gap + four_k * x)

    # the factor e^{-2a sin^2(theta/2)} has fallen to e^{-32} by
    # split = 8 sigma; the dyadic fractions of split are exact
    split = 8.0 / math.sqrt(a)
    if split < math.pi:
        edges = [split * f for f in (0.0, 0.125, 0.25, 0.375, 0.5, 0.75, 1.0)] + [math.pi]
    else:
        edges = (0.0, math.pi)
    return b - 2.0 * beta / (math.pi * r) * math.exp(e0) * gauss_kronrod(integrand, edges, rel_tol)


def _bessel_conditional(m: ExpExpModel, q: CrossingQuery, t: float, rel_tol: float) -> float:
    """The Bessel route's value at horizon t."""
    b = q.v + q.u / q.c
    rate_sum = m.mu * q.c + m.lam
    prod = m.lam * m.mu * q.c
    if not 0.0 < prod < math.inf:
        raise QuadratureError(f"lam * mu * c = {prod:g} lies outside the float range")
    half_log_prod = 0.5 * math.log(prod)

    def log_integrand(y: float) -> float:
        if y <= 0.0:
            # I_1(z) ~ z/2 as z -> 0 makes the integrand -> sqrt(lam mu c)
            return half_log_prod
        z = 2.0 * math.sqrt(prod * (y + b) * y)
        if z == 0.0:  # underflowed: the same limit, times e^{-(mu c + lam) y}
            return half_log_prod - rate_sum * y
        return log_bessel_i1(z) - rate_sum * y - 0.5 * (math.log(y + b) + math.log(y))

    log_pref = half_log_prod + math.log(b) - m.mu * (q.u + q.c * q.v)
    return _probability(
        log_pref + integrate_log_scaled(log_integrand, 0.0, t - q.v, rel_tol)
    )


def _log_sum_exp(values: list[float]) -> float:
    top = max(values)
    if top == -math.inf:
        return top
    return top + math.log(sum(math.exp(v - top) for v in values))


def series_oracle(m: ExpExpModel, q: CrossingQuery, nmax: int = 500) -> float:
    """Crossing probability from the truncated renewal series.

    Integrates over the crossing epoch z the sum over n of
    (count law at n) * (n-fold gap convolution density), weighted by
    (u+cv)/(u+cz).  Raises SeriesTruncationError at an epoch where the
    n-sum has not fallen e^45 below its largest term by n = ``nmax``.
    """
    if nmax < 1:
        raise ValueError("nmax must be >= 1")
    t = infinite_horizon_cap(q) if q.t == math.inf else q.t
    if t - q.v <= 0.0:
        return 0.0
    lgam = [math.lgamma(n + 1) for n in range(nmax + 1)]
    log_lam = math.log(m.lam)

    def integrand(z: float) -> float:
        jump_mean = m.mu * (q.u + q.c * z)  # count-law intensity at epoch z
        gap_mean = m.lam * (z - q.v)
        weight = q.w / (q.u + q.c * z)
        base = -jump_mean - gap_mean + log_lam
        if gap_mean == 0.0:
            # only the single-renewal term survives at z = v
            return weight * jump_mean * math.exp(base)
        la, lg = math.log(jump_mean), math.log(gap_mean)
        logs = []
        top = -math.inf
        for n in range(1, nmax + 1):
            lt = base + n * la - lgam[n] + (n - 1) * lg - lgam[n - 1]
            logs.append(lt)
            top = max(top, lt)
            # terms fall super-geometrically once n(n+1) > jump*gap
            if n * (n + 1) > 4.0 * jump_mean * gap_mean and lt < top - 45.0:
                break
        else:
            raise SeriesTruncationError(
                f"series tail not bounded at nmax={nmax} (z={z:g}); increase nmax"
            )
        return weight * math.exp(_log_sum_exp(logs))

    # scale the absolute tolerance by a crude bound on the integrand mass
    probe = max(integrand(q.v + k * (t - q.v) / 16.0) for k in range(17))
    tol = _REL_TOL * max(probe * (t - q.v), 1e-300)
    return adaptive_simpson(integrand, q.v, t, tol, initial_panels=64)


def unconditional_exp_first_renewal(m: ExpExpModel, u: float, c: float, t: float) -> float:
    """P{tau <= t} when the first renewal interval is Exponential(lam) too.

    This is the classical ruin problem with exponential claims, whose ruin
    time has a density of closed form (Dickson & Willmot, ASTIN Bull. 35,
    2005):

        w(s) = lam e^{-lam s - mu(u + cs)}
               * [u/(u+cs) I_0(2 sqrt z) + cs/(u+cs) I_1(2 sqrt z) / sqrt z],
        z = lam mu s (u + cs),

    with w(0) = lam e^{-mu u}, the rate of a crossing at the first jump.
    The value is the single integral of w over [0, t], formed in log space
    on :func:`integrate_log_scaled` with an error estimate of at most
    _REL_TOL times the value, as :func:`exact_conditional`'s is, and a
    horizon too long to resolve raises QuadratureError as there.  At
    t = inf it is the ruin probability (lam/(c mu)) e^{-(mu - lam/c) u}
    above the critical rate lam/mu, and 1 at or below it; at t <= 0 it is
    0.  ``u`` and ``c`` are checked as :class:`CrossingQuery` checks them,
    and a NaN horizon raises ValueError.
    """
    CrossingQuery(u, c)
    if math.isnan(t):
        raise ValueError("the horizon t must not be NaN")
    if t == math.inf:
        excess = m.mu - m.lam / c
        return m.lam / (c * m.mu) * math.exp(-excess * u) if excess > 0.0 else 1.0
    log_lam = math.log(m.lam)
    prod = m.lam * m.mu
    # an underflowed product reads as s = 0, where the density is about lam
    if prod == math.inf and t > 0.0:
        raise QuadratureError(f"lam * mu = {prod:g} lies outside the float range")

    def log_density(s: float) -> float:
        level = u + c * s
        z = prod * s * level
        if z <= 0.0:  # s = 0, where w(0) = lam e^{-mu u}
            return log_lam - m.mu * u
        x = 2.0 * math.sqrt(z)
        a = math.log(u / level) + log_bessel_i0(x)
        b = math.log(c * s / level) + log_bessel_i1(x) - 0.5 * math.log(z)
        top = max(a, b)
        return log_lam - m.lam * s - m.mu * level + top + math.log1p(math.exp(-abs(a - b)))

    return _probability(integrate_log_scaled(log_density, 0.0, t, _REL_TOL))
