"""Test-only oracles for the closed forms and the generic constants.

``integral_oracle`` integrates the defining integrands of the three
closed-form integrals of :mod:`levelcross.approx` directly, by adaptive
Simpson.  ``model_constants_lemma`` evaluates independent pair-specific
closed forms of the model constants, to cross-check
:func:`levelcross.moments.model_constants_generic`.  ``reference_inverse``
is the per-draw quantile code the draw kernels replaced, to pin their
bits.  ``critical_tail`` is the leading long-horizon shortfall of both
exact values at the critical rate.  None is part of the package: only the
tests call them.
"""

import math

from levelcross.approx import CrossingQuery
from levelcross.distributions import Distribution, Erlang, Exponential, Mix2Exp, Pareto
from levelcross.errors import LevelCrossError, MomentUndefinedError, QuadratureError
from levelcross.exact import ExpExpModel
from levelcross.moments import ModelConstants
from levelcross.quadrature import adaptive_simpson


# the quantiles as the Exponential, Mix2Exp and Pareto methods computed them
# before each law's draw_kernel() bound its constants in a closure; the
# bodies are kept as they were, `self` included
_BISECT_STEPS = 90


def _exponential_inverse(self, u: float) -> float:
    return -math.log1p(-u) / self.rate


def _mix2exp_inverse(self, u: float) -> float:
    p, q = self.p, self.q
    if q == 0.0:
        return -math.log1p(-u) / self.rate1
    if self.rate2 == 2.0 * self.rate1:
        # p*w + q*w^2 = 1 - u with w = exp(-rate1 * x); conjugate root
        # form stays stable as q -> 0
        w = 2.0 * (1.0 - u) / (p + math.sqrt(p * p + 4.0 * q * (1.0 - u)))
        return -math.log(w) / self.rate1
    # general rates: bisection on the cdf (inlined: same expression as
    # cdf()); the rate1 exponential stochastically dominates the
    # mixture, so its quantile brackets ours.  An iteration that leaves
    # (lo, hi) unchanged has reached a fixed point of the update, so
    # stopping there returns exactly what all _BISECT_STEPS would.
    exp = math.exp
    rate1, rate2 = self.rate1, self.rate2
    lo = 0.0
    hi = -math.log1p(-u) / rate1
    for _ in range(_BISECT_STEPS):
        mid = 0.5 * (lo + hi)
        cdf = 0.0 if mid <= 0.0 else 1.0 - (p * exp(-rate1 * mid) + q * exp(-rate2 * mid))
        if cdf < u:
            if lo == mid:
                break
            lo = mid
        else:
            if hi == mid:
                break
            hi = mid
    return 0.5 * (lo + hi)


def _pareto_inverse(self, u: float) -> float:
    # ((1-u)^(-1/a) - 1)/b, written to survive u -> 1 without cancellation
    return math.expm1(-math.log1p(-u) / self.shape) / self.scale


def reference_inverse(dist: Distribution, u: float) -> float:
    """What one uniform ``u`` of ``dist``'s draw kernel must give, bit for
    bit: the quantile for Exponential, Mix2Exp and Pareto, and one
    Exponential(rate) summand of an Erlang draw."""
    if isinstance(dist, (Exponential, Erlang)):
        return _exponential_inverse(dist, u)
    if isinstance(dist, Mix2Exp):
        return _mix2exp_inverse(dist, u)
    if isinstance(dist, Pareto):
        return _pareto_inverse(dist, u)
    raise TypeError(f"no reference inverse for {type(dist).__name__}")


class UnsupportedPairError(LevelCrossError, ValueError):
    """No pair-specific closed form is available for this (T, Y) combination."""


def _normal_pdf(x: float, mean: float, var: float) -> float:
    return math.exp(-((x - mean) ** 2) / (2.0 * var)) / math.sqrt(2.0 * math.pi * var)


def integral_oracle(
    kind: str, q: CrossingQuery, k: ModelConstants, tol: float = 1e-8
) -> float:
    """Direct quadrature of the defining integral for kind 'main', 'first'
    or 'second'.  Requires a finite horizon.  Raises QuadratureError if the
    refinement limit is reached before ``tol``."""
    if q.t == math.inf:
        raise QuadratureError("integral_oracle requires a finite horizon")
    w = q.w
    cm = q.c * k.M
    var_scale = q.c * q.c * k.D2 / w
    upper = q.c * (q.t - q.v) / w

    if kind == "main":

        def f(x: float) -> float:
            return _normal_pdf(x, cm * (1.0 + x), var_scale * (1.0 + x)) / (1.0 + x)

        prefactor = 1.0
    elif kind == "first":

        def f(x: float) -> float:
            return (
                (x - cm * (1.0 + x))
                / (1.0 + x) ** 2
                * _normal_pdf(x, cm * (1.0 + x), var_scale * (1.0 + x))
            )

        prefactor = 1.0
    elif kind == "second":

        def f(x: float) -> float:
            return (
                (x - cm * (1.0 + x)) ** 3
                / (1.0 + x) ** 3
                * _normal_pdf(x, cm * (1.0 + x), var_scale * (1.0 + x))
            )

        prefactor = w / (q.c * q.c * k.D2)
    else:
        raise ValueError(f"unknown integral kind {kind!r}")

    if upper <= 0.0:
        return 0.0
    # 64 seed panels so the Gaussian ridge near x = cM/(1-cM) is never
    # missed by the first Simpson estimate
    return prefactor * adaptive_simpson(f, 0.0, upper, tol, initial_panels=64)


def _exp_exp(t: Exponential, y: Exponential) -> ModelConstants:
    lam, mu = t.rate, y.rate
    m = mu / lam
    return ModelConstants(
        M=m,
        D2=2.0 * mu / lam**2,
        c_star=1.0 / m,
        kf_coeff=lam / (4.0 * mu),
        ks_coeff=lam / (4.0 * mu),
    )


def _erlang_erlang(t: Erlang, y: Erlang) -> ModelConstants:
    lam, k = t.rate, t.shape
    mu, m = y.rate, y.shape
    ratio = mu * k / (lam * m)
    return ModelConstants(
        M=ratio,
        D2=mu * k * (k + m) / (m**2 * lam**2),
        c_star=1.0 / ratio,
        kf_coeff=lam * m * ((2.0 + m) * k - 2.0 * m) / (2.0 * mu * k * (k + m)),
        ks_coeff=lam * m * (k + 2.0 * m) / (6.0 * mu * k * (k + m)),
    )


def _erlang_exp(t: Erlang, y: Exponential) -> ModelConstants:
    lam, k = t.rate, t.shape
    mu = y.rate
    ratio = mu * k / lam
    return ModelConstants(
        M=ratio,
        D2=mu * k * (k + 1.0) / lam**2,
        c_star=1.0 / ratio,
        kf_coeff=lam * (3.0 * k - 2.0) / (2.0 * mu * k * (k + 1.0)),
        ks_coeff=lam * (k + 2.0) / (6.0 * mu * k * (k + 1.0)),
    )


def _require_pareto_shape(dist: Pareto) -> None:
    if dist.shape <= 3.0:
        raise MomentUndefinedError(
            f"pair closed form requires Pareto shape > 3 (got {dist.shape:g})"
        )


def _erlang_pareto(t: Erlang, y: Pareto) -> ModelConstants:
    _require_pareto_shape(y)
    lam, k = t.rate, t.shape
    a, b = y.shape, y.scale
    m = k * (a - 1.0) * b / lam
    d2 = k * (a - 1.0) * b / lam**2 * (1.0 + k * a / (a - 2.0))
    den = 2.0 * (a - 1.0) * (a - 3.0) * b * k * (-2.0 + a + a * k) ** 2
    kf = (
        (a - 2.0)
        * lam
        * (a**2 * (-2.0 + k + 3.0 * k**2) - a * (-10.0 + 5.0 * k + k**2) + 6.0 * (k - 2.0))
        / den
    )
    ks = (
        lam
        * (
            a**3 * (2.0 + 3.0 * k + k**2)
            - a**2 * (14.0 + 15.0 * k + 7.0 * k**2)
            + 2.0 * a * (16.0 + 9.0 * k + 2.0 * k**2)
            - 24.0
        )
        / (3.0 * den)
    )
    return ModelConstants(M=m, D2=d2, c_star=1.0 / m, kf_coeff=kf, ks_coeff=ks)


def _mix_pareto(t: Mix2Exp, y: Pareto) -> ModelConstants:
    _require_pareto_shape(y)
    l1, l2, p = t.rate1, t.rate2, t.p
    q = 1.0 - p
    a, b = y.shape, y.scale
    mean_t = p / l1 + q / l2
    m = (a - 1.0) * b * mean_t
    d2 = (a - 1.0) * b * (
        a / (a - 2.0) * mean_t**2
        + (l2**2 * p + l1**2 * q + (l1 - l2) ** 2 * p * q) / (l1**2 * l2**2)
    )
    big_q = l1**2 * q * (a - 1.0 - p) + l2**2 * p * (a - 1.0 - q) + 2.0 * l1 * l2 * p * q
    den = 4.0 * b * (a - 3.0) * (a - 1.0) * big_q**2
    nf = (
        l1**3 * q * (a**2 * (1.0 - 4.0 * p) + a * (7.0 * p**2 + 6.0 * p + 2.0) - 3.0 * (3.0 * p**2 + 2.0 * p + 1.0))
        - l1**2 * l2 * p * q * (-4.0 * a**2 + a * (21.0 * p - 1.0) - 27.0 * p + 3.0)
        + l1 * l2**2 * p * q * (4.0 * a**2 + a * (21.0 * p - 20.0) - 27.0 * p + 24.0)
        + l2**3 * p * (a**2 * (4.0 * p - 3.0) + a * (7.0 * p**2 - 20.0 * p + 15.0) - 3.0 * (3.0 * p**2 - 8.0 * p + 6.0))
    )
    ns = (
        -l1**3 * q * (-a**3 + a**2 * (p**2 + 6.0) - a * (3.0 * p**2 + 4.0 * p + 9.0) + 4.0 * (p**2 + p + 1.0))
        + l1**2 * l2 * p * q * (a**2 * (3.0 * p - 1.0) - a * (9.0 * p + 1.0) + 12.0 * p)
        - l1 * l2**2 * p * q * (a**2 * (3.0 * p - 2.0) - a * (9.0 * p - 10.0) + 12.0 * p - 12.0)
        - l2**3 * p * (-a**3 + a**2 * (p**2 - 2.0 * p + 7.0) - a * (3.0 * p**2 - 10.0 * p + 16.0) + 4.0 * (p**2 - 3.0 * p + 3.0))
    )
    kf = (a - 2.0) * l1 * l2 * nf / den
    ks = l1 * l2 * ns / den
    return ModelConstants(M=m, D2=d2, c_star=1.0 / m, kf_coeff=kf, ks_coeff=ks)


def _pareto_pareto(t: Pareto, y: Pareto) -> ModelConstants:
    _require_pareto_shape(t)
    _require_pareto_shape(y)
    d, g = t.shape, t.scale
    a, b = y.shape, y.scale
    m = (a - 1.0) * b / ((d - 1.0) * g)
    d2 = (a / (a - 2.0) + d / (d - 2.0)) * (a - 1.0) * b / ((d - 1.0) ** 2 * g**2)
    w = a * d - a - d
    den = 4.0 * (d - 3.0) * (a - 3.0) * b * (a - 1.0) * w**2
    kf = (
        (d - 2.0)
        * (a - 2.0)
        * (d - 1.0)
        * g
        * (a**2 * (9.0 - 10.0 * d + d**2) + a * (-3.0 + 15.0 * d + 2.0 * d**2) - 3.0 * d * (5.0 + d))
        / den
    )
    ks = (
        (d - 2.0)
        * (d - 1.0)
        * g
        * (
            a**3 * (d - 1.0) ** 2
            - 4.0 * d * (1.0 + d)
            + a**2 * (-7.0 + 11.0 * d - 6.0 * d**2)
            + a * (4.0 - 7.0 * d + 9.0 * d**2)
        )
        / den
    )
    return ModelConstants(M=m, D2=d2, c_star=1.0 / m, kf_coeff=kf, ks_coeff=ks)


def model_constants_lemma(t_dist: Distribution, y_dist: Distribution) -> ModelConstants:
    """Pair-specific closed forms, agreeing with the generic route to 1e-10.

    Supported (T, Y) pairs: (Exponential, Exponential), (Erlang, Erlang),
    (Erlang, Exponential), (Erlang, Pareto), (Mix2Exp, Pareto) and
    (Pareto, Pareto).  Anything else raises UnsupportedPairError; callers
    fall back to :func:`model_constants_generic`.
    """
    if isinstance(t_dist, Exponential) and isinstance(y_dist, Exponential):
        return _exp_exp(t_dist, y_dist)
    if isinstance(t_dist, Erlang) and isinstance(y_dist, Erlang):
        return _erlang_erlang(t_dist, y_dist)
    if isinstance(t_dist, Erlang) and isinstance(y_dist, Exponential):
        return _erlang_exp(t_dist, y_dist)
    if isinstance(t_dist, Erlang) and isinstance(y_dist, Pareto):
        return _erlang_pareto(t_dist, y_dist)
    if isinstance(t_dist, Mix2Exp) and isinstance(y_dist, Pareto):
        return _mix_pareto(t_dist, y_dist)
    if isinstance(t_dist, Pareto) and isinstance(y_dist, Pareto):
        return _pareto_pareto(t_dist, y_dist)
    raise UnsupportedPairError(
        f"no pair closed form for T={type(t_dist).__name__}, Y={type(y_dist).__name__}"
    )


def critical_tail(m: ExpExpModel, q: CrossingQuery) -> tuple[float, float]:
    """Leading terms, as the horizon grows, of ``(B - P{v < tau <= t | v},
    1 - psi(u, ct))`` for the exponential pair at c = c* = lam/mu: the
    shortfalls of the conditional value from its t = inf value B and of the
    unconditional value from 1.

    Both come from the theta integrals (the ``exact`` module docstring for
    the conditional value; Asmussen & Albrecher, ch. V, for the
    unconditional one).  With beta = lam/c = mu they have r = mu, k = 1 and
    E0 = 0, so, with x = sin^2(theta/2), level L and horizon T,

        B - P     = (1/pi) int_0^pi e^{-2ax} sin(mu L sin theta)
                                     2 sin theta / (4x) dtheta,
        1 - psi   = (1/pi) int_0^pi e^{-2ax} sin(mu L sin theta + theta)
                                     2 sin theta / (4x) dtheta,

    a = (2T + L) mu.  As T grows, e^{-2ax} ~ e^{-a theta^2 / 2} confines
    the integral to theta of order 1/sqrt(a), where 4x ~ theta^2,
    sin theta ~ theta and the sines are (mu L) theta and (1 + mu L) theta.
    The integrands tend to 2 mu L e^{-a theta^2/2} and
    2 (1 + mu L) e^{-a theta^2/2}, whose integrals over theta > 0, times
    1/pi, are mu L sqrt(2/(pi a)) and (1 + mu L) sqrt(2/(pi a)); with
    a ~ 2 mu T:

        B - P   ~ w sqrt(mu/(pi T)),          L = w = u + cv, T = c(t - v);
        1 - psi ~ (1 + mu u)/sqrt(pi mu T),   L = u,          T = ct.

    The terms dropped are relatively O((1 + mu L)^2 / T): the cubes of the
    sines' arguments, the rest of each expansion, and L against 2T in a.
    """
    mu = m.mu
    conditional = q.w * math.sqrt(mu / (math.pi * q.c * (q.t - q.v)))
    unconditional = (1.0 + mu * q.u) / math.sqrt(math.pi * mu * q.c * q.t)
    return conditional, unconditional
