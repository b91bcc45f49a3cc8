"""Test-only oracles for the closed forms and the generic constants.

``integral_oracle`` integrates the defining integrands of the three
closed-form integrals of :mod:`levelcross.approx` directly, by adaptive
Simpson.  ``model_constants_lemma`` evaluates independent pair-specific
closed forms of the model constants, to cross-check
:func:`levelcross.moments.model_constants_generic`.  Neither is part of
the package: only the tests call them.
"""

import math

from levelcross.approx import CrossingQuery
from levelcross.distributions import Distribution, Erlang, Exponential, Mix2Exp, Pareto
from levelcross.errors import LevelCrossError, MomentUndefinedError, QuadratureError
from levelcross.moments import ModelConstants
from levelcross.quadrature import adaptive_simpson


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
