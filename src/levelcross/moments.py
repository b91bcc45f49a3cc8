"""Model constants built from the moments of the gap and jump laws.

For gap law T and jump law Y the approximations need the mean ratio
M = ET/EY, the variance blend D^2 = ((ET)^2 DY + (EY)^2 DT)/(EY)^3, the
critical drift rate c* = 1/M, and two skewness-built correction factors
K_F = kf_coeff/c and K_S = ks_coeff/c.  ``model_constants_generic`` is the
defining computation.
"""

import math

from ._record import record
from .distributions import Distribution, MomentSet
from .errors import MomentUndefinedError

__all__ = [
    "ModelConstants",
    "model_constants_generic",
    "constants_for",
]


@record
class ModelConstants:
    M: float
    D2: float
    c_star: float
    kf_coeff: float
    ks_coeff: float


def model_constants_generic(t: MomentSet, y: MomentSet) -> ModelConstants:
    """Constants from raw moment sets; this is the defining formula.
    OverflowError where a constant leaves the float range."""
    et, dt, t3 = t.mean, t.variance, t.central3
    ey, dy, y3 = y.mean, y.variance, y.central3
    d2 = (et**2 * dy + ey**2 * dt) / ey**3
    if not d2 > 0.0:
        raise MomentUndefinedError("D^2 must be positive")
    m = et / ey
    kf = (
        t3 / (2.0 * d2 * dt) * (et**2 * dy / (d2 * ey**3) - 1.0)
        - et * y3 / (2.0 * d2 * ey * dy) * (dt / (d2 * ey) - 1.0)
        + et / (2.0 * d2)
    )
    ks = (
        t3 / (6.0 * d2**2 * ey)
        - et**3 * y3 / (6.0 * d2**2 * ey**4)
        + et * dy / (2.0 * d2 * ey**2)
    )
    k = ModelConstants(m, d2, 1.0 / m, kf, ks)
    if not all(map(math.isfinite, vars(k).values())):
        raise OverflowError("the model constants leave the float range")
    return k


def constants_for(t_dist: Distribution, y_dist: Distribution) -> ModelConstants:
    """Constants for a distribution pair via the generic moment formulas;
    MomentUndefinedError where they leave the float range."""
    try:
        return model_constants_generic(t_dist.moments(), y_dist.moments())
    except ArithmeticError:  # a ZeroDivisionError or OverflowError
        raise MomentUndefinedError(
            f"the moments of T = {t_dist.spec_string()}, Y = {y_dist.spec_string()} "
            "leave the float range"
        ) from None
