"""Special functions with controlled accuracy in the far tails.

Everything here is scalar float -> float.  The crossing-time formulas
multiply enormous exponentials by tiny Gaussian tails (and tiny
exponentials by enormous Bessel factors), so the log-scaled variants are
the workhorses: they stay finite where the plain functions overflow or
underflow.
"""

import math
from bisect import bisect_right

__all__ = [
    "std_normal_cdf",
    "log_std_normal_cdf",
    "log_bessel_i0",
    "log_bessel_i1",
]

_SQRT2 = math.sqrt(2.0)
_TWO_PI = 2.0 * math.pi
_LOG_SQRT_2PI = 0.5 * math.log(_TWO_PI)

# Below this point the direct log(cdf) loses accuracy to underflow, and the
# Mills-ratio asymptotic series is already converged to double precision.
_LOG_CDF_SWITCH = -12.0

# Power series below, large-argument asymptotic above.  At the switch point
# both branches carry ~1e-15 relative error (see the continuity tests).
_BESSEL_SWITCH = 30.0
# length of the asymptotic coefficient tables; at z = 30 the terms still
# fall until k is about 2z, so the 1e-17 cut comes well before the end
_ASYMPTOTIC_TERMS = 40


def std_normal_cdf(z: float) -> float:
    """Standard normal distribution function via the complementary error function."""
    return 0.5 * math.erfc(-z / _SQRT2)


def _log_cdf_asymptotic(z: float) -> float:
    # Mills ratio expansion: Phi(z) = phi(-z)/(-z) * sum_k (-1)^k (2k-1)!!/z^{2k},
    # valid for z << 0.  Terms are added until they stop improving the sum;
    # for z <= -12 the truncation error is far below double precision.
    x = -z
    inv_x2 = 1.0 / (x * x)
    term = 1.0
    total = 1.0
    for k in range(1, 60):
        term *= -(2 * k - 1) * inv_x2
        if abs(term) < 1e-18 * total:
            break
        total += term
    return -0.5 * x * x - math.log(x) - _LOG_SQRT_2PI + math.log(total)


def log_std_normal_cdf(z: float) -> float:
    """log(Phi(z)), accurate for arbitrarily deep left tails.

    The direct route fails twice: ``Phi(z)`` underflows near z = -37 and
    rounds to 1 for z > 8.  Both regimes are handled analytically.
    """
    if z < _LOG_CDF_SWITCH:
        return _log_cdf_asymptotic(z)
    if z > 0.0:
        # log(1 - Phi(-z)) without cancellation
        return math.log1p(-std_normal_cdf(-z))
    return math.log(std_normal_cdf(z))


def _series(z: float, nu: int) -> float:
    # I_nu(z) = sum_{n>=0} (z/2)^(2n+nu) / (n! (n+nu)!), every term positive
    r = 0.25 * z * z
    term = 0.5 * z if nu else 1.0
    total = term
    n = 1
    while True:
        term *= r / (n * (n + nu))
        total += term
        n += 1
        if term < 1e-17 * total:
            return total


def _asymptotic_bands(nu: int) -> tuple[list[float], list[tuple[float, ...]]]:
    """Band edges and, per band, the Horner coefficients of the expansion

        I_nu(z) = e^z / sqrt(2 pi z) * sum_k a_k z^-k,
        a_k = a_{k-1} ((2k-1)^2 - 4 nu^2) / (8k),  a_0 = 1.

    Band j starts at z = 30 * 2^j (the last has no end) and keeps the
    fewest terms whose first omitted term is below 1e-17 of the sum at its
    lower edge; every term falls as z grows, so the bound holds across the
    band.  The coefficients are stored highest power first, as Horner's
    rule reads them.
    """
    coefs = [1.0]
    for k in range(1, _ASYMPTOTIC_TERMS):
        coefs.append(coefs[-1] * ((2 * k - 1) ** 2 - 4 * nu * nu) / (8 * k))
    edges, bands = [], []
    edge = _BESSEL_SWITCH
    while not bands or len(bands[-1]) > 1:
        total, n = 1.0, 1
        while abs(coefs[n] * edge**-n) >= 1e-17 * abs(total):
            total += coefs[n] * edge**-n  # IndexError: too few _ASYMPTOTIC_TERMS
            n += 1
        edges.append(edge)
        bands.append(tuple(reversed(coefs[:n])))
        edge *= 2.0
    return edges, bands


_I0_EDGES, _I0_BANDS = _asymptotic_bands(0)
_I1_EDGES, _I1_BANDS = _asymptotic_bands(1)


def _log_asymptotic(z: float, edges: list[float], bands: list[tuple[float, ...]]) -> float:
    # z >= _BESSEL_SWITCH; a smaller z falls in the first band
    inv_z = 1.0 / z
    total = 0.0
    for a in bands[bisect_right(edges, z, 1) - 1]:
        total = total * inv_z + a
    return z - 0.5 * math.log(_TWO_PI * z) + math.log(total)


def log_bessel_i0(z: float) -> float:
    """log(I_0(z)) for z >= 0, finite for arguments up to 1e6 and beyond."""
    if z < 0.0:
        raise ValueError("log_bessel_i0 requires z >= 0")
    if z <= _BESSEL_SWITCH:
        return math.log(_series(z, 0))
    return _log_asymptotic(z, _I0_EDGES, _I0_BANDS)


def log_bessel_i1(z: float) -> float:
    """log(I_1(z)) for z > 0, finite for arguments up to 1e6 and beyond."""
    if z <= 0.0:
        raise ValueError("log_bessel_i1 requires z > 0")
    if z <= _BESSEL_SWITCH:
        return math.log(_series(z, 1))
    return _log_asymptotic(z, _I1_EDGES, _I1_BANDS)
