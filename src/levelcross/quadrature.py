"""Quadrature: adaptive Gauss-Kronrod for the shipped exact path, Simpson
for the oracles.

``gauss_kronrod`` is the one production routine: the QUADPACK QAG scheme
(Piessens et al., 1983) with the 7-point Gauss / 15-point Kronrod pair.
It always bisects the interval whose |K15 - G7| is largest, and gives up
with ``QuadratureError`` once ``MAX_INTERVALS`` intervals are in use, so
its work is bounded whatever tolerance is asked for.  It serves both
integrands of the exact path: the exact conditional formula's
elementary theta-integrand directly, and, through
``integrate_log_scaled``, the peak-scaled Bessel integrands (the exact
conditional formula's, and the ruin-time density behind the
unconditional value).

``adaptive_simpson`` (recursive, with a depth limit) is kept for
``series_oracle``, so that the cross-checks against the exact path run on
an independent integrator.
"""

import math
from collections.abc import Callable, Sequence

from .errors import QuadratureError

__all__ = ["adaptive_simpson", "gauss_kronrod", "integrate_log_scaled"]

# bisections stop, and QuadratureError is raised, at this many intervals
MAX_INTERVALS = 1000
# integrate_log_scaled looks for the peak at the ends of this many panels
_SCAN_PANELS = 32
# ... then halves the distance to the breakpoints on each side of the scanned
# peak until the log-integrand there is at most this far below the peak
_PEAK_DROP = 200.0
_PEAK_HALVINGS = 52

# Kronrod abscissae on [0, 1), outermost first; the odd-indexed ones and 0
# are the 7-point Gauss abscissae.  Weights from QUADPACK's qk15.
_XGK = (
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144845693013,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
)
_WGK = (
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
)
_WGK_CENTRE = 0.209482141084727828012999174891714
_WG = (
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
)
_WG_CENTRE = 0.417959183673469387755102040816327


def _simpson(fa: float, fm: float, fb: float, h: float) -> float:
    return h / 6.0 * (fa + 4.0 * fm + fb)


def _adapt(f, a, b, fa, fm, fb, whole, tol, depth, max_depth):
    m = 0.5 * (a + b)
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm = f(lm)
    frm = f(rm)
    left = _simpson(fa, flm, fm, m - a)
    right = _simpson(fm, frm, fb, b - m)
    err = left + right - whole
    if abs(err) <= 15.0 * tol:
        return left + right + err / 15.0
    if depth >= max_depth:
        raise QuadratureError(
            f"adaptive quadrature hit depth {max_depth} on "
            f"[{a:g}, {b:g}] with residual {abs(err):.3g} > {15 * tol:.3g}"
        )
    half = 0.5 * tol
    return _adapt(f, a, m, fa, flm, fm, left, half, depth + 1, max_depth) + _adapt(
        f, m, b, fm, frm, fb, right, half, depth + 1, max_depth
    )


def adaptive_simpson(
    f: Callable[[float], float],
    a: float,
    b: float,
    tol: float,
    max_depth: int = 60,
    initial_panels: int = 16,
) -> float:
    """Integrate f over [a, b] to absolute tolerance tol.

    The interval is first cut into ``initial_panels`` equal panels so that a
    narrow interior peak cannot hide from the 5-point starting estimate;
    each panel is then refined by interval bisection with the usual
    Richardson acceptance test.
    """
    if not (b > a):
        return 0.0
    n = max(1, initial_panels)
    panel_tol = tol / n
    h = (b - a) / n
    total = 0.0
    x0 = a
    f0 = f(x0)
    for i in range(n):
        x1 = a + (i + 1) * h
        xm = 0.5 * (x0 + x1)
        f1 = f(x1)
        fm = f(xm)
        whole = _simpson(f0, fm, f1, x1 - x0)
        total += _adapt(f, x0, x1, f0, fm, f1, whole, panel_tol, 0, max_depth)
        x0, f0 = x1, f1
    return total


def _g7k15(f, a, b):
    """(K15 estimate, |K15 - G7|) of the integral of f over [a, b]."""
    centre = 0.5 * (a + b)
    half = 0.5 * (b - a)
    fc = f(centre)
    kronrod = _WGK_CENTRE * fc
    gauss = _WG_CENTRE * fc
    for j, x in enumerate(_XGK):
        dx = half * x
        pair = f(centre - dx) + f(centre + dx)
        kronrod += _WGK[j] * pair
        if j & 1:
            gauss += _WG[j >> 1] * pair
    return kronrod * half, abs((kronrod - gauss) * half)


def gauss_kronrod(f: Callable[[float], float], edges: Sequence[float], rel_tol: float) -> float:
    """Globally adaptive G7K15 over the intervals between sorted ``edges``.

    Stops when the summed |K15 - G7| of all intervals is at most
    ``rel_tol`` times the summed |K15| of the intervals: ``rel_tol *
    |integral|`` for an integrand of one sign, and for one that changes
    sign a bound that round-off cannot put out of reach however much the
    integral cancels.  Each step bisects the interval with the largest
    |K15 - G7|, and f is evaluated only inside the edges.  Raises
    QuadratureError when ``MAX_INTERVALS`` intervals (at most
    15 * (2 * MAX_INTERVALS - 1) evaluations of f) do not meet it.
    """
    parts = []
    for lo, hi in zip(edges, edges[1:]):
        value, err = _g7k15(f, lo, hi)
        parts.append((err, lo, hi, value))
    while True:
        total = math.fsum(p[3] for p in parts)
        err = math.fsum(p[0] for p in parts)
        tol = rel_tol * math.fsum(abs(p[3]) for p in parts)
        if err <= tol:
            return total
        if len(parts) >= MAX_INTERVALS:
            raise QuadratureError(
                f"Gauss-Kronrod quadrature on [{edges[0]:g}, {edges[-1]:g}] used "
                f"{MAX_INTERVALS} intervals with error estimate {err:.3g} > {tol:.3g}"
            )
        worst = max(parts)
        parts.remove(worst)
        _, lo, hi, _ = worst
        mid = 0.5 * (lo + hi)
        left, left_err = _g7k15(f, lo, mid)
        right, right_err = _g7k15(f, mid, hi)
        parts.append((left_err, lo, mid, left))
        parts.append((right_err, mid, hi, right))


def _peak_reach(log_f, x, peak, h, log_at_h):
    """(d, leans): d is the largest h / 2^k (k < _PEAK_HALVINGS) with
    log_f(x + d) within _PEAK_DROP of ``peak``; ``log_at_h`` is
    log_f(x + h), and h may be < 0.

    Past a last halving still more than _PEAK_DROP below the peak at a
    finite value, the Kronrod node of [x, x + d] nearest x may still sample
    the peak for bisection to resolve, and ``leans`` is True.  That is
    sound only where [x, x + d] holds most of the integral, which the
    caller checks; QuadratureError is raised when that node underflows."""
    d, lv = h, log_at_h
    for _ in range(_PEAK_HALVINGS):
        if lv - peak >= -_PEAK_DROP:
            return d, False
        d *= 0.5
        lv = log_f(x + d)
    if -math.inf < lv < peak - _PEAK_DROP:
        near = x + 0.5 * d * (1.0 - _XGK[0])
        lv = log_f(near)
        if not lv > peak - 745.0:  # where `scaled` below gives 0.0
            raise QuadratureError(
                f"the log-integrand at {near:g} is still {peak - lv:.3g} below its "
                f"scanned peak at {x:g} after {_PEAK_HALVINGS} halvings of {h:g}"
            )
        return d, True
    return d, False


def integrate_log_scaled(
    log_f: Callable[[float], float], a: float, b: float, rel_tol: float
) -> float:
    """log of the integral of exp(log_f) over [a, b], or -inf when the
    integral is zero; exp(log_f) itself may over- or underflow.

    A 33-point scan locates the maximum of the log-integrand, and the
    integrand is rescaled by it.  A peak narrower than the scan spacing
    would fall between the Kronrod nodes of a rule over [a, b], every node
    would underflow, and the rule would report a zero integral with zero
    error.  So the scaled profile (bounded by ~1) goes to the adaptive
    G7K15 loop with breakpoints at the scanned peak and on each side of
    it, at the distance h / 2^k (h the scan spacing) where the
    log-integrand first lies within 200 of the peak: the Kronrod nodes
    nearest the peak then sample it.

    The loop runs to relative tolerance ``rel_tol`` and bounds the work:
    ``QuadratureError`` is raised when ``MAX_INTERVALS`` intervals do not
    reach ``rel_tol`` (for example a tolerance below the round-off floor,
    such as 1e-16), when the scan misses a peak so narrow and high that
    the scaled integrand overflows, when a scanned log-integrand is NaN,
    and when the peak is too narrow for the halvings and the Kronrod node
    nearest it to reach.  A peak that needs that node on both sides raises
    too: the loop's stop test is global, so once one side is resolved the
    other, whose only non-zero node lies far below the peak, would never
    be bisected and half the mass would be lost.
    """
    if not (b > a):
        return -math.inf
    h = (b - a) / _SCAN_PANELS
    xs = [a + i * h for i in range(_SCAN_PANELS)] + [b]
    logs = [log_f(x) for x in xs]
    if any(map(math.isnan, logs)):
        raise QuadratureError(f"the log-integrand is NaN in the scan of [{a:g}, {b:g}]")
    k = max(range(_SCAN_PANELS + 1), key=logs.__getitem__)
    peak = logs[k]
    if peak == -math.inf:
        return peak

    x = xs[k]
    edges, leans = [a], 0
    if k > 0:
        d, lean = _peak_reach(log_f, x, peak, -h, logs[k - 1])
        edges += [max(a, x + d), x]
        leans += lean
    if k < _SCAN_PANELS:
        d, lean = _peak_reach(log_f, x, peak, h, logs[k + 1])
        edges.append(min(b, x + d))
        leans += lean
    if leans == 2:
        raise QuadratureError(
            f"the log-integrand is still more than {_PEAK_DROP:g} below its scanned "
            f"peak at {x:g} on both sides after {_PEAK_HALVINGS} halvings of {h:g}"
        )
    edges.append(b)
    edges = [e for i, e in enumerate(edges) if i == 0 or e > edges[i - 1]]

    def scaled(y: float) -> float:
        lv = log_f(y) - peak
        return math.exp(lv) if lv > -745.0 else 0.0

    try:
        mass = gauss_kronrod(scaled, edges, rel_tol)
    except OverflowError:
        raise QuadratureError(
            f"the scaled integrand overflowed on [{a:g}, {b:g}]: the scan "
            f"missed a peak far above its maximum {peak:.6g}"
        ) from None
    return peak + math.log(mass) if mass > 0.0 else -math.inf
