import math

import pytest

from levelcross.errors import QuadratureError
from levelcross.quadrature import MAX_INTERVALS, adaptive_simpson, gauss_kronrod, integrate_log_scaled


def test_polynomial_exact():
    assert adaptive_simpson(lambda x: x * x, 0, 1, 1e-12) == pytest.approx(1 / 3, abs=1e-12)


def test_sine():
    assert adaptive_simpson(math.sin, 0, math.pi, 1e-10) == pytest.approx(2.0, abs=1e-9)


def test_empty_interval():
    assert adaptive_simpson(lambda x: 1.0, 2.0, 2.0, 1e-8) == 0.0
    assert adaptive_simpson(lambda x: 1.0, 3.0, 2.0, 1e-8) == 0.0


def test_narrow_peak_found():
    # gaussian spike of width 1e-3 hiding between panel points
    val = adaptive_simpson(
        lambda x: math.exp(-((x - 0.237) / 1e-3) ** 2), 0, 1, 1e-12, initial_panels=16
    )
    assert val == pytest.approx(1e-3 * math.sqrt(math.pi), rel=1e-7)


def test_depth_limit_raises():
    with pytest.raises(QuadratureError):
        adaptive_simpson(
            lambda x: math.exp(-((x - 0.5) / 1e-9) ** 2),
            0,
            1,
            1e-14,
            max_depth=3,
            initial_panels=1,
        )


def test_log_scaled_handles_huge_offsets():
    # integrand exp(1000) * gaussian; plain evaluation overflows
    log_f = lambda y: 1000.0 - (y - 3.0) ** 2
    total = integrate_log_scaled(log_f, 0.0, 10.0, rel_tol=1e-11)
    truncated_mass = 0.5 * math.sqrt(math.pi) * (math.erf(3.0) + math.erf(7.0))
    assert total == pytest.approx(1000.0 + math.log(truncated_mass), abs=1e-9)


def test_log_scaled_all_underflow():
    assert integrate_log_scaled(lambda y: -math.inf, 0.0, 1.0, 1e-10) == -math.inf
    # finite only at a scan point, where no Kronrod node falls: zero mass
    assert integrate_log_scaled(lambda y: 0.0 if y == 0.0 else -math.inf, 0.0, 1.0, 1e-10) == -math.inf


def test_gauss_kronrod_polynomial_in_one_rule():
    # K15 and G7 are both exact up to degree 13, so one rule suffices
    calls = []

    def f(x):
        calls.append(x)
        return 7.0 * x**6 - x**3

    assert gauss_kronrod(f, (-1.0, 2.0), 1e-14) == pytest.approx(125.25, rel=1e-14)
    assert len(calls) == 15


def test_gauss_kronrod_sine_and_empty_interval():
    assert gauss_kronrod(math.sin, (0, math.pi), 1e-12) == pytest.approx(2.0, abs=1e-12)
    assert gauss_kronrod(lambda x: 1.0, (2.0, 2.0), 1e-8) == 0.0
    # the log-space entry point maps an empty or reversed interval to log 0
    assert integrate_log_scaled(lambda y: 0.0, 2.0, 2.0, 1e-10) == -math.inf
    assert integrate_log_scaled(lambda y: 0.0, 3.0, 2.0, 1e-10) == -math.inf


def test_gauss_kronrod_never_evaluates_the_ends():
    # 1/sqrt(x) is infinite at 0; the rule only samples interior points
    assert gauss_kronrod(lambda x: x**-0.5, (0.0, 1.0), 5e-10) == pytest.approx(2.0, abs=1e-9)


def test_gauss_kronrod_relative_tolerance():
    # the tolerance follows the size of the integral, not an absolute scale
    val = gauss_kronrod(lambda x: 1e-30 * math.exp(-x), (0.0, 50.0), 1e-12)
    assert val == pytest.approx(1e-30 * -math.expm1(-50.0), rel=1e-12)


def test_gauss_kronrod_cancelling_integrand():
    # the integral is ~0 against an integral of |f| of 4: the tolerance is
    # relative to the summed |K15|, which round-off cannot put out of reach
    val = gauss_kronrod(lambda x: math.sin(40.0 * x), (0.0, 2.0 * math.pi), 1e-10)
    assert abs(val) <= 1e-10 * 4.0


def test_log_scaled_unreachable_tolerance_raises_after_bounded_work():
    # below the round-off floor no bisection helps; the interval budget ends it
    calls = []

    def log_f(y):
        calls.append(y)
        return 1000.0 - (y - 3.0) ** 2

    with pytest.raises(QuadratureError, match="intervals"):
        integrate_log_scaled(log_f, 0.0, 10.0, rel_tol=1e-16)
    # the 33-point scan, at most 52 halvings on each side of the peak, then
    # at most 2 * MAX_INTERVALS - 1 rules
    assert len(calls) <= 33 + 2 * 52 + 15 * (2 * MAX_INTERVALS - 1)


@pytest.mark.parametrize("rate", [30.0, 1000.0, 1e5])
def test_log_scaled_peak_at_the_end_of_a_long_interval(rate):
    # all the mass lies within a few 1/rate of y = 0, far inside the first
    # scan panel: a single rule over [0, 1e4] sees only underflow
    total = integrate_log_scaled(lambda y: -rate * y, 0.0, 1e4, 1e-10)
    assert math.exp(total) == pytest.approx(1.0 / rate, rel=1e-10, abs=0)


@pytest.mark.parametrize("drop", [300.0, 1000.0, 1.0e5])
def test_log_scaled_peak_beyond_the_halvings(drop):
    # a spike at y = 0 that falls `drop` by y = d, the last of the 52 halvings
    # of the scan spacing 1: the Kronrod node nearest the peak, 0.0043 d
    # from it, still samples it, and bisection resolves the peak
    rate = drop * 2.0**52
    total = integrate_log_scaled(lambda y: -rate * y, 0.0, 32.0, 1e-10)
    assert total == pytest.approx(-math.log(rate), rel=1e-12)


def test_log_scaled_peak_beyond_the_nearest_node_raises():
    # the same spike falling 1e6 by y = d underflows at that node too
    rate = 1.0e6 * 2.0**52
    with pytest.raises(QuadratureError, match="halvings"):
        integrate_log_scaled(lambda y: -rate * y, 0.0, 32.0, 1e-10)


def test_log_scaled_peak_beyond_the_halvings_on_both_sides():
    # a two-sided spike at scan point 16 that falls 1.6e5 by y = +-d on each
    # side: the nearest Kronrod nodes still sample it, but the stop test is
    # global, so the side resolved second would never be bisected and half
    # the mass would be lost
    s = 1.6e5 * 2.0**52
    try:
        total = integrate_log_scaled(lambda y: -s * abs(y), -16.0, 16.0, 1e-10)
    except QuadratureError:
        return
    assert total == pytest.approx(math.log(2.0 / s), rel=1e-12)


def test_log_scaled_narrow_interior_peak_on_a_scan_point():
    # a two-sided exponential spike of width 1e-3 at scan point 16 of 32
    total = integrate_log_scaled(lambda y: 50.0 - 1e3 * abs(y - 5e3), 0.0, 1e4, 1e-10)
    assert abs(total - (50.0 + math.log(2e-3))) <= 1e-10


def test_log_scaled_missed_peak_raises():
    # a spike far narrower than the scan spacing, 2000 above the scanned max
    log_f = lambda y: 2000.0 * math.exp(-(((y - 0.3) / 1e-3) ** 2))
    with pytest.raises(QuadratureError, match="missed a peak"):
        integrate_log_scaled(log_f, 0.0, 1.0, 1e-10)
