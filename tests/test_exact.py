"""Exact exponential-pair formula, its series cross-check, and
the unconditional variant with an exponential first interval."""

import math

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from levelcross import exact, quadrature
from levelcross.approx import CrossingQuery
from levelcross.distributions import Exponential
from levelcross.errors import QuadratureError, SeriesTruncationError
from levelcross.quadrature import MAX_INTERVALS
from levelcross.exact import (
    ExpExpModel,
    exact_conditional,
    infinite_horizon_cap,
    series_oracle,
    unconditional_exp_first_renewal,
)
from levelcross.sim import LcgStream, simulate_conditional
from levelcross.sweep import SweepGrid
from oracles import critical_tail

UNIT = ExpExpModel(1.0, 1.0)

# from 1e4 to far past the point where the integral's peak hides from the
# quadrature
LONG_HORIZONS = [10.0**k for k in range(4, 31)] + [1e300]
# up to here the unconditional value is returned at c = 0.5 and 2 (u = 10,
# v = 0); exact_conditional returns values at every horizon
LONGEST_RETURNED = 1e23


def _raises_or_is_near(value_at, limit):
    """At each long horizon t, value_at(t) lies within 1e-8 of its t = inf
    value ``limit``; above LONGEST_RETURNED it may raise QuadratureError
    instead."""
    for t in LONG_HORIZONS:
        try:
            val = value_at(t)
        except QuadratureError:
            if t <= LONGEST_RETURNED:
                raise
            continue
        assert abs(val - limit) <= 1e-8, t


def _raises_or_rises_to_one(value_at):
    """At t = 10^(k/2) up to 1e20, value_at(t) raises QuadratureError or is
    a probability, and the values returned do not fall as t grows."""
    prev = 0.0
    for k in range(2, 41):
        t = 10.0 ** (k / 2)
        try:
            val = value_at(t)
        except QuadratureError:
            continue
        assert prev <= val <= 1.0 + 1e-12, t
        prev = val
    assert prev > 0.0  # not every call raised


class TestExactConditional:
    def test_vanishing_horizon(self):
        assert exact_conditional(UNIT, CrossingQuery(10.0, 1.0, 2.0, 2.0 + 1e-14)) <= 1e-12

    def test_unit_interval_and_monotonicity(self):
        prev_by_t = 0.0
        for t in (5.0, 20.0, 100.0, 400.0):
            val = exact_conditional(UNIT, CrossingQuery(10.0, 1.0, 0.0, t))
            assert 0.0 <= val <= 1.0
            assert val >= prev_by_t - 1e-12
            prev_by_t = val
        prev_by_u = 1.0
        for u in (5.0, 10.0, 20.0, 40.0):
            val = exact_conditional(UNIT, CrossingQuery(u, 1.0, 0.0, 100.0))
            assert val <= prev_by_u + 1e-12
            prev_by_u = val

    def test_extreme_level_stays_finite(self):
        # prefactor e^{-mu u} shrinks while the Bessel integral grows hugely;
        # only the log-space product survives in double precision
        val = exact_conditional(UNIT, CrossingQuery(200.0, 1.5, 0.0, 100.0))
        assert math.isfinite(val)
        assert 0.0 < val < 1e-30

    def test_long_horizon_large_bessel_arguments(self):
        for c in (0.5, 1.0, 2.0):
            val = exact_conditional(UNIT, CrossingQuery(50.0, c, 0.0, 1000.0))
            assert math.isfinite(val)
            assert 0.0 <= val <= 1.0 + 1e-12

    def test_time_rescaling_invariance(self):
        # stretching time by s maps (lam, c, v, t) -> (lam/s, c/s, v*s, t*s)
        # and leaves the conditional crossing probability unchanged
        base = ExpExpModel(1.3, 0.9)
        q = CrossingQuery(12.0, 1.1, 0.7, 90.0)
        want = exact_conditional(base, q)
        for s in (0.5, 2.0):
            scaled = ExpExpModel(base.lam / s, base.mu)
            q2 = CrossingQuery(q.u, q.c / s, q.v * s, q.t * s)
            assert exact_conditional(scaled, q2) == pytest.approx(want, rel=1e-10)

    @pytest.mark.parametrize("c", [0.5, 2.0])
    def test_long_horizon_approaches_closed_form(self, c):
        # P{0 < tau < inf} = e^(-Rw) - e^(-mu w) with R = mu - lam/c above
        # the critical rate, 1 - e^(-mu w) at or below it; w = u = 10
        limit = math.exp(-(1.0 - 1.0 / c) * 10.0) if c > 1.0 else 1.0
        limit -= math.exp(-10.0)
        for t in LONG_HORIZONS:
            val = exact_conditional(UNIT, CrossingQuery(10.0, c, 0.0, t))
            assert abs(val - limit) <= 1e-8, t

    def test_long_horizon_at_the_critical_rate(self):
        # every horizon returns a probability, and the values rise to
        # P{0 < tau < inf} = 1 - e^(-mu w), w = u = 10
        prev = 0.0
        for t in sorted({10.0 ** (k / 2) for k in range(2, 41)} | set(LONG_HORIZONS)):
            val = exact_conditional(UNIT, CrossingQuery(10.0, 1.0, 0.0, t))
            assert prev <= val <= 1.0 + 1e-12, t
            prev = val
        assert prev == pytest.approx(-math.expm1(-10.0), rel=1e-15)

    # P{v < tau <= t} by mpmath at 40 digits, from the theta-integral and
    # from the Bessel integral (mpmath.besseli, pieces at powers of 10),
    # which agree to 20 digits; the Bessel route raises at the second
    @pytest.mark.parametrize(
        "point, want",
        [
            ((10.0, 2.0, 0.0, 1e23), 0.0066925470693229822451),
            ((10.0, 1.0, 0.0, 1e30), 0.99995460007023187325),
        ],
    )
    def test_long_horizon_mpmath(self, point, want):
        assert exact_conditional(UNIT, CrossingQuery(*point)) == pytest.approx(want, rel=1e-14, abs=0)

    def test_infinite_horizon_capped(self):
        q = CrossingQuery(10.0, 1.4, 0.0)
        cap = infinite_horizon_cap(q)
        assert cap >= 1.0e4
        lim = exact_conditional(UNIT, q)
        assert lim == pytest.approx(
            exact_conditional(UNIT, CrossingQuery(10.0, 1.4, 0.0, cap)), rel=1e-12
        )


class TestGoldens:
    # Recorded from the recursive-Simpson exact path (256-point scan,
    # rel_tol 1e-10), one query from each group of the benchmark's exact
    # workload; at rel_tol 1e-13 that path agreed with them to 1.4e-14.
    CONDITIONAL = [
        ((50.0, 1.0, 0.0, 1000.0), 0.26944999765401595),
        ((10.0, 1.2, 0.0, math.inf), 0.1888302029077985),
        ((10.0, 1.0, 7.5, 100.0), 0.2186357528132783),
    ]

    @pytest.mark.parametrize("point, want", CONDITIONAL)
    def test_conditional(self, point, want):
        assert exact_conditional(UNIT, CrossingQuery(*point)) == pytest.approx(want, rel=1e-12)

    def test_unconditional(self):
        val = unconditional_exp_first_renewal(UNIT, 10.0, 1.0, 100.0)
        assert val == pytest.approx(0.4479104123967634, abs=1e-9)

    # P{tau <= t} by mpmath at 40 digits: mpmath.quad of the ruin-time
    # density w(s) (mpmath.besseli for I_0 and I_1) over [0, 0.01] and
    # doubling pieces up to t.  The nested integral over the first renewal
    # collapsed to its immediate-crossing term 2.27e-5 at t = 1e4.
    @pytest.mark.parametrize(
        "args, want, rel",
        [
            ((10.0, 1.0, 1.0e4), 0.93801746718393, 1e-10),
            ((200.0, 1.0, 50.0), 2.05042692682675e-35, 1e-9),
        ],
    )
    def test_unconditional_density_route(self, args, want, rel):
        val = unconditional_exp_first_renewal(UNIT, *args)
        assert val == pytest.approx(want, rel=rel, abs=0)

    # Strong drift: the Bessel integrand falls from its peak at y = 0 at
    # rate about mu*c + lam, so over a long span its whole mass lies
    # between the scan's first two points.  Recorded from the
    # recursive-Simpson path, whose 256 panels sampled y = 0; checked here
    # to the promised 1e-10.
    STRONG_DRIFT = [
        ((10.0, 30.0, 0.0, math.inf), 1.7960776312113508e-05),
        ((50.0, 500.0, 0.0, 1000.0), 2.0284839224879203e-23),
        ((10.0, 1000.0, 0.0, math.inf), 4.562768797225942e-07),
    ]

    @pytest.mark.parametrize("point, want", STRONG_DRIFT)
    def test_strong_drift(self, point, want):
        assert exact_conditional(UNIT, CrossingQuery(*point)) == pytest.approx(want, rel=1e-10, abs=0)

    def test_strong_drift_does_not_depend_on_the_horizon(self):
        # all the mass sits within a few 1/(mu*c) of the first renewal
        short = exact_conditional(UNIT, CrossingQuery(10.0, 1000.0, 0.0, 1.0))
        for t in (50.0, 1000.0, math.inf):
            val = exact_conditional(UNIT, CrossingQuery(10.0, 1000.0, 0.0, t))
            assert val == pytest.approx(short, rel=1e-10, abs=0)

    def test_strong_drift_matches_series(self):
        q = CrossingQuery(10.0, 30.0, 0.0, 5.0)
        assert exact_conditional(UNIT, q) == pytest.approx(series_oracle(UNIT, q), rel=1e-8, abs=0)


def _count_bessel_calls(monkeypatch, names=("log_bessel_i1",)):
    calls = []

    def counting(real):
        def counted(z):
            calls.append(z)
            return real(z)

        return counted

    for name in names:
        monkeypatch.setattr(exact, name, counting(getattr(exact, name)))
    return calls


def _count_rules(monkeypatch):
    """The intervals of the G7K15 rules gauss_kronrod applies from now on."""
    rules = []
    real = quadrature._g7k15

    def counted(f, a, b):
        rules.append((a, b))
        return real(f, a, b)

    monkeypatch.setattr(quadrature, "_g7k15", counted)
    return rules


def _theta_bound(m, q, t):
    """(B, log Env) of the module docstring at horizon t, recomputed here."""
    beta = m.lam / q.c
    w, span = q.w, q.c * (t - q.v)
    r = math.sqrt(beta * m.mu)
    a = (2.0 * span + w) * r
    e0 = -((math.sqrt(m.mu) - math.sqrt(beta)) ** 2) * span - (m.mu - r) * w
    b = math.exp(-max(m.mu - beta, 0.0) * w) * -math.expm1(-min(beta, m.mu) * w)
    return b, e0 + math.log(r * w) - 0.5 * math.log(0.5 * math.pi * a)


@st.composite
def _band_points(draw):
    """(u, c, v, t) on the unit pair with B/2 < Env < B (1 - 2^-10).

    log(Env/B) falls as t - v grows, so bisection in log(t - v) over
    [-10, 15] finds where it crosses each end of the band; t - v is
    drawn log-uniformly between them."""
    u = draw(st.floats(1.0, 60.0))
    c = draw(st.floats(0.3, 3.0))
    v = draw(st.floats(0.0, 20.0))
    frac = draw(st.floats(0.001, 0.999))

    def log_span_at(level):
        lo, hi = -10.0, 15.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            q = CrossingQuery(u, c, v, v + math.exp(mid))
            b, log_env = _theta_bound(UNIT, q, q.t)
            if log_env - math.log(b) > level:
                lo = mid
            else:
                hi = mid
        return hi

    near, far = log_span_at(math.log1p(-(2.0**-10))), log_span_at(-math.log(2.0))
    assume(near < far)
    return (u, c, v, v + math.exp(near + frac * (far - near)))


# the 33-point scan, at most 52 halvings on each side of the peak, then at
# most 2 * MAX_INTERVALS - 1 rules of 15 nodes
WORK_BOUND = 33 + 2 * 52 + 15 * (2 * MAX_INTERVALS - 1)

# (u, c, v, t) of the 117 queries of the benchmark's exact_tail workload
EXACT_TAIL = (
    [(50.0, 0.5 + 0.025 * i, 0.0, 1000.0) for i in range(61)]
    + [(10.0, 0.5 + 0.1 * i, 0.0, math.inf) for i in range(16)]
    + [(10.0, 1.0, 0.5 * i, 100.0) for i in range(40)]
)


class TestWorkBudget:
    # Bessel-routed exact_tail queries, which make 212 and 182
    # log_bessel_i1 calls.  P{v < tau <= t} by mpmath at 40 digits: the
    # Bessel integral (mpmath.besseli, mpmath.quad over pieces at
    # (t - v) 2^-k, k = 12..0) and the theta-integral (mpmath.quad over
    # pieces at 1, 2, 4, ..., 32 sigma and pi) agree to 40 digits
    @pytest.mark.parametrize(
        "point, want",
        [
            ((50.0, 0.95, 0.0, 1000.0), 0.6513914599682092772588),
            ((10.0, 1.0, 12.0, 100.0), 0.1176054956120486028758),
        ],
    )
    def test_bessel_route_finishes_far_inside_the_budget(self, monkeypatch, point, want):
        calls = _count_bessel_calls(monkeypatch)
        val = exact_conditional(UNIT, CrossingQuery(*point))
        # a few dozen rules, not thousands
        assert 0 < len(calls) <= WORK_BOUND // 20
        assert val == pytest.approx(want, rel=1e-9, abs=0)

    def test_theta_route_starts_from_sigma_wide_panels(self, monkeypatch):
        # from the single panel [0, 8/sqrt(a)] the 31 nodes with
        # Env <= B/2 took 12.4 rules each; from panels 1/sqrt(a) wide most
        # take the 7 starting rules, and all 40 nodes take the route
        rules = _count_rules(monkeypatch)
        made = []
        for c in SweepGrid(0.05, 2.0, 0.05).nodes():
            q = CrossingQuery(10.0, c, 0.0, 100.0)
            if exact._theta_conditional(UNIT, q, q.t) is None:
                continue
            rules.clear()
            exact_conditional(UNIT, q)
            made.append(len(rules))
        assert len(made) == 40
        assert sum(made) <= 8 * len(made)

    def test_negligible_theta_term_makes_no_rule(self, monkeypatch):
        rules = _count_rules(monkeypatch)
        shortcut = 0
        for point in EXACT_TAIL:
            q = CrossingQuery(*point)
            b, log_env = _theta_bound(UNIT, q, infinite_horizon_cap(q) if q.t == math.inf else q.t)
            if log_env <= math.log(b) - 40.0:
                rules.clear()
                assert exact_conditional(UNIT, q) == b
                assert rules == []
                shortcut += 1
        assert shortcut == 38

    def test_negligible_theta_term_past_the_interval_budget(self):
        # the theta-integrand oscillates about 1e3 times under a prefactor
        # of e^{-1.4e6}; integrating it used up MAX_INTERVALS and raised
        # QuadratureError, where its term cannot change a bit of B
        q = CrossingQuery(2806.0, 0.00146, 0.0, math.inf)
        assert exact_conditional(ExpExpModel(6.51, 70.3), q) == 1.0


class TestRouter:
    # Short horizons against a high level, where the theta-integral term
    # nearly equals B: a float64 theta route returned silent wrong values
    # here (4e4 relative error at (50, 1, 0, 0.1), and -2.2e-16 for
    # 1.2e-84 at (200, 1, 0, 0.1)) or raised.  The rule B/Env - 1 >= 2^-10
    # sends them to the Bessel route, which returns these values bit for
    # bit.
    SHORT_HORIZONS = [
        ((50.0, 1.0, 0.0, 0.1), "0x1.9ca4bab16b2fdp-69"),
        ((50.0, 1.0, 0.0, 10.0), "0x1.b6dd11773f34ap-34"),
        ((50.0, 0.5, 0.0, 10.0), "0x1.b72f90276d07dp-30"),
        ((200.0, 1.0, 0.0, 0.1), "0x1.313233f887c5dp-279"),
        ((200.0, 1.0, 0.0, 100.0), "0x1.054ef148b68a5p-81"),
        ((200.0, 1.5, 0.0, 100.0), "0x1.7ca3038182139p-113"),
    ]

    # theta-routed values, bit for bit as the route gave them from the
    # single starting panel [0, 8/sqrt(a)] and with no early return of B
    THETA = [
        (UNIT, (50.0, 0.75, 0.0, 1000.0), "0x1.fffff23446805p-1"),
        (UNIT, (50.0, 1.975, 0.0, 1000.0), "0x1.4f44bb0ae46b1p-36"),
        (UNIT, (10.0, 1.3, 0.0, math.inf), "0x1.9753d46459b58p-4"),
        (UNIT, (10.0, 0.05, 0.0, 100.0), "0x1.fffa0ca192a6ep-1"),
        (UNIT, (10.0, 1.5, 0.0, 100.0), "0x1.23a2d1286688bp-5"),
        (ExpExpModel(0.33, 6.6), (41.0, 3.0, 16.0, 23.0), "0x1.9b866d2048dc1p-834"),
    ]

    # theta-routed values with B/2 < Env < B, bit for bit as the route
    # gives them at the tolerance _REL_TOL * room; the Bessel route gave
    # them before, 2.3e-16 and 2.9e-15 away, and mpmath puts these
    # 1.1e-16 and 1.3e-16 off
    BAND = [
        (UNIT, (10.0, 1.0, 0.0, 100.0), "0x1.f60255074b52cp-2"),
        (UNIT, (50.0, 1.0, 0.0, 1000.0), "0x1.13eab33f5334ep-2"),
    ]

    @pytest.mark.parametrize("point, golden", SHORT_HORIZONS)
    def test_short_horizon_high_level_takes_bessel(self, point, golden):
        q = CrossingQuery(*point)
        assert exact._theta_conditional(UNIT, q, q.t) is None
        assert exact_conditional(UNIT, q) == float.fromhex(golden)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(point=_band_points())
    @example(point=(10.0, 1.0, 7.5, 100.0))  # room 0.019, exact_tail's least
    def test_band_matches_bessel_route(self, point):
        # B/2 < Env < B (1 - 2^-10), where the tolerance is _REL_TOL * room
        q = CrossingQuery(*point)
        b, log_env = _theta_bound(UNIT, q, q.t)
        assert math.log(b / 2.0) < log_env < math.log(b) + math.log1p(-(2.0**-10))
        theta = exact._theta_conditional(UNIT, q, q.t)
        assert theta is not None
        bessel = exact._bessel_conditional(UNIT, q, q.t, 1e-12)
        assert theta == pytest.approx(bessel, rel=1e-10, abs=0)

    def test_tolerance_scales_with_room(self, monkeypatch):
        # _REL_TOL * min(1, room), room = B/Env - 1, on every exact_tail
        # query the theta route integrates
        tols = []
        real = exact.gauss_kronrod

        def recorded(f, edges, rel_tol):
            tols.append(rel_tol)
            return real(f, edges, rel_tol)

        monkeypatch.setattr(exact, "gauss_kronrod", recorded)
        scaled = 0
        for point in EXACT_TAIL:
            q = CrossingQuery(*point)
            t = infinite_horizon_cap(q) if q.t == math.inf else q.t
            tols.clear()
            if exact._theta_conditional(UNIT, q, t) is None or not tols:
                continue
            b, log_env = _theta_bound(UNIT, q, t)
            room = b / math.exp(log_env) - 1.0
            assert tols == [pytest.approx(1e-10 * min(1.0, room), rel=1e-12)], point
            scaled += room < 1.0
        assert scaled == 18

    def test_too_little_room_takes_bessel(self):
        # Env/B = 1.011 > 1
        q = CrossingQuery(10.0, 1.0, 8.0, 100.0)
        b, log_env = _theta_bound(UNIT, q, q.t)
        assert log_env > math.log(b)
        assert exact._theta_conditional(UNIT, q, q.t) is None

    @pytest.mark.parametrize("m, point, golden", THETA + BAND)
    def test_theta_route_values(self, m, point, golden):
        q = CrossingQuery(*point)
        t = infinite_horizon_cap(q) if q.t == math.inf else q.t
        assert exact._theta_conditional(m, q, t) is not None
        assert exact_conditional(m, q) == float.fromhex(golden)

    @settings(max_examples=200, deadline=None)
    @given(
        u=st.floats(1.0, 60.0),
        c=st.floats(0.3, 3.0),
        v=st.floats(0.0, 20.0),
        span=st.floats(0.1, 1e4),
    )
    def test_theta_route_matches_bessel_route(self, u, c, v, span):
        q = CrossingQuery(u, c, v, v + span)
        theta = exact._theta_conditional(UNIT, q, q.t)
        if theta is None:
            return
        assert exact_conditional(UNIT, q) == theta
        # the Bessel route at rel_tol 1e-10 was itself 1.9e-10 off mpmath
        # at (8.35, 2.82, 19.05, 2160.27), where theta was within 1e-15
        bessel = exact._bessel_conditional(UNIT, q, q.t, 1e-12)
        assert theta == pytest.approx(bessel, rel=1e-10, abs=0)

    @settings(max_examples=200, deadline=None)
    @given(
        u=st.floats(1.0, 60.0),
        c=st.floats(0.3, 3.0),
        v=st.floats(0.0, 20.0),
        span=st.floats(0.1, 1e4),
    )
    def test_negligible_theta_term_returns_b(self, u, c, v, span):
        # where log Env <= log B - 40 the term is under half an ulp of B
        q = CrossingQuery(u, c, v, v + span)
        b, log_env = _theta_bound(UNIT, q, q.t)
        if not log_env <= math.log(b) - 40.0:
            return

        def no_quadrature(*args):
            raise AssertionError("gauss_kronrod called")

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(exact, "gauss_kronrod", no_quadrature)
            assert exact_conditional(UNIT, q) == b

    def test_theta_route_where_its_integral_cancels(self):
        # the theta integral is tiny against the integral of its |integrand|
        # here; a tolerance relative to the integral itself was out of reach
        m = ExpExpModel(0.33, 6.6)
        q = CrossingQuery(41.0, 3.0, 16.0, 23.0)
        theta = exact._theta_conditional(m, q, q.t)
        assert theta == pytest.approx(exact._bessel_conditional(m, q, q.t, 1e-12), rel=1e-10, abs=0)

    def test_figure_1_routes(self, monkeypatch):
        # the 40 figure-1 nodes all take the theta route and call no
        # log_bessel_i1; those with 0.75 <= c <= 1.15 have Env > B/2
        calls = _count_bessel_calls(monkeypatch)
        for c in SweepGrid(0.05, 2.0, 0.05).nodes():
            exact_conditional(UNIT, CrossingQuery(10.0, c, 0.0, 100.0))
            assert calls == [], c

    def test_benchmark_tracer_query_takes_bessel(self, monkeypatch):
        # perfbench/bench_tests.py::test_trace_counts_layers_and_items
        # needs more than 100 log_bessel_i1 calls here; it made 122
        calls = _count_bessel_calls(monkeypatch)
        exact_conditional(UNIT, CrossingQuery(10.0, 1.0, 0.0, 20.0))
        assert len(calls) > 100

    @pytest.mark.parametrize("t", [100.0, 1e4, math.inf])
    def test_least_subnormal_b(self, t):
        # B is 5e-324 for u in [1488.07, 1490.26] at c = 2, where 0.5 * B
        # underflows; the Env <= B/2 rule took log(0) and raised ValueError.
        # Beyond that B is 0, and at t = inf the Bessel route overflowed
        for k in range(148807, 150000):
            assert 0.0 <= exact_conditional(UNIT, CrossingQuery(k / 100, 2.0, 0.0, t)) <= 1e-320

    def test_underflowed_bessel_rate_raises(self):
        # lam * mu * c underflows to 0; log of it raised a bare ValueError
        q = CrossingQuery(296.0, 1.09e-49, 9.6e23, 2.4e32)
        with pytest.raises(QuadratureError, match="outside the float range"):
            exact_conditional(ExpExpModel(9.1e-182, 4.2e-157), q)

    @pytest.mark.parametrize("m, q", [
        # beta * mu underflows, so r = 0: the theta rule took log(0)
        (ExpExpModel(1e-200, 1e-200), CrossingQuery(1.0, 1.0, 0.0, 10.0)),
        (ExpExpModel(1e-200, 1e-200), CrossingQuery(1.0, 1.0, 0.0, 1e5)),
        # the Bessel argument underflows to 0 at y > 0: log_bessel_i1(0) raised
        (ExpExpModel(1.16e-144, 1.77e-175), CrossingQuery(6.57e5, 2491.0, 0.0, 7.5e-27)),
    ])
    def test_underflowed_rates_value_or_quadrature_error(self, m, q):
        try:
            value = exact_conditional(m, q)
        except QuadratureError:
            return
        assert 0.0 <= value <= 1.0


class TestSeriesOracle:
    def test_matches_exact_on_grid(self):
        for u in (5.0, 20.0):
            for c in (0.5, 1.5):
                for t in (20.0, 100.0):
                    q = CrossingQuery(u, c, 0.0, t)
                    a = exact_conditional(UNIT, q)
                    b = series_oracle(UNIT, q)
                    assert abs(a - b) <= 1e-8

    def test_nonzero_first_renewal_time(self):
        q = CrossingQuery(8.0, 0.9, 1.5, 60.0)
        assert series_oracle(UNIT, q) == pytest.approx(
            exact_conditional(UNIT, q), abs=1e-8
        )

    def test_insufficient_truncation_raises(self):
        with pytest.raises(SeriesTruncationError):
            series_oracle(UNIT, CrossingQuery(10.0, 1.0, 0.0, 50.0), nmax=3)

    @settings(max_examples=60, deadline=None)
    @given(
        u=st.floats(0.5, 30.0),
        c=st.floats(0.2, 2.5),
        v=st.floats(0.0, 20.0),
        span=st.floats(0.5, 80.0),
        more=st.floats(0.0, 50.0),
    )
    def test_exact_property(self, u, c, v, span, more):
        # Gauss-Kronrod exact path against the Simpson-integrated series
        q = CrossingQuery(u, c, v, v + span)
        val = exact_conditional(UNIT, q)
        assert 0.0 <= val <= 1.0 + 1e-12
        assert abs(val - series_oracle(UNIT, q)) <= 1e-8
        later = exact_conditional(UNIT, CrossingQuery(u, c, v, v + span + more))
        # each value carries up to 1e-10 of its integral
        assert later >= val - 1e-9

    def test_nmax_validation(self):
        with pytest.raises(ValueError):
            series_oracle(UNIT, CrossingQuery(10.0, 1.0, 0.0, 50.0), nmax=0)


class TestCriticalTail:
    """At c* both exact values approach their t = inf values like
    1/sqrt(T): against the leading terms of ``critical_tail`` the relative
    deviation is at most (1 + mu w)^2/T, past 1e-10 of the values' own
    error (0.19 and 0.24 of that bound at most, at the pair (2, 0.5))."""

    @pytest.mark.parametrize("lam, mu", [(1.0, 1.0), (2.0, 0.5), (0.5, 3.0)])
    @pytest.mark.parametrize("u", [10.0, 40.0])
    def test_shortfalls_follow_the_leading_terms(self, lam, mu, u):
        m, c = ExpExpModel(lam, mu), lam / mu
        first = 1e3 * u * u  # 1e3 w^2, at v = 0
        for span in [first * 10.0**k for k in range(5) if first * 10.0**k < 1e8] + [1e8]:
            q = CrossingQuery(u, c, 0.0, span / c)
            conditional, unconditional = critical_tail(m, q)
            slack = (1.0 + mu * u) ** 2 / span
            b = -math.expm1(-mu * u)
            got = b - exact_conditional(m, q)
            assert abs(got - conditional) <= conditional * slack + 1e-10, span
            got = 1.0 - unconditional_exp_first_renewal(m, u, c, q.t)
            assert abs(got - unconditional) <= unconditional * slack + 1e-10, span


class TestAgainstSimulation:
    def test_ci_covers_exact(self):
        q = CrossingQuery(10.0, 1.0, 0.0, 100.0)
        want = exact_conditional(UNIT, q)
        est = simulate_conditional(
            Exponential(1.0), Exponential(1.0), 10.0, 1.0, 0.0, 100.0, 10_000, 20170101
        )
        half = (est.ci_high - est.ci_low) / 2.0
        assert abs(est.estimate - want) <= half


def _nested_unconditional(model, u, c, t):
    """P{tau <= t} by the nested route: the immediate-crossing term plus
    lam * int_0^t e^{-lam v} exact_conditional(v) dv.

    The outer integral runs on scipy's QUADPACK over [0, 1] and doubling
    pieces beyond, so that its nodes sample the peak at v = 0 however long
    the horizon; a single rule over [0, t] misses it once e^{-lam v} has
    underflowed at its nearest node.
    """
    rate = model.lam + c * model.mu
    first = model.lam * math.exp(-model.mu * u) / rate * -math.expm1(-rate * t)

    def integrand(v):
        q = CrossingQuery(u=u, c=c, v=v, t=t)
        return exact_conditional(model, q) * math.exp(-model.lam * v)

    edges = [0.0, 1.0]
    while edges[-1] < t:
        edges.append(min(t, 2.0 * edges[-1]))
    second = math.fsum(
        quad(integrand, lo, hi, epsabs=1e-13, epsrel=1e-12, limit=200)[0]
        for lo, hi in zip(edges, edges[1:])
    )
    return first + model.lam * second


def _simulate_unconditional(model, u, c, t, n, seed):
    # independent oracle: the first interval is exponential too, and a first
    # jump above u + c*T1 counts as a crossing at T1 itself
    gap = Exponential(model.lam)
    jump = Exponential(model.mu)
    stream = LcgStream(seed)
    hits = 0
    for _ in range(n):
        s = gap.sample(stream)
        total = 0.0
        crossed = False
        while s <= t:
            total += jump.sample(stream)
            if total - c * s > u:
                crossed = True
                break
            s += gap.sample(stream)
        hits += crossed
    return hits / n


class TestUnconditional:
    def test_short_horizon_vanishes(self):
        assert unconditional_exp_first_renewal(UNIT, 10.0, 1.0, 1e-9) <= 1e-9

    def test_large_level_vanishes(self):
        val = unconditional_exp_first_renewal(UNIT, 200.0, 1.0, 50.0)
        assert 0.0 <= val < 1e-30

    def test_between_first_term_and_total_bound(self):
        u, c, t = 10.0, 1.0, 100.0
        rate = UNIT.lam + c * UNIT.mu
        first = UNIT.lam * math.exp(-UNIT.mu * u) / rate * -math.expm1(-rate * t)
        val = unconditional_exp_first_renewal(UNIT, u, c, t)
        assert first < val <= 1.0

    def test_monte_carlo_agreement(self):
        u, c, t = 10.0, 1.0, 100.0
        want = unconditional_exp_first_renewal(UNIT, u, c, t)
        n = 20_000
        est = _simulate_unconditional(UNIT, u, c, t, n, 99)
        se = math.sqrt(want * (1.0 - want) / n)
        assert abs(est - want) <= 4.0 * se

    @pytest.mark.parametrize("c", [0.8, 1.0, 1.3])
    @pytest.mark.parametrize("t", [50.0, 100.0, 1000.0])
    def test_matches_nested_route(self, c, t):
        val = unconditional_exp_first_renewal(UNIT, 10.0, c, t)
        assert abs(val - _nested_unconditional(UNIT, 10.0, c, t)) <= 1e-8

    def test_infinite_horizon_closed_form(self):
        # ruin probability (lam/(c mu)) e^{-(mu - lam/c) u} above c* = lam/mu
        model = ExpExpModel(1.2, 0.8)
        u, c = 10.0, 1.95
        psi = model.lam / (c * model.mu) * math.exp(-(model.mu - model.lam / c) * u)
        assert unconditional_exp_first_renewal(model, u, c, math.inf) == pytest.approx(psi, rel=1e-15)
        assert unconditional_exp_first_renewal(model, u, 0.5, math.inf) == 1.0
        # at c* the two branches meet: ruin is certain there too
        assert unconditional_exp_first_renewal(model, u, 1.5, math.inf) == pytest.approx(1.0, rel=1e-14)

    def test_long_horizon_approaches_closed_form_from_below(self):
        psi = unconditional_exp_first_renewal(UNIT, 10.0, 1.3, math.inf)
        prev = 0.0
        for t in (10.0, 100.0, 1000.0, 1.0e4):
            val = unconditional_exp_first_renewal(UNIT, 10.0, 1.3, t)
            # each value carries up to 1e-10 of its integral
            assert prev - 1e-10 <= val <= psi * (1.0 + 1e-12)
            prev = val
        assert val == pytest.approx(psi, rel=1e-12)
        for c in (0.5, 2.0):
            # the ruin probability: (lam/(c mu)) e^(-(mu - lam/c) u), or 1
            limit = min(1.0, math.exp(-(1.0 - 1.0 / c) * 10.0) / c)
            _raises_or_is_near(lambda t: unconditional_exp_first_renewal(UNIT, 10.0, c, t), limit)

    def test_long_horizon_at_the_critical_rate(self):
        _raises_or_rises_to_one(lambda t: unconditional_exp_first_renewal(UNIT, 10.0, 1.0, t))

    def test_stays_a_probability_below_the_critical_rate(self):
        val = unconditional_exp_first_renewal(UNIT, 10.0, 0.8, 7000.0)
        assert 1.0 - 1e-12 <= val <= 1.0 + 1e-12

    def test_near_one_at_a_low_drift_rate(self):
        # the value's error must stay inside the 1e-12 that _probability
        # allows above 1: an estimate held to 1e-8 reached exp(3.35e-11)
        val = unconditional_exp_first_renewal(ExpExpModel(22.25, 70.24), 0.144, 0.00258, 37.6)
        assert 1.0 - 1e-12 <= val <= 1.0 + 1e-12

    def test_bessel_work(self, monkeypatch):
        # the nested route made 17,250 log_bessel_i1 calls here
        calls = _count_bessel_calls(monkeypatch, ("log_bessel_i0", "log_bessel_i1"))
        unconditional_exp_first_renewal(UNIT, 10.0, 1.0, 100.0)
        assert 0 < len(calls) <= 1000

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            unconditional_exp_first_renewal(UNIT, -1.0, 1.0, 10.0)
        with pytest.raises(ValueError):
            unconditional_exp_first_renewal(UNIT, 1.0, 0.0, 10.0)
        # non-finite level and rate, with CrossingQuery's messages
        with pytest.raises(ValueError, match="level u must be finite and > 0"):
            unconditional_exp_first_renewal(UNIT, math.inf, 1.0, 10.0)
        with pytest.raises(ValueError, match="drift rate c must be finite and > 0"):
            unconditional_exp_first_renewal(UNIT, 10.0, math.inf, 10.0)

    def test_overflowed_rate_product_raises(self):
        # lam * mu overflows; the density's I_1 term raised a bare ValueError
        with pytest.raises(QuadratureError, match="outside the float range"):
            unconditional_exp_first_renewal(ExpExpModel(3.9e170, 8.3e191), 5e-100, 2.5e9, 1.2e6)

    def test_horizon_edges(self):
        # a NaN horizon is an error, not a silent 0.0
        with pytest.raises(ValueError):
            unconditional_exp_first_renewal(UNIT, 10.0, 1.0, math.nan)
        assert unconditional_exp_first_renewal(UNIT, 10.0, 1.0, 0.0) == 0.0
        assert unconditional_exp_first_renewal(UNIT, 10.0, 1.0, -5.0) == 0.0
        assert unconditional_exp_first_renewal(UNIT, 10.0, 1.0, -math.inf) == 0.0
