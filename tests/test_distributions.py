"""Distribution families: densities, quantiles, moments, sampling.

Moment examples tagged as derived were recomputed from raw-moment
quadrature (scipy.integrate.quad of x^k * pdf) before being frozen; the
same quadrature runs below as the independent cross-check.
"""

import math

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from levelcross.distributions import (
    ERLANG_MAX_SHAPE,
    Distribution,
    Erlang,
    Exponential,
    Mix2Exp,
    Pareto,
    parse_spec,
)
from levelcross.errors import MomentUndefinedError, SpecParseError
from levelcross.sim import LcgStream
from oracles import reference_inverse
from strategies import LAWS

# mpmath dps=40 oracles
MIX_CDF_AT_1 = 0.7096352781401675549716509882348646205669  # Mix2Exp(1,2,2/3)
PARETO_MEDIAN = 0.5405917571506316191928570587442169008371  # Pareto(4,0.35)

ALL_DISTS = [
    Exponential(1.0),
    Exponential(0.7),
    Mix2Exp(1.0, 2.0, 2.0 / 3.0),
    Mix2Exp(0.8, 3.1, 0.4),  # rate2 != 2*rate1: exercises the bisection path
    Erlang(1.2, 2),
    Erlang(6.0, 4),
    Pareto(4.0, 0.4),
    Pareto(3.5, 0.35),
]


class FixedStream:
    """Deterministic stand-in feeding prescribed uniforms."""

    def __init__(self, values):
        self.values = list(values)
        self.draws = 0

    def next_uniform(self):
        self.draws += 1
        return self.values.pop(0)


class TestPdf:
    def test_zero_left_of_support(self):
        for d in ALL_DISTS:
            assert d.pdf(0.0) == 0.0
            assert d.pdf(-1.0) == 0.0

    def test_exponential_at_origin(self):
        assert Exponential(1.0).pdf(1e-12) == pytest.approx(1.0, rel=1e-9)

    def test_pareto_at_origin(self):
        # a*b at the lower endpoint
        assert Pareto(4.0, 0.4).pdf(1e-12) == pytest.approx(1.6, rel=1e-9)

    def test_mixture_at_origin(self):
        assert Mix2Exp(1.0, 2.0, 2.0 / 3.0).pdf(1e-12) == pytest.approx(4.0 / 3.0, rel=1e-9)

    def test_integrates_to_one(self):
        for d in ALL_DISTS:
            x_hi = d.quantile(1.0 - 1e-6)
            body, _ = quad(d.pdf, 0, x_hi, limit=300)
            assert body + (1.0 - d.cdf(x_hi)) == pytest.approx(1.0, abs=1e-8)


class TestCdf:
    def test_zero_at_origin(self):
        for d in ALL_DISTS:
            assert d.cdf(0.0) == 0.0
            assert d.cdf(-2.0) == 0.0

    def test_exponential_median(self):
        assert Exponential(1.0).cdf(math.log(2.0)) == pytest.approx(0.5, rel=1e-14)

    def test_mixture_value(self):
        assert Mix2Exp(1.0, 2.0, 2.0 / 3.0).cdf(1.0) == pytest.approx(MIX_CDF_AT_1, rel=1e-14)

    def test_limits_and_monotonicity(self):
        for d in ALL_DISTS:
            prev = 0.0
            for x in [0.01, 0.1, 0.5, 1.0, 2.0, 5.0, 20.0, 200.0]:
                cur = d.cdf(x)
                assert cur >= prev
                prev = cur
            assert d.cdf(1e6) == pytest.approx(1.0, abs=1e-6)

    def test_matches_pdf_integral(self):
        for d in ALL_DISTS:
            val, _ = quad(d.pdf, 0, 1.7, limit=200)
            assert d.cdf(1.7) == pytest.approx(val, rel=1e-8)


class TestQuantile:
    def test_pareto_unit_median(self):
        assert Pareto(1.0, 1.0).quantile(0.5) == pytest.approx(1.0, rel=1e-14)

    def test_pareto_median_value(self):
        assert Pareto(4.0, 0.35).quantile(0.5) == pytest.approx(PARETO_MEDIAN, rel=1e-14)

    def test_mixture_round_trip_example(self):
        assert Mix2Exp(1.0, 2.0, 2.0 / 3.0).quantile(MIX_CDF_AT_1) == pytest.approx(
            1.0, abs=1e-10
        )

    def test_round_trip_grid(self):
        us = [0.001] + [i / 50 for i in range(1, 50)] + [0.999]
        for d in ALL_DISTS:
            for u in us:
                assert abs(d.cdf(d.quantile(u)) - u) <= 1e-10

    def test_domain(self):
        for bad in (0.0, 1.0, -0.2, 1.3):
            with pytest.raises(ValueError):
                Exponential(1.0).quantile(bad)

    def test_extreme_upper_tail_stable(self):
        # heavy tail: no cancellation blowup near u = 1
        x = Pareto(4.0, 0.4).quantile(1.0 - 2**-32)
        assert math.isfinite(x) and x > 0

    @settings(max_examples=150, deadline=None)
    @given(
        u=st.floats(min_value=0.001, max_value=0.999),
        l1=st.floats(min_value=0.2, max_value=3.0),
        bump=st.floats(min_value=0.1, max_value=4.0),
        p=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_mixture_round_trip_property(self, u, l1, bump, p):
        d = Mix2Exp(l1, l1 + bump, p)
        assert abs(d.cdf(d.quantile(u)) - u) <= 1e-10

    @settings(max_examples=300, deadline=None)
    @given(
        u=st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
        l1=st.floats(min_value=0.01, max_value=50.0),
        bump=st.floats(min_value=0.01, max_value=50.0),
        p=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_mixture_bisection_stop_is_bit_exact(self, u, l1, bump, p):
        # the early stop at a fixed point must return exactly what the
        # full fixed-count bisection returns
        d = Mix2Exp(l1, l1 + bump, p)
        assume(d.rate2 != 2.0 * d.rate1 and d.q != 0.0)
        assert d.quantile(u) == _bisect_90(d, u)

    @settings(max_examples=80, deadline=None)
    @given(
        u=st.floats(min_value=0.001, max_value=0.999),
        a=st.floats(min_value=0.5, max_value=9.0),
        b=st.floats(min_value=0.05, max_value=5.0),
    )
    def test_pareto_round_trip_property(self, u, a, b):
        d = Pareto(a, b)
        assert abs(d.cdf(d.quantile(u)) - u) <= 1e-10


def _assert_kernel_is_reference(law, x):
    """One uniform of the kernel at generator state x gives, bit for bit,
    what the per-draw code it replaced gave; so do the quantile and
    sample() of a one-uniform law."""
    transform, scale, divisor, n = law.draw_kernel()
    want = reference_inverse(law, x * 2**-32)
    assert transform(x * scale) / divisor == want
    if n == 1:
        assert law.quantile(x * 2**-32) == want
        assert law.sample(FixedStream([x * 2**-32])) == want


def _bisect_90(d, u):
    """Mix2Exp quantile by 90 bisection steps on cdf(), never stopping early."""
    lo, hi = 0.0, -math.log1p(-u) / d.rate1
    for _ in range(90):
        mid = 0.5 * (lo + hi)
        if d.cdf(mid) < u:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _raw_moment(d, k):
    # split at a high quantile; the infinite-limit piece captures heavy tails
    cut = d.quantile(1.0 - 1e-6)
    f = lambda x: x**k * d.pdf(x)
    body, _ = quad(f, 0, cut, limit=500)
    tail, _ = quad(f, cut, math.inf, limit=500)
    return body + tail


class TestMoments:
    def test_exponential(self):
        m = Exponential(2.0).moments()
        assert (m.mean, m.variance, m.central3) == (0.5, 0.25, 0.25)

    def test_erlang(self):
        m = Erlang(1.2, 2).moments()
        assert m.mean == pytest.approx(2 / 1.2, rel=1e-15)
        assert m.variance == pytest.approx(2 / 1.44, rel=1e-15)
        assert m.central3 == pytest.approx(4 / 1.728, rel=1e-15)

    def test_pareto(self):
        m = Pareto(4.0, 0.4).moments()
        assert m.mean == pytest.approx(1 / 1.2, rel=1e-12)
        assert m.variance == pytest.approx(4 / 2.88, rel=1e-12)
        assert m.central3 == pytest.approx(40 / 3.456, rel=1e-12)

    def test_mixture(self):
        # frozen from raw-moment quadrature: mean 5/6, var 29/36, c3 = 1.657407...
        m = Mix2Exp(1.0, 2.0, 2.0 / 3.0).moments()
        assert m.mean == pytest.approx(5 / 6, rel=1e-14)
        assert m.variance == pytest.approx(29 / 36, rel=1e-14)
        assert m.central3 == pytest.approx(1.6574074074074074, rel=1e-13)

    def test_against_quadrature(self):
        for d in [Exponential(0.9), Mix2Exp(0.8, 3.1, 0.4), Erlang(1.5, 3), Pareto(4.5, 0.6)]:
            m1 = _raw_moment(d, 1)
            m2 = _raw_moment(d, 2)
            m3 = _raw_moment(d, 3)
            got = d.moments()
            assert got.mean == pytest.approx(m1, rel=1e-8)
            assert got.variance == pytest.approx(m2 - m1 * m1, rel=1e-7)
            assert got.central3 == pytest.approx(m3 - 3 * m1 * m2 + 2 * m1**3, rel=1e-6)

    def test_pareto_undefined(self):
        for a in (0.9, 1.0, 1.8, 2.0, 2.9, 3.0):
            with pytest.raises(MomentUndefinedError):
                Pareto(a, 1.0).moments()


class TestSampling:
    def test_exponential_inverse_transform(self):
        assert Exponential(1.0).sample(FixedStream([0.5])) == pytest.approx(
            math.log(2.0), rel=1e-15
        )

    def test_pareto_matches_quantile(self):
        assert Pareto(4.0, 0.35).sample(FixedStream([0.5])) == pytest.approx(
            PARETO_MEDIAN, rel=1e-14
        )

    def test_erlang_shape_one_is_exponential(self):
        s1, s2 = LcgStream(99), LcgStream(99)
        for _ in range(200):
            assert Erlang(1.3, 1).sample(s1) == Exponential(1.3).sample(s2)

    def test_erlang_consumes_exactly_k_uniforms(self):
        stream = LcgStream(4242)
        Erlang(0.9, 5).sample(stream)
        assert stream.draws == 5

    def test_erlang_is_sum_of_exponentials_bit_exact(self):
        s1, s2 = LcgStream(31337), LcgStream(31337)
        erl = Erlang(2.2, 4)
        expo = Exponential(2.2)
        for _ in range(50):
            want = sum(expo.sample(s2) for _ in range(4))
            assert erl.sample(s1) == want

    @pytest.mark.parametrize("shape", [1, 2, 3, 4, 5])
    def test_erlang_kernel_is_sum_of_exponentials(self, shape):
        erl, expo = Erlang(0.7, shape), Exponential(0.7)
        transform, scale, divisor, n = erl.draw_kernel()
        assert n == shape
        s1, s2, s3 = LcgStream(2718), LcgStream(2718), LcgStream(2718)
        for _ in range(30):
            want = 0.0
            for _ in range(shape):
                want += expo.sample(s2)
            kernel = 0.0
            for _ in range(n):
                s3.next_uniform()
                kernel += transform(s3.state * scale) / divisor
            before = s1.draws
            assert erl.sample(s1) == kernel == want
            assert s1.draws - before == shape
        assert s1.state == s2.state == s3.state

    def test_kernel_fields(self):
        # the exponential family (and Mix2Exp with q == 0) hands the
        # simulator math.log1p itself; Pareto and the other Mix2Exp laws a
        # closure over their constants; a law that defines only _inverse its
        # unchecked quantile on the uniform, divided by 1
        assert Exponential(0.7).draw_kernel() == (math.log1p, -(2.0**-32), -0.7, 1)
        assert Erlang(0.7, 3).draw_kernel() == (math.log1p, -(2.0**-32), -0.7, 3)
        assert Mix2Exp(0.7, 2.0, 1.0).draw_kernel() == (math.log1p, -(2.0**-32), -0.7, 1)
        for law, fields in [
            (Pareto(4.0, 0.35), (-(2.0**-32), 0.35, 1)),
            (Mix2Exp(0.7, 1.4, 0.4), (2.0**-32, -0.7, 1)),  # rate2 == 2 rate1
            (Mix2Exp(0.7, 2.0, 0.4), (2.0**-32, 1.0, 1)),  # bisection
        ]:
            transform, *rest = law.draw_kernel()
            assert callable(transform) and tuple(rest) == fields

        class Halved(Distribution):
            def _inverse(self, u):
                return 0.5 * u

        law = Halved()
        assert law.draw_kernel() == (law._inverse, 2.0**-32, 1.0, 1)
        assert law.sample(FixedStream([0.25])) == 0.125

    # one law per kernel branch: Mix2Exp with p = 0, with q == 0, with
    # rate2 == 2 rate1, and with general rates up to rate2/rate1 = 1000
    @pytest.mark.parametrize("law", [
        Exponential(0.7), Erlang(1.3, 3), Pareto(4.0, 0.35), Pareto(0.5, 7.0),
        Mix2Exp(1.0, 2.0, 0.0), Mix2Exp(1.0, 3.0, 1.0), Mix2Exp(1.0, 2.0, 2.0 / 3.0),
        Mix2Exp(0.8, 3.1, 0.0), Mix2Exp(0.8, 3.1, 0.4), Mix2Exp(1.0, 1000.0, 0.001),
    ], ids=repr)
    @settings(max_examples=150, deadline=None)
    @given(x=st.integers(1, 2**32 - 1))
    @example(x=1)
    @example(x=2**31)
    @example(x=2**32 - 1)
    def test_kernel_bits_match_reference(self, law, x):
        _assert_kernel_is_reference(law, x)

    @settings(max_examples=300, deadline=None)
    @given(
        law=st.one_of(
            LAWS,
            st.builds(
                lambda r, k, p: Mix2Exp(r, k * r, p),
                st.floats(0.01, 50.0), st.floats(1.001, 1000.0) | st.just(2.0),
                st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
            ),
            st.builds(Pareto, st.floats(0.1, 20.0), st.floats(0.01, 10.0)),
        ),
        x=st.integers(1, 2**32 - 1),
    )
    def test_kernel_bits_match_reference_any_law(self, law, x):
        _assert_kernel_is_reference(law, x)

    @pytest.mark.parametrize("law", [
        Exponential(0.7), Erlang(0.7, 2), Mix2Exp(1.0, 3.0, 0.4), Pareto(4.0, 0.35),
    ], ids=repr)
    def test_inverse_override_changes_quantile_not_draws(self, law):
        changed = type("Changed", (type(law),), {"_inverse": lambda self, u: 42.0})
        law2 = changed(*law.__dict__.values())
        assert law2.quantile(0.5) == 42.0 != law.quantile(0.5)
        s1, s2 = LcgStream(7), LcgStream(7)
        assert [law2.sample(s1) for _ in range(5)] == [law.sample(s2) for _ in range(5)]

    def test_sample_moments_close(self):
        n = 100_000
        for d in [Exponential(1.0), Erlang(1.2, 2), Pareto(4.0, 0.4), Mix2Exp(1, 2, 2 / 3)]:
            stream = LcgStream(20170101)
            mean = sum(d.sample(stream) for _ in range(n)) / n
            m = d.moments()
            assert abs(mean - m.mean) <= 4.0 * math.sqrt(m.variance / n)


class TestSpecGrammar:
    def test_round_trips(self):
        for text, expected in [
            ("exp:1.0", Exponential(1.0)),
            ("erlang:1.2,2", Erlang(1.2, 2)),
            ("pareto:4.0,0.35", Pareto(4.0, 0.35)),
            ("mix2exp:1,2,0.6667", Mix2Exp(1.0, 2.0, 0.6667)),
        ]:
            assert parse_spec(text) == expected
            assert parse_spec(expected.spec_string()) == expected

    def test_parse_errors(self):
        for bad in (
            "gauss:1",
            "exp",
            "exp:",
            "exp:a",
            "erlang:1.0",
            "erlang:1.0,2.5",
            "erlang:1,inf",
            "pareto:4",
            "mix2exp:1,2",
            "exp:inf",
            "exp:nan",
            "erlang:inf,2",
            "pareto:inf,1",
            "pareto:4,inf",
            "mix2exp:1,inf,0.5",
        ):
            with pytest.raises(SpecParseError):
                parse_spec(bad)

    def test_erlang_shape_is_bounded(self):
        # one Erlang draw sums `shape` transforms: a huge shape never finishes
        for bad in ("erlang:1,1e300", f"erlang:1,{ERLANG_MAX_SHAPE + 1}"):
            with pytest.raises(SpecParseError):
                parse_spec(bad)
        assert parse_spec(f"erlang:1,{ERLANG_MAX_SHAPE}") == Erlang(1.0, ERLANG_MAX_SHAPE)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            parse_spec("exp:-1")
        with pytest.raises(ValueError):
            parse_spec("mix2exp:2,1,0.5")  # needs rate1 < rate2
        with pytest.raises(ValueError):
            parse_spec("mix2exp:1,2,1.5")
        with pytest.raises(ValueError):
            parse_spec("pareto:0,1")


class TestConstruction:
    def test_validation(self):
        with pytest.raises(ValueError):
            Exponential(0.0)
        with pytest.raises(ValueError):
            Erlang(1.0, 0)
        with pytest.raises(ValueError):
            Erlang(1.0, 1.5)  # type: ignore[arg-type]
        with pytest.raises(ValueError):
            Mix2Exp(1.0, 1.0, 0.5)
        with pytest.raises(ValueError):
            Pareto(1.0, -0.1)
