"""Distribution families: distribution functions, quantiles, moments,
sampling.

Moment examples tagged as derived were recomputed from raw-moment
quadrature before being frozen; the independent cross-check below is
scipy.stats: each law's distribution function and moments against the
same law built from scipy's expon, erlang and lomax.
"""

import math

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import stats

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
from levelcross.sim import LcgStream, simulate_conditional
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

    def test_matches_scipy(self):
        for d in ALL_DISTS:
            want = sum(w * law.cdf(1.7) for w, law in _scipy_parts(d))
            assert d.cdf(1.7) == pytest.approx(want, rel=1e-8)


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

    # float.hex of quantile(u) at the u of QUANTILE_U, recorded while Erlang
    # defined its own quantile: every family's one-uniform kernel, and the
    # cdf bisection of Erlang with shape > 1
    QUANTILE_U = (2**-32, 0.1, 0.5, 0.9, 1.0 - 2**-32)
    QUANTILE_GOLDENS = {
        "exp:0.7": ("0x1.6db6db6e6db6ep-32", "0x1.34413855077d6p-3",
                    "0x1.fafcd6c40e50dp-1", "0x1.a50b4c3030bd7p+1", "0x1.fafcd6c40e50dp+4"),
        "erlang:1.3,1": ("0x1.89d89d8a9d89dp-33", "0x1.4bf777be0810dp-4",
                         "0x1.10fe4c422f17dp-1", "0x1.c56ea0d16f90ep+0", "0x1.10fe4c422f17dp+4"),
        "erlang:1.2,2": ("0x1.2db3778419f34p-16", "0x1.c5d004c038c88p-2",
                         "0x1.660c1fa537ceap+0", "0x1.9ee74ac767b2cp+1", "0x1.536a7f0b433b0p+4"),
        "erlang:0.7,5": ("0x1.6ae4de514ee66p-5", "0x1.bcd10fa152c94p+1",
                         "0x1.ab0df571a4ff0p+2", "0x1.6d6bd64498c9ap+3", "0x1.7a9ca19504c9cp+5"),
        "pareto:4,0.35": ("0x1.6db6db6e9b6dcp-33", "0x1.3859b29b11fd9p-4",
                          "0x1.14c8715ae5f54p-1", "0x1.1ca0bdf53d33ap+1", "0x1.6c49249249248p+9"),
        # rate2 == 2 rate1: the closed form; rate2 == 3 rate1: the bisection
        "mix2exp:1,2,0.6666666666666666": (
            "0x1.8000000090000p-33", "0x1.45cec4a4ae899p-4", "0x1.15e55f6e98829p-1",
            "0x1.f7011ac4dcb7dp+0", "0x1.5c6766f47fb8ep+4"),
        "mix2exp:1,3,0.6666666666666666": (
            "0x1.333328005c290p-33", "0x1.076242646bd98p-4", "0x1.de43ce9164050p-2",
            "0x1.e8770777f2062p+0", "0x1.5c6766b473b96p+4"),
    }

    @pytest.mark.parametrize("spec", QUANTILE_GOLDENS)
    def test_golden_bits(self, spec):
        law = parse_spec(spec)
        got = tuple(law.quantile(u).hex() for u in self.QUANTILE_U)
        assert got == self.QUANTILE_GOLDENS[spec]

    def test_law_without_kernel_raises(self):
        # draw_kernel() is the one definition of a draw: without it there is
        # no quantile, no sample and no simulation, whichever law it is
        class Bare(Distribution):
            def cdf(self, x):
                return -math.expm1(-x) if x > 0.0 else 0.0

            def moments(self):
                return Exponential(1.0).moments()

        law = Bare()
        with pytest.raises(NotImplementedError):
            law.quantile(0.5)
        with pytest.raises(NotImplementedError):
            law.sample(LcgStream(1))
        for pair in [(law, Exponential(1.0)), (Exponential(1.0), law)]:
            with pytest.raises(NotImplementedError):
                simulate_conditional(*pair, 10.0, 1.0, 0.0, 50.0, 10, 7)

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
    transform, divisor, n = law.draw_kernel()
    want = reference_inverse(law, x * 2**-32)
    assert transform(x * -(2**-32)) / divisor == want
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


def _scipy_parts(d):
    """``d`` as weighted scipy.stats laws: one for a family scipy names
    (Pareto's density a*b/(x*b+1)^(a+1) is lomax(a, scale=1/b)), and the
    two exponentials of a Mix2Exp."""
    if isinstance(d, Mix2Exp):
        return [(d.p, stats.expon(scale=1.0 / d.rate1)), (d.q, stats.expon(scale=1.0 / d.rate2))]
    if isinstance(d, Exponential):
        return [(1.0, stats.expon(scale=1.0 / d.rate))]
    if isinstance(d, Erlang):
        return [(1.0, stats.erlang(d.shape, scale=1.0 / d.rate))]
    return [(1.0, stats.lomax(d.shape, scale=1.0 / d.scale))]


def _raw_moment(d, k):
    return sum(w * law.moment(k) for w, law in _scipy_parts(d))


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

    def test_against_scipy(self):
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
        transform, divisor, n = erl.draw_kernel()
        assert n == shape
        s1, s2, s3 = LcgStream(2718), LcgStream(2718), LcgStream(2718)
        for _ in range(30):
            want = 0.0
            for _ in range(shape):
                want += expo.sample(s2)
            kernel = 0.0
            for _ in range(n):
                s3.next_uniform()
                kernel += transform(s3.state * -(2**-32)) / divisor
            before = s1.draws
            assert erl.sample(s1) == kernel == want
            assert s1.draws - before == shape
        assert s1.state == s2.state == s3.state

    def test_kernel_fields(self):
        # the exponential family (and Mix2Exp with q == 0) hands the
        # simulator math.log1p itself; Pareto and the other Mix2Exp laws a
        # closure over their constants; a law outside the four families
        # defines its own kernel, and its quantile and sample() follow it
        assert Exponential(0.7).draw_kernel() == (math.log1p, -0.7, 1)
        assert Erlang(0.7, 3).draw_kernel() == (math.log1p, -0.7, 3)
        assert Mix2Exp(0.7, 2.0, 1.0).draw_kernel() == (math.log1p, -0.7, 1)
        for law, fields in [
            (Pareto(4.0, 0.35), (0.35, 1)),
            (Mix2Exp(0.7, 1.4, 0.4), (-0.7, 1)),  # rate2 == 2 rate1
            (Mix2Exp(0.7, 2.0, 0.4), (1.0, 1)),  # bisection
        ]:
            transform, *rest = law.draw_kernel()
            assert callable(transform) and tuple(rest) == fields

        class Halved(Distribution):
            def draw_kernel(self):
                return (lambda m: -0.5 * m), 1.0, 1

        law = Halved()
        assert law.quantile(0.25) == 0.125
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
        Exponential(0.7), Erlang(0.7, 1), Mix2Exp(1.0, 3.0, 0.4), Pareto(4.0, 0.35),
    ], ids=repr)
    def test_kernel_override_changes_quantile_and_draws(self, law):
        # a one-uniform law's quantile is its kernel at -u: doubling the
        # divisor halves the quantile and every draw alike, bit for bit
        def halved(self):
            transform, divisor, n = type(law).draw_kernel(self)
            return transform, 2.0 * divisor, n

        law2 = type("Halved", (type(law),), {"draw_kernel": halved})(*law.__dict__.values())
        for u in (2**-32, 0.1, 0.5, 0.9):
            assert law2.quantile(u) == 0.5 * law.quantile(u)
            assert law2.sample(FixedStream([u])) == law2.quantile(u)
        s1, s2 = LcgStream(7), LcgStream(7)
        assert [law2.sample(s1) for _ in range(5)] == [0.5 * law.sample(s2) for _ in range(5)]

    def test_sample_moments_close(self):
        n = 100_000
        for d in [Exponential(1.0), Erlang(1.2, 2), Pareto(4.0, 0.4), Mix2Exp(1, 2, 2 / 3)]:
            stream = LcgStream(20170101)
            mean = sum(d.sample(stream) for _ in range(n)) / n
            m = d.moments()
            assert abs(mean - m.mean) <= 4.0 * math.sqrt(m.variance / n)


# a valid law of each family, whose fields the checks below replace
FAMILY_LAWS = [Exponential(1.0), Erlang(1.2, 2), Pareto(4.0, 0.35), Mix2Exp(1.0, 2.0, 0.5)]

# every float field of every family at each value that is not finite and > 0;
# a Mix2Exp weight p = 0 is a valid law
BAD_FIELDS = [
    (law, name, bad)
    for law in FAMILY_LAWS
    for name, kind in type(law).__annotations__.items()
    if kind is float
    for bad in (0.0, -1.0, math.inf, math.nan)
    if not (name == "p" and bad == 0.0)
]


def _with_field(law, name, value):
    return {**vars(law), name: value}


class TestSpecGrammar:
    # spec_string() of the laws the demos and the benchmark use, recorded
    # while each family printed its own spec
    SPEC_GOLDENS = [
        (Exponential(1.0), "exp:1"),
        (Erlang(1.2, 2), "erlang:1.2,2"),
        (Erlang(6.0, 4), "erlang:6,4"),
        (Pareto(4.0, 0.35), "pareto:4,0.35"),
        (Mix2Exp(1.0, 2.0, 2.0 / 3.0), "mix2exp:1,2,0.666667"),
    ]

    @pytest.mark.parametrize(("law", "spec"), SPEC_GOLDENS, ids=repr)
    def test_spec_string_goldens(self, law, spec):
        assert law.spec_string() == spec

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(law=LAWS)
    def test_spec_string_round_trips(self, law):
        s = law.spec_string()
        assert parse_spec(s).spec_string() == s

    def test_integral_number_is_int_shape(self):
        law = parse_spec("erlang:1,2.0")
        assert law == Erlang(1.0, 2) and type(law.shape) is int

    def test_unknown_family_lists_the_families(self):
        listed = r"unknown family 'gauss' \(expected exp, erlang, pareto or mix2exp\)"
        with pytest.raises(SpecParseError, match=listed):
            parse_spec("gauss:1")

    @pytest.mark.parametrize(("law", "name", "bad"), BAD_FIELDS, ids=repr)
    def test_bad_field_names_class_and_field(self, law, name, bad):
        fields = _with_field(law, name, bad).values()
        spec = f"{law.family}:" + ",".join(map(repr, fields))
        with pytest.raises(SpecParseError, match=rf"{type(law).__name__}\b.*\b{name}\b"):
            parse_spec(spec)

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
            Erlang(1.0, True)  # a bool is an int to isinstance
        with pytest.raises(ValueError):
            Mix2Exp(1.0, 1.0, 0.5)
        with pytest.raises(ValueError):
            Pareto(1.0, -0.1)

    @pytest.mark.parametrize(("law", "name", "bad"), BAD_FIELDS, ids=repr)
    def test_bad_field_names_class_and_field(self, law, name, bad):
        with pytest.raises(ValueError, match=rf"{type(law).__name__}\b.*\b{name}\b"):
            type(law)(**_with_field(law, name, bad))

    def test_law_without_family_has_no_spec(self):
        class Bare(Distribution):
            pass

        with pytest.raises(NotImplementedError):
            Bare().spec_string()
