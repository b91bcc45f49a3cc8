"""Closed-form approximations against direct quadrature of their integrals."""

import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from levelcross.approx import CrossingQuery, corrected_expansion, main_term
from levelcross.distributions import Erlang, Exponential, Mix2Exp, Pareto
from levelcross.errors import LevelCrossError, PrecisionError, QuadratureError
from levelcross.exact import ExpExpModel, exact_conditional
from levelcross.moments import ModelConstants, constants_for
from oracles import integral_oracle
from strategies import LAWS

EXP_PAIR = constants_for(Exponential(1.0), Exponential(1.0))


def correction_f(q, k):
    return corrected_expansion(q, k).correction_f


def correction_s(q, k):
    return corrected_expansion(q, k).correction_s


PAIRS = [
    (Exponential(1.0), Exponential(1.0)),
    (Erlang(1.2, 2), Erlang(1.0, 2)),
    (Mix2Exp(1.0, 2.0, 2.0 / 3.0), Pareto(4.0, 0.35)),
    (Erlang(6.0, 4), Pareto(4.0, 0.4)),
    (Pareto(4.0, 0.4), Pareto(4.0, 0.4)),
]


def random_query(rng, c_star):
    return CrossingQuery(
        u=rng.uniform(5.0, 60.0),
        c=rng.uniform(0.35, 1.9) * c_star,
        v=rng.uniform(0.0, 3.0),
        t=rng.uniform(5.0, 800.0) + 3.0,
    )


class TestQueryValidation:
    def test_rejects_bad_points(self):
        with pytest.raises(ValueError):
            CrossingQuery(u=0.0, c=1.0, v=0.0, t=1.0)
        with pytest.raises(ValueError):
            CrossingQuery(u=1.0, c=0.0, v=0.0, t=1.0)
        with pytest.raises(ValueError):
            CrossingQuery(u=1.0, c=1.0, v=2.0, t=2.0)  # needs v < t

    @pytest.mark.parametrize("u, c", [
        (math.inf, 1.0), (10.0, math.inf), (math.nan, 1.0), (10.0, math.nan),
    ])
    def test_rejects_non_finite_level_and_rate(self, u, c):
        with pytest.raises(ValueError, match="finite"):
            CrossingQuery(u=u, c=c, v=0.0, t=10.0)

    def test_infinite_horizon_allowed(self):
        q = CrossingQuery(u=1.0, c=1.0)
        assert q.t == math.inf


class TestTinyDriftRates:
    """At scattered drift rates below c = 1e-8 the closed forms' float
    arithmetic breaks down for the exponential pair at u = 10: c^2 D^2
    underflows, 1 - c M rounds to 1 (every c below about 5.6e-17, where
    the main term read 0.5 and the corrections up to 4e39), results
    overflow or turn nan, or the main term leaves [0, 1].  They raise
    instead of answering."""

    CLOSED_FORMS = (main_term, correction_f, correction_s)

    @pytest.mark.parametrize("c", [1e-300, 1e-170, 1e-155, 1e-30, 1e-20, 1e-18, 1e-17, 1e-12])
    @pytest.mark.parametrize("t", [math.inf, 1e4])
    def test_raise_where_arithmetic_fails(self, c, t):
        q = CrossingQuery(10.0, c, 0.0, t)
        for closed_form in self.CLOSED_FORMS:
            with pytest.raises(ValueError, match=f"c = {c!r}"):
                closed_form(q, EXP_PAIR)
        with pytest.raises(ValueError, match=f"c = {c!r}"):
            corrected_expansion(q, EXP_PAIR)

    # c^2 D^2 underflows; 1 - c M rounds to 1; the main term leaves [0, 1]
    @pytest.mark.parametrize("c", [1e-300, 1e-18, 1e-16])
    def test_breakdown_is_a_precision_error(self, c):
        with pytest.raises(PrecisionError, match=f"c = {c!r}") as caught:
            main_term(CrossingQuery(10.0, c, 0.0), EXP_PAIR)
        assert isinstance(caught.value, LevelCrossError)
        assert isinstance(caught.value, ValueError)

    @pytest.mark.parametrize("c", [1e-18, 1e-16, 1e-150])
    def test_main_term_outside_unit_interval_raises(self, c):
        with pytest.raises(ValueError, match=rf"reads -?\d.* c = {c!r}"):
            main_term(CrossingQuery(10.0, c, 0.0), EXP_PAIR)

    @pytest.mark.parametrize("c, values", [
        # correction_s is finite but meaningless at c = 1e-8 (README)
        (1e-8, (0.9873263410291907, 2.9287429580240696e-10, None)),
        (1e-4, (0.9873256083754739, 1.4625967505873187e-06, 0.0001776213029463482)),
        (0.05, (0.9869508776454559, 0.0002576430873308859, 0.0038153296458354755)),
    ])
    def test_working_values_unchanged(self, c, values):
        # recorded before the closed forms checked their results: bit-identical
        for t in (math.inf, 1e4):
            q = CrossingQuery(10.0, c, 0.0, t)
            for closed_form, value in zip(self.CLOSED_FORMS, values):
                if value is not None:
                    assert closed_form(q, EXP_PAIR) == value


class TestClosedAgainstOracle:
    def test_random_queries_all_pairs(self):
        rng = random.Random(1234)
        for t_dist, y_dist in PAIRS:
            k = constants_for(t_dist, y_dist)
            for _ in range(10):
                q = random_query(rng, k.c_star)
                for kind, closed in (
                    ("main", main_term),
                    ("first", correction_f),
                    ("second", correction_s),
                ):
                    want = integral_oracle(kind, q, k, tol=1e-8)
                    assert abs(closed(q, k) - want) <= 1e-6, (kind, q)

    def test_vanishing_horizon(self):
        q = CrossingQuery(u=10.0, c=1.0, v=1.0, t=1.0 + 1e-13)
        assert abs(main_term(q, EXP_PAIR)) < 1e-9
        assert abs(correction_f(q, EXP_PAIR)) < 1e-9
        assert abs(correction_s(q, EXP_PAIR)) < 1e-9
        assert abs(integral_oracle("main", q, EXP_PAIR, 1e-10)) < 1e-9

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            integral_oracle("third", CrossingQuery(1.0, 1.0, 0.0, 2.0), EXP_PAIR)

    def test_oracle_requires_finite_horizon(self):
        with pytest.raises(QuadratureError):
            integral_oracle("main", CrossingQuery(1.0, 1.0), EXP_PAIR)


class TestMainTermProperties:
    def test_bounded_and_monotone_in_t(self):
        for c in (0.6, 1.0, 1.4):
            prev = 0.0
            for t in (1.0, 5.0, 20.0, 100.0, 500.0, 5000.0):
                val = main_term(CrossingQuery(12.0, c, 0.5, t), EXP_PAIR)
                assert -1e-9 <= val <= 1.0 + 1e-9
                assert val >= prev - 1e-12
                prev = val

    def test_finite_horizon_approaches_infinite(self):
        # off the critical rate the bracket endpoint converges like a
        # Gaussian tail; at c = c* only like 1/sqrt(t)
        for c in (0.7, 1.5):
            lim = main_term(CrossingQuery(10.0, c, 0.0), EXP_PAIR)
            big = main_term(CrossingQuery(10.0, c, 0.0, 1e7), EXP_PAIR)
            assert lim == pytest.approx(big, abs=1e-9)
        lim = main_term(CrossingQuery(10.0, 1.0, 0.0), EXP_PAIR)
        gaps = [
            lim - main_term(CrossingQuery(10.0, 1.0, 0.0, t), EXP_PAIR)
            for t in (1e6, 1e8)
        ]
        assert 0.0 < gaps[1] < gaps[0] < 0.01

    def test_no_jump_at_critical_rate(self):
        # the drift term vanishes at c = c*; the closed form must pass
        # through it smoothly (finite slope, no special-casing)
        for t in (100.0, math.inf):
            lo = main_term(CrossingQuery(25.0, 1.0 - 1e-8, 0.0, t), EXP_PAIR)
            mid = main_term(CrossingQuery(25.0, 1.0, 0.0, t), EXP_PAIR)
            hi = main_term(CrossingQuery(25.0, 1.0 + 1e-8, 0.0, t), EXP_PAIR)
            assert abs(lo - hi) <= 1e-6
            assert min(lo, hi) - 1e-6 <= mid <= max(lo, hi) + 1e-6

    def test_infinite_horizon_value_in_unit_interval(self):
        val = main_term(CrossingQuery(10.0, 1.0, 0.0), EXP_PAIR)
        assert 0.0 < val < 1.0

    @settings(max_examples=300, deadline=None)
    @given(
        t_dist=LAWS, y_dist=LAWS, u=st.floats(0.1, 500.0),
        rate=st.one_of(st.just(1.0), st.floats(0.05, 20.0)), v=st.floats(0.0, 10.0),
        spans=st.lists(st.floats(1e-6, 1e6), max_size=6),
    )
    def test_all_families_finite_bounded_and_monotone(self, t_dist, y_dist, u, rate, v, spans):
        # c is a multiple of c* (often c* itself); the horizons ascend to t = inf
        k = constants_for(t_dist, y_dist)
        c = rate * k.c_star
        prev = -math.inf
        for t in [*sorted(v + span for span in spans), math.inf]:
            q = CrossingQuery(u, c, v, t)
            main = main_term(q, k)
            assert all(map(math.isfinite, vars(corrected_expansion(q, k)).values()))
            assert -1e-12 <= main <= 1.0 + 1e-12
            assert main >= prev - 1e-12  # rounding only
            prev = main

    def test_astronomical_finite_horizon(self):
        # intermediates like (x*drift)^2 must not overflow before the
        # Gaussian factor underflows
        for c in (0.5, 1.0, 2.0):
            q = CrossingQuery(10.0, c, 0.0, 1e290)
            for fn in (main_term, correction_f, correction_s):
                assert math.isfinite(fn(q, EXP_PAIR))


class TestCorrections:
    def test_small_at_large_level(self):
        q = CrossingQuery(50.0, 1.0, 0.0, 1000.0)
        assert abs(correction_f(q, EXP_PAIR)) <= 0.2
        assert abs(correction_s(q, EXP_PAIR)) <= 0.2

    def test_decay_in_level(self):
        # both corrections are O(1/(u+cv)): at the critical rate with an
        # unbounded horizon, doubling u roughly halves them
        f50 = correction_f(CrossingQuery(50.0, 1.0, 0.0), EXP_PAIR)
        f100 = correction_f(CrossingQuery(100.0, 1.0, 0.0), EXP_PAIR)
        assert 0.3 <= abs(f100) / abs(f50) <= 0.8
        s50 = correction_s(CrossingQuery(50.0, 1.0, 0.0), EXP_PAIR)
        s100 = correction_s(CrossingQuery(100.0, 1.0, 0.0), EXP_PAIR)
        assert 0.3 <= abs(s100) / abs(s50) <= 0.8


class TestCorrectedExpansion:
    def test_identity(self):
        q = CrossingQuery(20.0, 0.9, 1.0, 300.0)
        res = corrected_expansion(q, EXP_PAIR)
        kf, ks = EXP_PAIR.kf_coeff / q.c, EXP_PAIR.ks_coeff / q.c
        rebuilt = res.main + kf * res.correction_f + ks * res.correction_s
        assert res.corrected == rebuilt

    def test_zero_coefficients_reduce_to_main(self):
        k = ModelConstants(M=1.0, D2=2.0, c_star=1.0, kf_coeff=0.0, ks_coeff=0.0)
        q = CrossingQuery(20.0, 0.9, 1.0, 300.0)
        assert corrected_expansion(q, k).corrected == main_term(q, k)

    def test_sits_below_exact_at_moderate_level(self):
        model = ExpExpModel(1.0, 1.0)
        for c in (0.5, 0.8, 1.0, 1.3, 1.8):
            q = CrossingQuery(50.0, c, 0.0, 1000.0)
            corr = corrected_expansion(q, EXP_PAIR).corrected
            assert corr <= exact_conditional(model, q) + 2e-3

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(t_dist=LAWS, y_dist=LAWS)
    def test_certain_crossing_at_the_critical_rate(self, t_dist, y_dist):
        # at c* the increments have zero drift, so at t = inf the level is
        # crossed for sure; at u = 800 E[Y] the main term reads 1, and the
        # corrections, which do not vanish there, stand 1 : 3
        k = constants_for(t_dist, y_dist)
        res = corrected_expansion(CrossingQuery(800.0 * y_dist.moments().mean, k.c_star), k)
        assert 1.0 - res.main <= 1e-12
        assert abs(res.correction_s / res.correction_f - 3.0) <= 1e-12

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(t_dist=LAWS, mu=st.floats(0.2, 5.0), frac=st.floats(0.01, 1.0))
    @example(t_dist=Exponential(1.0), mu=1.0, frac=1.0)
    def test_critical_rate_bias_with_exponential_jumps(self, t_dist, mu, frac):
        # with Exp(mu) jumps, at c = frac c* <= c* and t = inf, where the
        # level is crossed for sure, the corrected expansion falls short of
        # 1 by 2 frac/(mu u), 2/(mu u) at c*, whatever the gap law; at
        # Pareto gaps of shape near 3 the weighted corrections reach 1e13
        # and cancel, so their sum rounds by a few ulps of that
        k = constants_for(t_dist, Exponential(mu))
        q = CrossingQuery(800.0 / mu, frac * k.c_star)
        res = corrected_expansion(q, k)
        terms = abs(k.kf_coeff / q.c * res.correction_f) + abs(k.ks_coeff / q.c * res.correction_s)
        bias = mu * q.u * (1.0 - res.corrected)
        assert abs(bias - 2.0 * frac) <= 1e-9 + 2.0**-48 * mu * q.u * terms

    def test_negligible_far_above_critical_rate(self):
        # heavy-tail pair far above c*: crossing within the horizon is rare
        k = constants_for(Pareto(4.0, 0.4), Pareto(4.0, 0.4))
        q = CrossingQuery(40.0, 2.0, 0.0, 1000.0)
        res = corrected_expansion(q, k)
        assert abs(res.main) <= 0.05
        assert abs(res.corrected) <= 0.05


class TestErrorOrder:
    """Order in the level u of the closed forms' error against the exact
    formula, for the exponential pair in the diffusion scaling
    c = 1 + a/u, t = b u^2 (a in {-1, 0, 1}, b in {0.1, 0.3, 1}), v = 0.

    Both the main term and the corrected expansion err by O(1/u): the
    worst errors over the nine (a, b) at u = 80, 160, 320, 640 are
    5.88e-3, 2.93e-3, 1.46e-3, 7.29e-4 (main) and 2.63e-2, 1.32e-2,
    6.63e-3, 3.32e-3 (corrected), so the corrections do not yet remove
    the 1/u term.  This pins what holds now.  A fix of the corrections
    must come from an independent derivation of the O(1/u) term (ROADMAP,
    open item 2), and this test is then updated from that derivation,
    never refitted to the new numbers."""

    LEVELS = (80, 160, 320, 640)

    def worst_errors(self, u):
        model = ExpExpModel(1.0, 1.0)
        main_err = corrected_err = 0.0
        for a in (-1, 0, 1):
            for b in (0.1, 0.3, 1.0):
                q = CrossingQuery(float(u), 1.0 + a / u, 0.0, b * u * u)
                exact = exact_conditional(model, q)
                res = corrected_expansion(q, EXP_PAIR)
                main_err = max(main_err, abs(exact - res.main))
                corrected_err = max(corrected_err, abs(exact - res.corrected))
        return main_err, corrected_err

    def test_both_errors_fall_like_one_over_u(self):
        xs = [math.log(u) for u in self.LEVELS]
        errors = [self.worst_errors(u) for u in self.LEVELS]
        for column in (0, 1):
            ys = [math.log(e[column]) for e in errors]
            mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
            slope = sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum(
                (x - mx) ** 2 for x in xs
            )
            assert -1.1 <= slope <= -0.9, (column, slope, errors)


GOLDEN_PAIRS = {
    "exp": (Exponential(1.0), Exponential(1.0)),
    "erlang": (Erlang(1.2, 2), Erlang(1.0, 2)),
    "mix2exp": (Mix2Exp(1.0, 3.0, 2.0 / 3.0), Mix2Exp(1.0, 2.0, 2.0 / 3.0)),
    "pareto": (Pareto(4.0, 0.4), Pareto(4.0, 0.35)),
}


def _outcome(closed_form, q, k):
    """("value", float.hex of the value) or ("error", repr of the error)."""
    try:
        return "value", closed_form(q, k).hex()
    except (ArithmeticError, ValueError) as err:
        return "error", repr(err)


class TestGoldenValues:
    """Bit-exact values of the closed forms at u = 10, v = 0.5 for the four
    families at 0.7 c*, c* and 1.3 c*, at t = 200 and t = inf.  At c* the
    drift 1 - c M is 0 for exp, erlang and pareto and 1.1e-16 for mix2exp,
    so the t = inf points take all three limits (drift > 0, = 0, < 0).
    Recorded as float.hex (main, correction_f, correction_s, corrected)
    before the closed forms shared one endpoint pass."""

    @pytest.mark.parametrize("pair, rate, t, want", [
        ("exp", 0.7, 200.0, ("0x1.f64de6550f11ep-1", "-0x1.4272e7b70c69ap-4", "-0x1.54eec1c2d15bcp-3", "0x1.c978061dc7406p-1")),
        ("exp", 0.7, math.inf, ("0x1.f6aca0eb89fdbp-1", "-0x1.41be741dd7320p-4", "-0x1.5172afb4a2cd6p-3", "0x1.ca2e7530ef8ffp-1")),
        ("exp", 1.0, 200.0, ("0x1.2c449eb9d72f6p-1", "-0x1.3cf7c80e9024ep-3", "-0x1.66323457c6dfep-2", "0x1.d75db75beaa22p-2")),
        ("exp", 1.0, math.inf, ("0x1.f4c3649093960p-1", "-0x1.49df537789f93p-3", "-0x1.67326f2bf1f7ep-2", "0x1.b33f21739cb77p-1")),
        ("exp", 1.3, 200.0, ("0x1.fc05e8b5ae33cp-4", "-0x1.6c1da3231868bp-4", "-0x1.89476215cc44bp-2", "0x1.0ef50f776786ep-5")),
        ("exp", 1.3, math.inf, ("0x1.fd3910fc6e088p-4", "-0x1.6c84040b2ec17p-4", "-0x1.8a5984325853dp-2", "0x1.0f8e415855e34p-5")),
        ("erlang", 0.7, 200.0, ("0x1.f6c64ae6074d7p-1", "-0x1.40b9174a5b4bap-4", "-0x1.52b9bffcef494p-3", "0x1.bbe52e88ce5b9p-1")),
        ("erlang", 0.7, math.inf, ("0x1.f6dc99936736ep-1", "-0x1.408d0e31cc8b1p-4", "-0x1.51aa05c599adap-3", "0x1.bc17aea674f1dp-1")),
        ("erlang", 1.0, 200.0, ("0x1.3a70bd6aaa94fp-1", "-0x1.3dc9c2d81c2e3p-3", "-0x1.6677a1dd5a7fep-2", "0x1.cbd121a7f77e4p-2")),
        ("erlang", 1.0, math.inf, ("0x1.f514d57fa2a51p-1", "-0x1.4806df9e03c1ap-3", "-0x1.67260e9d4a4cap-2", "0x1.9f2f37b838e35p-1")),
        ("erlang", 1.3, 200.0, ("0x1.f28e14389abcap-4", "-0x1.6504a9d8aff63p-4", "-0x1.867373ea34c92p-2", "0x1.e725a67524de0p-7")),
        ("erlang", 1.3, math.inf, ("0x1.f309a28fe7ef8p-4", "-0x1.652d4a6ec56d9p-4", "-0x1.86eee95031822p-2", "0x1.e78d589f60940p-7")),
        ("mix2exp", 0.7, 200.0, ("0x1.f574e4c5cc2f5p-1", "-0x1.4802112c97d00p-4", "-0x1.52bfe5ca30afcp-3", "0x1.cea964c5b164cp-1")),
        ("mix2exp", 0.7, math.inf, ("0x1.f5b7a9b8d92c9p-1", "-0x1.4780f81e15220p-4", "-0x1.501e11f15652cp-3", "0x1.cf2cb391b5d92p-1")),
        ("mix2exp", 1.0, 200.0, ("0x1.33a97a3335b6ap-1", "-0x1.4465d07206368p-3", "-0x1.66461c7b01a59p-2", "0x1.f5f57f024ff64p-2")),
        ("mix2exp", 1.0, math.inf, ("0x1.f3a3e7fa6e344p-1", "-0x1.500b17b74106fp-3", "-0x1.6718cc7144459p-2", "0x1.ba758f1b9c652p-1")),
        ("mix2exp", 1.3, 200.0, ("0x1.0b40ce0387700p-3", "-0x1.7f216ae7021c4p-4", "-0x1.91bf05e8ac3f8p-2", "0x1.6656bb7996094p-5")),
        ("mix2exp", 1.3, math.inf, ("0x1.0bc4e5d60224bp-3", "-0x1.7f78f8ee80afep-4", "-0x1.92ad2af7a0db4p-2", "0x1.66deda3628f14p-5")),
        ("pareto", 0.7, 200.0, ("0x1.d5834d7744649p-1", "-0x1.912afbf920c9ap-4", "-0x1.0383db1c2d9dcp-3", "0x1.b563244730bb2p-1")),
        ("pareto", 0.7, math.inf, ("0x1.d7340fd0669a0p-1", "-0x1.8dd17c8f060ecp-4", "-0x1.f04712d6d8790p-4", "0x1.b82b11e8303b2p-1")),
        ("pareto", 1.0, 200.0, ("0x1.429bd0dbbb357p-1", "-0x1.9e4286916e872p-3", "-0x1.257a44b700e9ap-2", "0x1.10fa74104fa41p-1")),
        ("pareto", 1.0, math.inf, ("0x1.cefa4b537cbb5p-1", "-0x1.a66aff717ae4cp-3", "-0x1.25c6c48a4c972p-2", "0x1.9d0e1ac6a7515p-1")),
        ("pareto", 1.3, 200.0, ("0x1.01b7fef1c9da8p-2", "-0x1.7215d7d64d116p-3", "-0x1.b06b88507aa98p-2", "0x1.398974b4f0cfcp-3")),
        ("pareto", 1.3, math.inf, ("0x1.03c3f09a3c90ep-2", "-0x1.736d475dd1a34p-3", "-0x1.b4eb1aae4c0e0p-2", "0x1.3bc568b242cccp-3")),
    ])
    def test_values(self, pair, rate, t, want):
        k = constants_for(*GOLDEN_PAIRS[pair])
        res = corrected_expansion(CrossingQuery(10.0, rate * k.c_star, 0.5, t), k)
        assert tuple(x.hex() for x in vars(res).values()) == want

    @settings(max_examples=300, deadline=None)
    @given(
        t_dist=LAWS, y_dist=LAWS, u=st.floats(0.1, 500.0),
        log_rate=st.one_of(st.just(0.0), st.floats(-20.0, 2.0)), v=st.floats(0.0, 10.0),
        span=st.one_of(st.just(math.inf), st.floats(1e-6, 1e6)),
    )
    def test_each_form_is_its_field_of_the_expansion(self, t_dist, y_dist, u, log_rate, v, span):
        # c runs from 1e-20 c* to 100 c*, so some queries raise
        k = constants_for(t_dist, y_dist)
        q = CrossingQuery(u, 10.0**log_rate * k.c_star, v, v + span)
        single = _outcome(main_term, q, k)
        try:
            res = corrected_expansion(q, k)
        except (ArithmeticError, ValueError) as err:
            # the expansion raises main_term's error, else a correction's
            assert single[0] == "value" or single == ("error", repr(err))
        else:
            assert single == ("value", res.main.hex())
