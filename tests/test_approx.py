"""Closed-form approximations against direct quadrature of their integrals."""

import math
import random

import pytest

from levelcross.approx import (
    CrossingQuery,
    corrected_expansion,
    first_correction,
    main_term,
    second_correction,
)
from levelcross.distributions import Erlang, Exponential, Mix2Exp, Pareto
from levelcross.errors import QuadratureError
from levelcross.exact import ExpExpModel, exact_conditional
from levelcross.moments import ModelConstants, constants_for
from oracles import integral_oracle

EXP_PAIR = constants_for(Exponential(1.0), Exponential(1.0))

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


class TestClosedAgainstOracle:
    def test_random_queries_all_pairs(self):
        rng = random.Random(1234)
        for t_dist, y_dist in PAIRS:
            k = constants_for(t_dist, y_dist)
            for _ in range(10):
                q = random_query(rng, k.c_star)
                for kind, closed in (
                    ("main", main_term),
                    ("first", first_correction),
                    ("second", second_correction),
                ):
                    want = integral_oracle(kind, q, k, tol=1e-8)
                    assert abs(closed(q, k) - want) <= 1e-6, (kind, q)

    def test_vanishing_horizon(self):
        q = CrossingQuery(u=10.0, c=1.0, v=1.0, t=1.0 + 1e-13)
        assert abs(main_term(q, EXP_PAIR)) < 1e-9
        assert abs(first_correction(q, EXP_PAIR)) < 1e-9
        assert abs(second_correction(q, EXP_PAIR)) < 1e-9
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

    def test_astronomical_finite_horizon(self):
        # intermediates like (x*drift)^2 must not overflow before the
        # Gaussian factor underflows
        for c in (0.5, 1.0, 2.0):
            q = CrossingQuery(10.0, c, 0.0, 1e290)
            for fn in (main_term, first_correction, second_correction):
                assert math.isfinite(fn(q, EXP_PAIR))


class TestCorrections:
    def test_small_at_large_level(self):
        q = CrossingQuery(50.0, 1.0, 0.0, 1000.0)
        assert abs(first_correction(q, EXP_PAIR)) <= 0.2
        assert abs(second_correction(q, EXP_PAIR)) <= 0.2

    def test_decay_in_level(self):
        # both corrections are O(1/(u+cv)): at the critical rate with an
        # unbounded horizon, doubling u roughly halves them
        f50 = first_correction(CrossingQuery(50.0, 1.0, 0.0), EXP_PAIR)
        f100 = first_correction(CrossingQuery(100.0, 1.0, 0.0), EXP_PAIR)
        assert 0.3 <= abs(f100) / abs(f50) <= 0.8
        s50 = second_correction(CrossingQuery(50.0, 1.0, 0.0), EXP_PAIR)
        s100 = second_correction(CrossingQuery(100.0, 1.0, 0.0), EXP_PAIR)
        assert 0.3 <= abs(s100) / abs(s50) <= 0.8


class TestCorrectedExpansion:
    def test_identity(self):
        q = CrossingQuery(20.0, 0.9, 1.0, 300.0)
        res = corrected_expansion(q, EXP_PAIR)
        rebuilt = res.main + EXP_PAIR.kf(q.c) * res.correction_f + EXP_PAIR.ks(
            q.c
        ) * res.correction_s
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

    def test_negligible_far_above_critical_rate(self):
        # heavy-tail pair far above c*: crossing within the horizon is rare
        k = constants_for(Pareto(4.0, 0.4), Pareto(4.0, 0.4))
        q = CrossingQuery(40.0, 2.0, 0.0, 1000.0)
        res = corrected_expansion(q, k)
        assert abs(res.main) <= 0.05
        assert abs(res.corrected) <= 0.05
