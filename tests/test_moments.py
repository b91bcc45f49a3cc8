"""Model constants: generic moment formulas versus pair closed forms.

The generic route is the defining one.  Reference values below are exact
rational evaluations of the moment displays, rounded once to float: the
``fractions.Fraction`` derivation from textbook raw moments in
``tests/test_acceptance.py`` (``exact_kf_ks``) reproduces MIX_PARETO_KF and
MIX_PARETO_KS bit for bit.  The Pareto-Mix2Exp and Pareto-Pareto closed
forms in ``tests/oracles.py`` are the corrected versions that agree with
the generic route.
"""

import random

import pytest

from levelcross.distributions import Erlang, Exponential, Mix2Exp, MomentSet, Pareto
from levelcross.errors import MomentUndefinedError
from levelcross.moments import constants_for, model_constants_generic
from oracles import UnsupportedPairError, model_constants_lemma

# exact rational evaluations of the generic displays (Fraction arithmetic)
MIX_PARETO_KF = 1.1614439077986587  # Pareto(4,0.35) jumps, Mix2Exp(1,2,2/3) gaps
MIX_PARETO_KS = 0.03479295900382265
ERLANG_PARETO_KF = 2.731481481481481  # 8496/3110.4: Pareto(4,0.4) jumps, Erlang(6,4) gaps
ERLANG_PARETO_KS = -0.2623456790123457  # -2448/9331.2


def rel_gap(x, y):
    if x == y:
        return 0.0
    return abs(x - y) / max(abs(x), abs(y))


class TestGenericExponential:
    def test_unit_rates(self):
        k = constants_for(Exponential(1.0), Exponential(1.0))
        assert k.M == pytest.approx(1.0, rel=1e-15)
        assert k.D2 == pytest.approx(2.0, rel=1e-15)
        assert k.c_star == pytest.approx(1.0, rel=1e-15)
        assert k.kf_coeff == pytest.approx(0.25, rel=1e-13)
        assert k.ks_coeff == pytest.approx(0.25, rel=1e-13)

    def test_closed_forms_on_rate_grid(self):
        # M = mu/lam, D2 = 2 mu/lam^2, K_F = K_S = lam/(4 mu c)
        for lam in (0.5, 1.0, 1.7, 3.0):
            for mu in (0.4, 1.0, 2.5):
                k = constants_for(Exponential(lam), Exponential(mu))
                assert k.M == pytest.approx(mu / lam, rel=1e-13)
                assert k.D2 == pytest.approx(2 * mu / lam**2, rel=1e-13)
                assert k.kf_coeff == pytest.approx(lam / (4 * mu), rel=1e-12)
                assert k.ks_coeff == pytest.approx(lam / (4 * mu), rel=1e-12)


class TestPublishedConstantSets:
    def test_erlang_erlang(self):
        k = constants_for(Erlang(1.2, 2), Erlang(1.0, 2))
        assert k.c_star == pytest.approx(1.2, rel=1e-13)
        assert k.D2 == pytest.approx(25 / 18, rel=1e-13)
        assert k.kf_coeff == pytest.approx(0.6, rel=1e-12)
        assert k.ks_coeff == pytest.approx(0.3, rel=1e-12)

    def test_pareto_mix(self):
        k = constants_for(Mix2Exp(1.0, 2.0, 2.0 / 3.0), Pareto(4.0, 0.35))
        assert k.c_star == pytest.approx(8 / 7, rel=1e-13)
        assert k.D2 == pytest.approx(2.3041666666666667, rel=1e-13)
        assert k.kf_coeff == pytest.approx(MIX_PARETO_KF, rel=1e-12)
        assert k.ks_coeff == pytest.approx(MIX_PARETO_KS, rel=1e-12)

    def test_pareto_erlang(self):
        k = constants_for(Erlang(6.0, 4), Pareto(4.0, 0.4))
        assert k.c_star == pytest.approx(1.25, rel=1e-13)
        assert k.D2 == pytest.approx(1.2, rel=1e-13)
        assert k.kf_coeff == pytest.approx(ERLANG_PARETO_KF, rel=1e-12)
        assert k.ks_coeff == pytest.approx(ERLANG_PARETO_KS, rel=1e-12)

    def test_pareto_pareto(self):
        k = constants_for(Pareto(4.0, 0.4), Pareto(4.0, 0.4))
        assert k.c_star == pytest.approx(1.0, rel=1e-13)
        assert k.D2 == pytest.approx(10 / 3, rel=1e-13)
        assert k.kf_coeff == pytest.approx(0.125, rel=1e-12)
        assert k.ks_coeff == pytest.approx(0.25, rel=1e-12)


def _random_pairs(rng):
    """(T, Y) tuples inside each supported pair's validity domain."""
    lam = rng.uniform(0.3, 4.0)
    mu = rng.uniform(0.3, 4.0)
    yield Exponential(lam), Exponential(mu)
    yield Erlang(lam, rng.randint(1, 6)), Erlang(mu, rng.randint(1, 6))
    yield Erlang(lam, rng.randint(1, 6)), Exponential(mu)
    a = rng.uniform(3.1, 8.0)
    b = rng.uniform(0.1, 2.0)
    yield Erlang(lam, rng.randint(1, 6)), Pareto(a, b)
    l1 = rng.uniform(0.3, 2.0)
    yield Mix2Exp(l1, l1 + rng.uniform(0.2, 3.0), rng.uniform(0.02, 0.98)), Pareto(a, b)
    yield Pareto(rng.uniform(3.1, 8.0), rng.uniform(0.1, 2.0)), Pareto(a, b)


class TestLemmaAgainstGeneric:
    def test_random_tuples(self):
        rng = random.Random(20260809)
        for _ in range(200):
            for t_dist, y_dist in _random_pairs(rng):
                gen = constants_for(t_dist, y_dist)
                lem = model_constants_lemma(t_dist, y_dist)
                for name in ("M", "D2", "c_star", "kf_coeff", "ks_coeff"):
                    g, l = getattr(gen, name), getattr(lem, name)
                    assert rel_gap(g, l) <= 1e-9 or abs(g - l) <= 1e-12, (
                        name,
                        t_dist,
                        y_dist,
                        g,
                        l,
                    )

    def test_erlang_pair_degenerates_to_exponential(self):
        lem = model_constants_lemma(Erlang(1.4, 1), Erlang(0.9, 1))
        exp = model_constants_lemma(Exponential(1.4), Exponential(0.9))
        for name in ("M", "D2", "kf_coeff", "ks_coeff"):
            assert getattr(lem, name) == pytest.approx(getattr(exp, name), rel=1e-13)

    def test_unsupported_pair(self):
        with pytest.raises(UnsupportedPairError):
            model_constants_lemma(Exponential(1.0), Erlang(1.0, 2))
        with pytest.raises(UnsupportedPairError):
            model_constants_lemma(Pareto(4.0, 1.0), Exponential(1.0))

    def test_lemma_needs_third_pareto_moment(self):
        with pytest.raises(MomentUndefinedError):
            model_constants_lemma(Erlang(1.0, 2), Pareto(2.5, 1.0))


class TestInvariants:
    def test_c_star_inverse_of_m(self):
        rng = random.Random(7)
        for _ in range(50):
            for t_dist, y_dist in _random_pairs(rng):
                k = constants_for(t_dist, y_dist)
                assert k.c_star * k.M == pytest.approx(1.0, rel=1e-14)

    def test_degenerate_variance_rejected(self):
        flat = MomentSet(mean=1.0, variance=0.0, central3=0.0)
        with pytest.raises(MomentUndefinedError):
            model_constants_generic(flat, flat)

    def test_non_finite_constants_rejected(self):
        # finite moments whose products overflow: D^2 read inf, K_F and K_S nan
        with pytest.raises(MomentUndefinedError, match="float range"):
            constants_for(Erlang(1.48028e-102, 5), Erlang(7.01289e-61, 5))

    def test_generic_rejects_non_finite_constants(self):
        # the defining formula rejects what constants_for rejects
        t, y = Erlang(1.48028e-102, 5).moments(), Erlang(7.01289e-61, 5).moments()
        with pytest.raises(OverflowError, match="float range"):
            model_constants_generic(t, y)
