"""Special-function accuracy against independent high-precision oracles.

Frozen reference values were produced with mpmath at 40 significant
digits (normal cdf and Bessel I_0, I_1); the same oracles are also evaluated
at runtime for the property checks.
"""

import math
from bisect import bisect_right

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import ive, log_ndtr

from levelcross import specfun
from levelcross.specfun import (
    _I0_BANDS,
    _I0_EDGES,
    _I1_BANDS,
    _I1_EDGES,
    _log_asymptotic,
    _series,
    log_bessel_i0,
    log_bessel_i1,
    log_std_normal_cdf,
    std_normal_cdf,
)

# mpmath.ncdf / log(ncdf) at dps=40
PHI_1 = 0.8413447460685429485852325456320379224779
PHI_M1 = 0.1586552539314570514147674543679620775221
LOG_PHI_M1 = -1.841021645009263505770783073232529021548
LOG_PHI_M10 = -53.23128515051247057834702735413120987892
LOG_PHI_M50 = -1254.831361139419901254132521114271881247
LOG_PHI_M200 = -20006.2172808981904020931021903081381725

# mpmath.besseli(1, .) / log at dps=40
I1_1 = 0.5651591039924850272076960276098633073289
I1_2 = 1.590636854637329063382254424999666247954
LOG_I1_700 = 695.8049852018556523307127654055184717704
LOG_I1_1E6 = 999992.1733058128130027060016331886034188
LOG_I1_2500 = 2495.168888431356675795799459588466039919
LOG_I1_1EM8 = -19.11382792451231076906116375893309025493

# mpmath.besseli(0, .) / log at dps=40
I0_1 = 1.266065877752008335598244625214717537608
LOG_I0_700 = 695.8056999984434490768028564416435571929
LOG_I0_2500 = 2495.169088471371350468415786163304658421
LOG_I0_1E6 = 999992.173306312813252706230800167770666


class TestStdNormalCdf:
    def test_zero_is_half(self):
        assert std_normal_cdf(0.0) == 0.5

    def test_far_right_is_one(self):
        assert std_normal_cdf(40.0) == 1.0

    def test_value_at_one(self):
        assert std_normal_cdf(1.0) == pytest.approx(PHI_1, rel=1e-15)
        # independent oracle: quadrature of the density
        tail, _ = quad(lambda x: math.exp(-x * x / 2) / math.sqrt(2 * math.pi), 0, 1)
        assert std_normal_cdf(1.0) == pytest.approx(0.5 + tail, rel=1e-12)

    def test_value_at_minus_one(self):
        assert std_normal_cdf(-1.0) == pytest.approx(PHI_M1, rel=1e-15)

    def test_symmetry(self):
        for z in np.linspace(-8, 8, 161):
            assert abs(std_normal_cdf(z) + std_normal_cdf(-z) - 1.0) <= 1e-14

    def test_monotone_and_bounded(self):
        zs = np.linspace(-12, 12, 401)
        vals = [std_normal_cdf(z) for z in zs]
        assert all(0.0 <= v <= 1.0 for v in vals)
        assert all(b >= a for a, b in zip(vals, vals[1:]))


class TestLogStdNormalCdf:
    def test_zero(self):
        assert log_std_normal_cdf(0.0) == pytest.approx(math.log(0.5), rel=1e-15)

    def test_minus_one(self):
        assert log_std_normal_cdf(-1.0) == pytest.approx(LOG_PHI_M1, rel=1e-14)

    def test_deep_tail_values(self):
        assert log_std_normal_cdf(-10.0) == pytest.approx(LOG_PHI_M10, rel=1e-13)
        assert log_std_normal_cdf(-50.0) == pytest.approx(LOG_PHI_M50, rel=1e-13)
        assert log_std_normal_cdf(-200.0) == pytest.approx(LOG_PHI_M200, rel=1e-13)

    def test_agrees_with_cdf_where_representable(self):
        for z in np.linspace(-37, 8, 300):
            cdf = std_normal_cdf(z)
            if cdf >= 1e-300:
                assert math.exp(log_std_normal_cdf(z)) == pytest.approx(cdf, rel=1e-12)

    def test_agrees_with_scipy_log_ndtr(self):
        for z in np.linspace(-300, 10, 500):
            assert log_std_normal_cdf(z) == pytest.approx(float(log_ndtr(z)), rel=1e-12)

    def test_continuous_at_branch_switch(self):
        lo = log_std_normal_cdf(-12.0000001)
        hi = log_std_normal_cdf(-11.9999999)
        assert abs(lo - hi) < 1e-5
        assert lo < hi


class TestLogBesselI1:
    def test_matches_log_of_series(self):
        assert log_bessel_i1(1.0) == pytest.approx(math.log(I1_1), rel=1e-13)
        assert log_bessel_i1(2.0) == pytest.approx(math.log(I1_2), rel=1e-13)

    def test_large_argument_values(self):
        assert log_bessel_i1(700.0) == pytest.approx(LOG_I1_700, rel=1e-13)
        assert log_bessel_i1(2500.0) == pytest.approx(LOG_I1_2500, rel=1e-13)
        assert log_bessel_i1(1e6) == pytest.approx(LOG_I1_1E6, rel=1e-13)

    def test_small_argument_leading_term(self):
        # I1(z) ~ z/2 for tiny z
        assert log_bessel_i1(1e-8) == pytest.approx(LOG_I1_1EM8, rel=1e-12)
        assert log_bessel_i1(1e-8) == pytest.approx(math.log(5e-9), rel=1e-9)

    def test_against_scipy_wide_range(self):
        for z in np.geomspace(1e-3, 1e6, 400):
            ref = math.log(float(ive(1, z))) + z
            assert abs(log_bessel_i1(z) - ref) <= 1e-10 * max(1.0, abs(ref))

    def test_branches_agree_at_switch(self):
        # series and asymptotic evaluations of log I1 at the 30.0 switch
        series_val = math.log(_series(30.0, 1))
        asym_val = _log_asymptotic(30.0, _I1_EDGES, _I1_BANDS)
        assert abs(series_val - asym_val) <= 1e-10
        # d/dz log I1 ~ 1, so a 2e-9 window moves the value by ~2e-9 itself
        assert abs(log_bessel_i1(30.0 - 1e-9) - log_bessel_i1(30.0 + 1e-9)) <= 5e-9

    def test_domain(self):
        with pytest.raises(ValueError):
            log_bessel_i1(0.0)
        with pytest.raises(ValueError):
            log_bessel_i1(-1.0)


class TestLogBesselI0:
    def test_small_argument_values(self):
        assert log_bessel_i0(0.0) == 0.0
        assert log_bessel_i0(1.0) == pytest.approx(math.log(I0_1), rel=1e-13)
        # I0(z) ~ 1 + z^2/4 for tiny z
        assert log_bessel_i0(1e-4) == pytest.approx(2.5e-9, rel=1e-8)

    def test_large_argument_values(self):
        assert log_bessel_i0(700.0) == pytest.approx(LOG_I0_700, rel=1e-13)
        assert log_bessel_i0(2500.0) == pytest.approx(LOG_I0_2500, rel=1e-13)
        assert log_bessel_i0(1e6) == pytest.approx(LOG_I0_1E6, rel=1e-13)

    def test_against_scipy_wide_range(self):
        for z in np.geomspace(1e-3, 1e6, 400):
            ref = math.log(float(ive(0, z))) + z
            assert abs(log_bessel_i0(z) - ref) <= 1e-10 * max(1.0, abs(ref))

    def test_branches_agree_at_switch(self):
        series_val = math.log(_series(30.0, 0))
        asym_val = _log_asymptotic(30.0, _I0_EDGES, _I0_BANDS)
        assert abs(series_val - asym_val) <= 1e-10
        assert abs(log_bessel_i0(30.0 - 1e-9) - log_bessel_i0(30.0 + 1e-9)) <= 5e-9

    def test_domain(self):
        with pytest.raises(ValueError):
            log_bessel_i0(-1.0)


class TestAsymptoticTables:
    @pytest.mark.parametrize(
        "nu, edges, bands", [(0, _I0_EDGES, _I0_BANDS), (1, _I1_EDGES, _I1_BANDS)]
    )
    def test_truncation_bound(self, nu, edges, bands):
        # a_k(nu) z^-k by the recurrence, independent of the stored tables;
        # the first omitted term must stay below 1e-17 of the kept sum
        for z in np.geomspace(30.0, 1e6, 300):
            n = len(bands[bisect_right(edges, z, 1) - 1])
            terms = [1.0]
            for k in range(1, n + 1):
                terms.append(terms[-1] * ((2 * k - 1) ** 2 - 4 * nu * nu) / (8 * k * z))
            assert abs(terms[n]) < 1e-17 * abs(math.fsum(terms[:n]))

    def test_bands_shrink_to_one_term(self):
        for edges, bands in ((_I0_EDGES, _I0_BANDS), (_I1_EDGES, _I1_BANDS)):
            assert edges[0] == specfun._BESSEL_SWITCH
            assert all(b == 2.0 * a for a, b in zip(edges, edges[1:]))
            sizes = [len(band) for band in bands]
            assert sizes == sorted(sizes, reverse=True)
            assert sizes[-1] == 1 and sizes[0] < specfun._ASYMPTOTIC_TERMS
