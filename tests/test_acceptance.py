"""Acceptance gate: every shipped guarantee, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion with its runtime.

Erratum in criterion 1: the published K_F*c = 1.04 and K_S*c = 0.076 for
the Mix2Exp(1,2,2/3)-gaps / Pareto(4,0.35)-jumps pair are misprinted; the
defining moment formulas give 1.1614439077986587 and 0.03479295900382265.
With S = t3 - M^3*y3 (t3, y3 the third central moments of T and Y,
M = ET/EY) the formulas split as

    K_F*c = -S/(2*D^4*EY) + ET/(2*D^2)
    K_S*c =  S/(6*D^4*EY) + ET*DY/(2*D^2*EY^2)

and the published sets pin them as follows:

* exp-exp and erlang-erlang (equal shapes) and pareto-pareto (identical
  laws) have S = 0, so they check only the S-free parts;
* pareto-erlang has S = -5.89 and its published 2.73 / -0.26 match: it is
  the published check on the skewness term;
* K_F*c + 3*K_S*c = ET*(EY^2 + 3*DY)/(2*D^2*EY^2) does not involve S.  For
  the Mix2Exp pair the formulas give 1.26582 and the published values give
  1.04 + 3*0.076 = 1.268 +- 0.013; its published c* and D^2 match too.

So the published Mix2Exp pair is the same formula evaluated at S = -8.68
instead of -9.917, e.g. with a gap third central moment near 2.89 instead
of 1.6574; which upstream quantity was misprinted is not recoverable.
Criterion 1 therefore checks that pair's c*, D^2 and S-free sum against
the published digits, and K_F*c, K_S*c one by one against erratum values
derived below in exact rational arithmetic from textbook raw moments.
"""

import functools
import hashlib
import math
import random
import time
from fractions import Fraction

import pytest

from levelcross.approx import CrossingQuery, corrected_expansion, main_term
from levelcross.cli import main as cli_main
from levelcross.distributions import Erlang, Exponential, Mix2Exp, Pareto
from levelcross.exact import ExpExpModel, exact_conditional, series_oracle
from levelcross.moments import constants_for
from levelcross.sim import DEFAULT_SEED, LcgStream, substream_seed
from levelcross.sweep import SweepGrid, sweep_c
from oracles import integral_oracle, model_constants_lemma

UNIT = ExpExpModel(1.0, 1.0)
EXP_K = constants_for(Exponential(1.0), Exponential(1.0))


def criterion(number, name, budget_s):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number} [{name}]: FAIL")
                raise
            elapsed = time.perf_counter() - start
            print(f"ACCEPTANCE {number} [{name}]: PASS ({elapsed:.1f}s)")
            assert elapsed < budget_s, f"runtime {elapsed:.1f}s exceeds budget {budget_s}s"

        return wrapper

    return deco


# --------------------------------------------------------------------------
# 1. constants reproduce the published reference sets (printed precision)

PUBLISHED_SETS = [
    ("exp-exp", "exp:1", "exp:1", {"c_star": "1", "D2": "2", "KF*c": "0.25", "KS*c": "0.25"}),
    ("erlang-erlang", "erlang:1.2,2", "erlang:1,2",
     {"c_star": "1.2", "D2": "1.39", "KF*c": "0.6", "KS*c": "0.3"}),
    ("pareto-mix2exp", "mix2exp:1,2,0.66666666666666667", "pareto:4,0.35",
     {"c_star": "1.143", "D2": "2.304", "KF*c": "1.04", "KS*c": "0.076"}),
    ("pareto-erlang", "erlang:6,4", "pareto:4,0.4",
     {"c_star": "1.25", "D2": "1.2", "KF*c": "2.73", "KS*c": "-0.26"}),
    ("pareto-pareto", "pareto:4,0.4", "pareto:4,0.4",
     {"c_star": "1", "D2": "3.333", "KF*c": "0.125", "KS*c": "0.25"}),
]


def printed_tolerance(text: str) -> float:
    """One unit in the last printed digit of the reference value."""
    mantissa = text.lstrip("-")
    if "." in mantissa:
        return 10.0 ** -(len(mantissa) - mantissa.index(".") - 1)
    return 1.0


def mix2exp_raw_moments(rate1, rate2, p):
    """E T^k = k! (p/rate1^k + q/rate2^k), k = 1, 2, 3."""
    q = 1 - p
    return [math.factorial(k) * (p / rate1**k + q / rate2**k) for k in (1, 2, 3)]


def lomax_raw_moments(shape, b):
    """Pareto (Lomax, scale 1/b): E Y^k = k! / (b^k (a-1)...(a-k)), k = 1, 2, 3."""
    return [math.factorial(k) / (b**k * math.prod(range(shape - k, shape))) for k in (1, 2, 3)]


def exact_kf_ks(t_raw, y_raw):
    """K_F*c and K_S*c in exact rationals, split around the skewness term S."""

    def central(raw):
        m1, m2, m3 = raw
        return m1, m2 - m1**2, m3 - 3 * m1 * m2 + 2 * m1**3

    et, dt, t3 = central(t_raw)
    ey, dy, y3 = central(y_raw)
    d2 = (et**2 * dy + ey**2 * dt) / ey**3
    s = t3 - (et / ey) ** 3 * y3
    kf = -s / (2 * d2**2 * ey) + et / (2 * d2)
    ks = s / (6 * d2**2 * ey) + et * dy / (2 * d2 * ey**2)
    return {"KF*c": float(kf), "KS*c": float(ks)}


# corrected values that replace misprinted published ones (module docstring)
ERRATA = {
    "pareto-mix2exp": exact_kf_ks(
        mix2exp_raw_moments(Fraction(1), Fraction(2), Fraction(2, 3)),
        lomax_raw_moments(4, Fraction(35, 100)),
    ),
}


@pytest.mark.parametrize("label,t_spec,y_spec,expected", PUBLISHED_SETS,
                         ids=[s[0] for s in PUBLISHED_SETS])
def test_criterion_1_constants(label, t_spec, y_spec, expected, capsys, recwarn):
    @criterion(1, f"constants {label}", 1.0)
    def body():
        assert cli_main(["constants", "--t", t_spec, "--y", y_spec]) == 0
        out = capsys.readouterr().out
        got = {}
        for line in out.splitlines():
            key, _, val = line.partition("=")
            got[key.strip()] = val.strip()
        errata = ERRATA.get(label, {})
        for key, want_text in expected.items():
            if key in errata:
                continue
            want = float(want_text)
            tol = printed_tolerance(want_text)
            assert abs(float(got[key]) - want) <= tol, (
                f"{label}: {key} = {got[key]} but the published set prints {want_text} "
                f"(tolerance {tol:g})"
            )
        # K_F*c + 3 K_S*c is free of the skewness term, so it pins every
        # published set, the erratum pair included
        kf_text, ks_text = expected["KF*c"], expected["KS*c"]
        want = float(kf_text) + 3.0 * float(ks_text)
        tol = printed_tolerance(kf_text) + 3.0 * printed_tolerance(ks_text)
        have = float(got["KF*c"]) + 3.0 * float(got["KS*c"])
        assert abs(have - want) <= tol, (
            f"{label}: KF*c + 3 KS*c = {have!r} but the published set gives "
            f"{kf_text} + 3*{ks_text} (tolerance {tol:g})"
        )
        # the CLI prints 12 significant digits
        for key, want in errata.items():
            assert math.isclose(float(got[key]), want, rel_tol=1e-11), (
                f"{label}: {key} = {got[key]} but the erratum value is {want!r} "
                f"(published {expected[key]} is misprinted, see the module docstring)"
            )

    body()


# --------------------------------------------------------------------------
# 2. pair closed forms agree with the generic moment route


@criterion(2, "lemma vs generic, 200 tuples/pair", 5.0)
def test_criterion_2_lemma_agreement():
    rng = random.Random(20260809)

    def pairs():
        lam, mu = rng.uniform(0.3, 4.0), rng.uniform(0.3, 4.0)
        a, b = rng.uniform(3.1, 8.0), rng.uniform(0.1, 2.0)
        l1 = rng.uniform(0.3, 2.0)
        yield Exponential(lam), Exponential(mu)
        yield Erlang(lam, rng.randint(1, 6)), Erlang(mu, rng.randint(1, 6))
        yield Erlang(lam, rng.randint(1, 6)), Exponential(mu)
        yield Erlang(lam, rng.randint(1, 6)), Pareto(a, b)
        yield Mix2Exp(l1, l1 + rng.uniform(0.2, 3.0), rng.uniform(0.02, 0.98)), Pareto(a, b)
        yield Pareto(rng.uniform(3.1, 8.0), rng.uniform(0.1, 2.0)), Pareto(a, b)

    for _ in range(200):
        for t_dist, y_dist in pairs():
            gen = constants_for(t_dist, y_dist)
            lem = model_constants_lemma(t_dist, y_dist)
            for field in ("M", "D2", "c_star", "kf_coeff", "ks_coeff"):
                g, l = getattr(gen, field), getattr(lem, field)
                rel = 0.0 if g == l else abs(g - l) / max(abs(g), abs(l))
                assert rel <= 1e-9 or abs(g - l) <= 1e-12, (field, t_dist, y_dist, g, l)


# --------------------------------------------------------------------------
# 3. closed forms match direct quadrature of the defining integrals

APPROX_PAIRS = [
    (Exponential(1.0), Exponential(1.0)),
    (Erlang(1.2, 2), Erlang(1.0, 2)),
    (Mix2Exp(1.0, 2.0, 2.0 / 3.0), Pareto(4.0, 0.35)),
    (Erlang(6.0, 4), Pareto(4.0, 0.4)),
    (Pareto(4.0, 0.4), Pareto(4.0, 0.4)),
]


@criterion(3, "closed form vs quadrature oracle", 60.0)
def test_criterion_3_closed_vs_oracle():
    rng = random.Random(20260304)
    for t_dist, y_dist in APPROX_PAIRS:
        k = constants_for(t_dist, y_dist)
        for _ in range(50):
            q = CrossingQuery(
                u=rng.uniform(5.0, 60.0),
                c=rng.uniform(0.35, 1.9) * k.c_star,
                v=rng.uniform(0.0, 3.0),
                t=rng.uniform(5.0, 800.0) + 3.0,
            )
            for kind, closed in (
                ("main", main_term),
                ("first", lambda q, k: corrected_expansion(q, k).correction_f),
                ("second", lambda q, k: corrected_expansion(q, k).correction_s),
            ):
                assert abs(closed(q, k) - integral_oracle(kind, q, k, tol=1e-8)) <= 1e-6


# --------------------------------------------------------------------------
# 4. exact formula vs independent series representation


@criterion(4, "exact vs series", 30.0)
def test_criterion_4_exact_vs_series():
    for u in (5.0, 10.0, 20.0):
        for c in (0.5, 1.0, 1.5):
            for t in (20.0, 100.0):
                q = CrossingQuery(u, c, 0.0, t)
                assert abs(exact_conditional(UNIT, q) - series_oracle(UNIT, q)) <= 1e-8


# --------------------------------------------------------------------------
# 5. simulation confidence intervals cover the exact curve


@criterion(5, "simulation coverage", 60.0)
def test_criterion_5_sim_coverage():
    grid = SweepGrid(0.05, 2.0, 0.05)
    swept = sweep_c(
        Exponential(1.0), Exponential(1.0), 10.0, 0.0, 100.0, grid, 1000, DEFAULT_SEED
    )
    covered = 0
    for c, est in swept:
        want = exact_conditional(UNIT, CrossingQuery(10.0, c, 0.0, 100.0))
        covered += est.ci_low <= want <= est.ci_high
    assert covered / len(swept) >= 0.90, f"coverage {covered}/{len(swept)}"


# --------------------------------------------------------------------------
# 6. approximation error decays with the level at the critical rate


@criterion(6, "error decay in the level", 60.0)
def test_criterion_6_error_decay():
    def errors(u):
        worst_main, worst_corr = 0.0, 0.0
        for t in (50.0, 100.0, 500.0):
            q = CrossingQuery(u, 1.0, 0.0, t)
            want = exact_conditional(UNIT, q)
            res = corrected_expansion(q, EXP_K)
            worst_main = max(worst_main, abs(res.main - want))
            worst_corr = max(worst_corr, abs(res.corrected - want))
        return worst_main, worst_corr

    m25, c25 = errors(25.0)
    m100, c100 = errors(100.0)
    assert m100 / m25 <= 0.6, (m25, m100)
    assert c100 / c25 <= 0.3, (c25, c100)


# --------------------------------------------------------------------------
# 7. corrected expansion sits below the exact curve at moderate level


@criterion(7, "corrected below exact", 30.0)
def test_criterion_7_corrected_below_exact():
    for i in range(151):
        c = 0.5 + 0.01 * i
        q = CrossingQuery(50.0, c, 0.0, 1000.0)
        corr = corrected_expansion(q, EXP_K).corrected
        assert corr <= exact_conditional(UNIT, q) + 2e-3, f"violated at c={c:g}"


# --------------------------------------------------------------------------
# 8. byte-identical output for identical configuration

# sha256 of the figure-1 CSV (the README command) at the default seed
FIG1_CSV_SHA256 = "a227c0dc3427153b25c266ca91569484f75b325d8b986da54389282e63c910cb"


@criterion(8, "byte-identical sweeps", 120.0)
def test_criterion_8_determinism(tmp_path, capsys):
    args = [
        "sweep", "--var", "c", "--min", "0.05", "--max", "2.0", "--step", "0.05",
        "--t", "exp:1", "--y", "exp:1", "--u", "10", "--v", "0", "--horizon", "100",
        "--methods", "main,exact,sim", "--trials", "1000", "--seed", str(DEFAULT_SEED),
    ]
    p1, p2 = tmp_path / "run1.csv", tmp_path / "run2.csv"
    assert cli_main(args + ["--out", str(p1)]) == 0
    assert cli_main(args + ["--out", str(p2)]) == 0
    capsys.readouterr()
    assert p1.read_bytes() == p2.read_bytes()
    assert len(p1.read_text().strip().split("\n")) == 41  # header + 40 nodes
    assert hashlib.sha256(p1.read_bytes()).hexdigest() == FIG1_CSV_SHA256


# --------------------------------------------------------------------------
# 9. no overflow where the Bessel argument exceeds 2000


@criterion(9, "numerical robustness at long horizons", 10.0)
def test_criterion_9_robustness():
    for i in range(31):
        c = 0.5 + 0.05 * i
        val = exact_conditional(UNIT, CrossingQuery(50.0, c, 0.0, 1000.0))
        assert math.isfinite(val)
        assert 0.0 <= val <= 1.0 + 1e-12


# --------------------------------------------------------------------------
# reproducibility contract as literal values: a change to any of them is a
# change of the contract, never a test to update silently


def test_substream_seed_frozen_values():
    assert [substream_seed(DEFAULT_SEED, i) for i in range(5)] == [
        161022537, 755937386, 2824089360, 4011217437, 4120613621,
    ]


def test_lcg_states_frozen_values():
    stream = LcgStream(DEFAULT_SEED)
    states = []
    for _ in range(8):
        stream.next_uniform()
        states.append(stream.state)
    assert states == [
        795895106, 3063643411, 3180207416, 1320180801,
        2955465726, 3086869119, 4290510612, 7779149,
    ]


# first 16 sample() values from LcgStream(DEFAULT_SEED), as float.hex; the
# two Mix2Exp laws cover the closed-form (rate2 = 2 rate1) and bisection
# quantiles
SAMPLE_GOLDENS = [
    ("exp:1", Exponential(1.0), [
        "0x1.a3bac764a2611p-3", "0x1.3fd5aa45f3056p+0",
        "0x1.594b476037bdcp+0", "0x1.7816109dabfc5p-2",
        "0x1.2a4708227d5ffp+0", "0x1.44b5a344dcb90p+0",
        "0x1.b7bb17b6eda94p+2", "0x1.db3b69a3b9997p-10",
        "0x1.6890538b26840p-1", "0x1.aa066ed3ea891p-1",
        "0x1.7af74e409ec3ap-5", "0x1.561a8500d05f6p-2",
        "0x1.c23800b974be2p-3", "0x1.3ee550e485064p-4",
        "0x1.65ef9941a3578p-2", "0x1.b62b2549ff601p-2",
    ]),
    ("erlang:1.2,2", Erlang(1.2, 2), [
        "0x1.36402d54c6194p+0", "0x1.6e18a99bb2480p+0",
        "0x1.0393f215badfcp+1", "0x1.6e89fedb46941p+2",
        "0x1.47bed0fcf1c58p+0", "0x1.448fdc521383ep-2",
        "0x1.fc0e37a46e0bcp-3", "0x1.4bb5cf64d921ep-1",
        "0x1.6e6a039abf17ep+0", "0x1.684da97145070p-1",
        "0x1.acbb70bc1cdf9p+0", "0x1.d8d3f410b1142p-1",
        "0x1.25336fae301f4p+0", "0x1.77fcd14e72007p-1",
        "0x1.5d0e13221d260p+1", "0x1.98beb8d2f37d9p+0",
    ]),
    ("pareto:4,0.35", Pareto(4.0, 0.35), [
        "0x1.339ec9983b484p-3", "0x1.0c2780ead428fp+0",
        "0x1.255174c9a3748p+0", "0x1.195a1851349dfp-2",
        "0x1.eea989cae0bc9p-1", "0x1.10ec9f73c2cd5p+0",
        "0x1.a1fbb01cd078dp+3", "0x1.5387468e64e9bp-10",
        "0x1.199ba5fe78772p-1", "0x1.52449c1b8548cp-1",
        "0x1.1042e88a83aaep-5", "0x1.fdb57d8a5424fp-3",
        "0x1.4a95fa457d63bp-3", "0x1.cc071ec3c71fep-5",
        "0x1.0b2c1375a8456p-2", "0x1.4a54c3f51e50ep-2",
    ]),
    ("mix2exp:1,2,2/3", Mix2Exp(1.0, 2.0, 2.0 / 3.0), [
        "0x1.3edc2ae1e4d89p-3", "0x1.02d2e9128ecaap+0",
        "0x1.18fe546316e5dp+0", "0x1.209e287019149p-2",
        "0x1.e070867444de5p-1", "0x1.070d6c1b64314p+0",
        "0x1.9dd4b028a29d4p+2", "0x1.6476e60e83946p-10",
        "0x1.1a87697074110p-1", "0x1.506c7773405abp-1",
        "0x1.1d0c3fa5725b5p-5", "0x1.05fee5a8758e9p-2",
        "0x1.56573cea779bfp-3", "0x1.e0adb13008736p-5",
        "0x1.1262a4523244dp-2", "0x1.518895e6fa3f7p-2",
    ]),
    ("mix2exp:1,3,2/3", Mix2Exp(1.0, 3.0, 2.0 / 3.0), [
        "0x1.04673784d20d2p-3", "0x1.d72cc8ac38de4p-1",
        "0x1.020134fe926d4p+0", "0x1.df88acb6be9aap-3",
        "0x1.b1ec7c61301f2p-1", "0x1.dfb0ff5647718p-1",
        "0x1.9dc7f8ded04e4p+2", "0x1.1d38d3e90dae4p-10",
        "0x1.e6d1d9bad44f6p-2", "0x1.25d4ba3de1142p-1",
        "0x1.ca2776633ae50p-6", "0x1.b1c4079015f82p-3",
        "0x1.1802ce6474416p-3", "0x1.8382b196e798cp-5",
        "0x1.c706a513d9050p-3", "0x1.1a3b56fcb1464p-2",
    ]),
]


@pytest.mark.parametrize("label,dist,want", SAMPLE_GOLDENS, ids=[g[0] for g in SAMPLE_GOLDENS])
def test_sample_frozen_values(label, dist, want):
    stream = LcgStream(DEFAULT_SEED)
    assert [dist.sample(stream).hex() for _ in range(16)] == want
