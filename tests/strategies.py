"""Hypothesis strategies shared by the property tests."""

from hypothesis import strategies as st

from levelcross.distributions import Erlang, Exponential, Mix2Exp, Pareto

_RATES = st.floats(0.2, 5.0)

# all four families; Mix2Exp both with rate2 = 2 rate1 (closed-form
# quantile) and with other rates (bisection), Pareto with shape in (3, 4]
LAWS = st.one_of(
    st.builds(Exponential, _RATES),
    st.builds(Erlang, _RATES, st.integers(1, 6)),
    st.builds(lambda r, p: Mix2Exp(r, 2.0 * r, p), _RATES, st.floats(0.0, 1.0)),
    st.builds(
        lambda r, k, p: Mix2Exp(r, k * r, p),
        _RATES, st.floats(1.1, 4.0).filter(lambda k: k != 2.0), st.floats(0.0, 1.0),
    ),
    st.builds(Pareto, st.floats(3.0, 4.0, exclude_min=True), st.floats(0.1, 2.0)),
)
