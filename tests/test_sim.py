"""Generator arithmetic, trajectory mechanics, and sweep reproducibility."""

import math
import warnings

import pytest

from levelcross.approx import CrossingQuery
from levelcross.distributions import Erlang, Exponential, Mix2Exp, Pareto
from levelcross.exact import ExpExpModel, exact_conditional
from levelcross.sim import (
    LcgStream,
    first_crossing_time,
    lcg_next,
    next_uniform,
    simulate_conditional,
    substream_seed,
    wilson_interval,
)
from levelcross.sweep import SweepGrid, sweep_c


class TestLcg:
    def test_step_values(self):
        # exact integer arithmetic: 23456789*x + 22185 mod 2^32
        assert lcg_next(0) == 22185
        assert lcg_next(1) == 23478974
        assert lcg_next(2**32 - 1) == 4271532692

    def test_first_uniform_from_state_one(self):
        u, state = next_uniform(1)
        assert state == 23478974
        assert u == pytest.approx(23478974 / 2**32, rel=0)

    def test_zero_state_skipped(self):
        # find the predecessor of 0 and check the stream jumps over it
        inv = pow(23456789, -1, 2**32)
        pre = (inv * (0 - 22185)) % 2**32
        assert lcg_next(pre) == 0
        u, state = next_uniform(pre)
        assert state == 22185 and u > 0.0

    def test_outputs_strictly_inside_unit_interval(self):
        stream = LcgStream(20170101)
        for _ in range(1_000_000):
            u = stream.next_uniform()
            if not 0.0 < u < 1.0:
                pytest.fail(f"uniform escaped (0,1): {u}")

    def test_streams_deterministic(self):
        a, b = LcgStream(12345), LcgStream(12345)
        assert [a.next_uniform() for _ in range(1000)] == [
            b.next_uniform() for _ in range(1000)
        ]

    def test_substream_seeds_distinct_and_32bit(self):
        seeds = {substream_seed(20170101, i) for i in range(1000)}
        assert len(seeds) == 1000
        assert all(0 <= s < 2**32 for s in seeds)
        assert substream_seed(1, 0) != substream_seed(2, 0)


class TestWilson:
    def test_contains_point_estimate(self):
        for successes, trials in [(0, 10), (3, 10), (10, 10), (500, 1000), (1, 1)]:
            lo, hi = wilson_interval(successes, trials)
            assert 0.0 <= lo <= successes / trials <= hi <= 1.0

    def test_shrinks_with_n(self):
        w1 = wilson_interval(50, 100)
        w2 = wilson_interval(500, 1000)
        assert (w2[1] - w2[0]) < (w1[1] - w1[0])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            wilson_interval(0, 0)


class TestTrajectories:
    def test_huge_level_never_crosses(self):
        est = simulate_conditional(
            Exponential(1.0), Exponential(1.0), 1e9, 1.0, 0.0, 50.0, 100, 7
        )
        assert est.successes == 0
        assert est.estimate == 0.0
        assert est.ci_low == 0.0

    def test_first_jump_crossing_is_excluded(self):
        # tiny level, first jump always crosses at s = v: the conditional
        # event {v < tau <= t} never fires
        est = simulate_conditional(
            Exponential(1.0), Exponential(1.0), 1e-12, 1e-9, 0.5, 50.0, 200, 11
        )
        assert est.successes == 0

    def test_estimate_is_count_ratio(self):
        est = simulate_conditional(
            Exponential(1.0), Exponential(1.0), 10.0, 1.0, 0.0, 100.0, 777, 3
        )
        assert est.estimate == est.successes / est.trials
        assert est.ci_low <= est.estimate <= est.ci_high

    def test_ci_covers_exact_small_drift(self):
        # tiny drift: crossing nearly certain within the horizon
        q = CrossingQuery(10.0, 0.01, 0.0, 100.0)
        want = exact_conditional(ExpExpModel(1.0, 1.0), q)
        est = simulate_conditional(
            Exponential(1.0), Exponential(1.0), 10.0, 0.01, 0.0, 100.0, 4000, 5
        )
        assert est.ci_low - 1e-12 <= want <= est.ci_high + 1e-12

    def test_erlang_gap_consumes_k_uniforms_per_renewal(self):
        stream = LcgStream(4242)
        k = 3
        tau = first_crossing_time(
            Erlang(1.0, k), Exponential(1.0), 1e9, 1.0, 0.0, 60.0, stream
        )
        assert tau is None
        # draws = 1 jump at v, (k gap + 1 jump) per completed renewal, and
        # k for the final gap that overshoots the horizon
        assert stream.draws > 1 + k
        assert (stream.draws - 1 - k) % (k + 1) == 0

    @pytest.mark.parametrize(
        "t_dist,y_dist",
        [
            (Exponential(1.0), Exponential(1.0)),
            (Erlang(1.2, 2), Erlang(1.0, 2)),
            (Erlang(6.0, 4), Pareto(4.0, 0.4)),
            (Mix2Exp(1.0, 2.0, 2.0 / 3.0), Pareto(4.0, 0.35)),
            (Mix2Exp(1.0, 3.0, 2.0 / 3.0), Pareto(4.0, 0.35)),
            (Pareto(4.0, 0.4), Erlang(2.0, 3)),
        ],
        ids=["exp-exp", "erlang-erlang", "erlang-pareto", "mix2exp-pareto",
             "mix2exp_bisect-pareto", "pareto-erlang"],
    )
    def test_matches_sample_reference_bit_for_bit(self, t_dist, y_dist):
        # the fused loop against the plain one built from sample(): same
        # epochs, same final generator state, same draw count.  The second
        # seed is the predecessor of state 0, so the first draw must skip it.
        zero_pred = (pow(23456789, -1, 2**32) * -22185) % 2**32
        for seed in (20170101, zero_pred):
            stream, ref = LcgStream(seed), LcgStream(seed)
            for u, c, v in [(10.0, 1.0, 0.0), (10.0, 0.3, 0.5), (2.0, 2.5, 0.0), (1e-9, 1.0, 0.0)]:
                for _ in range(40):
                    tau = first_crossing_time(t_dist, y_dist, u, c, v, 30.0, stream)
                    want = _reference_first_crossing_time(t_dist, y_dist, u, c, v, 30.0, ref)
                    assert tau == want
                    assert (stream.state, stream.draws) == (ref.state, ref.draws)

    def test_other_streams_draw_through_sample(self):
        # a stream that is not a plain LcgStream cannot be stepped inline;
        # its own next_uniform must hand out every uniform
        class CountingStream(LcgStream):
            __slots__ = ("calls",)

            def __init__(self, seed):
                super().__init__(seed)
                self.calls = 0

            def next_uniform(self):
                self.calls += 1
                return super().next_uniform()

        t_dist, y_dist = Erlang(1.2, 2), Mix2Exp(1.0, 3.0, 2.0 / 3.0)
        stream, plain = CountingStream(99), LcgStream(99)
        for _ in range(40):
            tau = first_crossing_time(t_dist, y_dist, 5.0, 1.0, 0.0, 30.0, stream)
            assert tau == first_crossing_time(t_dist, y_dist, 5.0, 1.0, 0.0, 30.0, plain)
        assert stream.calls == stream.draws == plain.draws
        assert stream.state == plain.state

    def test_overridden_quantile_is_honoured(self):
        class Doubled(Exponential):
            def quantile(self, u):
                return 2.0 * super().quantile(u)

        stream, ref = LcgStream(7), LcgStream(7)
        epochs = []
        for _ in range(40):
            tau = first_crossing_time(Doubled(1.0), Doubled(1.0), 5.0, 1.0, 0.0, 30.0, stream)
            assert tau == _reference_first_crossing_time(
                Doubled(1.0), Doubled(1.0), 5.0, 1.0, 0.0, 30.0, ref
            )
            epochs.append(tau)
        assert (stream.state, stream.draws) == (ref.state, ref.draws)
        plain = LcgStream(7)
        assert epochs != [
            first_crossing_time(Exponential(1.0), Exponential(1.0), 5.0, 1.0, 0.0, 30.0, plain)
            for _ in range(40)
        ]

    def test_requires_finite_horizon(self):
        with pytest.raises(ValueError):
            simulate_conditional(
                Exponential(1.0), Exponential(1.0), 10.0, 1.0, 0.0, math.inf, 10, 1
            )
        with pytest.raises(ValueError):
            simulate_conditional(
                Exponential(1.0), Exponential(1.0), 10.0, 1.0, 0.0, 100.0, 0, 1
            )


def _reference_first_crossing_time(t_dist, y_dist, u, c, v, horizon, stream):
    """The trajectory loop drawing every variate through sample()."""
    s = v
    total = y_dist.sample(stream)
    if total - c * s > u:
        return s
    while True:
        s += t_dist.sample(stream)
        if s > horizon:
            return None
        total += y_dist.sample(stream)
        if total - c * s > u:
            return s


def _record_paths(t_dist, y_dist, v, horizon, n, seed):
    """Renewal epochs and running jump totals, with no early exit, so the
    same sample supports every (u, t) threshold."""
    stream = LcgStream(seed)
    paths = []
    for _ in range(n):
        epochs = [v]
        totals = [y_dist.sample(stream)]
        s = v
        while True:
            s += t_dist.sample(stream)
            if s > horizon:
                break
            epochs.append(s)
            totals.append(totals[-1] + y_dist.sample(stream))
        paths.append((epochs, totals))
    return paths


def _count(paths, u, c, v, t):
    hits = 0
    for epochs, totals in paths:
        for s, total in zip(epochs, totals):
            if total - c * s > u:
                if v < s <= t:
                    hits += 1
                break
    return hits


class TestCommonRandomNumberMonotonicity:
    def test_counts_monotone_in_t_and_u(self):
        paths = _record_paths(Exponential(1.0), Exponential(1.0), 0.0, 100.0, 400, 13)
        counts_t = [_count(paths, 10.0, 1.0, 0.0, t) for t in (10, 25, 50, 75, 100)]
        assert counts_t == sorted(counts_t)
        counts_u = [_count(paths, u, 1.0, 0.0, 100.0) for u in (5, 10, 15, 20)]
        assert counts_u == sorted(counts_u, reverse=True)


class TestSweep:
    def test_single_node_reduces_to_simulate(self):
        grid = SweepGrid(1.0, 1.0, 0.05)
        [(c, est)] = sweep_c(
            Exponential(1.0), Exponential(1.0), 10.0, 0.0, 100.0, grid, 500, 42
        )
        assert c == 1.0
        direct = simulate_conditional(
            Exponential(1.0), Exponential(1.0), 10.0, 1.0, 0.0, 100.0, 500,
            substream_seed(42, 0),
        )
        assert est == direct

    def test_node_results_independent_of_order(self):
        grid = SweepGrid(0.6, 1.4, 0.2)
        swept = sweep_c(Exponential(1.0), Exponential(1.0), 10.0, 0.0, 50.0, grid, 300, 42)
        # recompute each node in reverse order from its own substream
        for i, (c, est) in reversed(list(enumerate(swept))):
            redo = simulate_conditional(
                Exponential(1.0), Exponential(1.0), 10.0, c, 0.0, 50.0, 300,
                substream_seed(42, i),
            )
            assert redo == est

    def test_warns_when_critical_rate_outside_grid(self):
        grid = SweepGrid(2.0, 3.0, 0.5)
        with pytest.warns(RuntimeWarning, match="critical rate"):
            sweep_c(Exponential(1.0), Exponential(1.0), 10.0, 0.0, 20.0, grid, 10, 1)

    def test_heavy_tail_pair_simulates(self):
        grid = SweepGrid(1.0, 1.0, 0.1)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            [(_, est)] = sweep_c(
                Pareto(1.5, 0.4), Pareto(4.0, 0.4), 40.0, 0.0, 50.0, grid, 50, 3
            )
        assert 0.0 <= est.estimate <= 1.0


    def test_moment_poor_law_simulates_silently(self):
        # Pareto shape 2.5 has no third moment, so there is no c* to check
        grid = SweepGrid(1.0, 1.0, 0.1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            [(_, est)] = sweep_c(
                Pareto(2.5, 1.0), Exponential(1.0), 10.0, 0.0, 50.0, grid, 50, 3
            )
        assert 0.0 <= est.estimate <= 1.0

    def test_other_constant_errors_propagate(self, monkeypatch):
        def broken(t_dist, y_dist):
            raise ZeroDivisionError("broken constants")

        monkeypatch.setattr("levelcross.sweep.constants_for", broken)
        with pytest.raises(ZeroDivisionError):
            sweep_c(Exponential(1.0), Exponential(1.0), 10.0, 0.0, 20.0,
                    SweepGrid(1.0, 1.0, 0.1), 10, 1)


class TestSweepGrid:
    def test_plain_nodes(self):
        grid = SweepGrid(0.05, 2.0, 0.05)
        nodes = grid.nodes()
        assert len(nodes) == 40
        assert nodes[0] == 0.05 and nodes[-1] == 2.0
        assert all(b > a for a, b in zip(nodes, nodes[1:]))

    def test_refinement(self):
        # base span 0.5 becomes 0.1 inside [0.9, 1.1]
        grid = SweepGrid(0.5, 2.0, 0.5, refinements=((0.9, 1.1, 5),))
        nodes = grid.nodes()
        for want in (0.5, 0.9, 1.0, 1.1, 1.5, 2.0):
            assert want in nodes
        assert nodes == sorted(set(nodes))

    def test_validation(self):
        with pytest.raises(ValueError):
            SweepGrid(1.0, 2.0, 0.0)
        with pytest.raises(ValueError):
            SweepGrid(2.0, 1.0, 0.1)
