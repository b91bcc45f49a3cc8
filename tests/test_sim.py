"""Generator arithmetic, trajectory mechanics, and sweep reproducibility."""

import math
import os
import signal
import threading
import time
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import levelcross.sim as sim_module
import levelcross.sweep as sweep_module

from levelcross.approx import CrossingQuery
from levelcross.distributions import Distribution, Erlang, Exponential, Mix2Exp, Pareto
from levelcross.exact import ExpExpModel, exact_conditional
from levelcross.sim import (
    LcgStream,
    SimEstimate,
    _first_crossing_by_sample,
    _fuses,
    first_crossing_time,
    lcg_next,
    next_uniform,
    simulate_conditional,
    substream_seed,
    wilson_interval,
)
from levelcross.sweep import SweepGrid, evaluate_sweep, sweep_c
from strategies import LAWS


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

    @pytest.mark.parametrize("successes", [5, -1])
    def test_rejects_successes_outside_trials(self, successes):
        with pytest.raises(ValueError, match=r"successes must lie in \[0, trials = 3\]"):
            wilson_interval(successes, 3)
        with pytest.raises(ValueError, match=r"successes must lie in \[0, trials = 3\]"):
            SimEstimate.from_counts(successes, 3, 1)


class _Weibull(Distribution):
    """A law outside the four families, drawn by its own ``draw_kernel()``:
    the inverse transform scale * (-log(1 - u))^(1/shape) at u = -m."""

    def __init__(self, scale, shape):
        self.scale, self.shape = scale, shape

    def draw_kernel(self):
        scale, power = self.scale, 1.0 / self.shape
        return (lambda m: scale * (-math.log1p(m)) ** power), 1.0, 1


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
            (Exponential(0.7), Exponential(3.0)),
            (Exponential(1.3), Pareto(4.0, 0.35)),
            (Pareto(3.5, 0.5), Exponential(2.0)),
            (Erlang(0.8, 1), Erlang(2.5, 1)),
            (_Weibull(1.0, 1.5), Exponential(1.0)),
        ],
        ids=["exp-exp", "erlang-erlang", "erlang-pareto", "mix2exp-pareto",
             "mix2exp_bisect-pareto", "pareto-erlang", "exp_rates-exp_rates", "exp-pareto",
             "pareto-exp", "erlang1-erlang1", "own_inverse-exp"],
    )
    def test_matches_sample_reference_bit_for_bit(self, t_dist, y_dist):
        # the fused loop against the plain one built from sample(): same
        # epochs, same final generator state, same draw count.  The second
        # seed is the predecessor of state 0, so the first draw must skip it.
        assert _fuses(t_dist, y_dist)
        zero_pred = (pow(23456789, -1, 2**32) * -22185) % 2**32
        for seed in (20170101, zero_pred):
            stream, ref = LcgStream(seed), LcgStream(seed)
            for u, c, v in [(10.0, 1.0, 0.0), (10.0, 0.3, 0.5), (2.0, 2.5, 0.0), (1e-9, 1.0, 0.0)]:
                for _ in range(40):
                    tau = first_crossing_time(t_dist, y_dist, u, c, v, 30.0, stream)
                    want = _reference_first_crossing_time(t_dist, y_dist, u, c, v, 30.0, ref)
                    assert tau == want
                    assert (stream.state, stream.draws) == (ref.state, ref.draws)

    @settings(max_examples=200, deadline=None)
    @given(
        t_dist=LAWS, y_dist=LAWS, u=st.floats(0.0, 20.0), c=st.floats(0.05, 3.0),
        v=st.floats(0.0, 2.0), span=st.floats(0.5, 30.0), seed=st.integers(0, 2**32 - 1),
    )
    def test_fused_loop_matches_sample_path(self, t_dist, y_dist, u, c, v, span, seed):
        assert _fuses(t_dist, y_dist)
        stream, ref = LcgStream(seed), LcgStream(seed)
        for _ in range(5):
            tau = first_crossing_time(t_dist, y_dist, u, c, v, v + span, stream)
            assert tau == _first_crossing_by_sample(t_dist, y_dist, u, c, v, v + span, ref)
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

    def test_overridden_draw_kernel_is_honoured_by_both_paths(self):
        # a kernel of two exponential transforms makes the law Erlang(rate, 2)
        class Summed(Exponential):
            def draw_kernel(self):
                return super().draw_kernel()[:2] + (2,)

        law, erlang = Summed(1.3), Erlang(1.3, 2)
        assert _fuses(law, law)
        fused, by_sample, ref, plain = (LcgStream(7) for _ in range(4))
        for _ in range(40):
            want = first_crossing_time(erlang, erlang, 5.0, 1.0, 0.0, 30.0, ref)
            assert first_crossing_time(law, law, 5.0, 1.0, 0.0, 30.0, fused) == want
            assert _first_crossing_by_sample(law, law, 5.0, 1.0, 0.0, 30.0, by_sample) == want
            first_crossing_time(Exponential(1.3), Exponential(1.3), 5.0, 1.0, 0.0, 30.0, plain)
        assert (fused.state, fused.draws) == (by_sample.state, by_sample.draws)
        assert (fused.state, fused.draws) == (ref.state, ref.draws)
        assert fused.draws != plain.draws
        s1, s2 = LcgStream(11), LcgStream(11)
        assert [law.sample(s1) for _ in range(20)] == [erlang.sample(s2) for _ in range(20)]

    def test_overridden_sample_draws_through_sample(self, monkeypatch):
        calls = []

        class Counted(Exponential):
            def sample(self, stream):
                calls.append(None)
                return super().sample(stream)

        paths = []
        by_sample = sim_module._first_crossing_by_sample

        def spy(*args):
            paths.append(args[:2])
            return by_sample(*args)

        monkeypatch.setattr(sim_module, "_first_crossing_by_sample", spy)
        law, plain = Counted(1.0), Exponential(1.0)
        stream, ref = LcgStream(7), LcgStream(7)
        for _ in range(40):
            tau = first_crossing_time(law, plain, 5.0, 1.0, 0.0, 30.0, stream)
            assert tau == first_crossing_time(plain, plain, 5.0, 1.0, 0.0, 30.0, ref)
        assert paths == [(law, plain)] * 40
        assert calls
        assert (stream.state, stream.draws) == (ref.state, ref.draws)

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


class TestForkedNodes:
    """Simulation nodes in forked workers give what evaluating the nodes one
    by one in this process gives: the values, or the first exception."""

    GRID = SweepGrid(0.6, 1.4, 0.2)

    def sweep(self, methods=("main", "sim"), t_dist=Exponential(1.0)):
        return evaluate_sweep(
            t_dist, Exponential(1.0), self.GRID, methods,
            u=10.0, horizon=50.0, trials=200, seed=42,
        )

    def test_worker_exception_reraised(self, set_cpus, monkeypatch):
        real = sweep_module.simulate_conditional

        def failing(t_dist, y_dist, u, c, *args):
            if c == 1.2:
                raise ZeroDivisionError(f"node at c = {c}")
            return real(t_dist, y_dist, u, c, *args)

        monkeypatch.setattr(sweep_module, "simulate_conditional", failing)
        forked = set_cpus(2)
        with pytest.raises(ZeroDivisionError, match="c = 1.2"):
            self.sweep()
        assert forked == [2]

    def test_dead_worker_nodes_evaluated_here(self, set_cpus, monkeypatch):
        set_cpus(1)
        serial = self.sweep()
        real, parent, here = sweep_module.simulate_conditional, os.getpid(), []

        def dying(t_dist, y_dist, u, c, *args):
            if os.getpid() == parent:
                here.append(c)
            elif c == 1.0:
                os._exit(3)  # the worker that claims node 2 dies; the other goes on
            return real(t_dist, y_dist, u, c, *args)

        monkeypatch.setattr(sweep_module, "simulate_conditional", dying)
        forked = set_cpus(2)
        assert self.sweep().rows == serial.rows
        assert forked == [2]
        # the nodes the dead worker finished before node 2 were reported
        assert here == [1.0]

    def test_analytic_failure_forks_no_worker(self, set_cpus, monkeypatch):
        real_main, real_sim = sweep_module.main_term, sweep_module.simulate_conditional
        parent = os.getpid()

        def failing(query, constants):
            if query.c == 1.0:
                raise ZeroDivisionError("main term at c = 1")
            return real_main(query, constants)

        def slow(*args):
            if os.getpid() != parent:
                time.sleep(30)  # a worker forked before the analytic pass
            return real_sim(*args)

        monkeypatch.setattr(sweep_module, "main_term", failing)
        monkeypatch.setattr(sweep_module, "simulate_conditional", slow)
        forked = set_cpus(2)
        start = time.monotonic()
        with pytest.raises(ZeroDivisionError, match="c = 1"):
            self.sweep()
        assert time.monotonic() - start < 15
        assert forked == []

    def test_interrupt_while_waiting_kills_workers(self, set_cpus, monkeypatch):
        real_sim, real_waitpid = sweep_module.simulate_conditional, os.waitpid
        parent, interrupted = os.getpid(), []

        def slow(*args):
            if os.getpid() != parent:
                time.sleep(30)  # killed, not awaited
            return real_sim(*args)

        def interrupt_once(pid, options):
            if not interrupted:
                interrupted.append(pid)
                raise KeyboardInterrupt
            return real_waitpid(pid, options)

        monkeypatch.setattr(sweep_module, "simulate_conditional", slow)
        monkeypatch.setattr(os, "waitpid", interrupt_once)
        set_cpus(2)
        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            self.sweep(("sim",))
        assert time.monotonic() - start < 15
        assert len(interrupted) == 1  # the fixture checks that every worker was reaped

    def test_other_threads_keep_nodes_here(self, set_cpus):
        set_cpus(1)
        serial = self.sweep()
        forked = set_cpus(2)
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            assert self.sweep().rows == serial.rows
        finally:
            release.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert forked == []

    def test_overridden_sample_runs_in_this_process(self, set_cpus):
        calls = []

        class Counted(Exponential):
            def sample(self, stream):
                calls.append(None)
                return super().sample(stream)

        counts = []
        for cpus in (1, 2):
            forked = set_cpus(cpus)
            calls.clear()
            assert self.sweep(("sim",), Counted(1.0)).rows == self.sweep(("sim",)).rows
            counts.append(len(calls))
        assert forked == [2]  # the plain law's sweep forked, the counted law's did not
        assert counts[0] == counts[1] > 0

    def test_workers_take_largest_node_first(self, set_cpus, monkeypatch, tmp_path):
        # each worker claims nodes in descending order, and while one works
        # on the slow largest node, the other takes every other node
        grid = SweepGrid(0.1, 2.0, 0.1)
        last = len(grid.nodes()) - 1
        node_of = {substream_seed(42, i): i for i in range(last + 1)}
        log = tmp_path / "claims"

        def logged(t_dist, y_dist, u, c, v, t, trials, seed):
            fd = os.open(log, os.O_WRONLY | os.O_APPEND | os.O_CREAT)
            try:
                os.write(fd, b"%d %d\n" % (os.getpid(), node_of[seed]))
            finally:
                os.close(fd)
            if node_of[seed] == last:
                time.sleep(2.0)
            return SimEstimate.from_counts(0, trials, seed)

        monkeypatch.setattr(sweep_module, "simulate_conditional", logged)
        forked = set_cpus(2)
        evaluate_sweep(Exponential(1.0), Exponential(1.0), grid, ("sim",),
                       u=10.0, horizon=50.0, trials=10, seed=42)
        assert forked == [2]
        claims = {}
        for line in log.read_text().splitlines():
            pid, i = map(int, line.split())
            claims.setdefault(pid, []).append(i)
        assert os.getpid() not in claims
        assert sorted(claims.values()) == [list(range(last - 1, -1, -1)), [last]]

    def test_queue_larger_than_a_pipe(self, set_cpus, monkeypatch):
        # 100,000 nodes: the queue (400 kB) outgrows a 64 KiB pipe.  Every
        # node is reported by a worker, and every write to the queue is
        # atomic: at most PIPE_BUF = 512 bytes, whole 4-byte records.
        grid = SweepGrid(1.0, 100_000.0, 1.0)
        parent, here, writes = os.getpid(), [], []
        real_write = os.write

        def trivial(t_dist, y_dist, u, c, v, t, trials, seed):
            if os.getpid() == parent:
                here.append(c)
            return SimEstimate.from_counts(1, trials, seed)

        def spy(fd, data):
            writes.append(len(data))
            return real_write(fd, data)

        def timeout(signum, frame):
            raise TimeoutError("sweep did not finish")

        monkeypatch.setattr(sweep_module, "simulate_conditional", trivial)
        monkeypatch.setattr(os, "write", spy)
        forked = set_cpus(2)
        previous = signal.signal(signal.SIGALRM, timeout)
        signal.alarm(60)
        try:
            result = evaluate_sweep(Exponential(1.0), Exponential(1.0), grid, ("sim",),
                                    u=10.0, horizon=50.0, trials=10)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert forked == [2]
        assert here == []
        assert len(result.rows) == 100_000
        assert all(values["sim"].successes == 1 for _, values in result.rows)
        assert sum(writes) == 400_000
        assert max(writes) <= 512 and all(n % 4 == 0 for n in writes)

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_zero_trials_fail_before_any_node(self, set_cpus, monkeypatch, cpus):
        def never(*args):
            pytest.fail("a node was evaluated or a worker forked")

        monkeypatch.setattr(os, "fork", never)
        monkeypatch.setattr(sweep_module, "main_term", never)
        monkeypatch.setattr(sweep_module, "simulate_conditional", never)
        forked = set_cpus(cpus)
        with pytest.raises(ValueError, match="n_trials must be >= 1"):
            evaluate_sweep(Exponential(1.0), Exponential(1.0), self.GRID, ("main", "sim"),
                           u=10.0, horizon=50.0, trials=0)
        assert forked == []


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

    @pytest.mark.parametrize("args, message", [
        ((0.05, math.inf, 0.05), "finite 0 < min <= max"),
        ((0.05, math.nan, 0.05), "finite 0 < min <= max"),
        ((0.0, 2.0, 0.5), "finite 0 < min <= max"),
        ((0.05, 2.0, math.inf), "step"),
        ((0.05, 2.0, 0.05, ((0.5, 1.0, 0),)), "factor"),
        ((0.05, 2.0, 0.05, ((0.5, 1.0, math.inf),)), "factor"),
        ((0.05, 2.0, 0.05, ((0.5, math.inf, 2),)), "finite bounds"),
    ])
    def test_rejects_bad_lattices(self, args, message):
        with pytest.raises(ValueError, match=message):
            SweepGrid(*args)

    def test_node_count_limit(self, monkeypatch):
        # the limit holds before anything is built: a lattice of 1.95e9
        # points, or a span of 1e600 steps, is refused at once
        for args in [(0.05, 2.0, 1e-9), (1e-300, 1e300, 1e-300),
                     (0.05, 2.0, 0.05, ((0.5, 1.0, 10**12),))]:
            with pytest.raises(ValueError, match="more than 100000 nodes"):
                SweepGrid(*args)
        # the limit counts the 40 base and 5 refined points, 3 of them
        # shared, as 45
        monkeypatch.setattr(sweep_module, "_MAX_NODES", 45)
        assert len(SweepGrid(0.05, 2.0, 0.05, ((1.0, 1.1, 2),)).nodes()) == 42
        with pytest.raises(ValueError, match="more than 45 nodes"):
            SweepGrid(0.05, 2.0, 0.05, ((1.0, 1.125, 2),))
