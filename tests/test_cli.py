"""Command-line surface: spec parsing, output formats, determinism."""

import io
import math
import os
import subprocess
import sys
import warnings
import xml.etree.ElementTree as ET

import pytest

import levelcross
from levelcross import (
    CrossingQuery,
    SweepGrid,
    constants_for,
    corrected_expansion,
    evaluate_sweep,
    main_term,
    parse_spec,
    render_svg,
)
from levelcross.cli import main, parse_dist_spec
from levelcross.distributions import Erlang, Exponential, Mix2Exp, Pareto
from levelcross.errors import LevelCrossError
from levelcross.sim import simulate_conditional, substream_seed


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_kv(text):
    out = {}
    for line in text.splitlines():
        if "=" in line:
            key, _, val = line.partition("=")
            out[key.strip()] = val.strip()
    return out


class TestParseDistSpec:
    def test_families(self):
        assert parse_dist_spec("exp:1.0") == Exponential(1.0)
        assert parse_dist_spec("mix2exp:1,2,0.6667") == Mix2Exp(1.0, 2.0, 0.6667)

    def test_heavy_pareto_warns(self):
        with pytest.warns(RuntimeWarning, match="fourth moment"):
            assert parse_dist_spec("pareto:4.0,0.35") == Pareto(4.0, 0.35)

    def test_light_pareto_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            parse_dist_spec("pareto:4.5,0.35")


class TestConstantsCommand:
    def test_erlang_pair_block(self, capsys):
        code, out, _ = run_cli(
            ["constants", "--t", "erlang:1.2,2", "--y", "erlang:1,2"], capsys
        )
        assert code == 0
        kv = parse_kv(out)
        assert float(kv["c_star"]) == pytest.approx(1.2, abs=1e-12)
        assert float(kv["D2"]) == pytest.approx(25 / 18, abs=1e-10)
        assert float(kv["KF*c"]) == pytest.approx(0.6, abs=1e-10)
        assert float(kv["KS*c"]) == pytest.approx(0.3, abs=1e-10)

    def test_bad_spec_fails(self, capsys):
        code, _, err = run_cli(["constants", "--t", "exp:x", "--y", "exp:1"], capsys)
        assert code == 1
        assert "error:" in err


class TestPointCommands:
    def test_exact_requires_exponential_pair(self, capsys):
        code, _, err = run_cli(
            ["exact", "--t", "pareto:4.5,0.4", "--y", "exp:1", "--u", "10", "--c", "1",
             "--horizon", "100"],
            capsys,
        )
        assert code == 1
        assert "exact requires exponential pair" in err

    def test_exact_point(self, capsys):
        code, out, _ = run_cli(
            ["exact", "--t", "exp:1", "--y", "exp:1", "--u", "10", "--c", "1",
             "--horizon", "100"],
            capsys,
        )
        assert code == 0
        assert float(parse_kv(out)["exact"]) == pytest.approx(0.490243271417818, abs=1e-9)

    def test_approx_point_infinite_horizon(self, capsys):
        code, out, _ = run_cli(
            ["approx", "--t", "exp:1", "--y", "exp:1", "--u", "10", "--c", "1.2"],
            capsys,
        )
        assert code == 0
        kv = parse_kv(out)
        assert 0.0 < float(kv["main"]) < 1.0
        assert set(kv) >= {"main", "correction_f", "correction_s", "corrected"}

    def test_simulate_point(self, capsys):
        code, out, _ = run_cli(
            ["simulate", "--t", "exp:1", "--y", "exp:1", "--u", "10", "--c", "1",
             "--horizon", "100", "--trials", "400", "--seed", "9"],
            capsys,
        )
        assert code == 0
        kv = parse_kv(out)
        assert float(kv["ci_low"]) <= float(kv["estimate"]) <= float(kv["ci_high"])
        assert kv["seed"] == "9"

    def test_simulate_rejects_infinite_horizon_without_cap(self, capsys):
        code, _, err = run_cli(
            ["simulate", "--t", "exp:1", "--y", "exp:1", "--u", "10", "--c", "1",
             "--trials", "10", "--seed", "1"],
            capsys,
        )
        assert code == 1
        assert "inf-cap" in err

    def test_simulate_infinite_horizon_with_cap(self, capsys):
        code, out, _ = run_cli(
            ["simulate", "--t", "exp:1", "--y", "exp:1", "--u", "10", "--c", "1.5",
             "--trials", "50", "--seed", "1", "--inf-cap", "200"],
            capsys,
        )
        assert code == 0
        assert 0.0 <= float(parse_kv(out)["estimate"]) <= 1.0


SWEEP_ARGS = [
    "sweep", "--var", "c", "--min", "0.5", "--max", "1.5", "--step", "0.25",
    "--t", "exp:1", "--y", "exp:1", "--u", "10", "--v", "0",
    "--horizon", "100", "--methods", "main,exact,sim", "--trials", "200", "--seed", "7",
]


class TestSweepCommand:
    def test_csv_shape_and_determinism(self, tmp_path, capsys):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        code, stdout, _ = run_cli(SWEEP_ARGS + ["--out", str(out1)], capsys)
        assert code == 0
        code, _, _ = run_cli(SWEEP_ARGS + ["--out", str(out2)], capsys)
        assert code == 0
        b1, b2 = out1.read_bytes(), out2.read_bytes()
        assert b1 == b2
        text = b1.decode("utf-8")
        assert "\r" not in text
        lines = text.strip().split("\n")
        assert lines[0] == "x,main,exact,sim,sim_ci_low,sim_ci_high"
        assert len(lines) == 1 + 5
        xs = [float(line.split(",")[0]) for line in lines[1:]]
        assert xs == sorted(xs) == [0.5, 0.75, 1.0, 1.25, 1.5]

    def test_summary_matches_csv_recomputation(self, tmp_path, capsys):
        out = tmp_path / "c.csv"
        code, stdout, _ = run_cli(SWEEP_ARGS + ["--out", str(out)], capsys)
        assert code == 0
        kv = parse_kv(stdout)
        lines = out.read_text().strip().split("\n")
        cols = lines[0].split(",")
        i_main, i_exact = cols.index("main"), cols.index("exact")
        gap = max(
            abs(float(r.split(",")[i_main]) - float(r.split(",")[i_exact]))
            for r in lines[1:]
        )
        assert kv["max|main-exact|"] == f"{gap:.12g}"

    def test_svg_well_formed_with_legend(self, tmp_path, capsys):
        svg = tmp_path / "plot.svg"
        code, _, _ = run_cli(SWEEP_ARGS + ["--svg", str(svg)], capsys)
        assert code == 0
        root = ET.parse(svg).getroot()
        assert root.tag.endswith("svg")
        texts = [el.text for el in root.iter() if el.tag.endswith("text")]
        for method in ("main", "exact", "sim"):
            assert texts.count(method) == 1
        ns = root.tag.split("}")[0] + "}"
        assert len(root.findall(f".//{ns}polyline")) == 2  # main + exact
        assert len(root.findall(f".//{ns}circle")) == 5  # sim markers

    def test_piped_stdout_printed_once(self):
        # stdout on a pipe is block-buffered: a forked worker that flushed
        # it, or returned into the command, would print a second copy
        script = (
            "import sys; import levelcross.sweep as s; s._cpu_count = lambda: 2; "
            "print('before'); from levelcross.cli import main; sys.exit(main(sys.argv[1:]))"
        )
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = os.path.dirname(os.path.dirname(levelcross.__file__))
        proc = subprocess.run(
            [sys.executable, "-c", script, *SWEEP_ARGS], capture_output=True, text=True,
            env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert lines.count("before") == 1
        assert lines.count("T = exp:1") == 1
        assert lines.count("x,main,exact,sim,sim_ci_low,sim_ci_high") == 1
        assert len(lines) == 1 + 9 + 6 + 1  # before, summary, CSV, max|main-exact|

    def test_stdout_csv_when_no_out_path(self, capsys):
        args = [a for a in SWEEP_ARGS]
        args[args.index("--methods") + 1] = "main"
        code, stdout, _ = run_cli(args, capsys)
        assert code == 0
        assert "x,main" in stdout

    def test_heavy_pareto_warns_once(self, capsys):
        args = [a for a in SWEEP_ARGS]
        args[args.index("--y") + 1] = "pareto:3.5,0.35"
        args[args.index("--methods") + 1] = "main"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, _, _ = run_cli(args, capsys)
        assert code == 0
        assert [w.category for w in caught] == [RuntimeWarning]

    @pytest.mark.parametrize(
        "argv, warned",
        [
            (["constants", "--t", "exp:1", "--y", "pareto:3.5,0.35"], 1),
            (["approx", "--t", "exp:1", "--y", "pareto:3.5,0.35", "--u", "10", "--c", "1"], 1),
            (["simulate", "--t", "exp:1", "--y", "pareto:3.5,0.35", "--u", "10", "--c", "1",
              "--horizon", "50", "--trials", "20"], 0),
            (["sweep", "--t", "exp:1", "--y", "pareto:3.5,0.35", "--u", "10", "--horizon", "50",
              "--min", "1", "--max", "1.2", "--step", "0.1", "--methods", "sim",
              "--trials", "20"], 0),
        ],
        ids=["constants", "approx", "simulate", "sweep-sim"],
    )
    def test_heavy_pareto_warns_only_with_expansion(self, argv, warned, capsys):
        # the warning concerns the corrected expansion and its constants
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, _, _ = run_cli(argv, capsys)
        assert code == 0
        assert [w.category for w in caught] == [RuntimeWarning] * warned

    def test_sim_only_sweep_of_moment_poor_law(self, tmp_path, capsys):
        # Pareto shape 2.5 has no third moment: no constants, but simulation runs
        out = tmp_path / "p.csv"
        code, stdout, _ = run_cli(
            ["sweep", "--t", "pareto:2.5,1", "--y", "exp:1", "--u", "10",
             "--horizon", "50", "--min", "1", "--max", "1.2", "--step", "0.1",
             "--methods", "sim", "--trials", "50", "--out", str(out)],
            capsys,
        )
        assert code == 0
        assert out.read_text().split("\n")[0] == "x,sim,sim_ci_low,sim_ci_high"
        kv = parse_kv(stdout)
        assert {"T", "Y", "rows"} <= set(kv)
        assert "c_star" not in kv

    def test_t_sweep(self, capsys):
        code, stdout, _ = run_cli(
            ["sweep", "--var", "t", "--min", "20", "--max", "100", "--step", "20",
             "--t", "exp:1", "--y", "exp:1", "--u", "10", "--c", "1",
             "--methods", "exact"],
            capsys,
        )
        assert code == 0
        lines = [l for l in stdout.splitlines() if l and l[0].isdigit()]
        vals = [float(l.split(",")[1]) for l in lines]
        assert vals == sorted(vals)  # nondecreasing in t

    def test_t_sweep_with_sim_needs_no_cap(self, capsys):
        # node horizons are the t values themselves
        code, stdout, _ = run_cli(
            ["sweep", "--var", "t", "--min", "20", "--max", "60", "--step", "20",
             "--t", "exp:1", "--y", "exp:1", "--u", "10", "--c", "1",
             "--methods", "exact,sim", "--trials", "300", "--seed", "5"],
            capsys,
        )
        assert code == 0
        rows = [l.split(",") for l in stdout.splitlines() if l and l[0].isdigit()]
        for row in rows:
            exact_val, sim_lo, sim_hi = float(row[1]), float(row[3]), float(row[4])
            assert sim_lo - 0.05 <= exact_val <= sim_hi + 0.05

    def test_sim_sweep_infinite_horizon_needs_cap(self, capsys):
        args = [a for a in SWEEP_ARGS if a != "--horizon" and a != "100"]
        code, _, err = run_cli(args, capsys)
        assert code == 1
        assert "inf-cap" in err

    def test_unknown_method(self, capsys):
        args = list(SWEEP_ARGS)
        args[args.index("--methods") + 1] = "main,magic"
        code, _, err = run_cli(args, capsys)
        assert code == 1
        assert "unknown method" in err


def sim_cells(stdout):
    """(x, sim) of every CSV row printed to stdout."""
    rows = [line.split(",") for line in stdout.splitlines() if line[:1].isdigit()]
    header = next(line for line in stdout.splitlines() if line.startswith("x,")).split(",")
    i_sim = header.index("sim")
    return [(float(row[0]), row[i_sim]) for row in rows]


class TestNodeSeeding:
    """Sweep node i simulates from substream_seed(seed, i), i the row index,
    whether the node runs in this process or in a forked worker."""

    @staticmethod
    def sweep_stdout(argv, capsys, set_cpus):
        """The sweep's stdout, required to be the same bytes with one CPU
        (nodes in this process) and with two (nodes in forked workers)."""
        outs = []
        for cpus in (1, 2):
            forked = set_cpus(cpus)
            code, stdout, _ = run_cli(argv, capsys)
            assert code == 0
            outs.append(stdout)
        assert forked == [2]
        assert outs[0] == outs[1]
        return outs[0]

    def test_c_sweep_with_capped_infinite_horizon(self, capsys, set_cpus):
        stdout = self.sweep_stdout(
            ["sweep", "--var", "c", "--min", "0.8", "--max", "1.4", "--step", "0.2",
             "--t", "exp:1", "--y", "exp:1", "--u", "10", "--horizon", "inf",
             "--inf-cap", "200", "--methods", "main,sim", "--trials", "150",
             "--seed", "11"],
            capsys, set_cpus,
        )
        cells = sim_cells(stdout)
        assert [x for x, _ in cells] == [0.8, 1.0, 1.2, 1.4]
        for i, (c, cell) in enumerate(cells):
            est = simulate_conditional(
                Exponential(1.0), Exponential(1.0), 10.0, c, 0.0, 200.0, 150,
                substream_seed(11, i),
            )
            assert cell == f"{est.estimate:.12g}"

    def test_t_sweep_drops_nodes_before_indexing(self, capsys, set_cpus):
        stdout = self.sweep_stdout(
            ["sweep", "--var", "t", "--min", "10", "--max", "70", "--step", "20",
             "--t", "erlang:2,2", "--y", "exp:1", "--u", "3", "--c", "0.5", "--v", "30",
             "--methods", "sim", "--trials", "150", "--seed", "11"],
            capsys, set_cpus,
        )
        cells = sim_cells(stdout)
        assert [x for x, _ in cells] == [50.0, 70.0]  # 10 and 30 are not after v
        for i, (t, cell) in enumerate(cells):
            est = simulate_conditional(
                Erlang(2.0, 2), Exponential(1.0), 3.0, 0.5, 30.0, t, 150,
                substream_seed(11, i),
            )
            assert cell == f"{est.estimate:.12g}"


class TestSeedResolution:
    def test_env_seed_used_as_default(self, capsys, monkeypatch):
        argv = ["simulate", "--t", "exp:1", "--y", "exp:1", "--u", "10", "--c", "1",
                "--horizon", "50", "--trials", "100"]
        monkeypatch.setenv("FPT_SEED", "31415")
        _, out_env, _ = run_cli(argv, capsys)
        monkeypatch.delenv("FPT_SEED")
        _, out_explicit, _ = run_cli(argv + ["--seed", "31415"], capsys)
        assert parse_kv(out_env) == parse_kv(out_explicit)

    @pytest.mark.parametrize("argv", [
        ["simulate", "--c", "1"],
        ["sweep", "--min", "1", "--max", "1", "--step", "1", "--methods", "sim"],
    ], ids=["simulate", "sweep"])
    def test_non_integer_env_seed_is_an_error(self, argv, capsys, monkeypatch):
        monkeypatch.setenv("FPT_SEED", "abc")
        code, out, err = run_cli(
            argv + ["--t", "exp:1", "--y", "exp:1", "--u", "1", "--horizon", "5",
                    "--trials", "10"],
            capsys,
        )
        assert code == 1
        assert out == ""
        assert err == "error: FPT_SEED must be an integer, got 'abc'\n"

    def test_explicit_seed_beats_env(self, capsys, monkeypatch):
        argv = ["simulate", "--t", "exp:1", "--y", "exp:1", "--u", "10", "--c", "1",
                "--horizon", "50", "--trials", "100", "--seed", "3"]
        monkeypatch.setenv("FPT_SEED", "31415")
        _, out, _ = run_cli(argv, capsys)
        assert parse_kv(out)["seed"] == "3"


class TestEvaluateSweepApi:
    def test_erlang_pair_corrected_only(self):
        result = evaluate_sweep(
            parse_spec("erlang:1.2,2"), parse_spec("erlang:1,2"),
            SweepGrid(0.8, 1.6, 0.2), ("main", "corrected"),
            u=40.0, v=0.0, horizon=1000.0,
        )
        assert [x for x, _ in result.rows] == [0.8, 1.0, 1.2, 1.4, 1.6]
        k = constants_for(parse_spec("erlang:1.2,2"), parse_spec("erlang:1,2"))
        for x, values in result.rows:
            assert set(values) == {"main", "corrected"}
            q = CrossingQuery(u=40.0, c=x, v=0.0, t=1000.0)
            assert values["main"] == main_term(q, k)
            assert values["corrected"] == corrected_expansion(q, k).corrected

    def test_render_svg_parses(self):
        result = evaluate_sweep(
            parse_spec("exp:1"), parse_spec("exp:1"), SweepGrid(0.5, 1.5, 0.5), ("main",),
            u=10.0, v=0.0, horizon=math.inf,
        )
        ET.fromstring(render_svg(result))

    def test_error_paths(self):
        with pytest.raises(LevelCrossError):
            evaluate_sweep(
                parse_spec("exp:1"), parse_spec("exp:1"), SweepGrid(1, 1, 1), (),
                u=10.0, horizon=100.0,
            )
