"""The pure helpers of ``tools/record_bench.py``, which writes the
BENCH_<n>.json files, and its main loop with the benchmark run stubbed
out."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("record_bench", ROOT / "tools" / "record_bench.py")
record_bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(record_bench)


def test_summary_keeps_runs_and_takes_inclusive_quartiles():
    got = record_bench.summary([4.0, 1.0, 3.0, 2.0, 5.0])
    assert got == {"runs": [4.0, 1.0, 3.0, 2.0, 5.0], "median": 3.0, "q1": 2.0, "q3": 4.0,
                   "iqr": 2.0}
    assert record_bench.summary([7.0])["iqr"] == 0.0


def test_wins_are_strict_in_the_better_direction():
    assert record_bench.wins([1.0, 2.0, 3.0, 4.0], [2.0, 2.0, 1.0, 5.0], "lower") == 2
    assert record_bench.wins([1.0, 2.0, 3.0, 4.0], [2.0, 2.0, 1.0, 5.0], "higher") == 1


def test_pytest_counts():
    assert record_bench.pytest_counts("561 passed in 26.99s") == {"passed": 561}
    assert record_bench.pytest_counts("2 failed, 559 passed, 1 skipped in 30.0s") == {
        "failed": 2, "passed": 559, "skipped": 1}


def test_source_lines_counts_newlines_like_wc():
    got = record_bench.source_lines(str(ROOT))
    init = ROOT / "src" / "levelcross" / "__init__.py"
    assert got["files"]["src/levelcross/__init__.py"] == init.read_text().count("\n")
    assert got["total"] == sum(got["files"].values())


def test_main_runs_at_run_seconds_and_alternates(tmp_path, monkeypatch):
    roots = []
    for name in ("a", "b"):
        root = tmp_path / name
        (root / "perfbench").mkdir(parents=True)
        (root / "perfbench" / "run.py").write_text("")
        (root / "BENCHMARK.json").write_text(json.dumps({
            "run_seconds": 40, "workloads": [{"name": "w"}],
            "end_to_end": [{"name": "wall_s", "better": "lower"},
                           {"name": "rate", "better": "higher"}]}))
        roots.append(str(root))
    calls = []

    def fake_bench(root, workload, seconds, trace):
        calls.append((root, seconds, trace))
        # wall_s: the checkout run first in each pair reads lower; rate: b
        # reads higher in every pair but the second, a tie
        rate = 2.0 if root == roots[1] and len(calls) != 3 else 1.0
        return {"correct": True, "metrics": {"wall_s": {"value": float(len(calls))},
                                             "rate": {"value": rate}}}

    monkeypatch.setattr(record_bench, "bench", fake_bench)
    monkeypatch.setattr(record_bench, "tier1", lambda root: {})
    # each checkout's commit reads as its directory name
    monkeypatch.setattr(record_bench, "_git", lambda root, *args: Path(root).name)
    outs = [str(tmp_path / "BENCH_0.json"), str(tmp_path / "BENCH_1.json")]
    record_bench.main(["--root", roots[0], "--out", outs[0], "--root", roots[1],
                       "--out", outs[1], "--runs", "3"])
    assert {seconds for _, seconds, _ in calls} == {40}
    assert [root for root, _, trace in calls if trace == 0] == [
        roots[0], roots[1], roots[1], roots[0], roots[0], roots[1]]
    assert [root for root, _, trace in calls if trace == 1] == roots
    first, second = (json.loads(Path(out).read_text())["workloads"]["w"]["end_to_end"]
                     for out in outs)
    assert json.loads(Path(outs[0]).read_text())["settings"]["seconds"] == 40
    assert first["wall_s"]["runs"] == [1.0, 4.0, 5.0]
    assert second["wall_s"]["runs"] == [2.0, 3.0, 6.0]
    # a against b in the pairs (1, 2), (4, 3) and (5, 6)
    assert first["wall_s"]["wins"] == [{"root_position": 2, "commit": "b", "won": 2, "of": 3}]
    assert second["wall_s"]["wins"] == [{"root_position": 1, "commit": "a", "won": 1, "of": 3}]
    assert [first["rate"]["wins"][0]["won"], second["rate"]["wins"][0]["won"]] == [0, 2]
