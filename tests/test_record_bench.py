"""The pure helpers of ``tools/record_bench.py``, which writes the
BENCH_<n>.json files; running the benchmark itself is left to the tool."""

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
            "end_to_end": [{"name": "wall_s"}]}))
        roots.append(str(root))
    calls = []

    def fake_bench(root, workload, seconds, trace):
        calls.append((root, seconds, trace))
        return {"correct": True, "metrics": {"wall_s": {"value": float(len(calls))}}}

    monkeypatch.setattr(record_bench, "bench", fake_bench)
    monkeypatch.setattr(record_bench, "tier1", lambda root: {})
    outs = [str(tmp_path / "BENCH_0.json"), str(tmp_path / "BENCH_1.json")]
    record_bench.main(["--root", roots[0], "--out", outs[0], "--root", roots[1],
                       "--out", outs[1], "--runs", "3"])
    assert {seconds for _, seconds, _ in calls} == {40}
    assert [root for root, _, trace in calls if trace == 0] == [
        roots[0], roots[1], roots[1], roots[0], roots[0], roots[1]]
    assert [root for root, _, trace in calls if trace == 1] == roots
    first = json.loads(Path(outs[0]).read_text())
    assert first["settings"]["seconds"] == 40
    assert first["workloads"]["w"]["end_to_end"]["wall_s"]["runs"] == [1.0, 4.0, 5.0]
