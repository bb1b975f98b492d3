"""The summary that scripts/bench_pairs.py prints, on fixed numbers."""

import importlib.util

import pytest

from conftest import REPO_ROOT

_SPEC = importlib.util.spec_from_file_location("bench_pairs", REPO_ROOT / "scripts" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def test_summary_of_fixed_pairs():
    pairs = [
        ({"solve_p50_s": 4.0, "pass_rate": 1.0}, {"solve_p50_s": 3.0, "pass_rate": 1.0}),
        ({"solve_p50_s": 2.0, "pass_rate": 1.0}, {"solve_p50_s": 2.5, "pass_rate": 0.5}),
        ({"solve_p50_s": 5.0, "pass_rate": 1.0}, {"solve_p50_s": 5.0, "pass_rate": 1.0}),
        ({"solve_p50_s": 3.0, "pass_rate": 0.5}, {"solve_p50_s": 1.0, "pass_rate": 1.0}),
    ]
    rows = bench_pairs.summarize(pairs, {"solve_p50_s": "lower", "pass_rate": "higher"})
    # parent 2, 3, 4, 5: median 3.5, inclusive quartiles 2.75 and 4.25;
    # change 3, 2.5, 5, 1: median 2.75; lower is better
    assert rows[0] == ("solve_p50_s", 3.5, 2.75, 2.75, 4.25, 2, 1, 1)
    # higher is better: the change wins the last pair, loses the second
    assert rows[1] == ("pass_rate", 1.0, 1.0, 0.875, 1.0, 1, 1, 2)
    lines = bench_pairs.format_rows(rows)
    assert lines[1].split() == ["solve_p50_s", "3.5", "2.75", "-21.4", "2.75", "4.25", "2/1/1"]


def test_one_pair_has_its_value_as_quartiles():
    rows = bench_pairs.summarize([({"run_s": 2.0}, {"run_s": 2.0})], {})
    assert rows == [("run_s", 2.0, 2.0, 2.0, 2.0, 0, 0, 1)]


def test_metrics_are_read_from_the_last_line(tmp_path, monkeypatch):
    # a stand-in for bench/run.py: progress lines, then one JSON object
    (tmp_path / "bench").mkdir()
    (tmp_path / "bench" / "run.py").write_text(
        "import json\nprint('# run')\n"
        "print(json.dumps({'correct': True, 'attempted': 3, 'failed': 0,"
        " 'metrics': {'run_s': {'value': 0.5, 'unit': 's'}}}))\n")
    metrics, faults = bench_pairs.run_once(tmp_path, "horizon-wide", 0, 1.0)
    assert metrics == {"run_s": 0.5} and faults >= 0
    (tmp_path / "bench" / "run.py").write_text("raise SystemExit(2)\n")
    with pytest.raises(SystemExit, match="exit 2"):
        bench_pairs.run_once(tmp_path, "horizon-wide", 0, 1.0)
