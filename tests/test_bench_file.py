"""tools/bench_file.py on chain_bench logs of two fixtures per side."""

import importlib.util
import json
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_file.py"


def _tool():
    spec = importlib.util.spec_from_file_location("bench_file", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _chain_log(path: Path, fixture: str, median_ms: float, chain_sha: str) -> Path:
    """A chain_bench stdout: its human lines, then its JSON result line."""
    doc = {
        "fixture": fixture, "steps": 300, "tuples": 700 if fixture == "cross" else 400,
        "ms_per_candidate": {"min": median_ms - 1.0, "median": median_ms},
        "matvecs_per_candidate": 1.0, "counters": {"memo_hits": 14},
        "chain_sha256": chain_sha, "program_sha256": "p-" + fixture,
    }
    path.write_text(f"ms per candidate: median {median_ms:.2f}\n{json.dumps(doc, sort_keys=True)}\n")
    return path


def _logs(root: Path, side: str, runs: dict[str, list[float]], chain_sha: dict[str, str]) -> list[Path]:
    root.mkdir(exist_ok=True)
    return [_chain_log(root / f"{side}.{fixture}.{k}.log", fixture, ms, chain_sha[fixture])
            for fixture, times in runs.items() for k, ms in enumerate(times)]


SHA = {"cross": "c-cross", "coverage": "c-coverage"}


def test_each_fixture_is_summarized_apart(tmp_path):
    logs = _logs(tmp_path, "parent", {"cross": [30.0, 31.0, 30.6], "coverage": [21.9, 22.0]}, SHA)
    summary = _tool().summarize_chains(logs)
    assert sorted(summary) == ["coverage", "cross"]
    cross, coverage = summary["cross"], summary["coverage"]
    assert (cross["runs"], cross["median_ms"], cross["tuples"]) == (3, 30.6, 700)
    assert (coverage["runs"], coverage["median_ms"], coverage["tuples"]) == (2, 21.95, 400)
    assert cross["deterministic"] and coverage["deterministic"]
    assert (cross["chain_sha256"], coverage["chain_sha256"]) == ("c-cross", "c-coverage")


def test_change_is_compared_with_the_parent_per_fixture(tmp_path):
    tool = _tool()
    parent = _logs(tmp_path, "parent", {"cross": [30.0, 32.0], "coverage": [22.0, 24.0]}, SHA)
    change = _logs(tmp_path, "change", {"coverage": [20.0, 25.0], "cross": [33.0, 29.0]},
                   {"cross": "c-cross", "coverage": "drifted"})
    fixtures = tool.compare_chains(parent, change)
    assert sorted(fixtures) == ["coverage", "cross"]
    cross, coverage = fixtures["cross"]["change_vs_parent"], fixtures["coverage"]["change_vs_parent"]
    assert (cross["median_ratio"], cross["pairs"], cross["change_lower"], cross["same_outputs"]) == (1.0, 2, 1, True)
    assert (coverage["median_ratio"], coverage["pairs"], coverage["change_lower"]) == (22.5 / 23.0, 2, 1)
    assert coverage["same_outputs"] is False


def test_a_fixture_run_on_one_side_only_gets_no_comparison(tmp_path):
    tool = _tool()
    parent = _logs(tmp_path, "parent", {"cross": [30.0], "coverage": [22.0]}, SHA)
    change = _logs(tmp_path, "change", {"cross": [29.0]}, SHA)
    fixtures = tool.compare_chains(parent, change)
    assert sorted(fixtures["coverage"]) == ["parent"]
    assert sorted(fixtures["cross"]) == ["change", "change_vs_parent", "parent"]
