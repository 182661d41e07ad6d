"""tools/out_diff.py on two small round directories."""

import importlib.util
import json
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "out_diff.py"


def _tool():
    spec = importlib.util.spec_from_file_location("out_diff", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _round(root: Path, created: float, objectives: list[str], program: str, stages: str) -> Path:
    (root / "sweep").mkdir(parents=True)
    manifest = {"command": "synthesize", "created_unix": created, "seed": 3, "outputs": ["program.txt"]}
    (root / "program.txt.manifest.json").write_text(json.dumps(manifest))
    rows = [f"{k},{v},{v},1" for k, v in enumerate(objectives)]
    (root / "chain.csv").write_text("\n".join(["step,objective_current,objective_incumbent,accepted", *rows]) + "\n")
    (root / "sweep" / "sweep_best_program.txt").write_text(program)
    (root / "stages.log").write_text(stages)  # telemetry: never compared
    (root / "result.json").write_text(json.dumps({"seconds": created}))
    return root


def test_equal_rounds_exit_0_whatever_their_telemetry(tmp_path, capsys):
    left = _round(tmp_path / "a", 1.0, ["-1.5", "-1.25"], "rule\n", "fast\n")
    right = _round(tmp_path / "b", 2.0, ["-1.5", "-1.25"], "rule\n", "slow\n")
    assert _tool().main([str(left), str(right)]) == 0
    out = capsys.readouterr().out
    assert "3 files, 0 differ" in out
    assert "program.txt.manifest.json: equal sha256" in out


def test_each_difference_is_reported_and_exits_1(tmp_path, capsys):
    left = _round(tmp_path / "a", 1.0, ["-1.5", "-1.25", "-1.0", "-0.5"], "a\nb\nc\n", "")
    right = _round(tmp_path / "b", 1.0, ["-1.5", "-1.25", "np.float64(-1.125)", "-0.25"], "a\nB\nc\n", "")
    (right / "extra.txt").write_text("x\n")
    assert _tool().main([str(left), str(right)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert "chain.csv: chain differs from step 2, max |objective_current difference| 0.25" in lines
    assert "sweep/sweep_best_program.txt: line 2 differs: 'b' vs 'B'" in lines
    assert f"extra.txt: only in {right}" in lines
    assert lines[-1] == "4 files, 3 differ"


def test_a_chain_cut_short_reports_where_it_ends(tmp_path, capsys):
    left = _round(tmp_path / "a", 1.0, ["-1.5", "-1.25", "-1.0"], "", "")
    right = _round(tmp_path / "b", 1.0, ["-1.5", "-1.25"], "", "")
    assert _tool().main([str(left), str(right)]) == 1
    assert "chain.csv: chain differs from step 2, max |objective_current difference| 0, 3 vs 2 steps" in (
        capsys.readouterr().out.splitlines()
    )
