"""Self-tests of the benchmark.

    python3 -m pytest bench/test_bench.py -q

A tiny-size run of each workload completes with every check passing (the
known program fault aside), the traced run reports every per-layer metric, and
each output check rejects a deliberately corrupted output.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import workloads as wl  # noqa: E402

SEED = 5


def run_bench(workload: str, trace: int = 0, cwd: Path = ROOT, script: Path = BENCH / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def rounds(tmp_path_factory):
    """Tiny run of every workload; a copy of each first round's outputs."""
    out = {}
    for name in wl.WORKLOADS:
        proc = run_bench(name)
        assert proc.returncode == 0, proc.stderr
        dest = tmp_path_factory.mktemp(name) / "round0"
        shutil.copytree(ROOT / ".bench_runs" / name / "round0", dest)
        out[name] = (last_json(proc.stdout), dest)
    return out


@pytest.mark.parametrize("name", list(wl.WORKLOADS))
def test_tiny_run_completes_and_passes_its_checks(rounds, name):
    result, round_dir = rounds[name]
    workload = wl.WORKLOADS[name]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert result["correct"] is True
    # each round: its stage calls, every check, one reproducibility check
    per_round = (sum(s.calls for s in wl.plan(workload, "tiny", wl.stage_seeds(workload, SEED)))
                 + len(checks.round_checks(workload, "tiny", SEED, round_dir)) + 1)
    n_rounds, rest = divmod(result["attempted"], per_round)
    assert rest == 0 and n_rounds >= 3
    known = 0 if workload.sweep else 1  # chain:format, see checks.KNOWN_FAULTS
    assert result["failed"] == known * n_rounds
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    for metric in spec["end_to_end"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert result["metrics"][metric["name"]]["value"] > 0


def test_traced_run_reports_every_per_layer_metric():
    proc = run_bench("cross", trace=1)
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc.stdout)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert result["correct"] is True
    assert set(result["metrics"]) == {m["name"] for m in spec["per_layer"]}
    for metric in spec["per_layer"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    # the same tiny pipeline, untraced and traced: the counts agree with the plan
    sz = wl.WORKLOADS["cross"].sizes["tiny"]
    iterations = (sz.train_rollouts + sz.retrain_rollouts) // wl.TRAIN_BATCH
    assert result["metrics"]["training.iterations"]["value"] == iterations
    assert result["metrics"]["synth.candidates"]["value"] == sz.mcmc_steps


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = run_bench("cross", cwd=tmp_path, script=tmp_path / "bench" / "run.py")
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


# ---------------------------------------------------------------------------
# each check rejects a corrupted output


replay_cache: dict = {}


def replayed(rounds, name: str, policy: str) -> dict:
    workload = wl.WORKLOADS[name]
    _, round_dir = rounds[name]
    stage = next(s for s in wl.plan(workload, "tiny", wl.stage_seeds(workload, SEED)) if s.policy == policy)
    if (name, policy) not in replay_cache:
        replay_cache[name, policy] = checks.replay_evaluation(workload, round_dir, stage.argv(round_dir))
    return replay_cache[name, policy]


@pytest.mark.parametrize("name", ["cross", "coverage"])
def test_reward_nudged_by_one_part_per_million_is_rejected(rounds, name):
    cfg = wl.task_config(wl.WORKLOADS[name], "tiny")
    args = (wl.WORKLOADS[name].formation, cfg["collision_weight"], cfg["collision_distance"])
    records = replayed(rounds, name, "combined")["records"]
    checks.check_rewards(records, *args)
    bad = [checks.RolloutRecord(**vars(r)) for r in records]
    bad[0].rewards = bad[0].rewards.copy()
    bad[0].rewards[3] *= 1.0 + 1e-6
    with pytest.raises(checks.CheckError, match="reward"):
        checks.check_rewards(bad, *args)


def test_extra_edge_above_k_is_rejected(rounds):
    run = replayed(rounds, "cross", "combined")
    records, bounds = run["records"], run["bounds"]
    checks.check_round_graphs(records, bounds)
    rec = checks.RolloutRecord(**vars(records[0]))
    rec.round_edges = [list(step) for step in rec.round_edges]
    n = rec.attentions[0][0].shape[0]
    receiver = 0
    extra = np.asarray([[j, receiver] for j in range(1, bounds[0] + 2)])  # K + 1 senders into agent 0
    rec.round_edges[0][0] = np.unique(np.concatenate([rec.round_edges[0][0], extra]), axis=0)
    assert n > bounds[0] + 1
    with pytest.raises(checks.CheckError, match="in-degree"):
        checks.check_round_graphs([rec], bounds)


def test_degree_mean_off_by_one_edge_is_rejected(rounds):
    cfg = wl.task_config(wl.WORKLOADS["cross"], "tiny")
    run = replayed(rounds, "cross", "combined")
    args = (True, cfg["collision_weight"], cfg["collision_distance"])
    checks.check_metrics(run["records"], run["metrics"], *args)
    bad = dict(run["metrics"], total_deg_mean=run["metrics"]["total_deg_mean"] + 1.0 / (cfg["horizon"] * len(run["records"])))
    with pytest.raises(checks.CheckError, match="total_deg_mean"):
        checks.check_metrics(run["records"], bad, *args)


def test_position_off_the_dynamics_is_rejected(rounds):
    records = replayed(rounds, "coverage", "combined")["records"]
    dt = wl.task_config(wl.WORKLOADS["coverage"], "tiny")["dt"]
    checks.check_dynamics(records, dt, formation=False)
    rec = checks.RolloutRecord(**vars(records[0]))
    rec.positions = rec.positions.copy()
    rec.positions[2, 1, 0] += 1e-9
    with pytest.raises(checks.CheckError, match="x' = x \\+ v dt"):
        checks.check_dynamics([rec], dt, formation=False)


def test_truncated_dataset_line_is_rejected(rounds, tmp_path):
    workload = wl.WORKLOADS["cross"]
    _, round_dir = rounds["cross"]
    sz = workload.sizes["tiny"]
    expected = sz.collect_rollouts * wl.task_config(workload, "tiny")["horizon"]
    checks.check_dataset(round_dir / "data.jsonl", expected, workload.rounds)
    lines = (round_dir / "data.jsonl").read_text().splitlines(keepends=True)
    lines[2] = lines[2][: len(lines[2]) // 2] + "\n"
    bad = tmp_path / "data.jsonl"
    bad.write_text("".join(lines))
    with pytest.raises(checks.CheckError, match="line 3"):
        checks.check_dataset(bad, expected, workload.rounds)


def test_wrong_sweep_winner_is_rejected(rounds, tmp_path):
    _, round_dir = rounds["grid-sweep"]
    state_dim = wl.WORKLOADS["grid-sweep"].state_dim
    winner = checks.check_sweep(round_dir / "sweep", state_dim)
    sweep = tmp_path / "sweep"
    shutil.copytree(round_dir / "sweep", sweep)
    best = json.loads((sweep / "sweep_best.json").read_text())
    other = wl.SWEEP_GRID[0] if (winner["degree_weight"], winner["n_rules"], winner["feature_version"]) != wl.SWEEP_GRID[0] else wl.SWEEP_GRID[1]
    best.update(degree_weight=other[0], n_rules=other[1], feature_version=other[2])
    (sweep / "sweep_best.json").write_text(json.dumps(best))
    with pytest.raises(checks.CheckError, match="near-tie rule"):
        checks.check_sweep(sweep, state_dim)


def test_chain_whose_incumbent_falls_is_rejected(rounds, tmp_path):
    _, round_dir = rounds["cross"]
    steps = wl.WORKLOADS["cross"].sizes["tiny"].mcmc_steps
    checks.check_chain(round_dir / "chain.csv", steps)
    lines = (round_dir / "chain.csv").read_text().splitlines()
    step, current, incumbent, accepted = lines[-1].split(",")
    lines[-1] = ",".join([step, current, "-1e9", accepted])
    bad = tmp_path / "chain.csv"
    bad.write_text("\n".join(lines) + "\n")
    with pytest.raises(checks.CheckError, match="incumbent"):
        checks.check_chain(bad, steps)


def test_program_that_does_not_print_back_is_rejected(rounds, tmp_path):
    workload = wl.WORKLOADS["coverage"]
    _, round_dir = rounds["coverage"]
    checks.check_program(round_dir / "program.round2.txt", workload.rules, workload.state_dim)
    bad = tmp_path / "program.txt"
    bad.write_text((round_dir / "program.round2.txt").read_text().replace(">= 0", ">= 0.0", 1))
    with pytest.raises(checks.CheckError, match="print back"):
        checks.check_program(bad, workload.rules, workload.state_dim)


def test_training_curve_missing_a_row_is_rejected(rounds, tmp_path):
    _, round_dir = rounds["coverage"]
    lines = (round_dir / "oracle_curve.csv").read_text().splitlines()
    bad = tmp_path / "curve.csv"
    bad.write_text("\n".join(lines[:-1]) + "\n")
    iterations = wl.WORKLOADS["coverage"].sizes["tiny"].train_rollouts // wl.TRAIN_BATCH
    checks.check_curve(round_dir / "oracle_curve.csv", iterations)
    with pytest.raises(checks.CheckError, match="rows"):
        checks.check_curve(bad, iterations)
