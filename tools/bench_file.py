"""Write a BENCH_<pr>.json file from the output of bench/run.py.

    python3 tools/bench_file.py --pr N \
        --parent-root PARENT_CHECKOUT --parent-runs PARENT_RUN_DIR \
        --change-root . --change-runs CHANGE_RUN_DIR \
        [--tier1-parent-s SECONDS] [--tier1-change-s SECONDS] \
        [--parent-chain LOG ... --change-chain LOG ...] \
        [--parent-stage-rss LOG ... --change-stage-rss LOG ...] --out BENCH_N.json

A run directory holds the captured stdout of ``bench/run.py``: one file
``<workload>.<seed>.log`` per untraced run (``--trace 0``) and one
``<workload>.trace.log`` per workload from a ``--trace 1`` run. The last JSON
line of each file is the run's result. The BENCH file holds, for parent and
change, the min and median of every end-to-end metric per workload, the
deterministic counters and search timings of the traced run, the ``src/`` line count and the
Tier-1 wall time when given; plus the machine (``nproc``, BLAS, thread
variables) and, per metric, the change/parent ratio of the medians, the
parent's interquartile range and how many same-seed pairs the change read
lower or higher. A chain log is the captured stdout of one
``tools/chain_bench.py`` run; given them, the file also holds, per fixture
the log names, each side's per-candidate times, counters and output digests,
its runs paired in the order given.
A stage-rss log is the captured stdout of one ``tools/stage_rss.py`` run;
given them, the file also holds, per side and workload, the peak resident
memory and minor page faults after each stage and the stage that set the peak,
and each stage's ``tracemalloc`` peak from runs with ``--traced``. For both
sides it also records the bytes a taped training unroll holds per world step
(``tape_bytes``), measured in a child process per checkout at the batches of
16 worlds that ``tests/test_fused.py`` counts tape records on: the oracle's
(``tf-full``) and a retrain unroll's under a fixed two-rule deterministic
program (``retrain_mb_per_step``).
Each side also records its checkout's resolved root: ``peak_rss_mb`` moves
with the length of that path (the same files read 123.9 MB from one
directory and 117.1 MB from another), so ``roots_equal_length`` says whether
the two sides' memory figures compare, and a warning goes to stderr when
they do not.
Standard library only; the BLAS name and the tape bytes are read in child
processes, which import numpy and the checkout's swarmcomm.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

COUNTERS = ("synth.candidates", "dsl.eval_program_batch_calls", "autodiff.records_per_iter")
LAYERS = ("synth.score_s", "synth.selection_s", "synth.candidate_ms")  # traced timings kept next to the counters
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def last_json_line(path: Path) -> dict:
    for line in reversed(path.read_text().splitlines()):
        line = line.strip()
        if line.startswith("{"):
            return json.loads(line)
    raise SystemExit(f"error: no JSON result line in {path}")


def src_lines(root: Path) -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted((root / "src").rglob("*.py")))


def summarize(run_dir: Path) -> dict:
    """Per workload: seeds, correctness, failed operations, min/median per metric, traced counters."""
    runs: dict[str, dict[int, dict]] = {}
    traces: dict[str, dict] = {}
    for path in sorted(run_dir.glob("*.log")):
        workload, tag = path.stem.rsplit(".", 1)
        if tag == "trace":
            traces[workload] = last_json_line(path)
        else:
            runs.setdefault(workload, {})[int(tag)] = last_json_line(path)
    out = {}
    for workload, by_seed in sorted(runs.items()):
        results = [by_seed[s] for s in sorted(by_seed)]
        units = {name: m["unit"] for r in results for name, m in r["metrics"].items()}
        metrics = {}
        for name, unit in units.items():
            values = {str(s): r["metrics"][name]["value"] for s, r in sorted(by_seed.items()) if name in r["metrics"]}
            xs = list(values.values())
            q1, _, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (xs[0],) * 3
            metrics[name] = {"unit": unit, "min": min(xs), "median": statistics.median(xs),
                             "q1": q1, "q3": q3, "by_seed": values}
        entry = {
            "seeds": sorted(by_seed),
            "all_correct": all(r["correct"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "metrics": metrics,
        }
        trace = traces.get(workload)
        if trace is not None:
            entry["trace"] = {
                "correct": trace["correct"],
                "failed": trace["failed"],
                "counters": {c: trace["metrics"].get(c, {}).get("value") for c in COUNTERS},
                "layers": {c: trace["metrics"].get(c, {}).get("value") for c in LAYERS},
            }
        out[workload] = entry
    return out


def summarize_chains(logs: list[Path]) -> dict:
    """chain_bench runs of one side, by fixture: per-run median and min ms per candidate, counters, digests."""
    by_fixture: dict[str, list[dict]] = {}
    for path in logs:
        run = last_json_line(path)
        by_fixture.setdefault(run["fixture"], []).append(run)
    return {fixture: _summarize_fixture(runs) for fixture, runs in sorted(by_fixture.items())}


def _summarize_fixture(runs: list[dict]) -> dict:
    medians = [r["ms_per_candidate"]["median"] for r in runs]
    q1, _, q3 = statistics.quantiles(medians, n=4) if len(medians) > 1 else (medians[0],) * 3
    first = runs[0]
    return {
        "runs": len(runs),
        "steps": first["steps"],
        "tuples": first["tuples"],
        "median_ms_by_run": medians,
        "min_ms_by_run": [r["ms_per_candidate"]["min"] for r in runs],
        "median_ms": statistics.median(medians),
        "q1_ms": q1,
        "q3_ms": q3,
        "matvecs_per_candidate": first["matvecs_per_candidate"],
        "counters": first["counters"],
        "deterministic": all((r["counters"], r["chain_sha256"], r["program_sha256"])
                             == (first["counters"], first["chain_sha256"], first["program_sha256"]) for r in runs),
        "chain_sha256": first["chain_sha256"],
        "program_sha256": first["program_sha256"],
    }


def summarize_stage_rss(logs: list[Path]) -> dict:
    """stage_rss runs of one side, by workload and kind of run (plain or traced): peak, the stage that set it,
    and every stage's figures."""
    out: dict = {}
    for path in logs:
        r = last_json_line(path)
        traced = "traced_peak_mb" in r
        entry = {
            "seed": r["seed"],
            "peak_rss_mb": r["peak_rss_mb"],
            "peak_stage": r["peak_stage"],
            "stages": {
                s["stage"]: {k: s[k] for k in ("maxrss_mb", "minflt", "traced_peak_mb") if k in s} for s in r["stages"]
            },
        }
        if traced:
            entry.update(traced_peak_mb=r["traced_peak_mb"], traced_peak_stage=r["traced_peak_stage"])
        out.setdefault(r["workload"], {})["traced" if traced else "plain"] = entry
    return out


def compare_chains(parent_logs: list[Path], change_logs: list[Path]) -> dict:
    """Per fixture, each side's chain_bench summary and, when both sides ran it, the change against the parent."""
    sides = {"parent": summarize_chains(parent_logs), "change": summarize_chains(change_logs)}
    out = {}
    for fixture in sorted(sides["parent"].keys() | sides["change"].keys()):
        entry = out[fixture] = {side: runs[fixture] for side, runs in sides.items() if fixture in runs}
        if len(entry) < 2:
            continue
        before, after = entry["parent"], entry["change"]
        pairs = list(zip(before["median_ms_by_run"], after["median_ms_by_run"]))
        entry["change_vs_parent"] = {
            "median_ratio": after["median_ms"] / before["median_ms"],
            "parent_iqr_ms": before["q3_ms"] - before["q1_ms"],
            "pairs": len(pairs),
            "change_lower": sum(a < b for b, a in pairs),
            "same_outputs": (before["chain_sha256"], before["program_sha256"])
            == (after["chain_sha256"], after["program_sha256"]),
        }
    return out


# one taped unroll per task kind, as tests/test_fused.py::TestRecordsPerIteration runs it, and one retrain unroll
# under the two-rule program of tests/test_fused.py::TestTapeBytesPerStep (the nearest and the farthest sender)
TAPE_BYTES = """
import json, sys, tracemalloc
sys.path.insert(0, sys.argv[1])
import numpy as np
from swarmcomm import autodiff as ad
from swarmcomm.dsl import DetRule, FeatureMap, Program, ScoreExpr, feature_names, true_predicate
from swarmcomm.env import RewardParams, TaskConfig
from swarmcomm.training import sample_world_batch, unroll_score
from swarmcomm.transformer import init_for_task
runs = [(dict(task_kind="random-cross", n_agents_per_group=5, min_groups=2, dt=0.4, horizon=50), 50),
        (dict(task_kind="unlabeled-goals", n_agents_per_group=5, horizon=50), 51),
        (dict(task_kind="random-grid", n_agents_per_group=5, horizon=20, link_failure_prob=0.3), 52)]

def nearest_and_farthest(state_dim):
    fmap = FeatureMap("v1")
    d = np.zeros(fmap.dim(state_dim))
    d[feature_names(fmap, state_dim).index("d")] = 1.0
    return Program(tuple(DetRule(ScoreExpr(tuple(sign * d)), true_predicate(fmap, state_dim)) for sign in (-1.0, 1.0)),
                   fmap)

def held_per_step(cfg, seed, retrain):
    rng = np.random.Generator(np.random.PCG64(seed))
    params = init_for_task(cfg, rng)
    worlds = sample_world_batch(cfg, 16, rng)
    programs = [nearest_and_farthest(cfg.state_dim)] * cfg.comm_rounds if retrain else None
    tracemalloc.start()
    tape = ad.Tape()
    weights = {k: tape.leaf(v, requires_grad=True) for k, v in params.store.params.items()}
    before = tracemalloc.get_traced_memory()[0]
    unroll_score(params, worlds, cfg, RewardParams(), 0.99, rng, programs=programs, tape=tape, weights=weights)
    held = tracemalloc.get_traced_memory()[0] - before
    tracemalloc.stop()
    return worlds[0].n_agents, len(tape.records), held / cfg.horizon / 1e6

out = {}
for fields, seed in runs:
    cfg = TaskConfig(**fields)
    (n_agents, records, mb), (_, retrain_records, retrain_mb) = (held_per_step(cfg, seed, r) for r in (False, True))
    out[cfg.task_kind] = {"n_agents": n_agents, "batch": 16, "horizon": cfg.horizon, "records": records,
                          "mb_per_step": mb, "retrain_records": retrain_records, "retrain_mb_per_step": retrain_mb}
print(json.dumps(out))
"""


def tape_bytes(root: Path) -> dict:
    """Per task kind, the MB a taped unroll of the checkout at root holds per world step, and its records: under
    tf-full, and retraining under a two-rule deterministic program."""
    proc = subprocess.run([sys.executable, "-c", TAPE_BYTES, str(root / "src")], capture_output=True, text=True,
                          timeout=600, env={**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONDONTWRITEBYTECODE": "1"})
    if proc.returncode != 0:
        raise SystemExit(f"error: measuring the tape of {root} failed:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout)


def blas_name() -> str:
    code = ("import numpy; c = numpy.show_config(mode='dicts'); b = c['Build Dependencies']['blas'];"
            "print(b.get('name', '?'), b.get('version', ''))")
    try:
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() or "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pr", type=int, required=True)
    parser.add_argument("--parent-root", type=Path, required=True)
    parser.add_argument("--parent-runs", type=Path, required=True)
    parser.add_argument("--change-root", type=Path, required=True)
    parser.add_argument("--change-runs", type=Path, required=True)
    parser.add_argument("--tier1-parent-s", type=float)
    parser.add_argument("--tier1-change-s", type=float)
    parser.add_argument("--parent-chain", type=Path, nargs="+", default=[])
    parser.add_argument("--change-chain", type=Path, nargs="+", default=[])
    parser.add_argument("--parent-stage-rss", type=Path, nargs="+", default=[])
    parser.add_argument("--change-stage-rss", type=Path, nargs="+", default=[])
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    sides = {}
    for side in ("parent", "change"):
        root, runs = getattr(args, f"{side}_root"), getattr(args, f"{side}_runs")
        sides[side] = {
            "root": str(root.resolve()),
            "src_lines": src_lines(root),
            "tier1_s": getattr(args, f"tier1_{side}_s"),
            "tape_bytes": tape_bytes(root),
            "workloads": summarize(runs),
        }
    roots_equal_length = len(sides["parent"]["root"]) == len(sides["change"]["root"])
    if not roots_equal_length:
        print(f"warning: the checkout roots differ in length ({sides['parent']['root']} vs {sides['change']['root']}),"
              " so peak_rss_mb does not compare between the sides", file=sys.stderr)
    # every end-to-end metric of the benchmark is lower-is-better; a pair is one seed run on both sides
    comparison = {}
    for workload, entry in sides["change"]["workloads"].items():
        before = sides["parent"]["workloads"].get(workload)
        if before is None:
            continue
        rows = {}
        for name, m in entry["metrics"].items():
            if name not in before["metrics"]:
                continue
            b = before["metrics"][name]
            pairs = [s for s in m["by_seed"] if s in b["by_seed"]]
            rows[name] = {
                "median_ratio": m["median"] / b["median"] if b["median"] else None,
                "parent_iqr": b["q3"] - b["q1"],
                "pairs": len(pairs),
                "change_lower": sum(m["by_seed"][s] < b["by_seed"][s] for s in pairs),
                "change_higher": sum(m["by_seed"][s] > b["by_seed"][s] for s in pairs),
            }
        comparison[workload] = rows
    doc = {
        "pr": args.pr,
        "command": "python3 bench/run.py --workload W --seed S --seconds 35 --trace 0|1",
        "machine": {
            "nproc": os.cpu_count(),
            "platform": platform.platform(),
            "python": platform.python_version(),
            "blas": blas_name(),
            # bench/run.py sets every one of these to 1 in its child processes
            "thread_vars": {v: os.environ.get(v) for v in THREAD_VARS},
        },
        "parent": sides["parent"],
        "change": sides["change"],
        "roots_equal_length": roots_equal_length,
        "change_vs_parent": comparison,
    }
    if args.parent_chain and args.change_chain:
        doc["chain_bench"] = {
            "command": "python3 tools/chain_bench.py --root ROOT --fixture F --steps N",
            "fixtures": compare_chains(args.parent_chain, args.change_chain),
        }
    if args.parent_stage_rss and args.change_stage_rss:
        doc["stage_rss"] = {
            "command": "python3 tools/stage_rss.py --root ROOT --workload W --seed S [--traced]",
            **{side: summarize_stage_rss(getattr(args, f"{side}_stage_rss")) for side in ("parent", "change")},
        }
    args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
