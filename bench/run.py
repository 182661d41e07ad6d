"""Pipeline benchmark: stage times, output checks and a traced per-layer run.

    python3 bench/run.py --workload cross --seed 0 --seconds 35 --trace 0

Runs the swarmcomm CLI pipeline of one workload (see workloads.py) in fresh
child processes, one round after another: at least three rounds, more while
they fit in ``--seconds``. It checks the first round's outputs (checks.py),
requires every later round to reproduce them byte for byte, and prints one
JSON line: ``correct``, ``attempted`` and ``failed`` (stage calls plus checks)
and the metrics: stage times are means over the rounds, the other figures
medians. ``--trace 1`` instead alternates
one untraced and one traced round (more pairs while they fit) and reports the
per-layer metrics of the traced rounds plus the tracing overhead. Run from
anywhere; it reads the program from ``src/`` next to this directory and
writes only under ``.bench_runs/`` there.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("SWARM_SEED", None)

import argparse
import hashlib
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUNS_DIR = ROOT / ".bench_runs"
# Stage times are means over all rounds of a run, and a run has at least three.
# On a shared two-core machine one stage's time varies by +-15% from round to
# round; with three or four rounds the median discards most samples. Over ten
# runs of cross, collect_s spread (IQR/median) 0.30 as the median over rounds
# and 0.16 as the mean.
MIN_ROUNDS = 3

END_TO_END = [
    ("setup_s", "s"), ("pipeline_s", "s"), ("train_oracle_s", "s"), ("collect_s", "s"),
    ("search_s", "s"), ("retrain_s", "s"), ("evaluate_s", "s"), ("peak_rss_mb", "MB"),
    ("dataset_mb", "MB"), ("eval_loss", "loss/step"), ("eval_max_degree", "degree"),
    ("oracle_loss", "loss/step"),
]
STAGE_METRICS = ["train_oracle_s", "collect_s", "search_s", "retrain_s", "evaluate_s"]


def layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    return "count"


def run_child(workload: str, seed: int, size: str, directory: Path, trace: bool = False) -> dict:
    """One round in a fresh process; returns its result.json, or {} if the process died."""
    cmd = [sys.executable, str(BENCH_DIR / "pipeline.py"), "--workload", workload, "--seed", str(seed),
           "--size", size, "--dir", str(directory)]
    cmd += ["--trace"] * trace
    proc = subprocess.run(cmd + ["--t0", repr(time.monotonic())], stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    result_path = directory / "result.json"
    if proc.returncode != 0 or not result_path.exists():
        print(f"round in {directory} exited {proc.returncode}:\n{proc.stdout[-4000:]}", file=sys.stderr)
        return {}
    return json.loads(result_path.read_text())


def stage_totals(result: dict) -> dict:
    totals = dict.fromkeys(STAGE_METRICS, 0.0)
    for stage in result["stages"]:
        totals[stage["metric"]] += stage["seconds"]
    totals["pipeline_s"] = sum(s["seconds"] for s in result["stages"])
    return totals


def code_digest() -> str:
    h = hashlib.sha256()
    for base in (ROOT / "src", BENCH_DIR):
        for path in sorted(base.rglob("*.py")):
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: the self-tests' few-second version of each workload")
    args = parser.parse_args()

    if not (ROOT / "src" / "swarmcomm" / "cli.py").is_file():
        print(f"error: no swarmcomm sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be >= 0", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH_DIR))
    import checks
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    n_calls = sum(s.calls for s in workloads.plan(workload, args.size, workloads.stage_seeds(workload, args.seed)))

    run_dir = RUNS_DIR / args.workload
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)

    start = time.monotonic()
    plain: list[tuple[Path, dict]] = []
    traced: list[tuple[Path, dict]] = []
    while True:
        round_start = time.monotonic()
        k = len(plain)
        plain.append((run_dir / f"round{k}", run_child(args.workload, args.seed, args.size, run_dir / f"round{k}")))
        if args.trace:
            traced.append((run_dir / f"traced{k}",
                           run_child(args.workload, args.seed, args.size, run_dir / f"traced{k}", trace=True)))
        took = time.monotonic() - round_start
        enough = args.trace or len(plain) >= MIN_ROUNDS
        if enough and time.monotonic() + took > start + args.seconds:
            break

    first_dir = plain[0][0]

    def run_checks(round_dir: Path) -> dict:
        verdicts = {}
        for name, check in checks.round_checks(workload, args.size, args.seed, round_dir):
            try:
                check()
                verdicts[name] = None
            except Exception as exc:  # every failing check is reported, then counted
                verdicts[name] = f"{type(exc).__name__}: {exc}"
        return verdicts

    def differing(a: dict, b: dict) -> list:
        return sorted(k for k in set(a) | set(b) if a.get(k) != b.get(k))

    # Every round attempts the same operations: its stage calls, every output
    # check, and one reproducibility check (round 0 against earlier runs with
    # this seed, later rounds against round 0). A round whose outputs equal
    # round 0's byte for byte gets round 0's check verdicts.
    base_digests = checks.output_digests(first_dir)
    base_verdicts = run_checks(first_dir)
    store = RUNS_DIR / "digests.json"
    known = json.loads(store.read_text()) if store.exists() else {}
    key = f"{code_digest()}:{args.workload}:{args.size}:{args.seed}"
    attempted = failed = 0
    failures: dict = {}
    for i, (round_dir, result) in enumerate(plain + traced):
        ok_calls = sum(rc == 0 for s in result.get("stages", []) for rc in s["rcs"])
        attempted += n_calls + len(base_verdicts) + 1
        failed += n_calls - ok_calls
        digests = base_digests if i == 0 else checks.output_digests(round_dir)
        if i == 0:
            reference = known.setdefault(key, digests)
            verdicts = base_verdicts
        else:
            reference = base_digests
            verdicts = base_verdicts if digests == base_digests else run_checks(round_dir)
        diff = differing(digests, reference)
        verdicts = {**verdicts, "reproducible": f"outputs differ in {diff}" if diff else None}
        for name, error in verdicts.items():
            if error is not None:
                failed += 1
                failures.setdefault(name, f"{round_dir.name}: {error}")
    store.write_text(json.dumps(known, indent=1, sort_keys=True) + "\n")
    for name, error in failures.items():
        known_fault = " (known fault)" if name in checks.KNOWN_FAULTS else ""
        print(f"check {name} FAILED{known_fault}: {error}", file=sys.stderr)
    unexpected = [name for name in failures if name not in checks.KNOWN_FAULTS]

    def ran_clean(result: dict) -> bool:
        return bool(result.get("stages")) and all(rc == 0 for s in result["stages"] for rc in s["rcs"])

    metrics: dict = {}
    ok_plain = [r for _, r in plain if ran_clean(r)]
    if args.trace:
        ok_traced = [r for _, r in traced if r.get("layers") and ran_clean(r)]
        if ok_plain and ok_traced:
            for name in ok_traced[0]["layers"]:
                value = statistics.median(r["layers"][name] for r in ok_traced)
                metrics[name] = {"value": value, "unit": layer_unit(name)}
            overhead = (statistics.median(stage_totals(r)["pipeline_s"] for r in ok_traced)
                        - statistics.median(stage_totals(r)["pipeline_s"] for r in ok_plain))
            metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    elif ok_plain:
        values = {"setup_s": statistics.median(r["setup_s"] for r in ok_plain)}
        totals = [stage_totals(r) for r in ok_plain]
        for name in ["pipeline_s"] + STAGE_METRICS:
            values[name] = statistics.fmean(t[name] for t in totals)
        values["peak_rss_mb"] = statistics.median(r["peak_rss_mb"] for r in ok_plain)
        values["dataset_mb"] = (first_dir / "data.jsonl").stat().st_size / 1e6
        combined = json.loads((first_dir / workloads.eval_out("combined")).read_text())
        oracle = json.loads((first_dir / workloads.eval_out("tf-full")).read_text())
        values["eval_loss"] = combined["loss_mean"]
        values["eval_max_degree"] = combined["total_deg_mean"]
        values["oracle_loss"] = oracle["loss_mean"]
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}

    for name, m in metrics.items():
        print(f"{name:32s} {m['value']:>14.6g} {m['unit']}")
    print(f"rounds {len(plain)} untraced, {len(traced)} traced; {attempted} attempted, {failed} failed"
          + (f" ({', '.join(failures)})" if failures else ""))
    print(json.dumps({
        "correct": not unexpected and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
