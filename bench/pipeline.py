"""One round of a workload: the swarmcomm CLI pipeline, stage after stage, in this process.

    python3 bench/pipeline.py --workload cross --seed 0 --size full \
        --dir .bench_runs/cross/round0 --t0 <time.monotonic() of the caller> [--trace]

Writes ``result.json`` into the round directory: set-up time (from the
caller's ``--t0`` to the first stage call), the wall time and exit code of each
stage call (a stage with ``calls`` > 1 is called that many times in a row), and
the peak resident memory of this process. With ``--trace`` the
public functions of every swarmcomm module are wrapped in spans first; the
spans are written to ``spans.json`` and summarised per layer in the result.
CLI chatter goes to ``stages.log``.
"""

import os

# BLAS and OpenMP read their thread counts once, when numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("SWARM_SEED", None)  # harness.resolve_seed lets it override every --seed

import argparse
import contextlib
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def _import_program():
    src = ROOT / "src"
    if not (src / "swarmcomm" / "cli.py").is_file():
        raise SystemExit(f"error: no swarmcomm sources under {src}")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(BENCH_DIR))
    import swarmcomm
    from swarmcomm import autodiff, cli, dsl, env, harness, policy, synth, training, transformer

    if Path(swarmcomm.__file__).resolve().parent != (src / "swarmcomm").resolve():
        raise SystemExit(f"error: imported swarmcomm from {swarmcomm.__file__}, not {src}")
    modules = {
        "swarmcomm": swarmcomm, "autodiff": autodiff, "cli": cli, "dsl": dsl, "env": env,
        "harness": harness, "policy": policy, "synth": synth, "training": training,
        "transformer": transformer,
    }
    return cli, modules


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", default="full")
    parser.add_argument("--dir", required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    cli, modules = _import_program()
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    round_dir = Path(args.dir)
    round_dir.mkdir(parents=True, exist_ok=True)
    os.chdir(round_dir)
    workloads.write_inputs(workload, args.size, args.seed, Path("."))
    seeds = json.loads(Path("seeds.json").read_text())
    stages = workloads.plan(workload, args.size, seeds)

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer, modules)

    setup_s = time.monotonic() - args.t0
    result = {"setup_s": setup_s, "stages": []}
    with open("stages.log", "w") as log, contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
        for stage in stages:
            argv = None
            calls, rcs = [], []
            for call in range(stage.calls):
                # a repeated call is not traced: the spans cover each stage once
                span = None
                if tracer:
                    tracer.paused = call > 0
                    span = None if tracer.paused else tracer.open(f"cli.{stage.command}")
                start = time.perf_counter()
                try:
                    argv = stage.argv(Path("."))
                    rc = cli.main(argv)
                except (Exception, SystemExit):  # a crashing call is one failed operation; the round goes on
                    traceback.print_exc(file=log)
                    rc = -1
                calls.append(time.perf_counter() - start)
                rcs.append(rc)
                if span is not None:
                    tracer.close(span)
            if tracer:
                tracer.paused = False
            result["stages"].append({
                "command": stage.command, "metric": stage.metric, "policy": stage.policy, "argv": argv,
                # a traced round times the traced call alone, so the overhead compares like with like
                "seconds": calls[0] if tracer else statistics.fmean(calls), "calls": calls, "rcs": rcs,
            })
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        tracer.write(Path("spans.json"))
        result["layers"] = tracer.summary()
    Path("result.json").write_text(json.dumps(result, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
