"""Peak resident memory and minor page faults after each stage of one workload round.

    python3 tools/stage_rss.py --root SOURCE_CHECKOUT --workload cross \
        [--seed 200] [--size full] [--dir DIR] [--traced]

Runs one round of a benchmark workload (the stages, arguments and repeated
calls of ``bench/workloads.py`` under ROOT) in this process, the way
``bench/pipeline.py`` does, with swarmcomm imported from ROOT/src and every
BLAS thread variable set to 1. After each stage it prints the process's peak
resident set size so far (``ru_maxrss``) and its minor page faults, so the
stage that sets the round's peak is the first one whose line reaches it. The
last line is the same as one JSON object. Run it once per process: the peak
of an earlier round would hide the next one's.

With --traced it also prints each stage's own ``tracemalloc`` peak: the most
bytes the program's allocations held at once during that stage. That figure
moves only when what the program allocates moves, while ``ru_maxrss`` also
moves with heap layout and fragmentation; tracing costs time and some memory
of its own, so the two kinds of run are not compared with each other.

Without --dir the round runs in a temporary directory that is removed after.
No bytecode is written, so ROOT's ``bench/`` stays as checked out. Standard
library and numpy only.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("SWARM_SEED", None)  # harness.resolve_seed lets it override every --seed

import argparse
import contextlib
import json
import resource
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

sys.dont_write_bytecode = True


def _import(root: Path):
    src, bench = root / "src", root / "bench"
    if not (src / "swarmcomm" / "cli.py").is_file() or not (bench / "workloads.py").is_file():
        raise SystemExit(f"error: no swarmcomm sources and bench/workloads.py under {root}")
    sys.path[:0] = [str(src), str(bench)]
    import swarmcomm
    import workloads
    from swarmcomm import cli

    if Path(swarmcomm.__file__).resolve().parent != (src / "swarmcomm").resolve():
        raise SystemExit(f"error: imported swarmcomm from {swarmcomm.__file__}, not {src}")
    return cli, workloads


def _usage() -> tuple[float, int]:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_maxrss / 1024.0, usage.ru_minflt


def _traced_peak() -> dict:
    """The tracemalloc peak since the last call, in MB, as a row field; empty when not tracing."""
    if not tracemalloc.is_tracing():
        return {}
    peak = tracemalloc.get_traced_memory()[1] / 1e6
    tracemalloc.reset_peak()
    return {"traced_peak_mb": peak}


def _line(label: str, row: dict) -> str:
    traced = f"  traced {row['traced_peak_mb']:7.1f} MB" if "traced_peak_mb" in row else ""
    return f"{label:<22} maxrss {row['maxrss_mb']:7.1f} MB  minflt {row['minflt']:8d}{traced}"


def run_round(cli, workloads, name: str, seed: int, size: str, directory: Path) -> dict:
    workload = workloads.WORKLOADS[name]
    os.chdir(directory)
    workloads.write_inputs(workload, size, seed, Path("."))
    seeds = json.loads(Path("seeds.json").read_text())
    rss, faults = _usage()
    rows = [{"stage": "setup", "rcs": [], "seconds": 0.0, "maxrss_mb": rss, "minflt": faults, **_traced_peak()}]
    print(_line("setup", rows[0]), flush=True)
    with open("stages.log", "w") as log:
        for stage in workloads.plan(workload, size, seeds):
            label = stage.command + (f":{stage.policy}" if stage.policy else "")
            start, rcs = time.perf_counter(), []
            for _ in range(stage.calls):
                with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
                    rcs.append(cli.main(stage.argv(Path("."))))
            seconds = time.perf_counter() - start
            rss, faults = _usage()
            rows.append({"stage": label, "rcs": rcs, "seconds": seconds, "maxrss_mb": rss, "minflt": faults,
                         **_traced_peak()})
            print(f"{_line(label, rows[-1])}  {seconds:6.2f} s  rc {rcs}", flush=True)
    # ru_maxrss never falls: the last row holds the peak, and the first row that reaches it set it
    peak = rows[-1]["maxrss_mb"]
    first = next(r for r in rows if r["maxrss_mb"] == peak)
    result = {"workload": name, "seed": seed, "size": size, "stages": rows,
              "peak_rss_mb": peak, "peak_stage": first["stage"]}
    if tracemalloc.is_tracing():
        top = max(rows, key=lambda r: r["traced_peak_mb"])
        result.update(traced_peak_mb=top["traced_peak_mb"], traced_peak_stage=top["stage"])
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=200)
    parser.add_argument("--size", default="full")
    parser.add_argument("--dir", type=Path)
    parser.add_argument("--traced", action="store_true", help="also print each stage's tracemalloc peak")
    args = parser.parse_args()

    home = Path.cwd()
    if args.traced:
        tracemalloc.start()  # before the program is imported, so its set-up is counted too
    cli, workloads = _import(args.root.resolve())
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    with contextlib.ExitStack() as stack:
        if args.dir is None:
            directory = Path(stack.enter_context(tempfile.TemporaryDirectory(prefix="stage_rss_")))
        else:
            directory = args.dir.resolve()
            directory.mkdir(parents=True, exist_ok=True)
        result = run_round(cli, workloads, args.workload, args.seed, args.size, directory)
        os.chdir(home)  # leave the directory before it is removed
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
