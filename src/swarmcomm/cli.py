"""Command-line pipeline: train-oracle, collect, synthesize, retrain, evaluate, sweep, attn-dump.

Every stage writes a RunManifest next to its primary output; `swarmcomm rerun
<manifest>` replays the stage with the recorded arguments and seed, which must
reproduce the outputs byte for byte; it refuses to run when an input file
changed since. The SWARM_SEED environment variable overrides any configured
seed, except in a rerun.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Optional, Sequence, TypeVar

import numpy as np

from . import dsl, env, harness, synth
from .autodiff import NonFiniteValue
from .dsl import parse_program, print_program
from .env import TaskConfig, rollout
from .harness import RunManifest, evaluate, file_sha256, report, resolve_seed
from .jsondoc import DecodeError, check
from .policy import POLICY_NAMES, make_policy
from .synth import SynthConfig, SynthDataset, collect_dataset, synthesize_multiround, write_chain_csv
from .training import TrainConfig, retrain, train_oracle, write_curve_csv
from .transformer import TransformerParams

T = TypeVar("T")


class CliError(Exception):
    def __init__(self, category: str, message: str):
        super().__init__(message)
        self.category = category


def _read(path: str, load: Callable[[Path], T]) -> T:
    """Load one input file: missing is missing-input, malformed is bad-config naming the file.

    A program written for another state dimension is a dim-mismatch.
    """
    p = Path(path)
    if not p.is_file():
        raise CliError("missing-input", f"input file not found: {path}")
    try:
        return load(p)
    except dsl.DimensionMismatch as exc:
        raise CliError("dim-mismatch", f"{path}: {exc} by the parameters") from exc
    except (ValueError, LookupError, TypeError) as exc:
        raise CliError("bad-config", f"{path}: {exc}") from exc


def _load_programs(paths: Sequence[str], params: TransformerParams) -> list[dsl.Program]:
    programs = [_read(path, lambda p: parse_program(p.read_text(), params.state_dim)) for path in paths]
    if len(programs) != params.rounds:
        raise CliError(
            "dim-mismatch",
            f"{params.rounds} communication rounds need {params.rounds} program files, got {len(programs)}",
        )
    return programs


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CliError("usage", message)


def _seed(args: argparse.Namespace) -> int:
    """The run's seed (see resolve_seed), which must be a non-negative integer."""
    try:
        seed = resolve_seed(args.seed)
    except ValueError as exc:  # SWARM_SEED is not an integer
        raise CliError("usage", f"SWARM_SEED: {exc}") from exc
    _require(seed >= 0, f"the seed must be >= 0, got {seed}")
    return seed


def _config(cls: Callable[..., T], options: dict[str, tuple[str, object]]) -> T:
    """cls(**values) from options mapping each field to (flag, value).

    An invalid value is a usage error naming its flag: the config's messages
    start with the field's name.
    """
    try:
        return cls(**{name: value for name, (_, value) in options.items()})
    except ValueError as exc:
        message = str(exc)
        for name, (flag, _) in options.items():
            if message.startswith(name):
                message = flag + message[len(name):]
        raise CliError("usage", message) from exc


def _train_config(args: argparse.Namespace, seed: int) -> TrainConfig:
    return _config(TrainConfig, {
        "n_rollouts": ("--rollouts", args.rollouts),
        "batch_size": ("--batch", args.batch),
        "discount": ("--discount", args.discount),
        "learning_rate": ("--lr", args.lr),
        "grad_clip": ("--clip", args.clip),
        "seed": ("--seed", seed),
    })


def _require_comm_weight(args: argparse.Namespace) -> None:
    _require(math.isfinite(args.comm_weight) and args.comm_weight >= 0,
             f"--comm-weight must be finite and >= 0, got {args.comm_weight}")


def _check_dims(params: TransformerParams, cfg: TaskConfig) -> None:
    mismatch = params.task_mismatch(cfg)
    if mismatch:
        raise CliError("dim-mismatch", mismatch)


@dataclass
class _Written:
    """What a stage wrote: its seed and its output files."""

    seed: int
    outputs: list


def _run_stage(command: str, args: argparse.Namespace) -> int:
    """Run a stage and write its manifest.

    Every input is hashed before the stage runs, so a stage that writes an
    output over one of its inputs records the input it read, and rerun
    refuses to replay it once the file has changed.
    """
    _check_writes(command, args)
    manifest_path = _manifest_path(command, args)
    handler, input_files = _STAGES[command]
    inputs = [p for p in input_files(args) if Path(p).is_file()]
    manifest = RunManifest.capture(command, vars(args), 0, inputs)  # the seed is the stage's to resolve
    written = handler(args)
    manifest.seed, manifest.outputs = written.seed, [str(o) for o in written.outputs]
    manifest.save(manifest_path)
    return 0


def _outputs(args: argparse.Namespace, dests: Sequence[str]) -> list[tuple[str, Path]]:
    """(flag, path) of each of dests the stage has and was given."""
    given = [d for d in dests if getattr(args, d, None) is not None]
    return [("--" + d.replace("_", "-"), Path(getattr(args, d))) for d in given]


def _check_writes(command: str, args: argparse.Namespace, derived: Sequence[tuple[str, Path]] = ()) -> None:
    """Usage errors, before the stage writes anything, for what it writes.

    An output directory must not be a file, nor lie under one; the stage
    creates it before it writes any file. The files are the output files, the
    manifest and those given in derived (round-2 programs and chain logs,
    report and sweep files), each with the flag it is named after. None may be
    a directory or where an output directory goes; each needs a directory to
    go into, there or created; and no two may resolve to the same file: the
    later write would destroy the earlier. A stage that names derived files
    once it has read its inputs checks again.
    """
    made: dict[Path, str] = {}  # the output directories and the directories above them, resolved
    for flag, path in _outputs(args, ("report_dir", "out_dir")):
        existing = next(p for p in (path, *path.parents) if p.exists())
        _require(existing.is_dir(), f"{flag}: {existing} is a file, not a directory")
        made.update({p.resolve(): flag for p in (path, *path.parents)})
    manifest = ("--out-dir" if command == "sweep" else "--out", _manifest_path(command, args))
    seen: dict[Path, str] = {}
    for flag, path in [*_outputs(args, ("out", "curve", "chain_log")), manifest, *derived]:
        key = path.resolve()
        _require(not path.is_dir(), f"{flag}: {path}, which the stage writes, names a directory")
        _require(key not in made, f"{flag} writes {path}, where {made.get(key)} makes a directory")
        _require(path.parent.is_dir() or key.parent in made, f"{flag}: no directory {path.parent} to write {path} into")
        _require(key not in seen, f"{seen.get(key)} and {flag} both write {path}; one would destroy the other")
        seen[key] = flag


def _manifest_path(command: str, args: argparse.Namespace) -> Path:
    """Where a stage's manifest goes: into the sweep's --out-dir, else next to --out."""
    if command == "sweep":
        return Path(args.out_dir) / "sweep.manifest.json"
    return Path(str(args.out) + ".manifest.json")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_train_oracle(args: argparse.Namespace) -> _Written:
    seed = _seed(args)
    train_cfg = _train_config(args, seed)
    cfg, rewards = _read(args.config, env.load_config)
    rng = np.random.Generator(np.random.PCG64(seed))
    result = train_oracle(cfg, train_cfg, rng, rewards)
    return _save_trained(args, seed, result, "trained oracle")


def _save_trained(args: argparse.Namespace, seed: int, result, label: str) -> _Written:
    """Write a training stage's parameters and its curve when asked for."""
    result.params.save(args.out)
    outputs = [args.out]
    if args.curve:
        write_curve_csv(args.curve, result.curve)
        outputs.append(args.curve)
    print(f"{label} -> {args.out} (best validation {result.best_validation:.4f})")
    return _Written(seed, outputs)


def cmd_collect(args: argparse.Namespace) -> _Written:
    _require(args.rollouts >= 1, "--rollouts must be >= 1")
    cfg, rewards = _read(args.config, env.load_config)
    params = _read(args.params, TransformerParams.load)
    _check_dims(params, cfg)
    seed = _seed(args)
    rng = np.random.Generator(np.random.PCG64(seed))
    dataset = collect_dataset(params, cfg, args.rollouts, rng, rewards)
    dataset.save_jsonl(args.out)
    print(f"collected {dataset.n_tuples} tuples from {args.rollouts} rollouts -> {args.out}")
    return _Written(seed, [args.out])


def _round_out_paths(out: str, rounds: int) -> list[Path]:
    base = Path(out)
    return [base] + [base.with_name(f"{base.stem}.round{r + 1}{base.suffix}") for r in range(1, rounds)]


def cmd_synthesize(args: argparse.Namespace) -> _Written:
    cfg = _config(SynthConfig, {
        "degree_weight": ("--lambda", args.tradeoff),
        "mcmc_steps": ("--steps", args.steps),
        "inv_temperature": ("--beta", args.beta),
        "n_rules": ("--rules", args.rules),
        "feature_version": ("--features", args.features),
        "allow_random_rules": ("--det-only", not args.det_only),
        "rand_rule_samples": ("--samples", args.samples),
    })
    dataset = _read(args.dataset, SynthDataset.load_jsonl)
    out_paths = _round_out_paths(args.out, dataset.rounds)
    chain_paths = _round_out_paths(args.chain_log, dataset.rounds) if args.chain_log else []
    derived = [("--out", p) for p in out_paths[1:]] + [("--chain-log", p) for p in chain_paths[1:]]
    _check_writes("synthesize", args, derived)
    seed = _seed(args)
    results = synthesize_multiround(dataset, cfg, np.random.Generator(np.random.PCG64(seed)))
    outputs = []
    for r, (result, out_path) in enumerate(zip(results, out_paths)):
        out_path.write_text(print_program(result.program, dataset.state_dim))
        outputs.append(out_path)
        print(f"round {r + 1}: objective {result.objective:.4f} -> {out_path}")
    for result, chain_path in zip(results, chain_paths):
        write_chain_csv(chain_path, result.chain)
        outputs.append(chain_path)
    return _Written(seed, outputs)


def cmd_retrain(args: argparse.Namespace) -> _Written:
    seed = _seed(args)
    train_cfg = _train_config(args, seed)
    cfg, rewards = _read(args.config, env.load_config)
    params = _read(args.params, TransformerParams.load)
    _check_dims(params, cfg)
    programs = _load_programs(args.program, params)
    rng = np.random.Generator(np.random.PCG64(seed))
    result = retrain(params, programs, cfg, train_cfg, rng, rewards)
    return _save_trained(args, seed, result, "retrained")


def _build_policy(args: argparse.Namespace) -> tuple[TaskConfig, env.RewardParams, env.Policy]:
    """The task, rewards and --policy that evaluate and attn-dump run.

    A flag the chosen policy does not read is a usage error, raised before any
    input file is read: --k belongs to dist and hard-attn, --program to combined.
    """
    if args.k is not None and args.policy not in ("dist", "hard-attn"):
        raise CliError("usage", f"--k applies to --policy dist and hard-attn only, not {args.policy}")
    if args.program and args.policy != "combined":
        raise CliError("usage", f"--program applies to --policy combined only, not {args.policy}")
    cfg, rewards = _read(args.config, env.load_config)
    params = _read(args.params, TransformerParams.load)
    _check_dims(params, cfg)
    programs = _load_programs(args.program, params) if args.program else None
    try:
        return cfg, rewards, make_policy(args.policy, params, v_max=cfg.v_max, k=args.k, programs=programs)
    except ValueError as exc:
        raise CliError("usage", str(exc)) from exc


def cmd_evaluate(args: argparse.Namespace) -> _Written:
    _require(args.rollouts >= 1, "--rollouts must be >= 1")
    _require(0.0 < args.gamma <= 1.0, f"--gamma must be in (0, 1], got {args.gamma}")
    _require_comm_weight(args)
    if args.report_dir:
        _check_writes("evaluate", args, [("--report-dir", p) for p in harness.report_paths(args.report_dir).values()])
    cfg, rewards, policy = _build_policy(args)
    seed = _seed(args)
    metrics = evaluate(
        policy, cfg, args.rollouts, args.comm_weight, seed, rewards, gamma=args.gamma
    )
    paths = report([metrics], args.report_dir) if args.report_dir else {}  # makes the directory --out may go into
    Path(args.out).write_text(json.dumps(asdict(metrics), indent=2, sort_keys=True) + "\n")
    print(
        f"{metrics.policy}: loss {metrics.loss_mean:.4f} +/- {metrics.loss_std:.4f}, "
        f"max degree {metrics.total_deg_mean:.2f} -> {args.out}"
    )
    return _Written(seed, [args.out, *paths.values()])


def cmd_sweep(args: argparse.Namespace) -> _Written:
    _require(args.val_rollouts >= 1, "--val-rollouts must be >= 1")
    _require_comm_weight(args)
    base = _config(SynthConfig, {"mcmc_steps": ("--steps", args.steps)})
    dataset = _read(args.dataset, SynthDataset.load_jsonl)
    cfg, rewards = _read(args.config, env.load_config)
    _check_dims(dataset.params, cfg)
    out_dir = Path(args.out_dir)
    cells_csv, best_json = out_dir / "sweep_cells.csv", out_dir / "sweep_best.json"
    best_progs = _round_out_paths(str(out_dir / "sweep_best_program.txt"), dataset.rounds)
    _check_writes("sweep", args, [("--out-dir", p) for p in (cells_csv, best_json, *best_progs)])
    seed = _seed(args)
    rng = np.random.Generator(np.random.PCG64(seed))
    result = harness.sweep(
        dataset,
        base,
        cfg,
        rng,
        n_val_rollouts=args.val_rollouts,
        comm_weight=args.comm_weight,
        reward_params=rewards,
    )
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(cells_csv, "w") as fh:
        fh.write("degree_weight,n_rules,feature_version,loss_mean,total_deg_mean\n")
        for cell in result.cells:
            fh.write(
                f"{cell.degree_weight},{cell.n_rules},{cell.feature_version},"
                f"{cell.metrics.loss_mean!r},{cell.metrics.total_deg_mean!r}\n"
            )
    best_doc = {
        "degree_weight": result.best.degree_weight,
        "n_rules": result.best.n_rules,
        "feature_version": result.best.feature_version,
        "loss_mean": result.best.metrics.loss_mean,
        "total_deg_mean": result.best.metrics.total_deg_mean,
    }
    best_json.write_text(json.dumps(best_doc, indent=2, sort_keys=True) + "\n")
    for cell_result, path in zip(result.best.results, best_progs):
        path.write_text(print_program(cell_result.program, dataset.state_dim))
    print(
        f"sweep best: tradeoff {result.best.degree_weight}, rules {result.best.n_rules}, "
        f"features {result.best.feature_version} -> {best_json}"
    )
    return _Written(seed, [cells_csv, best_json, *best_progs])


def cmd_attn_dump(args: argparse.Namespace) -> _Written:
    cfg, rewards, policy = _build_policy(args)
    seed = _seed(args)
    rng = np.random.Generator(np.random.PCG64(seed))
    traj = rollout(policy, cfg, rng, rewards)
    docs = [{"kind": "attention-dump", "policy": args.policy, "length": len(traj.steps)}]
    docs += [
        {"t": t, "attention": [a.tolist() for a in step.attentions], "edges": sorted(step.graph.edges)}
        for t, step in enumerate(traj.steps)
    ]
    Path(args.out).write_text("".join(json.dumps(doc, sort_keys=True) + "\n" for doc in docs))
    print(f"wrote per-step attention for {len(traj.steps)} steps -> {args.out}")
    return _Written(seed, [args.out])


def cmd_rerun(args: argparse.Namespace) -> int:
    manifest = _read(args.manifest, RunManifest.load)
    if manifest.command not in _STAGES:
        raise CliError("bad-config", f"{args.manifest}: unknown command {manifest.command!r}")
    _check_recorded(args.manifest, manifest.command, manifest.args)
    changed = [
        p for p, digest in manifest.input_hashes.items()
        if not Path(p).is_file() or file_sha256(p) != digest
    ]
    if changed:
        raise CliError("changed-input", f"inputs differ from the recorded run: {', '.join(changed)}")
    # the recorded seed wins over SWARM_SEED, which would otherwise override it
    replay = argparse.Namespace(**{**manifest.args, "seed": manifest.seed})
    saved = os.environ.pop("SWARM_SEED", None)
    try:
        return _run_stage(manifest.command, replay)
    finally:
        if saved is not None:
            os.environ["SWARM_SEED"] = saved


# each stage's handler and its input files, as its manifest records them for rerun to check
_STAGES: dict[str, tuple[Callable[[argparse.Namespace], _Written], Callable[[argparse.Namespace], list[str]]]] = {
    "train-oracle": (cmd_train_oracle, lambda a: [a.config]),
    "collect": (cmd_collect, lambda a: [a.config, a.params]),
    "synthesize": (cmd_synthesize, lambda a: [a.dataset]),
    "retrain": (cmd_retrain, lambda a: [a.config, a.params, *a.program]),
    "evaluate": (cmd_evaluate, lambda a: [a.config, a.params, *(a.program or [])]),
    "sweep": (cmd_sweep, lambda a: [a.dataset, a.config]),
    "attn-dump": (cmd_attn_dump, lambda a: [a.config, a.params, *(a.program or [])]),
}


def _options(command: str) -> list[argparse.Action]:
    """The options a subcommand's handler reads from its arguments, as its parser declares them."""
    (commands,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return [a for a in commands.choices[command]._actions if a.dest != "help"]


def _check_recorded(manifest: str, command: str, recorded: dict) -> None:
    """Each option must be recorded as a value the subcommand's parser could produce.

    That is a value of its type (a list of them when it appends, a boolean
    for a flag) within its choices, or None where None is the default.
    """
    options = _options(command)
    missing = sorted({a.dest for a in options} - set(recorded))
    if missing:
        raise CliError("bad-config", f"{manifest}: the recorded args lack option(s) {', '.join(missing)}")
    for action in options:
        value, item = recorded[action.dest], action.type or str
        if value is None and action.default is None and not action.required:
            continue
        expected = bool if action.nargs == 0 else list[item] if isinstance(action, argparse._AppendAction) else item
        try:
            check(value, expected, f"option {action.dest}")
            if action.choices is not None and value not in action.choices:
                raise DecodeError(f"option {action.dest} must be one of {', '.join(action.choices)}, got {value!r:.60}")
        except DecodeError as exc:
            raise CliError("bad-config", f"{manifest}: {exc}") from exc


def _training_options(p: argparse.ArgumentParser, rollouts: int) -> None:
    """The options train-oracle and retrain share; rollouts is the stage's default --rollouts."""
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--rollouts", type=int, default=rollouts)
    p.add_argument("--batch", type=int, default=16)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--discount", type=float, default=0.99)
    p.add_argument("--clip", type=float, default=10.0)
    p.add_argument("--curve", default=None)


def _policy_options(p: argparse.ArgumentParser) -> None:
    """The options evaluate and attn-dump share: the policy to run, its inputs and the output file."""
    p.add_argument("--params", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--policy", choices=POLICY_NAMES, default="tf-full")
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--program", action="append", default=None)
    p.add_argument("--out", required=True)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="swarmcomm",
        description="train, distill, and evaluate low-degree communication policies",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    _training_options(sub.add_parser("train-oracle", help="train the full-communication policy"), rollouts=2000)

    p = sub.add_parser("collect", help="cache per-step tuples from oracle rollouts")
    p.add_argument("--params", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--rollouts", type=int, default=300)
    p.add_argument("--out", required=True)

    p = sub.add_parser("synthesize", help="search for a communication program")
    p.add_argument("--dataset", required=True)
    p.add_argument("--lambda", dest="tradeoff", type=float, default=0.5)
    p.add_argument("--rules", type=int, default=2)
    p.add_argument("--steps", type=int, default=3000)
    p.add_argument("--features", choices=("v1", "v2"), default="v1")
    p.add_argument("--beta", type=float, default=5.0)
    p.add_argument("--det-only", action="store_true", help="exclude nondeterministic rules")
    p.add_argument("--samples", type=int, default=1)
    p.add_argument("--out", default="program.txt")
    p.add_argument("--chain-log", default=None)

    p = sub.add_parser("retrain", help="fine-tune the networks under hard attention")
    p.add_argument("--params", required=True)
    p.add_argument("--program", action="append", required=True, help="one per communication round")
    _training_options(p, rollouts=500)

    p = sub.add_parser("evaluate", help="measure loss and communication degrees")
    _policy_options(p)
    p.add_argument("--rollouts", type=int, default=100)
    p.add_argument("--comm-weight", dest="comm_weight", type=float, default=1.0)
    p.add_argument("--gamma", type=float, default=0.99)
    p.add_argument("--report-dir", default=None)

    p = sub.add_parser("sweep", help="grid search over tradeoff, rule count, features")
    p.add_argument("--dataset", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--steps", type=int, default=500)
    p.add_argument("--val-rollouts", dest="val_rollouts", type=int, default=20)
    p.add_argument("--comm-weight", dest="comm_weight", type=float, default=1.0)
    p.add_argument("--out-dir", required=True)

    _policy_options(sub.add_parser("attn-dump", help="write per-step attention matrices for one rollout"))

    for stage in sub.choices.values():  # every stage; rerun replays the seed its manifest recorded
        stage.add_argument("--seed", type=int, default=None)
    sub.add_parser("rerun", help="replay a stage from its manifest").add_argument("manifest")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # every overflow ends in one error[non-finite] line from a finiteness check, not in numpy warnings first
        with np.errstate(all="ignore"):
            return cmd_rerun(args) if args.command == "rerun" else _run_stage(args.command, args)
    except CliError as exc:
        print(f"error[{exc.category}]: {exc}", file=sys.stderr)
        return 1
    except (env.EnvError, dsl.DslError, synth.SynthError) as exc:
        print(f"error[bad-config]: {exc}", file=sys.stderr)
        return 1
    except (NonFiniteValue, env.RolloutError) as exc:  # the message names the op or the quantity
        print(f"error[non-finite]: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error[missing-input]: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
