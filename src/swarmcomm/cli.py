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
from dataclasses import asdict
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


def _write_manifest(command: str, args: argparse.Namespace, seed: int, inputs, outputs, path: Path) -> None:
    manifest = RunManifest.capture(command, {k: v for k, v in vars(args).items() if k != "func"}, seed, inputs)
    manifest.outputs = [str(o) for o in outputs]
    manifest.save(path)


def _manifest_path(primary_output: str) -> Path:
    return Path(str(primary_output) + ".manifest.json")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_train_oracle(args: argparse.Namespace) -> int:
    seed = _seed(args)
    train_cfg = _train_config(args, seed)
    cfg, rewards = _read(args.config, env.load_config)
    rng = np.random.Generator(np.random.PCG64(seed))
    result = train_oracle(cfg, train_cfg, rng, rewards)
    return _save_trained("train-oracle", args, seed, [args.config], result, "trained oracle")


def _save_trained(command: str, args: argparse.Namespace, seed: int, inputs, result, label: str) -> int:
    """Write a training stage's parameters, its curve when asked for, and its manifest."""
    result.params.save(args.out)
    outputs = [args.out]
    if args.curve:
        write_curve_csv(args.curve, result.curve)
        outputs.append(args.curve)
    _write_manifest(command, args, seed, inputs, outputs, _manifest_path(args.out))
    print(f"{label} -> {args.out} (best validation {result.best_validation:.4f})")
    return 0


def cmd_collect(args: argparse.Namespace) -> int:
    _require(args.rollouts >= 1, "--rollouts must be >= 1")
    cfg, rewards = _read(args.config, env.load_config)
    params = _read(args.params, TransformerParams.load)
    _check_dims(params, cfg)
    seed = _seed(args)
    rng = np.random.Generator(np.random.PCG64(seed))
    dataset = collect_dataset(params, cfg, args.rollouts, rng, rewards)
    dataset.save_jsonl(args.out)
    _write_manifest("collect", args, seed, [args.config, args.params], [args.out], _manifest_path(args.out))
    print(f"collected {dataset.n_tuples} tuples from {args.rollouts} rollouts -> {args.out}")
    return 0


def _round_out_paths(out: str, rounds: int) -> list[Path]:
    base = Path(out)
    return [base] + [base.with_name(f"{base.stem}.round{r + 1}{base.suffix}") for r in range(1, rounds)]


def cmd_synthesize(args: argparse.Namespace) -> int:
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
    seed = _seed(args)
    results = synthesize_multiround(dataset, cfg, np.random.Generator(np.random.PCG64(seed)))
    outputs = []
    out_paths = _round_out_paths(args.out, dataset.rounds)
    for r, (result, out_path) in enumerate(zip(results, out_paths)):
        out_path.write_text(print_program(result.program, dataset.state_dim))
        outputs.append(out_path)
        print(f"round {r + 1}: objective {result.objective:.4f} -> {out_path}")
    if args.chain_log:
        for result, chain_path in zip(results, _round_out_paths(args.chain_log, dataset.rounds)):
            write_chain_csv(chain_path, result.chain)
            outputs.append(chain_path)
    _write_manifest("synthesize", args, seed, [args.dataset], outputs, _manifest_path(args.out))
    return 0


def cmd_retrain(args: argparse.Namespace) -> int:
    seed = _seed(args)
    train_cfg = _train_config(args, seed)
    cfg, rewards = _read(args.config, env.load_config)
    params = _read(args.params, TransformerParams.load)
    _check_dims(params, cfg)
    programs = _load_programs(args.program, params)
    rng = np.random.Generator(np.random.PCG64(seed))
    result = retrain(params, programs, cfg, train_cfg, rng, rewards)
    return _save_trained("retrain", args, seed, [args.config, args.params, *args.program], result, "retrained")


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


def cmd_evaluate(args: argparse.Namespace) -> int:
    _require(args.rollouts >= 1, "--rollouts must be >= 1")
    _require(0.0 < args.gamma <= 1.0, f"--gamma must be in (0, 1], got {args.gamma}")
    _require_comm_weight(args)
    cfg, rewards, policy = _build_policy(args)
    seed = _seed(args)
    metrics = evaluate(
        policy, cfg, args.rollouts, args.comm_weight, seed, rewards, gamma=args.gamma
    )
    Path(args.out).write_text(json.dumps(asdict(metrics), indent=2, sort_keys=True) + "\n")
    outputs = [args.out]
    if args.report_dir:
        paths = report([metrics], args.report_dir)
        outputs.extend(paths.values())
    inputs = [args.config, args.params, *(args.program or [])]
    _write_manifest("evaluate", args, seed, inputs, outputs, _manifest_path(args.out))
    print(
        f"{metrics.policy}: loss {metrics.loss_mean:.4f} +/- {metrics.loss_std:.4f}, "
        f"max degree {metrics.total_deg_mean:.2f} -> {args.out}"
    )
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    _require(args.val_rollouts >= 1, "--val-rollouts must be >= 1")
    _require_comm_weight(args)
    base = _config(SynthConfig, {"mcmc_steps": ("--steps", args.steps)})
    dataset = _read(args.dataset, SynthDataset.load_jsonl)
    cfg, rewards = _read(args.config, env.load_config)
    _check_dims(dataset.params, cfg)
    seed = _seed(args)
    rng = np.random.Generator(np.random.PCG64(seed))

    def policy_factory(programs):
        return make_policy("combined", dataset.params, v_max=cfg.v_max, programs=programs)

    result = harness.sweep(
        dataset,
        policy_factory,
        base,
        cfg,
        rng,
        n_val_rollouts=args.val_rollouts,
        comm_weight=args.comm_weight,
        reward_params=rewards,
    )
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    cells_csv = out_dir / "sweep_cells.csv"
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
    best_json = out_dir / "sweep_best.json"
    best_json.write_text(json.dumps(best_doc, indent=2, sort_keys=True) + "\n")
    best_progs = _round_out_paths(str(out_dir / "sweep_best_program.txt"), dataset.rounds)
    for cell_result, path in zip(result.best.results, best_progs):
        path.write_text(print_program(cell_result.program, dataset.state_dim))
    _write_manifest(
        "sweep", args, seed, [args.dataset, args.config], [cells_csv, best_json, *best_progs],
        out_dir / "sweep.manifest.json",
    )
    print(
        f"sweep best: tradeoff {result.best.degree_weight}, rules {result.best.n_rules}, "
        f"features {result.best.feature_version} -> {best_json}"
    )
    return 0


def cmd_attn_dump(args: argparse.Namespace) -> int:
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
    _write_manifest("attn-dump", args, seed, [args.config, args.params], [args.out], _manifest_path(args.out))
    print(f"wrote per-step attention for {len(traj.steps)} steps -> {args.out}")
    return 0


def cmd_rerun(args: argparse.Namespace) -> int:
    manifest = _read(args.manifest, RunManifest.load)
    handler = _HANDLERS.get(manifest.command)
    if handler is None:
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
        return handler(replay)
    finally:
        if saved is not None:
            os.environ["SWARM_SEED"] = saved


_HANDLERS = {
    "train-oracle": cmd_train_oracle,
    "collect": cmd_collect,
    "synthesize": cmd_synthesize,
    "retrain": cmd_retrain,
    "evaluate": cmd_evaluate,
    "sweep": cmd_sweep,
    "attn-dump": cmd_attn_dump,
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="swarmcomm",
        description="train, distill, and evaluate low-degree communication policies",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train-oracle", help="train the full-communication policy")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--rollouts", type=int, default=2000)
    p.add_argument("--batch", type=int, default=16)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--discount", type=float, default=0.99)
    p.add_argument("--clip", type=float, default=10.0)
    p.add_argument("--curve", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_train_oracle)

    p = sub.add_parser("collect", help="cache per-step tuples from oracle rollouts")
    p.add_argument("--params", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--rollouts", type=int, default=300)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_collect)

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
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_synthesize)

    p = sub.add_parser("retrain", help="fine-tune the networks under hard attention")
    p.add_argument("--params", required=True)
    p.add_argument("--program", action="append", required=True, help="one per communication round")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--rollouts", type=int, default=500)
    p.add_argument("--batch", type=int, default=16)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--discount", type=float, default=0.99)
    p.add_argument("--clip", type=float, default=10.0)
    p.add_argument("--curve", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_retrain)

    p = sub.add_parser("evaluate", help="measure loss and communication degrees")
    p.add_argument("--params", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--policy", choices=POLICY_NAMES, default="tf-full")
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--program", action="append", default=None)
    p.add_argument("--rollouts", type=int, default=100)
    p.add_argument("--comm-weight", dest="comm_weight", type=float, default=1.0)
    p.add_argument("--gamma", type=float, default=0.99)
    p.add_argument("--out", required=True)
    p.add_argument("--report-dir", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("sweep", help="grid search over tradeoff, rule count, features")
    p.add_argument("--dataset", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--steps", type=int, default=500)
    p.add_argument("--val-rollouts", dest="val_rollouts", type=int, default=20)
    p.add_argument("--comm-weight", dest="comm_weight", type=float, default=1.0)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("attn-dump", help="write per-step attention matrices for one rollout")
    p.add_argument("--params", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--policy", choices=POLICY_NAMES, default="tf-full")
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--program", action="append", default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_attn_dump)

    p = sub.add_parser("rerun", help="replay a stage from its manifest")
    p.add_argument("manifest")
    p.set_defaults(func=cmd_rerun)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # every overflow ends in one error[non-finite] line from a finiteness check, not in numpy warnings first
        with np.errstate(all="ignore"):
            return args.func(args)
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
