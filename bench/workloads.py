"""The three pipeline workloads: task configs, seeds, stage sizes and CLI plans.

A round of a workload is the CLI pipeline run stage by stage in one process.
Every path in a plan is relative to the round's directory, so two rounds (or
two runs) of one workload and seed record identical arguments in their
manifests and can be compared byte for byte.

Seeds: the model-building stages (train-oracle, collect, synthesize or sweep,
retrain) use fixed seeds per workload, the way the acceptance suite pins its
fixtures, so every run builds the same oracle, dataset and program. The
benchmark's ``--seed`` picks the evaluation worlds. At desk-scale sizes the
synthesized program's degree swings between 0 and ~11 from one training or
chain seed to the next (see README), which no bound on a median survives; the
seed-driven evaluation worlds still vary every quality figure and the cost of
every evaluation from run to run.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

# sweep grid of ``harness.DEFAULT_GRID``, written out here so the sweep check
# does not take the expected cells from the program under test
SWEEP_GRID = [
    (lam, k, fv)
    for lam in (0.3, 0.5, 0.7, 1.0)
    for k in (2, 3, 4, 5)
    for fv in ("v1", "v2")
]
SWEEP_NEAR_TIE = 0.05

TRAIN_BATCH = 16
HORIZON = 50
TINY_HORIZON = 8
SWEEP_VAL_ROLLOUTS = 1


@dataclass(frozen=True)
class Sizes:
    train_rollouts: int
    collect_rollouts: int
    mcmc_steps: int
    retrain_rollouts: int
    eval_rollouts: int
    collect_calls: int  # back-to-back collect calls per round (see Stage.calls)


@dataclass(frozen=True)
class Workload:
    config: dict
    tradeoff: float
    rules: int
    fixed_seeds: dict  # stage -> seed for the model-building stages
    sizes: dict  # "full" / "tiny" -> Sizes
    sweep: bool = False

    @property
    def rounds(self) -> int:
        return 2 if self.config["task_kind"] == "unlabeled-goals" else 1

    @property
    def formation(self) -> bool:
        return self.config["task_kind"] != "unlabeled-goals"

    @property
    def state_dim(self) -> int:
        if self.formation:
            return 4
        return 2 + 2 * self.config["n_agents_per_group"]


_REWARDS = {"collision_weight": 1.0, "collision_distance": 0.3}

WORKLOADS = {
    "cross": Workload(
        config={
            "task_kind": "random-cross",
            "n_agents_per_group": 5,
            "min_groups": 2,
            "dt": 0.4,
            "v_max": 0.5,
            "horizon": HORIZON,
            "link_failure_prob": 0.0,
            **_REWARDS,
        },
        # chosen as the acceptance suite chooses its 0.1: light enough that a unit
        # of degree costs less than communicating is worth. The oracle trained
        # here is far weaker than the suite's (8 iterations, not 125), so its
        # messages are worth less per tuple: at 0.1 and 0.05 the chain drops
        # all communication, at 0.03 it keeps it.
        tradeoff=0.03,
        rules=2,
        fixed_seeds={"train": 1234, "collect": 1235, "search": 1236, "retrain": 1237},
        sizes={
            "full": Sizes(train_rollouts=64, collect_rollouts=4, mcmc_steps=100,
                          retrain_rollouts=32, eval_rollouts=24, collect_calls=3),
            "tiny": Sizes(train_rollouts=16, collect_rollouts=1, mcmc_steps=5,
                          retrain_rollouts=16, eval_rollouts=2, collect_calls=2),
        },
    ),
    "coverage": Workload(
        config={
            "task_kind": "unlabeled-goals",
            "n_agents_per_group": 5,
            "dt": 0.1,
            "v_max": 0.5,
            "horizon": HORIZON,
            "link_failure_prob": 0.0,
            **_REWARDS,
        },
        # the suite's 0.5 leaves ~0.2 mean max degree with this weak oracle;
        # 0.05 keeps 1.5 per round (same rule as cross)
        tradeoff=0.05,
        rules=2,
        fixed_seeds={"train": 77, "collect": 78, "search": 79, "retrain": 80},
        sizes={
            "full": Sizes(train_rollouts=64, collect_rollouts=8, mcmc_steps=100,
                          retrain_rollouts=32, eval_rollouts=24, collect_calls=3),
            "tiny": Sizes(train_rollouts=16, collect_rollouts=1, mcmc_steps=5,
                          retrain_rollouts=16, eval_rollouts=2, collect_calls=2),
        },
    ),
    "grid-sweep": Workload(
        config={
            "task_kind": "random-grid",
            "n_agents_per_group": 5,
            "dt": 0.1,
            "v_max": 0.5,
            # 20 steps, not the acceptance suite's 50: the sweep's 32 validation
            # rollouts would otherwise leave no room for three rounds in a run
            "horizon": 20,
            "link_failure_prob": 0.3,
            **_REWARDS,
        },
        tradeoff=0.0,  # the sweep's grid sets the tradeoff
        rules=0,  # the sweep's best cell sets K
        fixed_seeds={"train": 4321, "collect": 4322, "search": 4323, "retrain": 4324},
        sizes={
            "full": Sizes(train_rollouts=48, collect_rollouts=2, mcmc_steps=10,
                          retrain_rollouts=32, eval_rollouts=8, collect_calls=5),
            "tiny": Sizes(train_rollouts=16, collect_rollouts=1, mcmc_steps=1,
                          retrain_rollouts=16, eval_rollouts=1, collect_calls=2),
        },
        sweep=True,
    ),
}


def task_config(workload: Workload, size: str) -> dict:
    cfg = dict(workload.config)
    if size == "tiny":
        cfg["horizon"] = TINY_HORIZON
    return cfg


def stage_seeds(workload: Workload, seed: int) -> dict:
    return {**workload.fixed_seeds, "evaluate": int(seed)}


def write_inputs(workload: Workload, size: str, seed: int, directory: Path) -> None:
    """The generated inputs the program receives: a task config and a seed file."""
    (directory / "task.json").write_text(json.dumps(task_config(workload, size), indent=2, sort_keys=True) + "\n")
    (directory / "seeds.json").write_text(json.dumps(stage_seeds(workload, seed), indent=2, sort_keys=True) + "\n")


@dataclass
class Stage:
    command: str  # CLI subcommand
    metric: str  # end-to-end metric the stage time adds to
    argv: Callable[[Path], list[str]]  # built when the stage starts (the sweep fixes K)
    policy: Optional[str] = None  # evaluate stages only
    # Back-to-back calls per round with the same arguments; each rewrites the
    # same outputs, and the stage's round time is their mean. A short stage is
    # called more than once so that its time averages over more of the
    # machine's speed swings.
    calls: int = 1


def program_paths(workload: Workload) -> list[str]:
    if workload.sweep:
        return ["sweep/sweep_best_program.txt"]
    if workload.rounds == 2:
        return ["program.txt", "program.round2.txt"]
    return ["program.txt"]


def best_cell(directory: Path) -> dict:
    return json.loads((directory / "sweep" / "sweep_best.json").read_text())


def eval_out(policy: str) -> str:
    return f"eval_{policy}.json"


def eval_policies(workload: Workload) -> list[tuple[str, str]]:
    """(policy, parameter file) per evaluate stage; combined runs on the retrained networks."""
    pols = [("combined", "retrained.json"), ("tf-full", "oracle.json")]
    if workload.sweep:
        pols += [("hard-attn", "oracle.json"), ("dist", "oracle.json"), ("no-comm", "oracle.json")]
    return pols


def plan(workload: Workload, size: str, seeds: dict) -> list[Stage]:
    sz = workload.sizes[size]
    programs = program_paths(workload)
    program_args = [a for p in programs for a in ("--program", p)]
    stages = [
        Stage("train-oracle", "train_oracle_s", lambda d: [
            "train-oracle", "--config", "task.json", "--out", "oracle.json",
            "--rollouts", str(sz.train_rollouts), "--batch", str(TRAIN_BATCH),
            "--curve", "oracle_curve.csv", "--seed", str(seeds["train"]),
        ]),
        Stage("collect", "collect_s", lambda d: [
            "collect", "--params", "oracle.json", "--config", "task.json",
            "--rollouts", str(sz.collect_rollouts), "--out", "data.jsonl",
            "--seed", str(seeds["collect"]),
        ], calls=sz.collect_calls),
    ]
    if workload.sweep:
        stages.append(Stage("sweep", "search_s", lambda d: [
            "sweep", "--dataset", "data.jsonl", "--config", "task.json",
            "--steps", str(sz.mcmc_steps), "--val-rollouts", str(SWEEP_VAL_ROLLOUTS),
            "--out-dir", "sweep", "--seed", str(seeds["search"]),
        ]))
    else:
        stages.append(Stage("synthesize", "search_s", lambda d: [
            "synthesize", "--dataset", "data.jsonl", "--lambda", repr(workload.tradeoff),
            "--rules", str(workload.rules), "--steps", str(sz.mcmc_steps),
            "--out", "program.txt", "--chain-log", "chain.csv", "--seed", str(seeds["search"]),
        ]))
    stages.append(Stage("retrain", "retrain_s", lambda d: [
        "retrain", "--params", "oracle.json", *program_args, "--config", "task.json",
        "--out", "retrained.json", "--rollouts", str(sz.retrain_rollouts),
        "--batch", str(TRAIN_BATCH), "--curve", "retrain_curve.csv",
        "--seed", str(seeds["retrain"]),
    ]))
    for policy, params in eval_policies(workload):
        def argv(d: Path, policy=policy, params=params) -> list[str]:
            extra: list[str] = []
            if policy == "combined":
                extra = program_args
            elif policy in ("hard-attn", "dist"):
                extra = ["--k", str(best_cell(d)["n_rules"])]
            return [
                "evaluate", "--params", params, "--config", "task.json", "--policy", policy,
                *extra, "--rollouts", str(sz.eval_rollouts), "--out", eval_out(policy),
                "--seed", str(seeds["evaluate"]),
            ]
        stages.append(Stage("evaluate", "evaluate_s", argv, policy=policy))
    return stages
