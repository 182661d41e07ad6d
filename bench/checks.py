"""Independent checks of one round's stage outputs.

Each check recomputes what it can with numpy, from the files a stage wrote or
from the evaluation rollouts replayed with ``env.spawn_rollout_rngs(seed, n)``
(the streams ``harness.evaluate`` uses), and raises ``CheckError`` on the
first disagreement. The replay runs the program's own rollout; the checks on
it (dynamics, action bounds, rewards, degrees, attention rows) are the
benchmark's arithmetic, not the program's.
"""

from __future__ import annotations

import csv
import filecmp
import hashlib
import json
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

import workloads as wl

Array = np.ndarray

# files the benchmark itself writes into a round directory
BENCH_FILES = {"result.json", "spans.json", "stages.log"}

# Checks that fail on every run, whatever the seed, because of a program fault
# the benchmark found. Each failure counts as a failed operation but does not
# make the run incorrect; the check passes again once the fault is mended.
KNOWN_FAULTS = {
    "chain:format": "synth.write_chain_csv writes repr() of numpy float64 objectives, "
                    "which numpy >= 2 prints as 'np.float64(x)'",
}


class CheckError(AssertionError):
    pass


def require(ok, message: str) -> None:
    if not ok:
        raise CheckError(message)


def close(a, b, rel: float) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


# ---------------------------------------------------------------------------
# evaluation rollouts


@dataclass
class RolloutRecord:
    positions: Array  # (H + 1, N, 2), the final state included
    goals: Array  # (N, 2): per-agent goals, or the shared goal points for coverage
    actions: Array  # (H, N, action_dim)
    rewards: Array  # (H,), as the program recorded them
    edges: list  # per step, (E, 2) int rows (sender, receiver) of the delivered graph
    round_edges: list  # per step, per round, (E, 2) rows
    attentions: list  # per step, per round, (N, N) rows actually applied


def _edge_array(edges) -> Array:
    return np.asarray(sorted(edges), dtype=np.int64).reshape(-1, 2)


def replay(policy, cfg, rewards, seed: int, n_rollouts: int) -> list[RolloutRecord]:
    """Re-run the evaluation rollouts on the streams ``harness.evaluate`` used."""
    from swarmcomm import env

    records = []
    for rng in env.spawn_rollout_rngs(seed, n_rollouts):
        traj = env.rollout(policy, cfg, rng, rewards)
        records.append(RolloutRecord(
            positions=np.stack([s.state.positions for s in traj.steps] + [traj.final_state.positions]),
            goals=traj.steps[0].state.goals.copy(),
            actions=np.stack([s.action.data for s in traj.steps]),
            rewards=np.asarray([s.reward for s in traj.steps]),
            edges=[_edge_array(s.graph.edges) for s in traj.steps],
            round_edges=[[_edge_array(g.edges) for g in s.round_graphs] for s in traj.steps],
            attentions=[[np.array(a) for a in s.attentions] for s in traj.steps],
        ))
    return records


def check_dynamics(records: Sequence[RolloutRecord], dt: float, formation: bool) -> None:
    """x' = x + v dt, with v the action (formation) or W g - x (coverage)."""
    for k, rec in enumerate(records):
        x = rec.positions[:-1]
        v = rec.actions if formation else rec.actions @ rec.goals - x
        expected = x + v * dt
        err = np.abs(rec.positions[1:] - expected).max()
        require(err <= 1e-12 * max(1.0, np.abs(expected).max()), f"rollout {k}: positions break x' = x + v dt by {err:.3g}")


def check_actions(records: Sequence[RolloutRecord], v_max: float, formation: bool) -> None:
    """Formation velocities stay inside the v_max ball; coverage weight rows lie on the simplex."""
    for k, rec in enumerate(records):
        if formation:
            norms = np.sqrt((rec.actions ** 2).sum(axis=-1))
            require(norms.max() <= v_max + 1e-9, f"rollout {k}: velocity norm {norms.max():.6g} > v_max {v_max}")
        else:
            require(rec.actions.min() >= -1e-12, f"rollout {k}: negative goal weight {rec.actions.min():.3g}")
            dev = np.abs(rec.actions.sum(axis=-1) - 1.0).max()
            require(dev <= 1e-9, f"rollout {k}: goal weights sum to 1 +/- {dev:.3g}")


def formation_reward(x: Array, goals: Array, weight: float, distance: float) -> float:
    goal_term = np.sqrt(((x - goals) ** 2).sum(axis=-1)).sum()
    d = np.sqrt(((x[:, None, :] - x[None, :, :]) ** 2).sum(axis=-1))
    hinge = np.maximum(weight * (2.0 - d / distance), 0.0)
    hinge[np.arange(len(x)), np.arange(len(x))] = 0.0
    return -(goal_term + hinge.sum())


def coverage_reward(weights: Array) -> float:
    return weights.max(axis=0).sum() - weights.shape[0]


def recomputed_rewards(rec: RolloutRecord, formation: bool, weight: float, distance: float) -> Array:
    if formation:
        return np.asarray([formation_reward(x, rec.goals, weight, distance) for x in rec.positions[:-1]])
    return np.asarray([coverage_reward(w) for w in rec.actions])


def check_rewards(records: Sequence[RolloutRecord], formation: bool, weight: float, distance: float) -> None:
    """Every step's reward is the paper's formula: goal distance plus collision hinge, or covered mass - N."""
    for k, rec in enumerate(records):
        mine = recomputed_rewards(rec, formation, weight, distance)
        for t, (got, want) in enumerate(zip(rec.rewards, mine)):
            require(close(got, want, 1e-10), f"rollout {k} step {t}: reward {got!r}, formula gives {want!r}")


def _degrees(edges: Array, n: int) -> tuple[int, int, int]:
    indeg = np.bincount(edges[:, 1], minlength=n)
    outdeg = np.bincount(edges[:, 0], minlength=n)
    return int(indeg.max()), int(outdeg.max()), int((indeg + outdeg).max())


def check_metrics(records: Sequence[RolloutRecord], metrics: dict, formation: bool, weight: float, distance: float,
                  communicates: bool = False) -> None:
    """The metrics file's loss and degree means, recounted from the replay's rewards and edge lists.

    With ``communicates`` the policy must also keep some communication (the
    synthesized program did not degenerate to the empty one).
    """
    horizon = len(records[0].rewards)
    losses = [-recomputed_rewards(r, formation, weight, distance).sum() / horizon for r in records]
    loss = float(np.mean(losses))
    require(close(metrics["loss_mean"], loss, 1e-9), f"loss_mean {metrics['loss_mean']!r}, recount gives {loss!r}")
    require(metrics["n_rollouts"] == len(records), "n_rollouts does not match the replay")
    if metrics["full_comm"]:
        for key in ("in_deg_mean", "out_deg_mean", "total_deg_mean"):
            require(metrics[key] == 0.0, f"full-communication policy reports {key} = {metrics[key]!r}")
        return
    per_rollout = np.asarray([
        np.mean([_degrees(e, rec.positions.shape[1]) for e in rec.edges], axis=0) for rec in records
    ])  # (rollouts, 3): time-averaged max in, out, total degree
    for col, key in enumerate(("in_deg_mean", "out_deg_mean", "total_deg_mean")):
        want = float(per_rollout[:, col].mean())
        require(close(metrics[key], want, 1e-12), f"{key} {metrics[key]!r}, recount gives {want!r}")
    if communicates:
        require(metrics["total_deg_mean"] > 0.0, "the synthesized program communicates with nobody")


def check_round_graphs(records: Sequence[RolloutRecord], in_degree_bounds: Optional[Sequence[int]]) -> None:
    """Per round: in-degree <= bound; attention rows live on the delivered senders and sum to 1 (or 0 if none)."""
    for k, rec in enumerate(records):
        for t, (rounds, atts) in enumerate(zip(rec.round_edges, rec.attentions)):
            for r, (edges, att) in enumerate(zip(rounds, atts)):
                n = att.shape[0]
                indeg = np.bincount(edges[:, 1], minlength=n)
                if in_degree_bounds is not None:
                    require(indeg.max() <= in_degree_bounds[r],
                            f"rollout {k} step {t} round {r}: in-degree {indeg.max()} > {in_degree_bounds[r]}")
                delivered = np.zeros((n, n), dtype=bool)
                delivered[edges[:, 1], edges[:, 0]] = True  # row = receiver, column = sender
                require(np.all(att[~delivered] == 0.0),
                        f"rollout {k} step {t} round {r}: attention on a sender that delivered nothing")
                sums = att.sum(axis=1)
                has = delivered.any(axis=1)
                require(np.all(np.abs(sums[has] - 1.0) <= 1e-9),
                        f"rollout {k} step {t} round {r}: attention row over delivered senders does not sum to 1")
                require(np.all(sums[~has] == 0.0),
                        f"rollout {k} step {t} round {r}: receiver with no delivered sender has attention")


# ---------------------------------------------------------------------------
# files


def check_dataset(path: Path, expected_tuples: int, rounds: int) -> None:
    """Header, one tuple per rollout step, shapes, and soft attention rows summing to 1."""
    with open(path) as fh:
        header = json.loads(fh.readline())
        require(header.get("kind") == "synth-dataset", "dataset header is not a synth-dataset header")
        require(header.get("rounds") == rounds, f"dataset header says {header.get('rounds')} rounds, want {rounds}")
        count = 0
        for lineno, line in enumerate(fh, start=2):
            try:
                row = json.loads(line)
            except json.JSONDecodeError as exc:
                raise CheckError(f"dataset line {lineno} is not a JSON tuple: {exc}") from None
            n = row["n"]
            alpha = np.asarray(row["alpha"], dtype=np.float64)
            require(alpha.shape == (rounds, n, n), f"dataset line {lineno}: attention shape {alpha.shape}")
            require(np.all(np.abs(alpha.sum(axis=-1) - 1.0) <= 1e-9),
                    f"dataset line {lineno}: soft attention rows do not sum to 1")
            require(np.asarray(row["o"]).shape == (n, n, 2), f"dataset line {lineno}: observation shape")
            require(np.asarray(row["msg"]).shape[:3] == (rounds, n, n), f"dataset line {lineno}: message shape")
            require(len(row["s"]) == n and len(row["a"]) == n, f"dataset line {lineno}: state or action count")
            count += 1
    require(count == expected_tuples, f"dataset holds {count} tuples, want {expected_tuples}")


def check_dataset_roundtrip(path: Path, scratch: Path) -> None:
    """Loading the dataset and saving it again reproduces the file byte for byte."""
    from swarmcomm.synth import SynthDataset

    try:
        SynthDataset.load_jsonl(path).save_jsonl(scratch)
        require(filecmp.cmp(path, scratch, shallow=False), "dataset load + save does not reproduce the file")
    finally:
        scratch.unlink(missing_ok=True)


_HEADER = re.compile(r"^#dsl v1 features=(V1|V2) rules=(\d+) state_dim=(\d+)$")


def check_program(path: Path, rules: int, state_dim: int, features: Optional[str] = None) -> None:
    """The program file has K rule lines, parses to K rules and prints back to the same text."""
    from swarmcomm.dsl import parse_program, print_program

    text = path.read_text()
    lines = [ln for ln in text.splitlines() if ln.strip()]
    match = _HEADER.match(lines[0]) if lines else None
    require(match is not None, f"{path.name}: bad header")
    require(int(match.group(2)) == rules and len(lines) - 1 == rules, f"{path.name}: want {rules} rules")
    require(int(match.group(3)) == state_dim, f"{path.name}: header state_dim {match.group(3)}, want {state_dim}")
    if features is not None:
        require(match.group(1) == features.upper(), f"{path.name}: features {match.group(1)}, want {features}")
    program = parse_program(text)
    require(program.n_rules == rules, f"{path.name}: parses to {program.n_rules} rules")
    require(print_program(program, state_dim) == text, f"{path.name}: does not print back to the same text")


def _finite(text: str) -> float:
    value = float(text)
    require(math.isfinite(value), f"non-finite value {text!r}")
    return value


_NP_SCALAR = re.compile(r"^np\.float64\((.*)\)$")


def _chain_rows(path: Path, steps: int) -> list[dict]:
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    require(len(rows) == steps, f"chain log has {len(rows)} rows, want {steps}")
    return rows


def check_chain_format(path: Path, steps: int) -> None:
    """Every objective in the chain log is a plain decimal number, as the CSV format says."""
    for i, row in enumerate(_chain_rows(path, steps)):
        for key in ("objective_current", "objective_incumbent"):
            try:
                _finite(row[key])
            except ValueError:
                raise CheckError(f"chain step {i}: {key} is {row[key]!r}, not a number") from None


def check_chain(path: Path, steps: int) -> None:
    """One row per MH step; the incumbent never decreases and never falls below the current objective.

    Reads numpy scalar reprs (``np.float64(x)``) as x, so that a malformed
    number is reported by check_chain_format alone.
    """
    def number(text: str) -> float:
        m = _NP_SCALAR.match(text)
        return _finite(m.group(1) if m else text)

    best = -math.inf
    for i, row in enumerate(_chain_rows(path, steps)):
        require(int(row["step"]) == i, f"chain row {i} numbered {row['step']}")
        current = number(row["objective_current"])
        incumbent = number(row["objective_incumbent"])
        require(incumbent >= best, f"chain step {i}: incumbent fell from {best!r} to {incumbent!r}")
        require(incumbent >= current, f"chain step {i}: incumbent {incumbent!r} below current {current!r}")
        require(row["accepted"] in ("0", "1"), f"chain step {i}: accepted is {row['accepted']!r}")
        best = incumbent


def check_curve(path: Path, iterations: int) -> None:
    """One finite row per training iteration."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    require(len(rows) == iterations, f"{path.name} has {len(rows)} rows, want {iterations}")
    for i, row in enumerate(rows):
        require(int(row["iteration"]) == i, f"{path.name} row {i} numbered {row['iteration']}")
        _finite(row["mean_reward"])
        _finite(row["grad_norm"])


def pick_sweep_winner(cells: Sequence[dict], near_tie: float = wl.SWEEP_NEAR_TIE) -> dict:
    """Lowest loss; cells within near_tie of it re-ranked by lowest mean max degree, first in grid order."""
    best_loss = min(c["loss_mean"] for c in cells)
    winner = None
    for c in cells:
        if c["loss_mean"] > best_loss * (1.0 + near_tie):
            continue
        if winner is None or (c["total_deg_mean"], c["loss_mean"]) < (winner["total_deg_mean"], winner["loss_mean"]):
            winner = c
    return winner


def check_sweep(out_dir: Path, state_dim: int) -> dict:
    """32 cells in grid order, and sweep_best.json is the cell the near-tie rule picks from them."""
    with open(out_dir / "sweep_cells.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    require(len(rows) == len(wl.SWEEP_GRID), f"sweep_cells.csv has {len(rows)} rows, want {len(wl.SWEEP_GRID)}")
    cells = []
    for row, (lam, k, fv) in zip(rows, wl.SWEEP_GRID):
        cell = {
            "degree_weight": _finite(row["degree_weight"]),
            "n_rules": int(row["n_rules"]),
            "feature_version": row["feature_version"],
            "loss_mean": _finite(row["loss_mean"]),
            "total_deg_mean": _finite(row["total_deg_mean"]),
        }
        require((cell["degree_weight"], cell["n_rules"], cell["feature_version"]) == (lam, k, fv),
                f"sweep cell {len(cells)} is {row}, want {(lam, k, fv)}")
        cells.append(cell)
    best = json.loads((out_dir / "sweep_best.json").read_text())
    winner = pick_sweep_winner(cells)
    require(best == winner, f"sweep_best.json is {best}, the near-tie rule picks {winner}")
    check_program(out_dir / "sweep_best_program.txt", winner["n_rules"], state_dim, winner["feature_version"])
    return winner


def output_digests(round_dir: Path) -> dict[str, str]:
    """sha256 of every stage output, manifests without their creation time."""
    digests = {}
    for path in sorted(round_dir.rglob("*")):
        if not path.is_file() or path.name in BENCH_FILES:
            continue
        data = path.read_bytes()
        if path.name.endswith(".manifest.json"):
            doc = json.loads(data)
            doc.pop("created_unix", None)
            data = json.dumps(doc, sort_keys=True).encode()
        digests[str(path.relative_to(round_dir))] = hashlib.sha256(data).hexdigest()
    return digests


# ---------------------------------------------------------------------------
# all checks of one round


def replay_evaluation(workload: wl.Workload, round_dir: Path, argv: Sequence[str]) -> dict:
    """Rebuild an evaluate stage's policy from its files and replay its rollouts.

    Returns the rollout records, the stage's metrics file and the per-round
    in-degree bounds (the programs' rule counts, or k; None for tf-full).
    """
    from swarmcomm import env
    from swarmcomm.dsl import parse_program
    from swarmcomm.policy import make_policy
    from swarmcomm.transformer import TransformerParams

    d = round_dir
    opts = dict(zip(argv[1::2], argv[2::2]))  # every evaluate option takes one value
    cfg, rewards = env.load_config(d / opts["--config"])
    params = TransformerParams.load(d / opts["--params"])
    programs = [parse_program((d / p).read_text()) for p in wl.program_paths(workload)]
    k = int(opts["--k"]) if "--k" in opts else None
    policy = make_policy(opts["--policy"], params, v_max=cfg.v_max, k=k, programs=programs)
    bounds = None
    if opts["--policy"] == "combined":
        bounds = [p.n_rules for p in programs]
    elif k is not None:
        bounds = [k] * workload.rounds
    elif opts["--policy"] == "no-comm":
        bounds = [0] * workload.rounds
    return {
        "records": replay(policy, cfg, rewards, int(opts["--seed"]), int(opts["--rollouts"])),
        "metrics": json.loads((d / opts["--out"]).read_text()),
        "bounds": bounds,
    }


def round_checks(workload: wl.Workload, size: str, seed: int, round_dir: Path) -> list[tuple[str, Callable[[], None]]]:
    """(name, check) pairs for a round's outputs; the list depends only on the workload."""
    sz = workload.sizes[size]
    cfg_doc = wl.task_config(workload, size)
    weight, distance = cfg_doc["collision_weight"], cfg_doc["collision_distance"]
    formation = workload.formation
    d = round_dir
    checks: list[tuple[str, Callable[[], None]]] = [
        ("oracle-curve", lambda: check_curve(d / "oracle_curve.csv", sz.train_rollouts // wl.TRAIN_BATCH)),
        ("retrain-curve", lambda: check_curve(d / "retrain_curve.csv", sz.retrain_rollouts // wl.TRAIN_BATCH)),
        ("dataset", lambda: check_dataset(d / "data.jsonl", sz.collect_rollouts * cfg_doc["horizon"], workload.rounds)),
        ("dataset-roundtrip", lambda: check_dataset_roundtrip(d / "data.jsonl", d / "data.resaved.jsonl")),
    ]
    if workload.sweep:
        checks.append(("sweep", lambda: check_sweep(d / "sweep", workload.state_dim)))
    else:
        for p in wl.program_paths(workload):
            checks.append((f"program:{p}", lambda p=p: check_program(d / p, workload.rules, workload.state_dim)))
        checks.append(("chain", lambda: check_chain(d / "chain.csv", sz.mcmc_steps)))
        checks.append(("chain:format", lambda: check_chain_format(d / "chain.csv", sz.mcmc_steps)))

    for stage in wl.plan(workload, size, wl.stage_seeds(workload, seed)):
        if stage.command != "evaluate":
            continue
        cache: dict = {}

        def replayed(stage=stage, cache=cache) -> dict:
            if not cache:
                cache.update(replay_evaluation(workload, d, stage.argv(d)))
            return cache

        prefix = f"eval:{stage.policy}"
        checks += [
            (f"{prefix}:dynamics", lambda r=replayed: check_dynamics(r()["records"], cfg_doc["dt"], formation)),
            (f"{prefix}:actions", lambda r=replayed: check_actions(r()["records"], cfg_doc["v_max"], formation)),
            (f"{prefix}:rewards", lambda r=replayed: check_rewards(r()["records"], formation, weight, distance)),
            (f"{prefix}:metrics", lambda r=replayed, c=stage.policy == "combined": check_metrics(
                r()["records"], r()["metrics"], formation, weight, distance, communicates=c)),
        ]
        if stage.policy != "tf-full":
            checks.append((f"{prefix}:rounds", lambda r=replayed: check_round_graphs(r()["records"], r()["bounds"])))
    return checks
