"""Evaluation, baseline comparison, hyperparameter sweep, and reporting.

Losses are negative rewards averaged over the horizon; communication cost is
the per-step maximum degree of the realized (post link-failure) communication
graph, time-averaged within each rollout and then aggregated over rollouts.
Full-communication policies report zeroed degree columns behind a flag instead
of their trivial all-pairs degrees.
"""

from __future__ import annotations

import csv
import hashlib
import io
import itertools
import json
import os
import time
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np

from .dsl import degree_stats
from .env import Policy, RewardParams, TaskConfig, sample_initial, simulate, spawn_rollout_rngs
from .jsondoc import decode
from .policy import CombinedPolicy, StackedPolicy
from .synth import SynthConfig, SynthDataset, SynthResult, synthesize_multiround

Array = np.ndarray

CSV_COLUMNS = [
    "policy",
    "task",
    "seed",
    "loss_mean",
    "loss_std",
    "in_deg_mean",
    "in_deg_std",
    "out_deg_mean",
    "out_deg_std",
    "total_deg_mean",
    "total_deg_std",
    "combined_J",
]


class HarnessError(RuntimeError):
    pass


@dataclass
class Metrics:
    policy: str
    task: str
    seed: int
    n_rollouts: int
    loss_mean: float
    loss_std: float
    in_deg_mean: float
    in_deg_std: float
    out_deg_mean: float
    out_deg_std: float
    total_deg_mean: float
    total_deg_std: float
    combined_J: float
    comm_weight: float
    full_comm: bool = False
    # whole-rollout max degree (vs the time-averaged per-step max above);
    # logged in the JSON only, the CSV schema stays fixed
    rollout_max_deg_mean: float = 0.0

    def csv_row(self) -> list:
        """The CSV_COLUMNS values; floats as repr, which round-trips them exactly."""
        return [repr(v) if isinstance(v, float) else v for v in (getattr(self, c) for c in CSV_COLUMNS)]


def evaluate(
    policy: Policy,
    cfg: TaskConfig,
    n_rollouts: int,
    comm_weight: float,
    seed: int,
    reward_params: Optional[RewardParams] = None,
    gamma: float = 0.99,
) -> Metrics:
    """Run evaluation rollouts of one policy and aggregate loss and degree statistics.

    See evaluate_many, which this calls with the one policy.
    """
    return evaluate_many([policy], cfg, n_rollouts, comm_weight, seed, reward_params, gamma)[0]


def evaluate_many(
    policies: Sequence[Policy],
    cfg: TaskConfig,
    n_rollouts: int,
    comm_weight: float,
    seed: int,
    reward_params: Optional[RewardParams] = None,
    gamma: float = 0.99,
) -> list[Metrics]:
    """Evaluate several policies on the same rollouts, stepping their worlds together.

    Every policy runs its own ``spawn_rollout_rngs(seed, n_rollouts)``
    streams: rollout k draws from the k-th generator, first its initial state,
    then its steps. The worlds of all policies are grouped by agent count,
    kept in policy-major order and stepped in lockstep in chunks of at most
    max(n_rollouts, len(policies)) worlds; a chunk that spans several policies
    runs them as one ``StackedPolicy``, so several policies must all be
    ``CombinedPolicy`` instances over one params and v_max. The results do not
    depend on the grouping. The combined objective is the discounted
    cumulative reward minus comm_weight times the summed per-step max degree,
    averaged over rollouts.
    """
    if n_rollouts < 1:
        raise HarnessError("n_rollouts must be >= 1")
    policies = list(policies)
    if not policies:
        raise HarnessError("evaluate_many needs at least one policy")
    if len(policies) > 1:
        try:  # every chunk's stack is a sub-stack of this one
            StackedPolicy(policies, [n_rollouts] * len(policies))
        except ValueError as exc:
            raise HarnessError(f"policies cannot be evaluated together: {exc}") from exc
    rngs = [g for _ in policies for g in spawn_rollout_rngs(int(seed), n_rollouts)]
    owner = np.repeat(np.arange(len(policies)), n_rollouts)
    starts = [sample_initial(cfg, g) for g in rngs]
    groups: dict[int, list[int]] = {}
    for k, state in enumerate(starts):
        groups.setdefault(state.n_agents, []).append(k)
    rewards = np.zeros((len(starts), cfg.horizon))
    degrees = np.zeros((len(starts), cfg.horizon, 3))  # per-step max in, out, total degree
    bound = max(n_rollouts, len(policies))
    for group in groups.values():
        for lo in range(0, len(group), bound):
            members = group[lo : lo + bound]
            parts, counts = np.unique(owner[members], return_counts=True)
            stepped = policies[parts[0]] if len(parts) == 1 else StackedPolicy([policies[p] for p in parts], counts)
            steps = simulate(stepped, cfg, [starts[k] for k in members], [rngs[k] for k in members], reward_params)
            for t, (out, step_rewards) in enumerate(steps):
                used = np.logical_or.reduce(out.policy.delivered)
                stats = np.stack(degree_stats(used), axis=-1)
                rewards[members, t] = step_rewards
                degrees[members, t] = stats
    return [
        _aggregate(policy, cfg, rewards[p * n_rollouts : (p + 1) * n_rollouts],
                   degrees[p * n_rollouts : (p + 1) * n_rollouts], comm_weight, seed, gamma)
        for p, policy in enumerate(policies)
    ]


def _aggregate(
    policy: Policy, cfg: TaskConfig, rewards: Array, degrees: Array, comm_weight: float, seed: int, gamma: float
) -> Metrics:
    """Metrics of one policy from its rollouts' (R, T) rewards and (R, T, 3) per-step max degrees."""

    def stats(xs: Array) -> tuple[float, float]:
        return float(xs.mean()), float(xs.std())

    loss_mean, loss_std = stats(-rewards.sum(axis=1) / cfg.horizon)
    discounted = rewards @ gamma ** np.arange(cfg.horizon)
    if policy.full_comm:
        # all-pairs communication: degrees are reported as zeros behind the flag
        # and the combined objective carries no degree term
        in_mean = in_std = out_mean = out_std = tot_mean = tot_std = 0.0
        peak_mean = 0.0
        combined_j = float(discounted.mean())
    else:
        per_rollout = degrees.mean(axis=1)
        in_mean, in_std = stats(per_rollout[:, 0])
        out_mean, out_std = stats(per_rollout[:, 1])
        tot_mean, tot_std = stats(per_rollout[:, 2])
        peak_mean = float(degrees[:, :, 2].max(axis=1).mean())
        combined_j = float((discounted - comm_weight * degrees[:, :, 2].sum(axis=1)).mean())
    return Metrics(
        policy=policy.name,
        task=cfg.task_kind,
        seed=int(seed),
        n_rollouts=rewards.shape[0],
        loss_mean=loss_mean,
        loss_std=loss_std,
        in_deg_mean=in_mean,
        in_deg_std=in_std,
        out_deg_mean=out_mean,
        out_deg_std=out_std,
        total_deg_mean=tot_mean,
        total_deg_std=tot_std,
        combined_J=combined_j,
        comm_weight=comm_weight,
        full_comm=policy.full_comm,
        rollout_max_deg_mean=peak_mean,
    )


# ---------------------------------------------------------------------------
# hyperparameter sweep
# ---------------------------------------------------------------------------

DEFAULT_GRID = {
    "degree_weight": (0.3, 0.5, 0.7, 1.0),
    "n_rules": (2, 3, 4, 5),
    "feature_version": ("v1", "v2"),
}


@dataclass
class SweepCell:
    degree_weight: float
    n_rules: int
    feature_version: str
    results: list[SynthResult]  # one per communication round
    metrics: Metrics


@dataclass
class SweepResult:
    best: SweepCell
    cells: list[SweepCell]


_NEAR_TIE = 0.05  # cells whose loss is within this fraction of the best count as tied


def select_best_cell(cells: Sequence[SweepCell]) -> SweepCell:
    """Lowest validation loss; near-ties resolved by lowest mean max degree."""
    if not cells:
        raise HarnessError("no sweep cells")
    best_loss = min(c.metrics.loss_mean for c in cells)
    contenders = [c for c in cells if c.metrics.loss_mean <= best_loss * (1.0 + _NEAR_TIE)]
    return min(contenders, key=lambda c: (c.metrics.total_deg_mean, c.metrics.loss_mean))


def sweep(
    dataset: SynthDataset,
    base_cfg: SynthConfig,
    task_cfg: TaskConfig,
    rng: np.random.Generator,
    n_val_rollouts: int = 20,
    comm_weight: float = 1.0,
    grid: Optional[dict] = None,
    reward_params: Optional[RewardParams] = None,
) -> SweepResult:
    """Synthesize per grid cell, evaluate on validation rollouts, pick the winner.

    Every cell's chains run first, in grid order, all drawing from rng; then
    one evaluate_many call validates every cell on the same rollouts (it never
    draws from rng). Lowest validation loss wins; cells within 5% of the
    best loss are re-ranked by lowest mean max degree. Each cell is
    validated as the combined policy of the dataset's parameters and the
    cell's programs.
    """
    grid = grid or DEFAULT_GRID
    combos = list(itertools.product(grid["degree_weight"], grid["n_rules"], grid["feature_version"]))
    if not combos:
        raise HarnessError("empty sweep grid")
    val_seed = int(rng.integers(0, 2**31 - 1))
    results = [
        synthesize_multiround(dataset, replace(base_cfg, degree_weight=lam, n_rules=k, feature_version=fv), rng)
        for lam, k, fv in combos
    ]
    policies = [CombinedPolicy(dataset.params, [r.program for r in rs], task_cfg.v_max) for rs in results]
    metrics = evaluate_many(policies, task_cfg, n_val_rollouts, comm_weight, val_seed, reward_params)
    cells = [SweepCell(*combo, res, m) for combo, res, m in zip(combos, results, metrics)]
    return SweepResult(select_best_cell(cells), cells)


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------


def metrics_to_json(metrics: Sequence[Metrics]) -> str:
    return json.dumps([asdict(m) for m in metrics], indent=2, sort_keys=True) + "\n"


def metrics_to_csv(metrics: Sequence[Metrics]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(CSV_COLUMNS)
    for m in metrics:
        writer.writerow(m.csv_row())
    return buf.getvalue()


def _svg_bar_chart(
    title: str,
    labels: Sequence[str],
    means: Sequence[float],
    stds: Sequence[float],
    width: int = 480,
    height: int = 300,
) -> str:
    """Minimal hand-written grouped bar chart with error bars."""
    margin = 50
    plot_w = width - 2 * margin
    plot_h = height - 2 * margin
    top = max((m + s) for m, s in zip(means, stds)) if means else 1.0
    top = top if top > 0 else 1.0
    bar_w = plot_w / max(1, len(means)) * 0.6
    gap = plot_w / max(1, len(means))
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<text x="{width / 2}" y="20" text-anchor="middle" font-size="14">{title}</text>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{height - margin}" stroke="black"/>',
        f'<text x="{margin - 8}" y="{margin}" text-anchor="end" font-size="10">{top:.3g}</text>',
        f'<text x="{margin - 8}" y="{height - margin}" text-anchor="end" font-size="10">0</text>',
    ]
    for idx, (label, mean, std) in enumerate(zip(labels, means, stds)):
        x = margin + idx * gap + (gap - bar_w) / 2
        h = plot_h * (mean / top) if top else 0.0
        y = height - margin - h
        parts.append(
            f'<rect x="{x:.1f}" y="{y:.1f}" width="{bar_w:.1f}" height="{h:.1f}" fill="#4878a8"/>'
        )
        if std > 0:
            cx = x + bar_w / 2
            y_lo = height - margin - plot_h * max(0.0, (mean - std)) / top
            y_hi = height - margin - plot_h * min(top, (mean + std)) / top
            parts.append(f'<line x1="{cx:.1f}" y1="{y_lo:.1f}" x2="{cx:.1f}" y2="{y_hi:.1f}" stroke="black"/>')
        parts.append(
            f'<text x="{x + bar_w / 2:.1f}" y="{height - margin + 14}" text-anchor="middle" font-size="10">{label}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def report_paths(out_dir: Union[str, Path]) -> dict[str, Path]:
    """The files report writes into out_dir, by kind."""
    out = Path(out_dir)
    return {"json": out / "metrics.json", "csv": out / "metrics.csv",
            "loss_svg": out / "loss.svg", "degree_svg": out / "degree.svg"}


def report(metrics: Sequence[Metrics], out_dir: Union[str, Path]) -> dict[str, Path]:
    """Write metrics JSON + CSV and the loss / degree bar-chart SVGs."""
    if not metrics:
        raise HarnessError("report needs at least one policy's metrics")
    Path(out_dir).mkdir(parents=True, exist_ok=True)
    paths = report_paths(out_dir)
    paths["json"].write_text(metrics_to_json(metrics))
    paths["csv"].write_text(metrics_to_csv(metrics))
    paths["loss_svg"].write_text(_svg_bar_chart(
        "cumulative loss (per step)",
        [m.policy for m in metrics], [m.loss_mean for m in metrics], [m.loss_std for m in metrics],
    ))
    deg = [m for m in metrics if not m.full_comm]  # full-communication policies report no degrees
    paths["degree_svg"].write_text(_svg_bar_chart(
        "mean max total degree",
        [m.policy for m in deg], [m.total_deg_mean for m in deg], [m.total_deg_std for m in deg],
    ))
    return paths


# ---------------------------------------------------------------------------
# run manifests
# ---------------------------------------------------------------------------


_HASH_CHUNK = 1 << 20


def file_sha256(path: Union[str, Path]) -> str:
    """The file's sha256, read in 1 MiB chunks into one buffer, so a large dataset is never held whole."""
    h = hashlib.sha256()
    buf = memoryview(bytearray(_HASH_CHUNK))
    with open(path, "rb") as f:
        while size := f.readinto(buf):
            h.update(buf[:size])
    return h.hexdigest()


@dataclass
class RunManifest:
    command: str
    args: dict
    seed: int
    input_hashes: dict[str, str] = field(default_factory=dict)
    outputs: list[str] = field(default_factory=list)
    created_unix: float = field(default_factory=time.time)

    def save(self, path: Union[str, Path]) -> None:
        Path(path).write_text(json.dumps(asdict(self), indent=2, sort_keys=True) + "\n")

    @classmethod
    def load(cls, path: Union[str, Path]) -> "RunManifest":
        return decode(cls, json.loads(Path(path).read_text()))

    @classmethod
    def capture(
        cls, command: str, args: dict, seed: int, inputs: Sequence[Union[str, Path]]
    ) -> "RunManifest":
        hashes = {str(p): file_sha256(p) for p in inputs if Path(p).exists()}
        return cls(command=command, args=dict(args), seed=seed, input_hashes=hashes)


def resolve_seed(cli_seed: Optional[int], default: int = 0) -> int:
    """CLI seed, overridable by the SWARM_SEED environment variable."""
    env_seed = os.environ.get("SWARM_SEED")
    if env_seed is not None:
        return int(env_seed)
    if cli_seed is not None:
        return int(cli_seed)
    return default
