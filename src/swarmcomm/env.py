"""Decentralized planning worlds: initial-state sampling, dynamics, rewards, rollouts.

Three task families share one interface. The two formation tasks (``random-cross``,
``random-grid``) move point agents with bounded velocities toward per-agent goals
while penalizing near-collisions; ``unlabeled-goals`` drives N agents to cover N
interchangeable goal points by emitting weight vectors over the goals.

Dynamics are single-integrator (x' = x + a*dt). Observations are noisy relative
positions with the diagonal pinned to zero. Rollouts are bit-reproducible given
a seeded generator; concurrent rollouts should each own a generator spawned from
one master SeedSequence.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Iterable, Optional, Protocol, Sequence, Union

import numpy as np

from .dsl import CommGraph

Array = np.ndarray

TASK_KINDS = ("random-cross", "random-grid", "unlabeled-goals")

_CROSS_CENTERS = ((-1.0, 0.0), (0.0, -1.0), (1.0, 0.0), (0.0, 1.0))
_GRID_STARTS = ((-1, 0), (0, 0), (1, 0))


class EnvError(ValueError):
    pass


class RolloutError(RuntimeError):
    pass


@dataclass(frozen=True)
class TaskConfig:
    task_kind: str = "random-cross"
    n_agents_per_group: int = 5
    box_offset: float = 4.0
    box_half_width: float = 1.0
    obs_noise_sigma: float = 0.2
    v_max: float = 0.5
    horizon: int = 50
    dt: float = 0.1
    group_presence_prob: float = 0.33
    link_failure_prob: float = 0.0
    min_groups: int = 1

    def __post_init__(self) -> None:
        if self.task_kind not in TASK_KINDS:
            raise EnvError(f"unknown task kind {self.task_kind!r}")
        if self.horizon < 1:
            raise EnvError("horizon must be >= 1")
        if self.obs_noise_sigma < 0:
            raise EnvError("obs_noise_sigma must be >= 0")
        if self.v_max <= 0:
            raise EnvError("v_max must be > 0")
        if self.dt <= 0:
            raise EnvError("dt must be > 0")
        if not (0.0 <= self.group_presence_prob <= 1.0):
            raise EnvError("group_presence_prob must be in [0, 1]")
        if not (0.0 <= self.link_failure_prob <= 1.0):
            raise EnvError("link_failure_prob must be in [0, 1]")
        if self.n_agents_per_group < 1:
            raise EnvError("n_agents_per_group must be >= 1")
        if not (1 <= self.min_groups <= 4):
            raise EnvError("min_groups must be in 1..4")

    @property
    def formation(self) -> bool:
        return self.task_kind != "unlabeled-goals"

    @property
    def comm_rounds(self) -> int:
        # formation tasks exchange one round per step, goal coverage uses two
        return 1 if self.formation else 2

    @property
    def state_dim(self) -> int:
        if self.formation:
            return 4
        return 2 + 2 * self.n_agents_per_group

    @property
    def action_dim(self) -> int:
        return 2 if self.formation else self.n_agents_per_group

    def to_json_dict(self) -> dict:
        return {
            "task_kind": self.task_kind,
            "n_agents_per_group": self.n_agents_per_group,
            "box_offset": self.box_offset,
            "box_half_width": self.box_half_width,
            "obs_noise_sigma": self.obs_noise_sigma,
            "v_max": self.v_max,
            "horizon": self.horizon,
            "dt": self.dt,
            "group_presence_prob": self.group_presence_prob,
            "link_failure_prob": self.link_failure_prob,
            "min_groups": self.min_groups,
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "TaskConfig":
        return cls(**{k: doc[k] for k in cls.__dataclass_fields__ if k in doc})


@dataclass(frozen=True)
class RewardParams:
    collision_weight: float = 1.0
    collision_distance: float = 0.3

    def __post_init__(self) -> None:
        if self.collision_weight < 0:
            raise EnvError("collision_weight must be >= 0")
        if self.collision_distance <= 0:
            raise EnvError("collision_distance must be > 0")

    def to_json_dict(self) -> dict:
        return {
            "collision_weight": self.collision_weight,
            "collision_distance": self.collision_distance,
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "RewardParams":
        return cls(**{k: doc[k] for k in cls.__dataclass_fields__ if k in doc})


def load_config(path: Union[str, Path]) -> tuple[TaskConfig, RewardParams]:
    """Read a flat task config; a key that is no TaskConfig or RewardParams field is an error."""
    doc = json.loads(Path(path).read_text())
    if not isinstance(doc, dict):
        raise EnvError("a task config must be a JSON object")
    unknown = sorted(set(doc) - set(TaskConfig.__dataclass_fields__) - set(RewardParams.__dataclass_fields__))
    if unknown:
        raise EnvError(f"unknown config key(s): {', '.join(unknown)}")
    return TaskConfig.from_json_dict(doc), RewardParams.from_json_dict(doc)


def save_config(path: Union[str, Path], cfg: TaskConfig, rewards: RewardParams) -> None:
    doc = {**cfg.to_json_dict(), **rewards.to_json_dict()}
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


@dataclass
class GlobalState:
    task_kind: str
    positions: Array  # (N, 2)
    goals: Array  # formation: per-agent goal (N, 2); unlabeled: shared goal points (N, 2)
    group_ids: Array  # (N,)
    goal_order: Optional[Array] = None  # unlabeled: (N, N) goal ids, nearest-first at t=0

    def __post_init__(self) -> None:
        self.positions = np.asarray(self.positions, dtype=np.float64)
        self.goals = np.asarray(self.goals, dtype=np.float64)
        self.group_ids = np.asarray(self.group_ids, dtype=np.int64)
        if self.n_agents < 1:
            raise EnvError("need at least one agent")
        if not (np.all(np.isfinite(self.positions)) and np.all(np.isfinite(self.goals))):
            raise EnvError("positions and goals must be finite")
        if self.goal_order is not None:
            self.goal_order = np.asarray(self.goal_order, dtype=np.int64)

    @property
    def n_agents(self) -> int:
        return self.positions.shape[0]

    def agent_states(self) -> Array:
        """Per-agent network inputs s^i, shape (N, state_dim)."""
        if self.task_kind != "unlabeled-goals":
            return np.concatenate([self.positions, self.goals], axis=1)
        ordered = self.goals[self.goal_order]  # (N, N, 2), frozen t=0 ordering
        n = self.n_agents
        return np.concatenate([self.positions, ordered.reshape(n, 2 * n)], axis=1)

    def goal_perm_inv(self) -> Array:
        """(N, N) inverse ordering: entry [i, g] = local slot of global goal g."""
        if self.goal_order is None:
            raise EnvError("goal_perm_inv only applies to unlabeled-goals states")
        inv = np.empty_like(self.goal_order)
        n = self.n_agents
        rows = np.arange(n)[:, None]
        inv[rows, self.goal_order] = np.arange(n)[None, :]
        return inv


@dataclass
class GlobalAction:
    task_kind: str
    data: Array  # formation: velocities (N, 2); unlabeled: weights (N, N) in global goal order

    def __post_init__(self) -> None:
        self.data = np.asarray(self.data, dtype=np.float64)

    @property
    def n_agents(self) -> int:
        return self.data.shape[0]


def _validate_action(action: GlobalAction, cfg: TaskConfig) -> None:
    if not np.all(np.isfinite(action.data)):
        raise EnvError("non-finite action rejected")
    if cfg.formation:
        norms = np.linalg.norm(action.data, axis=1)
        if np.any(norms > cfg.v_max + 1e-9):
            raise EnvError("velocity exceeds v_max")
    else:
        if np.any(action.data < -1e-9):
            raise EnvError("goal weights must be nonnegative")
        if np.any(np.abs(action.data.sum(axis=1) - 1.0) > 1e-6):
            raise EnvError("goal weights must sum to 1")


_MAX_RESAMPLES = 1000


def sample_initial(cfg: TaskConfig, rng: np.random.Generator) -> GlobalState:
    if cfg.task_kind == "random-cross":
        pattern = sample_cross_pattern(cfg, rng)
        return sample_cross_state(cfg, pattern, rng)
    if cfg.task_kind == "random-grid":
        assignment = sample_grid_goal_cells(rng)
        return sample_grid_state(cfg, assignment, rng)
    return _sample_unlabeled(cfg, rng)


def sample_cross_pattern(cfg: TaskConfig, rng: np.random.Generator) -> Array:
    """Which of the 4 groups are present; resamples until >= min_groups."""
    for _ in range(_MAX_RESAMPLES):
        present = rng.random(4) < cfg.group_presence_prob
        if present.sum() >= cfg.min_groups:
            return present
    raise EnvError(
        "could not sample enough groups; group_presence_prob too small for min_groups"
    )


def sample_cross_state(cfg: TaskConfig, present: Array, rng: np.random.Generator) -> GlobalState:
    ell = cfg.box_offset
    positions, goals, group_ids = [], [], []
    for g, is_present in enumerate(present):
        if not is_present:
            continue
        center = ell * np.asarray(_CROSS_CENTERS[g])
        start = center + rng.uniform(-cfg.box_half_width, cfg.box_half_width, (cfg.n_agents_per_group, 2))
        goal = -center + rng.uniform(-cfg.box_half_width, cfg.box_half_width, (cfg.n_agents_per_group, 2))
        positions.append(start)
        goals.append(goal)
        group_ids.extend([g] * cfg.n_agents_per_group)
    return GlobalState(
        "random-cross",
        np.concatenate(positions),
        np.concatenate(goals),
        np.asarray(group_ids),
    )


def grid_adjacent_cells(start: tuple[int, int]) -> list[tuple[int, int]]:
    sx, sy = start
    cells = []
    for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
        cx, cy = sx + dx, sy + dy
        if -1 <= cx <= 1 and -1 <= cy <= 1:
            cells.append((cx, cy))
    return cells


def sample_grid_goal_cells(rng: np.random.Generator) -> list[tuple[int, int]]:
    """Distinct goal cells on the 3x3 grid, each 4-adjacent to its group's start."""
    for _ in range(_MAX_RESAMPLES):
        cells = []
        for start in _GRID_STARTS:
            options = grid_adjacent_cells(start)
            cells.append(options[rng.integers(0, len(options))])
        if len(set(cells)) == len(cells):
            return cells
    raise EnvError("failed to sample distinct grid goal boxes")


def sample_grid_state(
    cfg: TaskConfig, goal_cells: Sequence[tuple[int, int]], rng: np.random.Generator
) -> GlobalState:
    ell = cfg.box_offset
    positions, goals, group_ids = [], [], []
    for g, (start, cell) in enumerate(zip(_GRID_STARTS, goal_cells)):
        start_center = ell * np.asarray(start, dtype=np.float64)
        goal_center = ell * np.asarray(cell, dtype=np.float64)
        positions.append(start_center + rng.uniform(-cfg.box_half_width, cfg.box_half_width, (cfg.n_agents_per_group, 2)))
        goals.append(goal_center + rng.uniform(-cfg.box_half_width, cfg.box_half_width, (cfg.n_agents_per_group, 2)))
        group_ids.extend([g] * cfg.n_agents_per_group)
    return GlobalState(
        "random-grid",
        np.concatenate(positions),
        np.concatenate(goals),
        np.asarray(group_ids),
    )


def _sample_unlabeled(cfg: TaskConfig, rng: np.random.Generator) -> GlobalState:
    n = cfg.n_agents_per_group
    ell = cfg.box_offset
    positions = rng.uniform(-ell, ell, (n, 2))
    goal_points = rng.uniform(-ell, ell, (n, 2))
    dists = np.linalg.norm(goal_points[None, :, :] - positions[:, None, :], axis=-1)
    order = np.argsort(dists, axis=1, kind="stable")
    return GlobalState(
        "unlabeled-goals", positions, goal_points, np.zeros(n, dtype=np.int64), goal_order=order
    )


def observe(state: GlobalState, sigma: float, rng: np.random.Generator) -> Array:
    """Noisy relative positions o[i, j] = x_j - x_i + noise; diagonal exactly zero."""
    if sigma < 0:
        raise EnvError("sigma must be >= 0")
    x = state.positions
    rel = x[None, :, :] - x[:, None, :]
    if sigma > 0:
        rel = rel + sigma * rng.standard_normal(rel.shape)
    n = state.n_agents
    rel[np.arange(n), np.arange(n)] = 0.0
    return rel


def step(state: GlobalState, action: GlobalAction, cfg: TaskConfig) -> GlobalState:
    _validate_action(action, cfg)
    if cfg.formation:
        velocity = action.data
    else:
        # weights are in global goal order, rows sum to 1: v = P @ g - x
        velocity = action.data @ state.goals - state.positions
    return replace(state, positions=state.positions + velocity * cfg.dt)


def reward_formation(state: GlobalState, action: GlobalAction, params: RewardParams) -> float:
    x = state.positions
    goal_term = float(np.linalg.norm(x - state.goals, axis=1).sum())
    diff = x[:, None, :] - x[None, :, :]
    dists = np.linalg.norm(diff, axis=-1)
    hinge = np.maximum(params.collision_weight * (2.0 - dists / params.collision_distance), 0.0)
    np.fill_diagonal(hinge, 0.0)
    return -(goal_term + float(hinge.sum()))


def reward_unlabeled(action: GlobalAction) -> float:
    weights = action.data
    n = weights.shape[0]
    return float(weights.max(axis=0).sum() - n)


def reward_for(state: GlobalState, action: GlobalAction, cfg: TaskConfig, params: RewardParams) -> float:
    if cfg.formation:
        return reward_formation(state, action, params)
    return reward_unlabeled(action)


def apply_link_failure(
    selections: Sequence[Iterable[int]], p_fail: float, rng: np.random.Generator
) -> list[set[int]]:
    """Drop each requested edge independently with probability p_fail."""
    if not (0.0 <= p_fail <= 1.0):
        raise EnvError("p_fail must be in [0, 1]")
    if p_fail == 0.0:
        return [set(sel) for sel in selections]
    delivered: list[set[int]] = []
    for sel in selections:
        ordered = sorted(sel)
        if not ordered:
            delivered.append(set())
            continue
        keep = rng.random(len(ordered)) >= p_fail
        delivered.append({j for j, ok in zip(ordered, keep) if ok})
    return delivered


# ---------------------------------------------------------------------------
# rollouts
# ---------------------------------------------------------------------------

Deliver = Callable[[Sequence[Iterable[int]]], list[set[int]]]


@dataclass
class PolicyStep:
    action: GlobalAction
    graph: CommGraph
    round_graphs: list[CommGraph]
    attentions: list[Array]  # per round, (N, N) rows actually used
    messages: list[Array]  # per round, (N, N, msg_dim), entry [j, i] = sender j -> receiver i


class Policy(Protocol):
    name: str
    full_comm: bool

    def step(
        self,
        state: GlobalState,
        obs: Array,
        rng: np.random.Generator,
        deliver: Deliver,
    ) -> PolicyStep: ...


@dataclass
class TrajectoryStep:
    state: GlobalState
    obs: Array
    graph: CommGraph
    round_graphs: list[CommGraph]
    attentions: list[Array]
    messages: list[Array]
    action: GlobalAction
    reward: float


@dataclass
class Trajectory:
    steps: list[TrajectoryStep]
    final_state: GlobalState

    def __len__(self) -> int:
        return len(self.steps)

    def total_reward(self) -> float:
        return float(sum(s.reward for s in self.steps))

    def discounted_reward(self, gamma: float) -> float:
        return float(sum((gamma ** t) * s.reward for t, s in enumerate(self.steps)))


def rollout(
    policy: Policy,
    cfg: TaskConfig,
    rng: np.random.Generator,
    reward_params: Optional[RewardParams] = None,
    initial_state: Optional[GlobalState] = None,
) -> Trajectory:
    """Run the policy for cfg.horizon steps and record everything.

    Bit-identical under a fixed generator state; link failure is applied to the
    policy's requested senders before messages flow or degrees are counted.
    """
    params = reward_params or RewardParams()
    state = initial_state if initial_state is not None else sample_initial(cfg, rng)
    p_fail = cfg.link_failure_prob

    def deliver(selections: Sequence[Iterable[int]]) -> list[set[int]]:
        return apply_link_failure(selections, p_fail, rng)

    steps: list[TrajectoryStep] = []
    for _ in range(cfg.horizon):
        obs = observe(state, cfg.obs_noise_sigma, rng)
        pstep = policy.step(state, obs, rng, deliver)
        if not np.all(np.isfinite(pstep.action.data)):
            raise RolloutError("policy produced a non-finite action")
        r = reward_for(state, pstep.action, cfg, params)
        if not np.isfinite(r):
            raise RolloutError("non-finite reward")
        next_state = step(state, pstep.action, cfg)
        if not np.all(np.isfinite(next_state.positions)):
            raise RolloutError("non-finite state")
        steps.append(
            TrajectoryStep(
                state, obs, pstep.graph, pstep.round_graphs, pstep.attentions, pstep.messages, pstep.action, r
            )
        )
        state = next_state
    return Trajectory(steps, state)


def spawn_rollout_rngs(master_seed: int, count: int) -> list[np.random.Generator]:
    """Independent per-rollout generators; safe for concurrent execution."""
    seq = np.random.SeedSequence(master_seed)
    return [np.random.Generator(np.random.PCG64(child)) for child in seq.spawn(count)]
