"""Decentralized planning worlds: initial-state sampling, dynamics, rewards, rollouts.

Three task families share one interface. The two formation tasks (``random-cross``,
``random-grid``) move point agents with bounded velocities toward per-agent goals
while penalizing near-collisions; ``unlabeled-goals`` drives N agents to cover N
interchangeable goal points by emitting weight vectors over the goals.

Dynamics are single-integrator (x' = x + a*dt). Observations are noisy relative
positions with the diagonal pinned to zero. One step function, ``world_step``,
advances B stacked worlds that share the agent count, and ``simulate`` runs
it for the horizon: training on the autodiff tape, rollouts, collection and
evaluation without one. Rollouts are
bit-reproducible given a seeded generator; concurrent rollouts should each own
a generator spawned from one master SeedSequence.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Iterator, Optional, Protocol, Sequence, Union

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .dsl import CommGraph
from .jsondoc import DecodeError, decode

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
        for name in ("box_offset", "box_half_width"):
            # initial states are drawn from ranges 2 * value wide, which must not overflow
            if not np.isfinite(2.0 * getattr(self, name)):
                raise EnvError(f"{name} must be finite with a finite sampling range 2 * {name}, got {getattr(self, name)}")

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


@dataclass(frozen=True)
class RewardParams:
    collision_weight: float = 1.0
    collision_distance: float = 0.3

    def __post_init__(self) -> None:
        if self.collision_weight < 0:
            raise EnvError("collision_weight must be >= 0")
        if self.collision_distance <= 0:
            raise EnvError("collision_distance must be > 0")


def load_config(path: Union[str, Path]) -> tuple[TaskConfig, RewardParams]:
    """Read a flat task config: the TaskConfig and RewardParams fields in one object (see jsondoc.decode)."""
    doc = json.loads(Path(path).read_text())
    if not isinstance(doc, dict):
        raise DecodeError("a task config must be a JSON object")
    task_keys = {f.name for f in fields(TaskConfig)}
    return (
        decode(TaskConfig, {k: v for k, v in doc.items() if k in task_keys}),
        decode(RewardParams, {k: v for k, v in doc.items() if k not in task_keys}),
    )


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
    centers = [(g, cfg.box_offset * np.asarray(_CROSS_CENTERS[g])) for g, on in enumerate(present) if on]
    return _sample_boxes("random-cross", cfg, [(g, c, -c) for g, c in centers], rng)


def _sample_boxes(
    task_kind: str, cfg: TaskConfig, groups: Sequence[tuple[int, Array, Array]], rng: np.random.Generator
) -> GlobalState:
    """Per (group id, start centre, goal centre), in order: the group's starts
    uniform in the box around the start centre, then its goals around the goal centre."""
    positions, goals, group_ids = [], [], []
    n, half = cfg.n_agents_per_group, cfg.box_half_width
    for g, start, goal in groups:
        positions.append(start + rng.uniform(-half, half, (n, 2)))
        goals.append(goal + rng.uniform(-half, half, (n, 2)))
        group_ids.extend([g] * n)
    return GlobalState(task_kind, np.concatenate(positions), np.concatenate(goals), np.asarray(group_ids))


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
    groups = [
        (g, ell * np.asarray(start, dtype=np.float64), ell * np.asarray(cell, dtype=np.float64))
        for g, (start, cell) in enumerate(zip(_GRID_STARTS, goal_cells))
    ]
    return _sample_boxes("random-grid", cfg, groups, rng)


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


# ---------------------------------------------------------------------------
# one batched world step
# ---------------------------------------------------------------------------


def _per_world(rngs: Sequence[np.random.Generator], shape: tuple[int, ...], kind: str) -> Array:
    first = rngs[0]
    if all(g is first for g in rngs):
        return getattr(first, kind)((len(rngs),) + tuple(shape))
    return np.stack([getattr(g, kind)(shape) for g in rngs])


def uniforms(rngs: Sequence[np.random.Generator], shape: tuple[int, ...]) -> Array:
    """(B, *shape) uniforms in [0, 1); block b comes from rngs[b].

    Blocks of one generator shared by all B worlds come in one draw of shape
    (B, *shape), the same stream as drawing them one after another.
    """
    return _per_world(rngs, shape, "random")


def apply_link_failure(requested: Array, p_fail: float, rngs: Sequence[np.random.Generator]) -> Array:
    """Drop each requested link of (B, N, N) masks independently with probability p_fail.

    When p_fail > 0, world b draws one (N, N) block of uniforms from rngs[b];
    entry (i, j) survives when u >= p_fail.
    """
    if not (0.0 <= p_fail <= 1.0):
        raise EnvError("p_fail must be in [0, 1]")
    if p_fail == 0.0:
        return requested
    return requested & (uniforms(rngs, requested.shape[-2:]) >= p_fail)


@dataclass
class WorldBatch:
    """The constant parts of B worlds of one task that share the agent count N."""

    formation: bool
    positions: Array  # (B, N, 2) at t = 0
    goals: Array  # (B, N, 2)
    goal_block: Optional[Array] = None  # unlabeled: (B, N, 2N), each agent's goals in its t=0 order
    goal_perm_inv: Optional[Array] = None  # unlabeled: (B, N, N)

    @classmethod
    def stack(cls, worlds: Sequence[GlobalState]) -> "WorldBatch":
        n = worlds[0].n_agents
        if any(w.n_agents != n for w in worlds):
            raise EnvError("all worlds in a batch must share the agent count")
        positions = np.stack([w.positions for w in worlds])
        goals = np.stack([w.goals for w in worlds])
        if worlds[0].task_kind != "unlabeled-goals":
            return cls(True, positions, goals)
        block = np.stack([w.goals[w.goal_order].reshape(n, 2 * n) for w in worlds])
        return cls(False, positions, goals, block, np.stack([w.goal_perm_inv() for w in worlds]))

    def agent_states(self, pos: ad.TensorLike) -> Tensor:
        """Network inputs (B, N, state_dim): position first, then the goal or the goal block."""
        return ad.concat([pos, self.goals if self.formation else self.goal_block], axis=-1)


@dataclass
class PolicyStep:
    """What a policy did in one step of B worlds."""

    actions: Tensor  # (B, N, action_dim); coverage weights in global goal order
    delivered: list[Array]  # per round, (B, N, N) bool: [b, i, j] = receiver i got sender j's message
    attentions: list[Array]  # per round, (B, N, N) rows actually applied
    # per round, (B, N, N, msg_dim), [b, j, i] = sender j -> receiver i; a policy whose senders are fixed before
    # attention computes only the delivered pairs' messages and leaves zeros at the pairs that carried nothing
    messages: list[Array]


class Policy(Protocol):
    """Acts in B worlds at once: per round a (B, N, N) request mask, links
    dropped by apply_link_failure, actions from the delivered links only."""

    name: str
    full_comm: bool

    def step(
        self,
        states: Tensor,
        obs: Tensor,
        rngs: Sequence[np.random.Generator],
        p_fail: float,
        goal_perm_inv: Optional[Array] = None,
        weights: Optional[dict] = None,
    ) -> PolicyStep: ...


@dataclass
class RewardTerms:
    """The per-agent parts of one step's rewards and their taped sum."""

    goal: Array  # (B, N) formation: distance to the own goal; coverage: largest weight on each goal
    total: Tensor  # the B worlds' rewards summed into one scalar, as the training objective adds them
    hinge: Optional[Array] = None  # formation: (B, N, N) collision hinge, zero diagonal

    def per_world(self) -> Array:
        """(B,) rewards."""
        if self.hinge is not None:
            return -(self.goal.sum(axis=1) + self.hinge.sum(axis=(1, 2)))
        return self.goal.sum(axis=1) - self.goal.shape[1]


def step_rewards(
    pos: ad.TensorLike,
    rel: ad.TensorLike,
    goals: ad.TensorLike,
    actions: ad.TensorLike,
    formation: bool,
    params: RewardParams,
) -> RewardTerms:
    """Formation: -(sum of goal distances + collision hinge over ordered pairs).
    Coverage: sum over goals of the largest weight any agent puts on it, minus N.
    rel: (B, N, N, 2) relative positions x_j - x_i. On a tape the total is one record.
    """
    if not formation:
        items, tape = ad.coerce(actions)
        shares = items[0].data
        goal = shares.max(axis=1)
        b, n = goal.shape
        total = np.asarray(goal.sum() - float(n * b))
        if tape is not None:
            ad.check_finite(total, "step_rewards")
        if not ad.on_path(tape, items):
            return RewardTerms(goal, Tensor(total, tape=tape))

        def coverage_vjp(g: Array, _need):
            g_goal = np.broadcast_to(g, goal.shape).copy()
            mask = np.zeros(shares.shape, dtype=np.float64)
            np.put_along_axis(mask, np.expand_dims(np.argmax(shares, axis=1), 1), 1.0, axis=1)
            return (mask * np.expand_dims(g_goal, 1),)

        return RewardTerms(goal, tape.emit("step_rewards", items, total, coverage_vjp))

    items, tape = ad.coerce(rel, pos, goals)
    (t_rel, t_pos), goal_data = items[:2], items[2].data
    diff = t_pos.data - goal_data
    goal = ad.l2_norm_forward(diff)
    pair = ad.l2_norm_forward(t_rel.data)
    cd, cw = np.asarray(params.collision_distance), np.asarray(params.collision_weight)
    with np.errstate(divide="ignore", invalid="ignore"):
        closeness = pair / cd
    ad.check_finite(closeness, "div (step_rewards)")
    scaled = (2.0 - closeness) * cw
    if tape is not None:
        ad.check_finite(scaled, "step_rewards")
    offdiag = (1.0 - np.eye(pair.shape[-1]))[None]
    hinge = np.maximum(scaled, 0.0) * offdiag
    total = np.asarray((goal.sum() + hinge.sum()) * -1.0)
    if tape is not None:
        ad.check_finite(total, "step_rewards")
    if not ad.on_path(tape, items[:2]):
        return RewardTerms(goal, Tensor(total, tape=tape), hinge)
    rel_data, pos_shape = t_rel.data, t_pos.shape
    hinge_shape, active = hinge.shape, scaled > 0.0  # the hinge's shape and sign mask are all its vjp reads

    def formation_vjp(g: Array, need):
        g_sum = g * np.asarray(-1.0)
        g_rel = g_pos = None
        if need[0]:
            g_hinge = (np.broadcast_to(g_sum, hinge_shape).copy() * offdiag) * active.astype(np.float64)
            g_closeness = -(g_hinge * cw)
            g_rel = ad.l2_norm_vjp(g_closeness / cd, rel_data, pair)
        if need[1]:
            g_pos = ad.unbroadcast(ad.l2_norm_vjp(np.broadcast_to(g_sum, goal.shape).copy(), diff, goal), pos_shape)
        return g_rel, g_pos

    return RewardTerms(goal, tape.emit("step_rewards", items[:2], total, formation_vjp), hinge)


def advance(pos: ad.TensorLike, goals: ad.TensorLike, actions: ad.TensorLike, cfg: TaskConfig) -> Tensor:
    """x' = x + v dt; v is the action (formation) or the weighted goals minus x (coverage).

    On a tape this is one record. In coverage it lists pos twice, once per use,
    in the order the reverse walk of the equivalent op chain reached them.
    """
    items, tape = ad.coerce(pos, actions)
    t_pos, t_act = items
    dt = np.asarray(cfg.dt)
    if cfg.formation:
        out = t_pos.data + t_act.data * dt
        inputs = [t_pos, t_act]
    else:
        b, n = t_act.shape[0], t_act.shape[1]
        goals4 = np.asarray(goals.data if isinstance(goals, Tensor) else goals, dtype=np.float64).reshape(b, 1, n, 2)
        velocity = ad.weighted_sum(t_act.data, goals4) - t_pos.data
        out = t_pos.data + velocity * dt
        inputs = [t_pos, t_pos, t_act]
    if tape is not None:
        ad.check_finite(out, "advance")
    if not ad.on_path(tape, items):
        return Tensor(out, tape=tape)
    pos_shape, act_shape = t_pos.shape, t_act.shape

    def vjp(g: Array, need):
        g_pos = ad.unbroadcast(g, pos_shape) if need[0] else None
        g_velocity = g * dt
        if cfg.formation:
            return g_pos, ad.unbroadcast(g_velocity, act_shape) if need[1] else None
        g_pos_2 = ad.unbroadcast(-g_velocity, pos_shape) if need[1] else None
        g_weighted = np.broadcast_to(np.expand_dims(g_velocity, 2), (b, n, n, 2)).copy()
        g_act = ad.unbroadcast(g_weighted * goals4, (b, n, n, 1)).reshape(act_shape) if need[2] else None
        return g_pos, g_pos_2, g_act

    return tape.emit("advance", inputs, out, vjp)


def check_actions(actions: Array, cfg: TaskConfig) -> None:
    """Reject non-finite actions, velocities above v_max and goal weights off the simplex."""
    if not np.all(np.isfinite(actions)):
        raise EnvError("non-finite action rejected")
    if cfg.formation:
        if np.any(np.linalg.norm(actions, axis=-1) > cfg.v_max + 1e-9):
            raise EnvError("velocity exceeds v_max")
    else:
        if np.any(actions < -1e-9):
            raise EnvError("goal weights must be nonnegative")
        if np.any(np.abs(actions.sum(axis=-1) - 1.0) > 1e-6):
            raise EnvError("goal weights must sum to 1")


@dataclass
class WorldStep:
    positions: Tensor  # (B, N, 2) before the step
    states: Tensor  # (B, N, state_dim)
    obs: Tensor  # (B, N, N, 2)
    policy: PolicyStep
    rewards: RewardTerms
    next_positions: Tensor


def world_step(
    policy: Policy,
    cfg: TaskConfig,
    reward_params: RewardParams,
    worlds: WorldBatch,
    pos: Tensor,
    rngs: Sequence[np.random.Generator],
    weights: Optional[dict] = None,
) -> WorldStep:
    """One step of B stacked worlds: observe, act, reward, move.

    Observations are o[i, j] = x_j - x_i + noise with the diagonal +0.0.
    World b draws only from rngs[b]: noise of shape (N, N, 2) when sigma > 0,
    then per round the policy's rule uniforms and, when links fail, one
    (N, N) block (see apply_link_failure). Training passes one generator for
    all B worlds and the step runs on its tape; rollouts pass plain tensors.
    """
    b, n = pos.shape[0], pos.shape[1]
    pos_i = ad.reshape(pos, (b, n, 1, 2))
    pos_j = ad.reshape(pos, (b, 1, n, 2))
    rel = ad.sub(pos_j, pos_i)
    offdiag = (1.0 - np.eye(n))[None, :, :, None]
    if cfg.obs_noise_sigma > 0:
        noise = cfg.obs_noise_sigma * _per_world(rngs, (n, n, 2), "standard_normal")
        noise[:, np.arange(n), np.arange(n)] = 0.0
        obs = ad.mul(ad.add(rel, noise), offdiag)
    else:
        obs = ad.mul(rel, offdiag)
    states = worlds.agent_states(pos)
    acted = policy.step(states, obs, rngs, cfg.link_failure_prob, worlds.goal_perm_inv, weights)
    rewards = step_rewards(pos, rel, worlds.goals, acted.actions, cfg.formation, reward_params)
    return WorldStep(pos, states, obs, acted, rewards, advance(pos, worlds.goals, acted.actions, cfg))


def simulate(
    policy: Policy,
    cfg: TaskConfig,
    worlds: Sequence[GlobalState],
    rngs: Sequence[np.random.Generator],
    reward_params: Optional[RewardParams] = None,
    tape: Optional[ad.Tape] = None,
    weights: Optional[dict] = None,
) -> Iterator[tuple[WorldStep, Array]]:
    """Step B worlds that share the agent count in lockstep for cfg.horizon steps.

    Yields every step with its (B,) rewards; world b draws only from rngs[b].
    Given a tape, the positions start as a constant on it and every step is
    recorded there, with weights as the policy's parameters (training).
    """
    params = reward_params or RewardParams()
    batch = WorldBatch.stack(worlds)
    pos = tape.constant(batch.positions) if tape is not None else Tensor(batch.positions)
    for _ in range(cfg.horizon):
        out = world_step(policy, cfg, params, batch, pos, rngs, weights)
        check_actions(out.policy.actions.data, cfg)
        rewards = out.rewards.per_world()
        if not np.all(np.isfinite(rewards)):
            raise RolloutError("non-finite reward")
        if not np.all(np.isfinite(out.next_positions.data)):
            raise RolloutError("non-finite state")
        yield out, rewards
        pos = out.next_positions


# ---------------------------------------------------------------------------
# rollouts
# ---------------------------------------------------------------------------


@dataclass
class TrajectoryStep:
    state: GlobalState
    obs: Array
    graph: CommGraph  # delivered edges of all rounds
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


def rollout(
    policy: Policy,
    cfg: TaskConfig,
    rng: np.random.Generator,
    reward_params: Optional[RewardParams] = None,
) -> Trajectory:
    """Run one world for cfg.horizon steps and record everything.

    Bit-identical under a fixed generator state: the world draws its initial
    state, then every step's draws (see world_step).
    """
    state = sample_initial(cfg, rng)
    steps: list[TrajectoryStep] = []
    final = state.positions
    for out, rewards in simulate(policy, cfg, [state], [rng], reward_params):
        delivered = [d[0] for d in out.policy.delivered]
        steps.append(
            TrajectoryStep(
                state=replace(state, positions=out.positions.data[0]),
                obs=out.obs.data[0],
                graph=CommGraph.from_mask(np.logical_or.reduce(delivered)),
                round_graphs=[CommGraph.from_mask(d) for d in delivered],
                attentions=[a[0] for a in out.policy.attentions],
                messages=[m[0] for m in out.policy.messages],
                action=GlobalAction(cfg.task_kind, out.policy.actions.data[0]),
                reward=float(rewards[0]),
            )
        )
        final = out.next_positions.data[0]
    return Trajectory(steps, replace(state, positions=final))


def spawn_rollout_rngs(master_seed: int, count: int) -> list[np.random.Generator]:
    """Independent per-rollout generators; safe for concurrent execution."""
    seq = np.random.SeedSequence(master_seed)
    return [np.random.Generator(np.random.PCG64(child)) for child in seq.spawn(count)]
