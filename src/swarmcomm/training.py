"""Model-based policy optimization by backpropagating through the simulator.

Each gradient step samples a fresh minibatch of worlds, unrolls the policy
through the differentiable dynamics / observation / reward chain for the full
horizon, and ascends the discounted cumulative reward with Adam. Retraining
runs the identical loop with the rule program's hard attention substituted in:
the discrete selections are recomputed from the current noisy observations at
every timestep (nondeterministic rules resample), and gradients flow through
the renormalized attention weights only.

Worlds inside one minibatch share an agent count so the unroll stays stacked;
for the crossing task that means one group-presence pattern per minibatch,
resampled every iteration.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional, Sequence, Union

import numpy as np

from . import autodiff as ad
from . import env
from .autodiff import Tensor
from .dsl import Program
from .env import GlobalState, RewardParams, TaskConfig
from .policy import CombinedPolicy, TfFullPolicy
from .transformer import TransformerParams, init_for_task

Array = np.ndarray

_VAL_BATCH = 16  # worlds in each validation unroll

WorldSampler = Callable[[TaskConfig, int, np.random.Generator], list[GlobalState]]


@dataclass(frozen=True)
class TrainConfig:
    n_rollouts: int = 2000
    batch_size: int = 16
    discount: float = 0.99
    learning_rate: float = 1e-3
    grad_clip: float = 10.0
    seed: int = 0
    val_interval: int = 10

    def __post_init__(self) -> None:
        if self.n_rollouts < 0:
            raise ValueError("n_rollouts must be >= 0")
        if not (0.0 < self.discount < 1.0):
            raise ValueError("discount must be in (0, 1)")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if 0 < self.n_rollouts < self.batch_size:
            raise ValueError(f"n_rollouts must be 0 or at least the batch size {self.batch_size}, got {self.n_rollouts}")
        if self.val_interval < 1:
            raise ValueError(f"val_interval must be >= 1, got {self.val_interval}")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        if not (math.isfinite(self.grad_clip) and self.grad_clip >= 0):
            raise ValueError(f"grad_clip must be finite and >= 0 (0 turns clipping off), got {self.grad_clip}")

    @property
    def n_iterations(self) -> int:
        return self.n_rollouts // self.batch_size


@dataclass
class CurveRow:
    iteration: int
    mean_reward: float
    grad_norm: float


@dataclass
class TrainResult:
    params: TransformerParams
    curve: list[CurveRow] = field(default_factory=list)
    best_validation: float = -np.inf


def write_curve_csv(path: Union[str, Path], curve: Sequence[CurveRow]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iteration", "mean_reward", "grad_norm"])
        for row in curve:
            writer.writerow([row.iteration, repr(row.mean_reward), repr(row.grad_norm)])


def sample_world_batch(
    cfg: TaskConfig, batch: int, rng: np.random.Generator
) -> list[GlobalState]:
    """A minibatch of initial worlds sharing one agent count.

    random-cross draws the group-presence pattern once per batch so the stacked
    unroll has a fixed N; the pattern itself is redrawn every call.
    """
    if cfg.task_kind == "random-cross":
        pattern = env.sample_cross_pattern(cfg, rng)
        return [env.sample_cross_state(cfg, pattern, rng) for _ in range(batch)]
    return [env.sample_initial(cfg, rng) for _ in range(batch)]


def unroll_score(
    params: TransformerParams,
    worlds: Sequence[GlobalState],
    cfg: TaskConfig,
    reward_params: RewardParams,
    discount: float,
    rng: np.random.Generator,
    programs: Optional[Sequence[Program]] = None,
    tape: Optional[ad.Tape] = None,
    weights: Optional[dict[str, ad.TensorLike]] = None,
) -> Tensor:
    """Mean discounted cumulative reward of the unrolled policy over the batch.

    The worlds advance through ``env.simulate``, all drawing from the one
    generator. With programs given, each round's attention is hardened to the
    program's selections, recomputed per step from the current observations.
    With a tape and weights recorded on it, the returned scalar is
    differentiable w.r.t. those weights.
    """
    b = len(worlds)
    if programs is None:
        policy = TfFullPolicy(params, v_max=cfg.v_max)
    else:
        policy = CombinedPolicy(params, programs, v_max=cfg.v_max)
    total: Optional[Tensor] = None
    gamma_t = 1.0  # a running product: discount**t rounds differently
    for out, _ in env.simulate(policy, cfg, worlds, [rng] * b, reward_params, tape, weights):
        contrib = ad.mul(out.rewards.total, gamma_t / b)
        total = contrib if total is None else ad.add(total, contrib)
        gamma_t *= discount
    assert total is not None
    return total


def validation_score(
    params: TransformerParams,
    cfg: TaskConfig,
    reward_params: RewardParams,
    discount: float,
    seed: int,
    batch: int,
    programs: Optional[Sequence[Program]] = None,
) -> float:
    """Deterministic held-out score: fixed worlds, fixed noise, fixed rule draws."""
    rng = np.random.Generator(np.random.PCG64(seed))
    worlds = sample_world_batch(cfg, batch, rng)
    score = unroll_score(params, worlds, cfg, reward_params, discount, rng, programs=programs)
    return float(score.data)


def _grad_by_name(
    tape: ad.Tape, score: Tensor, weights: dict[str, Tensor]
) -> dict[str, Array]:
    grads_by_id = ad.backward(tape, score)
    return {name: grads_by_id[t.node_id] for name, t in weights.items()}


def _optimize(
    params: TransformerParams,
    cfg: TaskConfig,
    train_cfg: TrainConfig,
    reward_params: RewardParams,
    rng: np.random.Generator,
    programs: Optional[Sequence[Program]],
    world_sampler: WorldSampler,
) -> TrainResult:
    params = params.copy()
    result = TrainResult(params=params)
    n_iters = train_cfg.n_iterations
    val_seed = train_cfg.seed + 7919
    best = params.copy()
    best_score = -np.inf

    def check_validation() -> None:
        nonlocal best, best_score
        score = validation_score(
            params, cfg, reward_params, train_cfg.discount, val_seed, _VAL_BATCH, programs
        )
        if score > best_score:
            best_score = score
            best = params.copy()

    for it in range(n_iters):
        worlds = world_sampler(cfg, train_cfg.batch_size, rng)
        tape = ad.Tape()
        weights = {
            name: tape.leaf(value, requires_grad=True)
            for name, value in params.store.params.items()
        }
        score = unroll_score(
            params,
            worlds,
            cfg,
            reward_params,
            train_cfg.discount,
            rng,
            programs=programs,
            tape=tape,
            weights=weights,
        )
        mean_reward = float(score.data)
        if not np.isfinite(mean_reward):
            raise ad.NonFiniteValue(
                f"training objective became non-finite at iteration {it} "
                f"(task={cfg.task_kind}, batch N={worlds[0].n_agents})"
            )
        grads = _grad_by_name(tape, score, weights)
        ascent = {name: -g for name, g in grads.items()}
        ascent, norm = ad.clip_grads(ascent, train_cfg.grad_clip)
        ad.adam_step(params.store, ascent, lr=train_cfg.learning_rate)
        result.curve.append(CurveRow(it, mean_reward, norm))
        if (it + 1) % train_cfg.val_interval == 0 or it == n_iters - 1:
            check_validation()

    result.params = best
    result.best_validation = best_score
    return result


def train_oracle(
    cfg: TaskConfig,
    train_cfg: TrainConfig,
    rng: np.random.Generator,
    reward_params: Optional[RewardParams] = None,
    params: Optional[TransformerParams] = None,
    world_sampler: WorldSampler = sample_world_batch,
) -> TrainResult:
    """Train the full-communication soft-attention policy from scratch.

    Returns the parameters with the best validation score seen; zero planned
    rollouts return the initial parameters untouched.
    """
    reward_params = reward_params or RewardParams()
    if params is None:
        params = init_for_task(cfg, rng)
    return _optimize(params, cfg, train_cfg, reward_params, rng, None, world_sampler)


def retrain(
    params: TransformerParams,
    programs: Sequence[Program],
    cfg: TaskConfig,
    train_cfg: TrainConfig,
    rng: np.random.Generator,
    reward_params: Optional[RewardParams] = None,
    world_sampler: WorldSampler = sample_world_batch,
) -> TrainResult:
    """Fine-tune the networks under the program's hard attention.

    The program structure is frozen; only network weights move. Zero planned
    rollouts leave the combined policy identical to the input.
    """
    if len(programs) != params.rounds:
        raise ValueError("need one program per communication round")
    reward_params = reward_params or RewardParams()
    return _optimize(params, cfg, train_cfg, reward_params, rng, list(programs), world_sampler)
