"""Executable policies over a trained transformer.

``TfFullPolicy`` is the unrestricted soft-attention oracle. ``CombinedPolicy``
drives the same networks but lets a rule program pick the senders each round
and hardens the attention to that set. ``DistMaskPolicy`` / ``TopKAttnPolicy``
are the fixed-structure comparison policies (k nearest by distance, k largest
attention scores), and ``NoCommPolicy`` never communicates.

All of them honor the link-failure hook: requested senders go through the
``deliver`` callable first, and only delivered edges carry messages or count
toward degrees.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from . import dsl
from .dsl import CommGraph, Program
from .env import Deliver, GlobalAction, GlobalState, PolicyStep
from .transformer import TransformerParams, forward_policy

Array = np.ndarray


def dist_mask_select(positions: Array, i: int, k: int) -> list[int]:
    """The k agents nearest to agent i (self excluded), ties to the lowest id."""
    positions = np.asarray(positions, dtype=np.float64)
    n = positions.shape[0]
    if k > n - 1:
        raise ValueError("k must be <= N - 1")
    dists = np.linalg.norm(positions - positions[i], axis=1)
    order = [j for j in np.argsort(dists, kind="stable") if j != i]
    return [int(j) for j in order[:k]]


def topk_attention_select(row: Array, i: int, k: int) -> list[int]:
    """The k senders with the largest attention scores (self excluded), ties to the lowest id."""
    row = np.asarray(row, dtype=np.float64)
    n = row.shape[0]
    if k > n - 1:
        raise ValueError("k must be <= N - 1")
    order = [j for j in np.argsort(-row, kind="stable") if j != i]
    return [int(j) for j in order[:k]]


def _mask_from_sets(selections: Sequence[set[int]], n: int, include_self: bool = False) -> Array:
    mask = np.zeros((1, n, n), dtype=np.float64)
    for i, sel in enumerate(selections):
        for j in sel:
            mask[0, i, j] = 1.0
        if include_self:
            mask[0, i, i] = 1.0
    return mask


class _TransformerPolicy:
    """Shared rollout-step machinery; subclasses pick the requested senders."""

    name = "transformer"
    full_comm = False

    def __init__(self, params: TransformerParams):
        self.params = params
        self.rounds = params.rounds

    def _requested(
        self,
        round_index: int,
        soft: Array,
        state: GlobalState,
        obs: Array,
        rng: np.random.Generator,
    ) -> list[set[int]]:
        raise NotImplementedError

    def _mask_for(self, delivered: list[set[int]], requested: list[set[int]], n: int) -> Optional[Array]:
        return _mask_from_sets(delivered, n)

    def step(
        self,
        state: GlobalState,
        obs: Array,
        rng: np.random.Generator,
        deliver: Deliver,
    ) -> PolicyStep:
        n = state.n_agents
        states = state.agent_states()[None, :, :]
        perm_inv = None
        if self.params.task_kind == "unlabeled-goals":
            perm_inv = state.goal_perm_inv()[None, :, :]
        round_graphs: list[CommGraph] = []

        def select(round_index: int, soft: Array) -> Optional[Array]:
            requested = self._requested(round_index, soft[0], state, obs, rng)
            delivered = deliver(requested)
            round_graphs.append(CommGraph.from_selections(delivered))
            return self._mask_for(delivered, requested, n)

        result = forward_policy(
            self.params,
            states,
            obs[None, :, :, :],
            v_max=self._v_max,
            select_fn=select,
            goal_perm_inv=perm_inv,
        )
        edges = frozenset(e for g in round_graphs for e in g.edges)
        return PolicyStep(
            action=GlobalAction(self.params.task_kind, result.actions.data[0]),
            graph=CommGraph(n, edges),
            round_graphs=round_graphs,
            attentions=[rs.attention.data[0] for rs in result.rounds],
            messages=[rs.messages.data[0] for rs in result.rounds],
        )

    @property
    def _v_max(self) -> Optional[float]:
        return getattr(self, "v_max", None)


class TfFullPolicy(_TransformerPolicy):
    """Every agent requests every other agent; attention stays soft.

    Under link failure the row is renormalized over the delivered senders plus
    self, which reduces to the untouched soft row when nothing drops.
    """

    name = "tf-full"
    full_comm = True

    def __init__(self, params: TransformerParams, v_max: Optional[float] = None):
        super().__init__(params)
        self.v_max = v_max

    def _mask_for(self, delivered, requested, n) -> Optional[Array]:
        # soft attention is only disturbed when a link actually dropped;
        # the surviving senders plus self then share the renormalized row
        if delivered == requested:
            return None
        return _mask_from_sets(delivered, n, include_self=True)

    def _requested(self, round_index, soft, state, obs, rng) -> list[set[int]]:
        n = state.n_agents
        return [set(j for j in range(n) if j != i) for i in range(n)]


class CombinedPolicy(_TransformerPolicy):
    """Rule programs choose the senders; the transformer acts on hardened rows."""

    name = "combined"

    def __init__(
        self,
        params: TransformerParams,
        programs: Sequence[Program],
        v_max: Optional[float] = None,
    ):
        super().__init__(params)
        if len(programs) != params.rounds:
            raise ValueError("need one program per communication round")
        self.programs = list(programs)
        self.v_max = v_max

    def _requested(self, round_index, soft, state, obs, rng) -> list[set[int]]:
        program = self.programs[round_index]
        agent_states = state.agent_states()
        n = state.n_agents
        out = []
        for i in range(n):
            candidates = [(j, obs[i, j]) for j in range(n) if j != i]
            out.append(dsl.eval_program(program, agent_states[i], candidates, rng))
        return out


class DistMaskPolicy(_TransformerPolicy):
    """Fixed communication structure: each agent hears its k nearest neighbors."""

    name = "dist"

    def __init__(self, params: TransformerParams, k: int, v_max: Optional[float] = None):
        super().__init__(params)
        if k < 1:
            raise ValueError("k must be >= 1")
        self.k = k
        self.v_max = v_max

    def _requested(self, round_index, soft, state, obs, rng) -> list[set[int]]:
        n = state.n_agents
        k = min(self.k, n - 1)
        if k == 0:
            return [set() for _ in range(n)]
        return [set(dist_mask_select(state.positions, i, k)) for i in range(n)]


class TopKAttnPolicy(_TransformerPolicy):
    """Keep the k senders with the largest soft-attention scores per receiver.

    Bounds the in-degree at k but not the out-degree: one broadly useful sender
    can land in every receiver's top k.
    """

    name = "hard-attn"

    def __init__(self, params: TransformerParams, k: int, v_max: Optional[float] = None):
        super().__init__(params)
        if k < 1:
            raise ValueError("k must be >= 1")
        self.k = k
        self.v_max = v_max

    def _requested(self, round_index, soft, state, obs, rng) -> list[set[int]]:
        n = state.n_agents
        k = min(self.k, n - 1)
        if k == 0:
            return [set() for _ in range(n)]
        return [set(topk_attention_select(soft[i], i, k)) for i in range(n)]


class NoCommPolicy(_TransformerPolicy):
    """Ablation: no messages at all; every attention row is zeroed."""

    name = "no-comm"

    def __init__(self, params: TransformerParams, v_max: Optional[float] = None):
        super().__init__(params)
        self.v_max = v_max

    def _requested(self, round_index, soft, state, obs, rng) -> list[set[int]]:
        return [set() for _ in range(state.n_agents)]


POLICY_NAMES = ("tf-full", "combined", "dist", "hard-attn", "no-comm")


def make_policy(
    kind: str,
    params: TransformerParams,
    v_max: Optional[float] = None,
    k: Optional[int] = None,
    programs: Optional[Sequence[Program]] = None,
):
    if kind == "tf-full":
        return TfFullPolicy(params, v_max)
    if kind == "combined":
        if not programs:
            raise ValueError("combined policy needs --program")
        return CombinedPolicy(params, programs, v_max)
    if kind == "dist":
        if k is None:
            raise ValueError("dist policy needs --k")
        return DistMaskPolicy(params, k, v_max)
    if kind == "hard-attn":
        if k is None:
            raise ValueError("hard-attn policy needs --k")
        return TopKAttnPolicy(params, k, v_max)
    if kind == "no-comm":
        return NoCommPolicy(params, v_max)
    raise ValueError(f"unknown policy kind {kind!r}")
