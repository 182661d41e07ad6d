"""Executable policies over a trained transformer.

``TfFullPolicy`` is the unrestricted soft-attention oracle. ``CombinedPolicy``
drives the same networks but lets a rule program pick the senders each round
and hardens the attention to that set. ``DistMaskPolicy`` / ``TopKAttnPolicy``
are the fixed-structure comparison policies (k nearest by distance, k largest
attention scores), and ``NoCommPolicy`` never communicates.

Every policy steps B stacked worlds at once. Each round it builds a (B, N, N)
request mask (entry [b, i, j]: receiver i asks sender j), drops failed links
with ``env.apply_link_failure``, and only delivered links carry messages or
count toward degrees. A policy whose masks do not read the soft attention
(``combined``, ``dist``, ``no-comm``) builds every round's mask before the
forward pass, so its rounds run the key and message networks on the delivered
pairs alone; ``tf-full`` and ``hard-attn`` harden the dense round.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from . import dsl
from .dsl import Program, RandRule
from .env import PolicyStep, apply_link_failure, uniforms
from .transformer import TransformerParams, forward_policy

Array = np.ndarray


def _k_smallest(keys: Array, k: int) -> Array:
    """Mask of the k smallest keys per row (..., N, N), self excluded, ties to the lowest id."""
    n = keys.shape[-1]
    if k > n - 1:
        raise ValueError("k must be <= N - 1")
    keys = np.where(np.eye(n, dtype=bool), np.inf, keys)
    pick = np.argsort(keys, axis=-1, kind="stable")[..., :k]
    mask = np.zeros(keys.shape, dtype=bool)
    np.put_along_axis(mask, pick, True, axis=-1)
    return mask


def dist_mask(positions: Array, k: int) -> Array:
    """(B, N, N) mask of each agent's k nearest agents, from positions (B, N, 2)."""
    positions = np.asarray(positions, dtype=np.float64)
    return _k_smallest(np.linalg.norm(positions[:, None, :, :] - positions[:, :, None, :], axis=-1), k)


def topk_attention_mask(soft: Array, k: int) -> Array:
    """(B, N, N) mask of the k largest attention scores in each row of soft (B, N, N)."""
    return _k_smallest(-np.asarray(soft, dtype=np.float64), k)


class _TransformerPolicy:
    """Shared step machinery; subclasses build the request masks."""

    name = "transformer"
    full_comm = False
    fixed_senders = True  # masks fixed before attention: the rounds run on the delivered pairs alone

    def __init__(self, params: TransformerParams, v_max: Optional[float] = None):
        self.params = params
        self.v_max = v_max

    def request_mask(self, round_index: int, soft: Optional[Array], states: Array, obs: Array, rngs) -> Array:
        """(B, N, N) requests; soft is the round's soft attention, None when fixed_senders is set."""
        raise NotImplementedError

    def _attention_mask(self, delivered: Array, p_fail: float) -> Optional[Array]:
        return delivered

    def step(self, states, obs, rngs, p_fail, goal_perm_inv=None, weights=None) -> PolicyStep:
        delivered: list[Array] = []

        def deliver(round_index: int, soft: Optional[Array]) -> Array:
            requested = self.request_mask(round_index, soft, states.data, obs.data, rngs)
            delivered.append(apply_link_failure(requested, p_fail, rngs))
            return delivered[-1]

        def select(round_index: int, soft: Array) -> Optional[Array]:
            return self._attention_mask(deliver(round_index, soft), p_fail)

        # round by round, rule uniforms then link failures: the draws of the dense route, in its order
        senders = [deliver(r, None) for r in range(self.params.rounds)] if self.fixed_senders else None
        result = forward_policy(
            self.params,
            states,
            obs,
            v_max=self.v_max,
            select_fn=None if self.fixed_senders else select,
            goal_perm_inv=goal_perm_inv,
            weights=weights,
            senders=senders,
        )
        return PolicyStep(
            actions=result.actions,
            delivered=delivered,
            attentions=[rs.attention.data for rs in result.rounds],
            messages=[rs.messages.data for rs in result.rounds],
        )


class TfFullPolicy(_TransformerPolicy):
    """Every agent requests every other agent; attention stays soft.

    Under lossy links (p_fail > 0) every row is hardened over the delivered
    senders plus self, every step, as in training.
    """

    name = "tf-full"
    full_comm = True
    fixed_senders = False  # its rows stay soft, or are hardened over delivered senders plus self

    def request_mask(self, round_index, soft, states, obs, rngs) -> Array:
        return np.broadcast_to(~np.eye(soft.shape[-1], dtype=bool), soft.shape)

    def _attention_mask(self, delivered, p_fail) -> Optional[Array]:
        if p_fail == 0.0:
            return None
        return delivered | np.eye(delivered.shape[-1], dtype=bool)


class CombinedPolicy(_TransformerPolicy):
    """Rule programs choose the senders; the transformer acts on hardened rows.

    Each round, world b draws N uniforms from rngs[b] for every random rule,
    in rule order.
    """

    name = "combined"

    def __init__(
        self,
        params: TransformerParams,
        programs: Sequence[Program],
        v_max: Optional[float] = None,
    ):
        super().__init__(params, v_max)
        if len(programs) != params.rounds:
            raise ValueError("need one program per communication round")
        self.programs = list(programs)

    def request_mask(self, round_index, soft, states, obs, rngs) -> Array:
        fmap = self.programs[round_index].feature_map
        return self.interpret(round_index, dsl.featurize_agents(states, obs, fmap), rngs)

    def interpret(self, round_index: int, feats: Array, rngs) -> Array:
        """Request masks (B, N, N) from the worlds' pair features (B, N, N, d') under the round's program."""
        program = self.programs[round_index]
        b, n = feats.shape[0], feats.shape[1]
        rand_u = np.zeros((b, n, program.n_rules))
        for k, rule in enumerate(program.rules):
            if isinstance(rule, RandRule):
                rand_u[..., k] = uniforms(rngs, (n,))
        return dsl.eval_program_batch(program, feats, rand_u)


class DistMaskPolicy(_TransformerPolicy):
    """Fixed communication structure: each agent hears its k nearest neighbors."""

    name = "dist"

    def __init__(self, params: TransformerParams, k: int, v_max: Optional[float] = None):
        super().__init__(params, v_max)
        if k < 1:
            raise ValueError("k must be >= 1")
        self.k = k

    def request_mask(self, round_index, soft, states, obs, rngs) -> Array:
        return dist_mask(states[..., :2], min(self.k, states.shape[1] - 1))


class TopKAttnPolicy(_TransformerPolicy):
    """Keep the k senders with the largest soft-attention scores per receiver.

    Bounds the in-degree at k but not the out-degree: one broadly useful sender
    can land in every receiver's top k.
    """

    name = "hard-attn"
    fixed_senders = False  # it ranks every soft score

    def __init__(self, params: TransformerParams, k: int, v_max: Optional[float] = None):
        super().__init__(params, v_max)
        if k < 1:
            raise ValueError("k must be >= 1")
        self.k = k

    def request_mask(self, round_index, soft, states, obs, rngs) -> Array:
        return topk_attention_mask(soft, min(self.k, soft.shape[-1] - 1))


class NoCommPolicy(_TransformerPolicy):
    """Ablation: no messages at all; every attention row is zeroed."""

    name = "no-comm"

    def request_mask(self, round_index, soft, states, obs, rngs) -> Array:
        return np.zeros(obs.shape[:3], dtype=bool)


class StackedPolicy(_TransformerPolicy):
    """Several combined policies over one network, stepped in one batch.

    The first counts[0] worlds of a batch belong to parts[0], the next
    counts[1] to parts[1], and so on. One network forward serves the whole
    batch, so the parts must share their params and v_max. The whole batch is
    featurized once per feature map and round, and each part interprets its
    own slice of the pair features.
    """

    def __init__(self, parts: Sequence[CombinedPolicy], counts: Sequence[int]):
        first = parts[0]
        for part in parts:
            if not isinstance(part, CombinedPolicy) or part.params is not first.params or part.v_max != first.v_max:
                raise ValueError("stacked policies must be combined policies of one params and v_max")
        if len(counts) != len(parts) or min(counts) < 1:
            raise ValueError("need one positive world count per stacked policy")
        super().__init__(first.params, first.v_max)
        self.parts = list(parts)
        self._bounds = [0, *np.cumsum(counts).tolist()]

    def request_mask(self, round_index, soft, states, obs, rngs) -> Array:
        if states.shape[0] != self._bounds[-1]:
            raise ValueError(f"stacked policy expects {self._bounds[-1]} worlds, got {states.shape[0]}")
        fmaps = [part.programs[round_index].feature_map for part in self.parts]
        feats = {fmap: dsl.featurize_agents(states, obs, fmap) for fmap in set(fmaps)}
        return np.concatenate([
            part.interpret(round_index, feats[fmap][lo:hi], rngs[lo:hi])
            for part, fmap, lo, hi in zip(self.parts, fmaps, self._bounds, self._bounds[1:])
        ])


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
