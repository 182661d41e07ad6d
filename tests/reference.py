"""Reference implementations the tests compare the batched code against.

One agent or one row at a time, written from the definitions: a message from
one (state, observation) pair, one attention row, one agent's action, one
feature vector, the per-agent rule interpreter, the communication graph
built agent by agent with it, and a rollout's (discounted) return. Plus a
reverse walk of a tape that asks every vjp for the gradient of every input.
"""

from typing import Iterable, Optional, Sequence

import numpy as np

from swarmcomm import autodiff as ad
from swarmcomm.dsl import CommGraph, FeatureMap, LinearForms, Program, RandRule, Rule, _eval_pred, featurize_pairs
from swarmcomm.transformer import TransformerParams, _mlp, harden_rows, squash_action

Array = np.ndarray


def every_input_backward(tape: ad.Tape, output: ad.Tensor) -> dict[int, Array]:
    """Gradients of a scalar output w.r.t. every requires_grad leaf, from a walk
    that computes the gradient of every input of every op it reaches, constants
    included, keeps those of the inputs with a node id, and frees nothing:
    autodiff.backward can walk the tape after it.
    """
    grads = {output.node_id: np.ones_like(output.data)}
    for rec in reversed(tape.records):
        g_out = grads.pop(rec.output_id, None)
        if g_out is None:
            continue
        for node_id, g_in in zip(rec.input_ids, rec.vjp(g_out, (True,) * len(rec.input_ids))):
            if node_id is not None:
                grads[node_id] = grads[node_id] + g_in if node_id in grads else g_in
    return {i: grads[i] if i in grads else np.zeros(shape) for i, shape in tape._weight_shapes.items()}


def trajectory_return(traj, gamma: float = 1.0) -> float:
    """A recorded rollout's sum over steps t of gamma**t times the step reward."""
    return float(sum((gamma ** t) * s.reward for t, s in enumerate(traj.steps)))


def message(
    params: TransformerParams,
    s_i: Array,
    o_ij: Array,
    round_index: int = 0,
    h_i: Optional[Array] = None,
) -> Array:
    """Message from agent i to j; round 1 reads the state, round 2 the internal vector."""
    if round_index >= params.rounds:
        raise ValueError("round_index out of range")
    weights = dict(params.store.params)
    if round_index == 0:
        x = np.concatenate([np.asarray(s_i, float), np.asarray(o_ij, float)])
        return _mlp(weights, "msg", x.reshape(1, -1)).data[0]
    if h_i is None:
        raise ValueError("round 2 messages need the internal vector")
    x = np.concatenate([np.asarray(h_i, float), np.asarray(o_ij, float)])
    return _mlp(weights, "msg2", x.reshape(1, -1)).data[0]


def soft_attention(query: Array, keys: Array, key_dim: int) -> Array:
    """Row of attention weights: softmax of scaled dot products against each key."""
    logits = np.asarray(keys, float) @ np.asarray(query, float) / np.sqrt(key_dim)
    return ad.softmax(logits.reshape(1, -1)).data[0]


def act(
    params: TransformerParams,
    s_i: Array,
    messages_in: Array,
    attn_row: Array,
    v_max: Optional[float] = None,
) -> Array:
    """One agent's action from its state and attention-weighted received messages.

    messages_in: (N, msg_dim) rows of m^{j->i}; attn_row: (N,) weights.
    Formation tasks squash into the velocity ball; unlabeled-goals returns the
    softmax weight vector in the agent's own goal ordering.
    """
    msg_sum = np.asarray(attn_row, float) @ np.asarray(messages_in, float)
    x = np.concatenate([np.asarray(s_i, float), msg_sum]).reshape(1, -1)
    u = _mlp(dict(params.store.params), "out", x)
    if params.task_kind == "unlabeled-goals":
        return ad.softmax(u).data[0]
    if v_max is None:
        raise ValueError("formation actions need v_max")
    return squash_action(u, v_max).data[0]


def harden_row(row: Array, selection: Iterable[int]) -> Array:
    """One attention row hardened to a selection set, through transformer.harden_rows."""
    row = np.asarray(row, dtype=np.float64)
    mask = np.zeros_like(row)
    mask[list(selection)] = 1.0
    return harden_rows(row[None], mask[None]).data[0]


def featurize(s_i: Array, o_ij: Array, fmap: FeatureMap) -> Array:
    """Feature vector for one (state, observation) pair."""
    s_i = np.asarray(s_i, dtype=np.float64)
    o_ij = np.asarray(o_ij, dtype=np.float64)
    return featurize_pairs(s_i.reshape(1, -1), o_ij.reshape(1, 2), fmap)[0]


def eval_rule(
    rule: Rule,
    s_i: Array,
    candidates: Sequence[tuple[int, Array]],
    fmap: FeatureMap,
    rng: np.random.Generator,
) -> Optional[int]:
    """Apply one rule to the candidate list [(agent_id, o_ij), ...], self excluded.

    Deterministic rules return the passing candidate with the highest score
    (ties to the lowest agent id); nondeterministic rules pick uniformly among
    the passing candidates. Returns None when nothing passes the filter.
    """
    if not candidates:
        return None
    ids = np.asarray([j for j, _ in candidates], dtype=np.int64)
    obs = np.stack([np.asarray(o, dtype=np.float64) for _, o in candidates])
    states = np.broadcast_to(np.asarray(s_i, dtype=np.float64), (len(candidates), len(s_i)))
    feats = featurize_pairs(states, obs, fmap)
    keep = _eval_pred(rule.pred, LinearForms(feats))
    if not keep.any():
        return None
    if isinstance(rule, RandRule):
        passing = ids[keep]
        return int(passing[rng.integers(0, len(passing))])
    scores = feats @ np.asarray(rule.score.weights)
    scores = np.where(keep, scores, -np.inf)
    best = scores.max()
    winners = ids[scores == best]
    return int(winners.min())


def eval_program(
    program: Program,
    s_i: Array,
    candidates: Sequence[tuple[int, Array]],
    rng: np.random.Generator,
) -> set[int]:
    """Selection set for one agent: each rule picks at most one sender."""
    chosen: set[int] = set()
    for rule in program.rules:
        picked = eval_rule(rule, s_i, candidates, program.feature_map, rng)
        if picked is not None:
            chosen.add(picked)
    return chosen


def build_comm_graph(
    program: Program,
    states: Array,
    obs: Array,
    rng: np.random.Generator,
) -> CommGraph:
    """Evaluate the program for every agent and collect the requested edges."""
    n = states.shape[0]
    selections = []
    for i in range(n):
        candidates = [(j, obs[i, j]) for j in range(n) if j != i]
        selections.append(eval_program(program, states[i], candidates, rng))
    return CommGraph(n, frozenset((j, i) for i, sel in enumerate(selections) for j in sel))


def graph_mask(graph: CommGraph) -> Array:
    """(N, N) bool mask of a graph, [i, j] set for each edge j -> i."""
    mask = np.zeros((graph.n_agents, graph.n_agents), dtype=bool)
    for j, i in graph.edges:
        mask[i, j] = True
    return mask


def mask_from_selections(selections: Sequence[Iterable[int]]) -> Array:
    """(N, N) bool mask with [i, j] set when agent i selects sender j."""
    n = len(selections)
    mask = np.zeros((n, n), dtype=bool)
    for i, sel in enumerate(selections):
        mask[i, list(sel)] = True
    return mask
