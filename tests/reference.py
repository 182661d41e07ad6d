"""Reference implementations the tests compare the batched code against.

One agent or one row at a time, written from the definitions: a message from
one (state, observation) pair, one attention row, one agent's action, one
feature vector, the per-agent rule interpreter, the communication graph
built agent by agent with it, and a rollout's (discounted) return. Plus a
reverse walk of a tape that asks every vjp for the gradient of every input;
the primitive ops that no training step records (div, transpose, tensor_max,
relu, sqrt, softmax, l2_norm, take_along_last and the two-layer mlp), whose
arithmetic the program keeps only inside the fused ops' kernels; the chain of primitive ops
that each fused op of a training step (forward_round, output_head,
step_rewards, advance) replaces, with use_op_chain to run a whole step on it;
and the small readers, writers and scorers that only tests call.
"""

import json
from dataclasses import asdict
from pathlib import Path
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from swarmcomm import autodiff as ad
from swarmcomm import env, transformer
from swarmcomm.autodiff import Tensor
from swarmcomm.dsl import CommGraph, FeatureMap, LinearForms, Program, RandRule, Rule, _eval_pred, featurize_pairs
from swarmcomm.env import RewardParams, RewardTerms, TaskConfig
from swarmcomm.harness import Metrics
from swarmcomm.jsondoc import decode
from swarmcomm.synth import ObjectiveBreakdown, SurrogateEvaluator
from swarmcomm.transformer import _SQUASH_EPS, RoundState, TransformerParams, _harden, _net

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


# ---------------------------------------------------------------------------
# the primitive ops no training step records
# ---------------------------------------------------------------------------


def div(a: ad.TensorLike, b: ad.TensorLike) -> Tensor:
    (ta, tb), tape = ad.coerce(a, b)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = ta.data / tb.data
    if tape is None:
        ad.check_finite(out, "div")
    if (res := ad._unrecorded(tape, "div", (ta, tb), out)) is not None:
        return res
    da, db = ta.data, tb.data

    def vjp(g: Array, need):
        return ad._only(
            need,
            lambda: ad.unbroadcast(g / db, da.shape),
            lambda: ad.unbroadcast(-g * da / (db * db), db.shape),
        )

    return tape.emit("div", (ta, tb), out, vjp)


def mlp(x: ad.TensorLike, w1: ad.TensorLike, b1: ad.TensorLike, w2: ad.TensorLike, b2: ad.TensorLike) -> Tensor:
    """tanh(x @ w1 + b1) @ w2 + b2 for 2-D x, recorded as one tape op.

    Values and gradients are bitwise those of the matmul/add/tanh chain: the
    forward adds the biases and applies tanh in place, and the vjp evaluates
    the chain's own expressions. On a tape the pre-activation and the output
    are checked for non-finite values, where the chain checked every op.
    """
    items, tape = ad.coerce(x, w1, b1, w2, b2)
    tx, tw1, tb1, tw2, tb2 = items
    if (
        tx.ndim != 2 or tw1.ndim != 2 or tw2.ndim != 2
        or tx.shape[1] != tw1.shape[0] or tb1.shape != tw1.shape[1:]
        or tw2.shape[0] != tw1.shape[1] or tb2.shape != tw2.shape[1:]
    ):
        raise ad.ShapeMismatch(
            f"mlp shapes do not chain: x {tx.shape}, w1 {tw1.shape}, b1 {tb1.shape}, "
            f"w2 {tw2.shape}, b2 {tb2.shape}"
        )
    h, out = ad.mlp_forward(tx.data, tw1.data, tb1.data, tw2.data, tb2.data, None if tape is None else "mlp")
    if (res := ad._unrecorded(tape, "mlp", items, out)) is not None:
        return res
    dx, dw1, dw2 = tx.data, tw1.data, tw2.data

    def vjp(g: Array, need):
        return ad.mlp_vjp(g, dx, dw1, dw2, h, need)

    return tape.emit("mlp", items, out, vjp)


def transpose(a: ad.TensorLike, axes: Sequence[int]) -> Tensor:
    (ta,), tape = ad.coerce(a)
    axes = tuple(int(x) for x in axes)
    out = np.transpose(ta.data, axes)
    if (res := ad._unrecorded(tape, "transpose", (ta,), out)) is not None:
        return res
    inverse = tuple(np.argsort(axes))

    def vjp(g: Array, _need):
        return (np.transpose(g, inverse),)

    return tape.emit("transpose", (ta,), out, vjp)


def tensor_max(a: ad.TensorLike, axis=None, keepdims: bool = False) -> Tensor:
    """Reduction max; ties route the gradient to the first maximal element."""
    (ta,), tape = ad.coerce(a)
    out = ta.data.max(axis=axis, keepdims=keepdims)
    out = np.asarray(out, dtype=np.float64)
    if (res := ad._unrecorded(tape, "max", (ta,), out)) is not None:
        return res
    data = ta.data

    def vjp(g: Array, _need):
        mask = np.zeros(data.shape, dtype=np.float64)
        if axis is None:
            mask.flat[int(np.argmax(data))] = 1.0
            return (mask * g,)
        idx = np.expand_dims(np.argmax(data, axis=axis), axis)
        np.put_along_axis(mask, idx, 1.0, axis=axis)
        g_exp = g if keepdims else np.expand_dims(g, axis)
        return (mask * g_exp,)

    return tape.emit("max", (ta,), out, vjp)


def relu(a: ad.TensorLike) -> Tensor:
    """max(x, 0); subgradient at the kink is 0."""
    (ta,), tape = ad.coerce(a)
    out = np.maximum(ta.data, 0.0)
    if (res := ad._unrecorded(tape, "relu", (ta,), out)) is not None:
        return res
    mask = (ta.data > 0.0).astype(np.float64)

    def vjp(g: Array, _need):
        return (g * mask,)

    return tape.emit("relu", (ta,), out, vjp)


def sqrt(a: ad.TensorLike) -> Tensor:
    (ta,), tape = ad.coerce(a)
    out = np.sqrt(ta.data)
    if tape is None:
        ad.check_finite(out, "sqrt")
    if (res := ad._unrecorded(tape, "sqrt", (ta,), out)) is not None:
        return res

    def vjp(g: Array, _need):
        return (g * 0.5 / out,)

    return tape.emit("sqrt", (ta,), out, vjp)


def softmax(a: ad.TensorLike) -> Tensor:
    """Softmax over the last axis."""
    (ta,), tape = ad.coerce(a)
    out = ad.softmax_forward(ta.data)
    if (res := ad._unrecorded(tape, "softmax", (ta,), out)) is not None:
        return res

    def vjp(g: Array, _need):
        return (ad.softmax_vjp(g, out),)

    return tape.emit("softmax", (ta,), out, vjp)


def l2_norm(a: ad.TensorLike) -> Tensor:
    """Euclidean norm over the last axis; gradient defined as 0 at the origin."""
    (ta,), tape = ad.coerce(a)
    out = np.asarray(ad.l2_norm_forward(ta.data), dtype=np.float64)
    if (res := ad._unrecorded(tape, "l2_norm", (ta,), out)) is not None:
        return res
    data = ta.data

    def vjp(g: Array, _need):
        return (ad.l2_norm_vjp(g, data, out),)

    return tape.emit("l2_norm", (ta,), out, vjp)


def take_along_last(a: ad.TensorLike, indices: Array) -> Tensor:
    """Gather along the last axis: out[..., k] = a[..., indices[..., k]]."""
    (ta,), tape = ad.coerce(a)
    idx = np.asarray(indices, dtype=np.int64)
    out = np.take_along_axis(ta.data, idx, axis=-1)
    if (res := ad._unrecorded(tape, "take_along_last", (ta,), out)) is not None:
        return res
    shape = ta.data.shape

    def vjp(g: Array, _need):
        return (ad.take_along_last_vjp(g, idx, shape),)

    return tape.emit("take_along_last", (ta,), out, vjp)


def _mlp(weights: dict[str, ad.TensorLike], net: str, x: ad.TensorLike) -> Tensor:
    return mlp(x, *_net(weights, net))


# ---------------------------------------------------------------------------
# the op chain the fused ops replace
# ---------------------------------------------------------------------------


def _tile_over_senders(x: Tensor, n: int) -> Tensor:
    b = x.shape[0]
    d = x.shape[-1]
    expanded = ad.reshape(x, (b, x.shape[1], 1, d))
    ones = np.ones((1, 1, n, 1))
    return ad.mul(expanded, ones)


def chain_harden_rows(soft: ad.TensorLike, mask: Array) -> Tensor:
    """Mask attention rows to the selected senders and renormalize them (transformer._harden as ops).

    A row whose kept mass z is > 0 is divided by exactly z; a row with z == 0
    (nothing selected) comes out all-zero. Gradients flow through the kept
    weights and the normalizer, never through the discrete mask.
    """
    masked = ad.mul(soft, np.asarray(mask, dtype=np.float64))
    z = ad.tensor_sum(masked, axis=-1, keepdims=True)
    return div(masked, ad.add(z, (z.data == 0.0).astype(np.float64)))


def chain_squash_action(u: ad.TensorLike, v_max: float) -> Tensor:
    """Smoothly rescale to the open v_max ball: u * v_max * tanh(|u|)/|u|."""
    u_t = u if isinstance(u, Tensor) else Tensor(u)
    n2 = ad.tensor_sum(ad.mul(u_t, u_t), axis=-1, keepdims=True)
    norm = sqrt(ad.add(n2, _SQUASH_EPS))
    factor = div(ad.mul(ad.tanh(norm), v_max), norm)
    return ad.mul(u_t, factor)


def chain_output_head(
    params: TransformerParams,
    weights: dict[str, ad.TensorLike],
    states: ad.TensorLike,
    msg_sum: ad.TensorLike,
    v_max: Optional[float] = None,
    goal_perm_inv: Optional[Array] = None,
) -> Tensor:
    """Actions (B, N, action_dim) from own states (B, N, ds) and message sums (B, N, dm).

    Formation tasks squash the output network's u into the v_max ball;
    unlabeled-goals takes a softmax over the agent's own goal ordering and
    reorders it into global goal order.
    """
    b, n = states.shape[0], states.shape[1]
    out_in = ad.concat([states, msg_sum], axis=-1)
    u = ad.reshape(
        _mlp(weights, "out", ad.reshape(out_in, (b * n, params.state_dim + params.msg_dim))),
        (b, n, params.action_dim),
    )
    if params.task_kind == "unlabeled-goals":
        if goal_perm_inv is None:
            raise ValueError("unlabeled-goals forward needs goal_perm_inv")
        return take_along_last(softmax(u), np.asarray(goal_perm_inv, dtype=np.int64))
    if v_max is None:
        raise ValueError("formation forward needs v_max")
    return chain_squash_action(u, v_max)


def chain_forward_round(
    params: TransformerParams,
    states: ad.TensorLike,
    obs: ad.TensorLike,
    round_index: int = 0,
    internal: Optional[Tensor] = None,
    select_fn=None,
    weights: Optional[dict[str, ad.TensorLike]] = None,
) -> RoundState:
    """One communication round: keys, queries, messages, attention, message sum.

    select_fn(round_index, soft_rows) may return a (B, N, N) mask from the soft
    attention; the rows are then hardened to it in-graph.
    """
    if round_index >= params.rounds:
        raise ValueError("round_index out of range")
    if weights is None:
        weights = dict(params.store.params)
    states_t = states if isinstance(states, Tensor) else Tensor(states)
    obs_t = obs if isinstance(obs, Tensor) else Tensor(obs)
    b, n = states_t.shape[0], states_t.shape[1]
    suffix = "" if round_index == 0 else "2"

    state_tiled = _tile_over_senders(states_t, n)
    pair_state_in = ad.concat([state_tiled, obs_t], axis=-1)
    flat_pairs = ad.reshape(pair_state_in, (b * n * n, params.state_dim + 2))
    keys = ad.reshape(_mlp(weights, f"key{suffix}", flat_pairs), (b, n, n, params.key_dim))

    if round_index == 0:
        msg_src = flat_pairs
        msg_net = "msg"
    else:
        if internal is None:
            raise ValueError("round 2 needs the internal vectors from round 1")
        h_tiled = _tile_over_senders(internal, n)
        pair_h_in = ad.concat([h_tiled, obs_t], axis=-1)
        msg_src = ad.reshape(pair_h_in, (b * n * n, params.internal_dim + 2))
        msg_net = "msg2"
    messages = ad.reshape(_mlp(weights, msg_net, msg_src), (b, n, n, params.msg_dim))

    queries = ad.reshape(
        _mlp(weights, f"query{suffix}", ad.reshape(states_t, (b * n, params.state_dim))),
        (b, n, params.key_dim),
    )
    q_exp = ad.reshape(queries, (b, n, 1, params.key_dim))
    logits = div(ad.tensor_sum(ad.mul(q_exp, keys), axis=-1), float(np.sqrt(params.key_dim)))
    soft = softmax(logits)

    mask = select_fn(round_index, soft.data) if select_fn is not None else None
    attention = chain_harden_rows(soft, mask) if mask is not None else soft

    received = transpose(messages, (0, 2, 1, 3))
    weighted = ad.mul(ad.reshape(attention, (b, n, n, 1)), received)
    msg_sum = ad.tensor_sum(weighted, axis=2)

    internal_out: Optional[Tensor] = None
    if params.rounds >= 2 and round_index == 0:
        agg = ad.concat([states_t, msg_sum], axis=-1)
        internal_out = ad.reshape(
            _mlp(weights, "internal", ad.reshape(agg, (b * n, params.state_dim + params.msg_dim))),
            (b, n, params.internal_dim),
        )
    return RoundState(queries, keys, messages, soft, attention, msg_sum, internal_out)


def chain_step_rewards(
    pos: ad.TensorLike,
    rel: ad.TensorLike,
    goals: ad.TensorLike,
    actions: ad.TensorLike,
    formation: bool,
    params: RewardParams,
) -> RewardTerms:
    if not formation:
        goal = tensor_max(actions, axis=1)
        b, n = goal.shape
        return RewardTerms(goal.data, ad.sub(ad.tensor_sum(goal), float(n * b)))
    goal_dists = l2_norm(ad.sub(pos, goals))
    pair_dists = l2_norm(rel)
    hinge = relu(
        ad.mul(ad.sub(2.0, div(pair_dists, params.collision_distance)), params.collision_weight)
    )
    n = pair_dists.shape[-1]
    hinge = ad.mul(hinge, (1.0 - np.eye(n))[None])
    total = ad.mul(ad.add(ad.tensor_sum(goal_dists), ad.tensor_sum(hinge)), -1.0)
    return RewardTerms(goal_dists.data, total, hinge.data)


def chain_advance(pos: ad.TensorLike, goals: ad.TensorLike, actions: ad.TensorLike, cfg: TaskConfig) -> Tensor:
    if cfg.formation:
        velocity = actions
    else:
        b, n = actions.shape[0], actions.shape[1]
        weighted = ad.mul(ad.reshape(actions, (b, n, n, 1)), ad.reshape(goals, (b, 1, n, 2)))
        velocity = ad.sub(ad.tensor_sum(weighted, axis=2), pos)
    return ad.add(pos, ad.mul(velocity, cfg.dt))


def use_op_chain(monkeypatch) -> None:
    """Run forward_policy and env.world_step on the op chain instead of the fused ops, for one test."""
    monkeypatch.setattr(transformer, "forward_round", chain_forward_round)
    monkeypatch.setattr(transformer, "output_head", chain_output_head)
    monkeypatch.setattr(env, "step_rewards", chain_step_rewards)
    monkeypatch.setattr(env, "advance", chain_advance)


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
    return softmax(logits.reshape(1, -1)).data[0]


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
        return softmax(u).data[0]
    if v_max is None:
        raise ValueError("formation actions need v_max")
    return chain_squash_action(u, v_max).data[0]


def harden_row(row: Array, selection: Iterable[int]) -> Array:
    """One attention row hardened to a selection set by transformer._harden, as forward_round and the surrogate do."""
    row = np.asarray(row, dtype=np.float64)
    mask = np.zeros_like(row)
    mask[list(selection)] = 1.0
    return _harden(row[None], mask[None])[2][0]


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


# ---------------------------------------------------------------------------
# helpers only tests call
# ---------------------------------------------------------------------------


def objective_for_masks(ev: SurrogateEvaluator, masks: Sequence[Array]) -> ObjectiveBreakdown:
    """The evaluator's score of explicit selection masks; the full-mask case is the sanity ceiling."""
    imit, deg = ev._score_masks(list(masks))
    return ObjectiveBreakdown(-imit - ev.degree_weight * deg, imit, deg)


def metrics_from_json(text: str) -> list[Metrics]:
    """The inverse of harness.metrics_to_json."""
    return [decode(Metrics, doc) for doc in json.loads(text)]


def save_config(path: Union[str, Path], cfg: TaskConfig, rewards: RewardParams) -> None:
    """A flat task config that env.load_config reads back."""
    doc = {**asdict(cfg), **asdict(rewards)}
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
