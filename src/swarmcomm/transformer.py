"""Soft-attention policy networks for the planning tasks.

Every agent runs the same stack of 2-layer tanh MLPs: a message network over
(own state, relative observation), key/query networks whose scaled dot products
produce an attention row over senders (self included), and an output network
applied to (own state, attention-weighted message sum). Two-round variants
aggregate round one into an internal vector that replaces the state in the
round-two message network; round-two keys and queries still read the raw state.

Forward passes run through two fused autodiff ops, forward_round and
output_head, so the same code serves training (tape attached) and evaluation
(plain numpy).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Optional, Union

import numpy as np

from . import autodiff as ad
from .autodiff import ParamStore, Tensor
from .jsondoc import DecodeError, decode

Array = np.ndarray

_SQUASH_EPS = 1e-24


@dataclass
class TransformerParams:
    task_kind: str
    rounds: int
    state_dim: int
    action_dim: int
    store: ParamStore
    key_dim: int = 16
    msg_dim: int = 16
    hidden_dim: int = 32
    internal_dim: int = 16

    def copy(self) -> "TransformerParams":
        return replace(self, store=self.store.copy())

    def task_mismatch(self, cfg) -> Optional[str]:
        """Why these parameters cannot drive the TaskConfig cfg, or None when they can."""
        if self.task_kind != cfg.task_kind:
            return f"parameters were trained for {self.task_kind!r}, config is {cfg.task_kind!r}"
        if (self.state_dim, self.action_dim, self.rounds) != (cfg.state_dim, cfg.action_dim, cfg.comm_rounds):
            return (
                f"parameter dims (state {self.state_dim}, action {self.action_dim}, rounds {self.rounds}) "
                f"do not match config dims (state {cfg.state_dim}, action {cfg.action_dim}, rounds {cfg.comm_rounds})"
            )
        return None

    def save(self, path: Union[str, Path]) -> None:
        Path(path).write_text(json.dumps(self.to_json_dict(), sort_keys=True))

    @classmethod
    def load(cls, path: Union[str, Path]) -> "TransformerParams":
        return cls.from_json_dict(json.loads(Path(path).read_text()))

    @classmethod
    def from_json_dict(cls, doc: dict) -> "TransformerParams":
        """Parameters from ``{"meta": every field but store, "params": the weights}``.

        The weights must be exactly those ``_mlp_shapes(meta)`` names, each
        ``{"shape", "values"}`` of its shape with finite values; the store
        keeps them in document order.
        """
        if not isinstance(doc, dict) or sorted(doc) != ["meta", "params"]:
            raise DecodeError('a parameter document is an object with the keys "meta" and "params"')
        params = decode(cls, doc["meta"], store=ParamStore({}))
        shapes = _mlp_shapes(params)
        entries = doc["params"]
        if not isinstance(entries, dict) or sorted(entries) != sorted(shapes):
            raise DecodeError(f"params must hold exactly the weights {', '.join(sorted(shapes))}")
        weights = {}
        for name, entry in entries.items():
            try:
                weight = decode(_Weight, entry)
            except DecodeError as exc:
                raise DecodeError(f"weight {name}: {exc}") from None
            if tuple(weight.shape) != shapes[name] or len(weight.values) != int(np.prod(shapes[name])):
                raise DecodeError(f"weight {name} must have shape {shapes[name]}, got {weight.shape}")
            weights[name] = np.asarray(weight.values, dtype=np.float64).reshape(shapes[name])
        params.store = ParamStore(weights)
        return params

    def to_json_dict(self) -> dict:
        return {
            "meta": {f.name: getattr(self, f.name) for f in fields(self) if f.name != "store"},
            "params": {
                name: {"shape": list(value.shape), "values": value.ravel().tolist()}
                for name, value in self.store.params.items()
            },
        }


@dataclass
class _Weight:
    """One weight as a parameter document stores it: its shape and its values in C order."""

    shape: list[int]
    values: list[float]


def _mlp_shapes(params: TransformerParams) -> dict[str, tuple[int, ...]]:
    """Every weight's shape in initialization order: w1, b1, w2, b2 of each 2-layer network."""
    ds, dk, dm, di = params.state_dim, params.key_dim, params.msg_dim, params.internal_dim
    nets = {"msg": (ds + 2, dm), "key": (ds + 2, dk), "query": (ds, dk), "out": (ds + dm, params.action_dim)}
    if params.rounds >= 2:
        nets.update({"internal": (ds + dm, di), "msg2": (di + 2, dm), "key2": (ds + 2, dk), "query2": (ds, dk)})
    h = params.hidden_dim
    shapes: dict[str, tuple[int, ...]] = {}
    for net, (d_in, d_out) in nets.items():
        shapes.update({f"{net}.w1": (d_in, h), f"{net}.b1": (h,), f"{net}.w2": (h, d_out), f"{net}.b2": (d_out,)})
    return shapes


def init_transformer(
    task_kind: str,
    state_dim: int,
    action_dim: int,
    rounds: int,
    rng: np.random.Generator,
    key_dim: int = 16,
    msg_dim: int = 16,
    hidden_dim: int = 32,
    internal_dim: int = 16,
) -> TransformerParams:
    params = TransformerParams(
        task_kind=task_kind,
        rounds=rounds,
        state_dim=state_dim,
        action_dim=action_dim,
        store=ParamStore({}),
        key_dim=key_dim,
        msg_dim=msg_dim,
        hidden_dim=hidden_dim,
        internal_dim=internal_dim,
    )
    params.store = ParamStore({
        name: rng.normal(0.0, 1.0 / np.sqrt(shape[0]), shape) if len(shape) == 2 else np.zeros(shape)
        for name, shape in _mlp_shapes(params).items()
    })
    return params


def init_for_task(cfg, rng: np.random.Generator, **dims) -> TransformerParams:
    """Initialize with the dimensions a TaskConfig implies."""
    return init_transformer(
        cfg.task_kind, cfg.state_dim, cfg.action_dim, cfg.comm_rounds, rng, **dims
    )


def _net(weights: dict[str, ad.TensorLike], net: str) -> list[ad.TensorLike]:
    return [weights[f"{net}.{p}"] for p in ("w1", "b1", "w2", "b2")]


# ---------------------------------------------------------------------------
# batched forward pass
# ---------------------------------------------------------------------------


@dataclass
class RoundState:
    queries: Tensor  # (B, N, dk)
    keys: Tensor  # (B, N, N, dk)
    messages: Tensor  # (B, N, N, dm), [b, i, j] = message i -> j
    soft: Tensor  # (B, N, N) softmax rows
    attention: Tensor  # (B, N, N) rows actually applied (hardened when masked)
    msg_sum: Tensor  # (B, N, dm)
    internal: Optional[Tensor] = None  # (B, N, internal_dim), rounds >= 2 only


@dataclass
class ForwardResult:
    actions: Tensor  # (B, N, action_dim); unlabeled weights are in global goal order
    rounds: list[RoundState]


def _pairs(x: Array, obs: Array) -> Array:
    """(B*N*M, d+2) rows [x_i, o_ij]: each agent's vector tiled next to each of its M observations, obs (B, N, M, 2)."""
    b, n, d = x.shape
    m = obs.shape[2]
    tiled = np.broadcast_to(x.reshape(b, n, 1, d), (b, n, m, d))  # the chain's x * ones, exactly
    return np.concatenate([tiled, obs], axis=-1).reshape(b * n * m, d + 2)


def _untile(g_flat: Array, b: int, n: int, d: int) -> tuple[Array, Array]:
    """The vjp of _pairs: the gradients of (x, obs) from the gradient of its rows."""
    g_tiled, g_obs = np.split(g_flat.reshape(b, n, n, d + 2), [d], axis=-1)
    return g_tiled.sum(axis=2), g_obs  # the chain summed g_tiled * ones over the senders in this order


def _harden(soft: Array, mask: Array) -> tuple[Array, Array, Array]:
    """(masked rows, normalizers, hardened rows): attention rows masked to the selected senders, renormalized.

    A row whose kept mass z is > 0 is divided by exactly z; a row with z == 0
    (nothing selected) comes out all-zero, and the agent then acts on its
    state plus a zero message sum. Training and rollouts harden inside
    forward_round; the synthesis surrogate calls this directly. The hardened
    rows are checked like the chain's div.
    """
    masked = soft * mask
    z = masked.sum(axis=-1, keepdims=True)
    zz = z + (z == 0.0).astype(np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        hard = masked / zz
    ad.check_finite(hard, "div (harden)")
    return masked, zz, hard


def _harden_vjp(g: Array, soft_shape: tuple[int, ...], mask: Array, masked: Array, zz: Array) -> Array:
    """The gradient of the soft rows, through the chain's div, add, sum and mul vjps in reverse."""
    g_zz = ad.unbroadcast(-g * masked / (zz * zz), zz.shape)
    g_masked = ad.unbroadcast(g / zz, masked.shape) + np.broadcast_to(g_zz, masked.shape).copy()
    return ad.unbroadcast(g_masked * mask, soft_shape)


def _squash(u: Array, v_max: float, op: str) -> tuple[Array, Array, Array, Array]:
    """(norm, tanh(norm), factor, u * factor): u rescaled into the open v_max ball, u * v_max * tanh(|u|)/|u|.

    norm and factor are checked like the chain's sqrt and div, naming op.
    """
    n2 = (u * u).sum(axis=-1, keepdims=True)
    norm = np.sqrt(n2 + _SQUASH_EPS)
    ad.check_finite(norm, f"sqrt ({op})")
    th = np.tanh(norm)
    with np.errstate(divide="ignore", invalid="ignore"):
        factor = th * v_max / norm
    ad.check_finite(factor, f"div ({op})")
    return norm, th, factor, u * factor


def _squash_vjp(g: Array, u: Array, v_max: float, norm: Array, th: Array, factor: Array) -> tuple[Array, Array, Array]:
    """The gradient of u from each of the chain's three uses of u, in its reverse-walk order."""
    g_factor = ad.unbroadcast(g * u, factor.shape)
    tv = th * np.asarray(v_max)
    g_norm = ad.unbroadcast(-g_factor * tv / (norm * norm), norm.shape)
    g_th = ad.unbroadcast(g_factor / norm * np.asarray(v_max), th.shape)
    g_norm = g_norm + g_th * (1.0 - th * th)
    g_uu = np.broadcast_to(g_norm * 0.5 / norm, u.shape).copy()
    return ad.unbroadcast(g * factor, u.shape), g_uu * u, g_uu * u


def output_head(
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
    reorders it into global goal order. On a tape this is one record.
    """
    coverage = params.task_kind == "unlabeled-goals"
    if coverage and goal_perm_inv is None:
        raise ValueError("unlabeled-goals forward needs goal_perm_inv")
    if not coverage and v_max is None:
        raise ValueError("formation forward needs v_max")
    items, tape = ad.coerce(states, msg_sum, *_net(weights, "out"))
    s, m, w1, b1, w2, b2 = (t.data for t in items)
    b, n = s.shape[0], s.shape[1]

    def head_rows() -> Array:  # the output network's input, built again by the vjp rather than held
        return np.concatenate([s, m], axis=-1).reshape(b * n, params.state_dim + params.msg_dim)

    h, u_flat = ad.mlp_forward(head_rows(), w1, b1, w2, b2, None if tape is None else "mlp (output_head)")
    u = u_flat.reshape(b, n, params.action_dim)
    if tape is not None:
        ad.check_finite(u, "output_head")
    if coverage:
        idx = np.asarray(goal_perm_inv, dtype=np.int64)
        soft = ad.softmax_forward(u)
        out = np.take_along_axis(soft, idx, axis=-1)
    else:
        norm, th, factor, out = _squash(u, v_max, "output_head")
    ad.check_finite(out, "output_head")  # on every call: a coverage softmax of an overflowed u is NaN, not an error
    if not ad.on_path(tape, items):
        return Tensor(out, tape=tape)
    w_need = [t.node_id is not None for t in items[2:]]

    def vjp(g: Array, need):
        if coverage:
            g_u = ad.softmax_vjp(ad.take_along_last_vjp(g, idx, soft.shape), soft)
        else:
            g_a, g_b, g_c = _squash_vjp(g, u, v_max, norm, th, factor)
            g_u = g_a + g_b + g_c
        g_x, *g_w = ad.mlp_vjp(g_u.reshape(b * n, params.action_dim), head_rows(), w1, w2, h, [need[0] or need[1], *w_need])
        g_s, g_m = np.split(g_x.reshape(b, n, -1), [params.state_dim], axis=-1) if g_x is not None else (None, None)
        return (g_s if need[0] else None, g_m if need[1] else None, *g_w)

    return tape.emit("output_head", items, out, vjp)


def forward_round(
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
    attention; the rows are then hardened to it in-graph. The message sum and
    the queries' gradient are ad.weighted_sum, the surrogate's kernel.

    On a tape the round is one record whose output is the round's only input
    to the rest of the network: the internal vectors in the first of two
    rounds, the message sum otherwise. The other fields are constants of the
    tape. An input the round uses more than once (the states, the
    observations) is listed once per use, in the order the reverse walk of
    the equivalent op chain reached those uses, so ``backward`` adds their
    gradients in the chain's order and every weight gradient is bitwise the
    chain's.

    The record holds the observations, the states or internal vectors, the
    soft and applied attention (one scalar per pair, with the hardening's
    masked rows and normalizers), and the query and internal networks'
    per-agent arrays: no array of B*N*N rows by a network's width. Its vjp
    handles one pair network at a time, the message network first, then the
    key network: it rebuilds the network's input rows with ``_pairs`` and
    its hidden rows and outputs with ``ad.mlp_forward``, the calls the
    forward made, then runs that network's ``mlp_vjp``. The gradients stay
    bitwise the chain's.
    A training step's tape then holds 0.25, 0.53 and 0.19 MB per world step
    on the crossing (N = 10), grid (N = 15) and coverage (N = 5) batches of
    16 worlds, against 1.07, 2.38 and 0.60 MB when the record held the two
    pair networks' hidden rows, and 1.57, 3.48 and 0.95 MB when it held
    their input rows and outputs as well.
    """
    if round_index >= params.rounds:
        raise ValueError("round_index out of range")
    if round_index > 0 and internal is None:
        raise ValueError("round 2 needs the internal vectors from round 1")
    if weights is None:
        weights = dict(params.store.params)
    suffix = "" if round_index == 0 else "2"
    to_internal = params.rounds >= 2 and round_index == 0
    nets = [f"key{suffix}", "msg" if round_index == 0 else "msg2", f"query{suffix}"] + ["internal"] * to_internal
    net_weights = [w for net in nets for w in _net(weights, net)]
    if round_index == 0:
        items, tape = ad.coerce(states, obs, *net_weights)
        (t_s, t_o), t_w = items[:2], items[2:]
        # uses in the chain's reverse order: the internal network's input, the query's, the pair rows'
        uses = [t_s] * (2 + to_internal) + [t_o]
    else:
        items, tape = ad.coerce(states, obs, internal, *net_weights)
        (t_s, t_o, t_h), t_w = items[:3], items[3:]
        # the query's, then the message rows' (internal and obs), then the key rows' (obs and states)
        uses = [t_s, t_o, t_h, t_o, t_s]
    check = None if tape is None else "mlp (forward_round)"
    s, o = t_s.data, t_o.data
    b, n, ds = s.shape
    dk, dm = params.key_dim, params.msg_dim
    wk, wm, wq, *wi = [[t.data for t in t_w[4 * k:4 * k + 4]] for k in range(len(nets))]

    flat = _pairs(s, o)
    keys = ad.mlp_forward(flat, *wk, check)[1].reshape(b, n, n, dk)
    msg_in = flat if round_index == 0 else _pairs(t_h.data, o)
    msg_flat = ad.mlp_forward(msg_in, *wm, check)[1]
    messages = msg_flat.reshape(b, n, n, dm)
    s_flat = s.reshape(b * n, ds)
    qh, q_flat = ad.mlp_forward(s_flat, *wq, check)
    queries = q_flat.reshape(b, n, dk)
    q_exp = queries.reshape(b, n, 1, dk)
    root_dk = np.asarray(float(np.sqrt(dk)))
    with np.errstate(divide="ignore", invalid="ignore"):
        logits = (q_exp * keys).sum(axis=-1) / root_dk
    ad.check_finite(logits, "div (forward_round)")
    soft = ad.softmax_forward(logits)

    mask = select_fn(round_index, soft) if select_fn is not None else None
    if mask is not None:
        mask = np.asarray(mask, dtype=np.float64)
        masked, zz, attention = _harden(soft, mask)
    else:
        attention = soft
    msg_sum = ad.weighted_sum(attention, messages.transpose(0, 2, 1, 3))  # the received messages, a view
    out = msg_sum
    if to_internal:
        agg = np.concatenate([s, msg_sum], axis=-1).reshape(b * n, ds + dm)
        ih, internal_flat = ad.mlp_forward(agg, *wi[0], check)
        out = internal_flat.reshape(b, n, params.internal_dim)
    if tape is not None:
        ad.check_finite(out, "forward_round")

    def state(recorded: Tensor) -> RoundState:
        fields = [Tensor(a, tape=tape) for a in (queries, keys, messages, soft, attention)]
        if to_internal:
            return RoundState(*fields, Tensor(msg_sum, tape=tape), recorded)
        return RoundState(*fields, recorded)

    inputs = uses + t_w
    if not ad.on_path(tape, inputs):
        return state(Tensor(out, tape=tape))
    use_need = [t.node_id is not None for t in uses]
    w_need = [t.node_id is not None for t in t_w]
    n_uses = len(uses)
    h_in = None if round_index == 0 else t_h.data
    di = params.internal_dim
    q = int(to_internal)  # where the query's use of the states is listed; the message rows' uses follow it

    def vjp(g: Array, need):
        # Neither pair network's rows are held. Each network in turn, message first, rebuilds its input rows, hidden
        # rows and outputs, bitwise the forward's, and is used up before the next.
        grads: list[Optional[Array]] = [None] * n_uses
        if to_internal:
            g_agg, *g_wi = ad.mlp_vjp(g.reshape(b * n, -1), agg, *wi[0][::2], ih, [True, *w_need[12:]])
            g_s_agg, g_sum = np.split(g_agg.reshape(b, n, ds + dm), [ds], axis=-1)
            grads[0] = g_s_agg
        else:
            g_sum, g_wi = g, []
        msg_in = _pairs(s if round_index == 0 else h_in, o)
        mh, msg_flat = ad.mlp_forward(msg_in, *wm, None)
        received = msg_flat.reshape(b, n, n, dm).transpose(0, 2, 1, 3)
        g_weighted = np.broadcast_to(np.expand_dims(g_sum, 2), (b, n, n, dm))
        g_att = ad.unbroadcast(g_weighted * received, (b, n, n, 1)).reshape(b, n, n)
        g_messages = np.transpose(g_weighted * np.expand_dims(attention, -1), (0, 2, 1, 3))
        msg_need = use_need[q + 1] or use_need[q + 2]
        g_msg_in, *g_wm = ad.mlp_vjp(g_messages.reshape(b * n * n, dm), msg_in, *wm[::2], mh, [msg_need, *w_need[4:8]])
        del g_messages, received, msg_flat, mh  # freed before the key network's rebuild
        if round_index > 0 and msg_need:
            grads[2], grads[1] = _untile(g_msg_in, b, n, di)

        g_soft = _harden_vjp(g_att, soft.shape, mask, masked, zz) if mask is not None else g_att
        g_logits = ad.unbroadcast(ad.softmax_vjp(g_soft, soft) / root_dk, (b, n, n))
        flat = msg_in if round_index == 0 else _pairs(s, o)
        kh, keys_flat = ad.mlp_forward(flat, *wk, None)
        keys = keys_flat.reshape(b, n, n, dk)
        g_queries = ad.weighted_sum(g_logits, keys).reshape(b * n, dk)
        g_keys = (np.expand_dims(g_logits, -1) * q_exp).reshape(b * n * n, dk)
        g_sq, *g_wq = ad.mlp_vjp(g_queries, s_flat, *wq[::2], qh, [use_need[q], *w_need[8:12]])
        if g_sq is not None:
            grads[q] = g_sq.reshape(b, n, ds)
        key_need = use_need[-2] or use_need[-1]
        g_key_flat, *g_wk = ad.mlp_vjp(g_keys, flat, *wk[::2], kh, [key_need, *w_need[0:4]])
        if round_index == 0:
            if key_need:
                g_msg_in += g_key_flat  # the chain's sum of the two uses, in place in the array this vjp made
                grads[q + 1], grads[q + 2] = _untile(g_msg_in, b, n, ds)
        elif key_need:
            grads[4], grads[3] = _untile(g_key_flat, b, n, ds)
        return (*(gr if nd else None for gr, nd in zip(grads, need)), *g_wk, *g_wm, *g_wq, *g_wi)

    return state(tape.emit("forward_round", inputs, out, vjp))


def forward_policy(
    params: TransformerParams,
    states: ad.TensorLike,
    obs: ad.TensorLike,
    v_max: Optional[float] = None,
    select_fn=None,
    goal_perm_inv: Optional[Array] = None,
    weights: Optional[dict[str, ad.TensorLike]] = None,
) -> ForwardResult:
    """Full multi-round forward pass for all agents in a batch of worlds.

    select_fn(round_index, soft_rows) may return a (B, N, N) 0/1 mask of
    senders to keep; it sees the soft attention as plain numpy so policies can
    make discrete choices without entering the graph.
    """
    states_t = states if isinstance(states, Tensor) else Tensor(states)
    obs_t = obs if isinstance(obs, Tensor) else Tensor(obs)
    if weights is None:
        weights = dict(params.store.params)

    rounds: list[RoundState] = []
    internal: Optional[Tensor] = None
    for r in range(params.rounds):
        rs = forward_round(params, states_t, obs_t, r, internal, select_fn=select_fn, weights=weights)
        rounds.append(rs)
        internal = rs.internal

    actions = output_head(params, weights, states_t, rounds[-1].msg_sum, v_max, goal_perm_inv)
    return ForwardResult(actions, rounds)
