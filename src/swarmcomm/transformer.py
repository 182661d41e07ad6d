"""Soft-attention policy networks for the planning tasks.

Every agent runs the same stack of 2-layer tanh MLPs: a message network over
(own state, relative observation), key/query networks whose scaled dot products
produce an attention row over senders (self included), and an output network
applied to (own state, attention-weighted message sum). Two-round variants
aggregate round one into an internal vector that replaces the state in the
round-two message network; round-two keys and queries still read the raw state.

Forward passes run through the autodiff ops, so the same code serves training
(tape attached) and evaluation (plain numpy).
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


def _mlp(weights: dict[str, ad.TensorLike], net: str, x: ad.TensorLike) -> Tensor:
    return ad.mlp(x, *(weights[f"{net}.{p}"] for p in ("w1", "b1", "w2", "b2")))


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


def _tile_over_senders(x: Tensor, n: int) -> Tensor:
    b = x.shape[0]
    d = x.shape[-1]
    expanded = ad.reshape(x, (b, x.shape[1], 1, d))
    ones = np.ones((1, 1, n, 1))
    return ad.mul(expanded, ones)


def harden_rows(soft: ad.TensorLike, mask: Array) -> Tensor:
    """Mask attention rows to the selected senders and renormalize them.

    A row whose kept mass z is > 0 is divided by exactly z; a row with z == 0
    (nothing selected) comes out all-zero, and the agent then acts on its state
    plus a zero message sum. Gradients flow through the kept weights and the
    normalizer, never through the discrete mask. Training, rollouts and the
    synthesis surrogate all harden attention through this one function.
    """
    masked = ad.mul(soft, np.asarray(mask, dtype=np.float64))
    z = ad.tensor_sum(masked, axis=-1, keepdims=True)
    return ad.div(masked, ad.add(z, (z.data == 0.0).astype(np.float64)))


def squash_action(u: ad.TensorLike, v_max: float) -> Tensor:
    """Smoothly rescale to the open v_max ball: u * v_max * tanh(|u|)/|u|."""
    u_t = u if isinstance(u, Tensor) else Tensor(u)
    n2 = ad.tensor_sum(ad.mul(u_t, u_t), axis=-1, keepdims=True)
    norm = ad.sqrt(ad.add(n2, _SQUASH_EPS))
    factor = ad.div(ad.mul(ad.tanh(norm), v_max), norm)
    return ad.mul(u_t, factor)


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
        return ad.take_along_last(ad.softmax(u), np.asarray(goal_perm_inv, dtype=np.int64))
    if v_max is None:
        raise ValueError("formation forward needs v_max")
    return squash_action(u, v_max)


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
    logits = ad.div(ad.tensor_sum(ad.mul(q_exp, keys), axis=-1), float(np.sqrt(params.key_dim)))
    soft = ad.softmax(logits)

    mask = select_fn(round_index, soft.data) if select_fn is not None else None
    attention = harden_rows(soft, mask) if mask is not None else soft

    received = ad.transpose(messages, (0, 2, 1, 3))
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
