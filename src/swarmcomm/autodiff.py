"""Reverse-mode automatic differentiation over dense numpy tensors.

The training loop differentiates a fully unrolled multi-step simulation, so
everything here is tape-based: operations executed on tape-attached tensors
append a record (op name, input ids, output id, vjp closure) to the tape, and
``backward`` walks the records in reverse. Tensors without a tape behave as
plain numpy wrappers, which gives evaluation code a zero-cost fast path
through the same forward functions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence, Union

import numpy as np

Array = np.ndarray
TensorLike = Union["Tensor", np.ndarray, float, int]


class AutodiffError(ValueError):
    """Base class for tape/tensor contract violations."""


class ShapeMismatch(AutodiffError):
    pass


class NonFiniteValue(AutodiffError):
    pass


def _as_array(x: Any) -> Array:
    arr = np.asarray(x, dtype=np.float64)
    return arr


def _check_finite(data: Array, context: str) -> None:
    if not np.all(np.isfinite(data)):
        raise NonFiniteValue(f"non-finite result in {context}")


@dataclass
class TapeRecord:
    op: str
    input_ids: tuple[int, ...]
    output_id: int
    vjp: Callable[[Array], tuple[Optional[Array], ...]]


class Tape:
    """Append-only record of primitive ops, topologically ordered by construction."""

    def __init__(self) -> None:
        self.records: list[TapeRecord] = []
        self.leaf_values: dict[int, Array] = {}
        self.leaf_requires_grad: dict[int, bool] = {}
        self._next_id = 0

    def _alloc_id(self) -> int:
        node_id = self._next_id
        self._next_id += 1
        return node_id

    def leaf(self, data: TensorLike, requires_grad: bool = False) -> "Tensor":
        arr = _as_array(data)
        _check_finite(arr, "leaf")
        node_id = self._alloc_id()
        self.leaf_values[node_id] = arr
        self.leaf_requires_grad[node_id] = requires_grad
        return Tensor(arr, tape=self, node_id=node_id)

    def constant(self, data: TensorLike) -> "Tensor":
        return self.leaf(data, requires_grad=False)

    def emit(
        self,
        op: str,
        inputs: Sequence["Tensor"],
        out_data: Array,
        vjp: Callable[[Array], tuple[Optional[Array], ...]],
    ) -> "Tensor":
        _check_finite(out_data, op)
        node_id = self._alloc_id()
        self.records.append(TapeRecord(op, tuple(t.node_id for t in inputs), node_id, vjp))
        return Tensor(out_data, tape=self, node_id=node_id)


class Tensor:
    """Dense float64 array, optionally attached to a tape node."""

    __slots__ = ("data", "tape", "node_id")

    def __init__(self, data: TensorLike, tape: Optional[Tape] = None, node_id: Optional[int] = None):
        self.data = _as_array(data)
        self.tape = tape
        self.node_id = node_id

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, tape={'yes' if self.tape else 'no'})"


def _coerce_pair(a: TensorLike, b: TensorLike) -> tuple[Tensor, Tensor, Optional[Tape]]:
    ta = a if isinstance(a, Tensor) else None
    tb = b if isinstance(b, Tensor) else None
    tape = None
    if ta is not None and ta.tape is not None:
        tape = ta.tape
    if tb is not None and tb.tape is not None:
        if tape is not None and tb.tape is not tape:
            raise AutodiffError("operands recorded on different tapes")
        tape = tb.tape
    if ta is None:
        ta = tape.constant(a) if tape is not None else Tensor(a)
    elif ta.tape is None and tape is not None:
        ta = tape.constant(ta.data)
    if tb is None:
        tb = tape.constant(b) if tape is not None else Tensor(b)
    elif tb.tape is None and tape is not None:
        tb = tape.constant(tb.data)
    return ta, tb, tape


def _coerce_one(a: TensorLike) -> tuple[Tensor, Optional[Tape]]:
    if isinstance(a, Tensor):
        return a, a.tape
    return Tensor(a), None


def _unbroadcast(grad: Array, shape: tuple[int, ...]) -> Array:
    """Sum gradient over axes that were broadcast in the forward pass."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (g, s) in enumerate(zip(grad.shape, shape)) if s == 1 and g != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def _softmax_raw(x: Array) -> Array:
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


# ---------------------------------------------------------------------------
# primitive ops
# ---------------------------------------------------------------------------


def add(a: TensorLike, b: TensorLike) -> Tensor:
    ta, tb, tape = _coerce_pair(a, b)
    out = ta.data + tb.data
    if tape is None:
        return Tensor(out)
    sa, sb = ta.data.shape, tb.data.shape

    def vjp(g: Array):
        return _unbroadcast(g, sa), _unbroadcast(g, sb)

    return tape.emit("add", (ta, tb), out, vjp)


def sub(a: TensorLike, b: TensorLike) -> Tensor:
    ta, tb, tape = _coerce_pair(a, b)
    out = ta.data - tb.data
    if tape is None:
        return Tensor(out)
    sa, sb = ta.data.shape, tb.data.shape

    def vjp(g: Array):
        return _unbroadcast(g, sa), _unbroadcast(-g, sb)

    return tape.emit("sub", (ta, tb), out, vjp)


def mul(a: TensorLike, b: TensorLike) -> Tensor:
    ta, tb, tape = _coerce_pair(a, b)
    out = ta.data * tb.data
    if tape is None:
        return Tensor(out)
    da, db = ta.data, tb.data

    def vjp(g: Array):
        return _unbroadcast(g * db, da.shape), _unbroadcast(g * da, db.shape)

    return tape.emit("mul", (ta, tb), out, vjp)


def div(a: TensorLike, b: TensorLike) -> Tensor:
    ta, tb, tape = _coerce_pair(a, b)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = ta.data / tb.data
    if tape is None:
        _check_finite(out, "div")
        return Tensor(out)
    da, db = ta.data, tb.data

    def vjp(g: Array):
        ga = _unbroadcast(g / db, da.shape)
        gb = _unbroadcast(-g * da / (db * db), db.shape)
        return ga, gb

    return tape.emit("div", (ta, tb), out, vjp)


def matmul(a: TensorLike, b: TensorLike) -> Tensor:
    ta, tb, tape = _coerce_pair(a, b)
    if ta.ndim not in (1, 2) or tb.ndim not in (1, 2):
        raise ShapeMismatch("matmul supports 1-D and 2-D operands only")
    try:
        out = ta.data @ tb.data
    except ValueError as exc:
        raise ShapeMismatch(str(exc)) from exc
    if tape is None:
        return Tensor(out)
    da, db = ta.data, tb.data

    def vjp(g: Array):
        if da.ndim == 2 and db.ndim == 2:
            return g @ db.T, da.T @ g
        if da.ndim == 2 and db.ndim == 1:
            return np.outer(g, db), da.T @ g
        if da.ndim == 1 and db.ndim == 2:
            return db @ g, np.outer(da, g)
        return g * db, g * da

    return tape.emit("matmul", (ta, tb), out, vjp)


def mlp(x: TensorLike, w1: TensorLike, b1: TensorLike, w2: TensorLike, b2: TensorLike) -> Tensor:
    """tanh(x @ w1 + b1) @ w2 + b2 for 2-D x, recorded as one tape op.

    Values and gradients are bitwise those of the matmul/add/tanh chain: the
    forward adds the biases and applies tanh in place, and the vjp evaluates
    the chain's own expressions. On a tape the pre-activation and the output
    are checked for non-finite values, where the chain checked every op.
    """
    items, tape = _coerce_many((x, w1, b1, w2, b2))
    tx, tw1, tb1, tw2, tb2 = items
    if (
        tx.ndim != 2 or tw1.ndim != 2 or tw2.ndim != 2
        or tx.shape[1] != tw1.shape[0] or tb1.shape != tw1.shape[1:]
        or tw2.shape[0] != tw1.shape[1] or tb2.shape != tw2.shape[1:]
    ):
        raise ShapeMismatch(
            f"mlp shapes do not chain: x {tx.shape}, w1 {tw1.shape}, b1 {tb1.shape}, "
            f"w2 {tw2.shape}, b2 {tb2.shape}"
        )
    h = tx.data @ tw1.data
    h += tb1.data
    if tape is not None:
        _check_finite(h, "mlp")
    np.tanh(h, out=h)
    out = h @ tw2.data
    out += tb2.data
    if tape is None:
        return Tensor(out)
    dx, dw1, dw2 = tx.data, tw1.data, tw2.data
    sb1, sb2 = tb1.data.shape, tb2.data.shape

    def vjp(g: Array):
        gh = g @ dw2.T
        gw2 = h.T @ g
        gpre = gh * (1.0 - h * h)
        return gpre @ dw1.T, dx.T @ gpre, _unbroadcast(gpre, sb1), gw2, _unbroadcast(g, sb2)

    return tape.emit("mlp", items, out, vjp)


def _coerce_many(tensors: Sequence[TensorLike]) -> tuple[list[Tensor], Optional[Tape]]:
    items = [t if isinstance(t, Tensor) else Tensor(t) for t in tensors]
    tape = None
    for t in items:
        if t.tape is not None:
            if tape is not None and t.tape is not tape:
                raise AutodiffError("operands recorded on different tapes")
            tape = t.tape
    if tape is not None:
        items = [t if t.tape is tape else tape.constant(t.data) for t in items]
    return items, tape


def concat(tensors: Sequence[TensorLike], axis: int = -1) -> Tensor:
    items, tape = _coerce_many(tensors)
    out = np.concatenate([t.data for t in items], axis=axis)
    if tape is None:
        return Tensor(out)
    sizes = [t.data.shape[axis] for t in items]
    splits = np.cumsum(sizes)[:-1]

    def vjp(g: Array):
        return tuple(np.split(g, splits, axis=axis))

    return tape.emit("concat", items, out, vjp)


def reshape(a: TensorLike, shape: Sequence[int]) -> Tensor:
    ta, tape = _coerce_one(a)
    shape = tuple(int(s) for s in shape)
    out = ta.data.reshape(shape)
    if tape is None:
        return Tensor(out)
    orig = ta.data.shape

    def vjp(g: Array):
        return (g.reshape(orig),)

    return tape.emit("reshape", (ta,), out, vjp)


def transpose(a: TensorLike, axes: Sequence[int]) -> Tensor:
    ta, tape = _coerce_one(a)
    axes = tuple(int(x) for x in axes)
    out = np.transpose(ta.data, axes)
    if tape is None:
        return Tensor(out)
    inverse = tuple(np.argsort(axes))

    def vjp(g: Array):
        return (np.transpose(g, inverse),)

    return tape.emit("transpose", (ta,), out, vjp)


def getitem(a: TensorLike, key) -> Tensor:
    ta, tape = _coerce_one(a)
    out = ta.data[key]
    if tape is None:
        return Tensor(out)
    shape = ta.data.shape

    def vjp(g: Array):
        full = np.zeros(shape, dtype=np.float64)
        np.add.at(full, key, g)
        return (full,)

    return tape.emit("getitem", (ta,), np.array(out, copy=True), vjp)


def tensor_sum(a: TensorLike, axis=None, keepdims: bool = False) -> Tensor:
    ta, tape = _coerce_one(a)
    out = ta.data.sum(axis=axis, keepdims=keepdims)
    if tape is None:
        return Tensor(out)
    shape = ta.data.shape

    def vjp(g: Array):
        if axis is None:
            return (np.broadcast_to(g, shape).copy(),)
        g_exp = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(g_exp, shape).copy(),)

    return tape.emit("sum", (ta,), np.asarray(out, dtype=np.float64), vjp)


def tensor_max(a: TensorLike, axis=None, keepdims: bool = False) -> Tensor:
    """Reduction max; ties route the gradient to the first maximal element."""
    ta, tape = _coerce_one(a)
    out = ta.data.max(axis=axis, keepdims=keepdims)
    if tape is None:
        return Tensor(out)
    data = ta.data

    def vjp(g: Array):
        mask = np.zeros(data.shape, dtype=np.float64)
        if axis is None:
            mask.flat[int(np.argmax(data))] = 1.0
            return (mask * g,)
        idx = np.expand_dims(np.argmax(data, axis=axis), axis)
        np.put_along_axis(mask, idx, 1.0, axis=axis)
        g_exp = g if keepdims else np.expand_dims(g, axis)
        return (mask * g_exp,)

    return tape.emit("max", (ta,), np.asarray(out, dtype=np.float64), vjp)


def relu(a: TensorLike) -> Tensor:
    """max(x, 0); subgradient at the kink is 0."""
    ta, tape = _coerce_one(a)
    out = np.maximum(ta.data, 0.0)
    if tape is None:
        return Tensor(out)
    mask = (ta.data > 0.0).astype(np.float64)

    def vjp(g: Array):
        return (g * mask,)

    return tape.emit("relu", (ta,), out, vjp)


def tanh(a: TensorLike) -> Tensor:
    ta, tape = _coerce_one(a)
    out = np.tanh(ta.data)
    if tape is None:
        return Tensor(out)

    def vjp(g: Array):
        return (g * (1.0 - out * out),)

    return tape.emit("tanh", (ta,), out, vjp)


def sqrt(a: TensorLike) -> Tensor:
    ta, tape = _coerce_one(a)
    out = np.sqrt(ta.data)
    if tape is None:
        _check_finite(out, "sqrt")
        return Tensor(out)

    def vjp(g: Array):
        return (g * 0.5 / out,)

    return tape.emit("sqrt", (ta,), out, vjp)


def softmax(a: TensorLike) -> Tensor:
    """Softmax over the last axis."""
    ta, tape = _coerce_one(a)
    out = _softmax_raw(ta.data)
    if tape is None:
        return Tensor(out)

    def vjp(g: Array):
        dot = (g * out).sum(axis=-1, keepdims=True)
        return (out * (g - dot),)

    return tape.emit("softmax", (ta,), out, vjp)


def l2_norm(a: TensorLike) -> Tensor:
    """Euclidean norm over the last axis; gradient defined as 0 at the origin."""
    ta, tape = _coerce_one(a)
    out = np.sqrt((ta.data ** 2).sum(axis=-1))
    if tape is None:
        return Tensor(out)
    data = ta.data
    safe = np.where(out == 0.0, 1.0, out)

    def vjp(g: Array):
        zero = np.expand_dims(out == 0.0, -1)
        scale = np.where(zero, 0.0, np.expand_dims(g, -1) / np.expand_dims(safe, -1))
        return (data * scale,)

    return tape.emit("l2_norm", (ta,), np.asarray(out, dtype=np.float64), vjp)


def take_along_last(a: TensorLike, indices: Array) -> Tensor:
    """Gather along the last axis: out[..., k] = a[..., indices[..., k]]."""
    ta, tape = _coerce_one(a)
    idx = np.asarray(indices, dtype=np.int64)
    out = np.take_along_axis(ta.data, idx, axis=-1)
    if tape is None:
        return Tensor(out)
    shape = ta.data.shape

    def vjp(g: Array):
        full = np.zeros(shape, dtype=np.float64)
        flat_full = full.reshape(-1, shape[-1])
        flat_idx = np.broadcast_to(idx, g.shape).reshape(-1, g.shape[-1])
        flat_g = g.reshape(-1, g.shape[-1])
        rows = np.repeat(np.arange(flat_full.shape[0]), flat_idx.shape[1])
        np.add.at(flat_full, (rows, flat_idx.ravel()), flat_g.ravel())
        return (full,)

    return tape.emit("take_along_last", (ta,), out, vjp)


# ---------------------------------------------------------------------------
# backward pass
# ---------------------------------------------------------------------------


def backward(tape: Tape, output: Tensor) -> dict[int, Array]:
    """Reverse-mode gradients of a scalar output w.r.t. every requires_grad leaf."""
    if output.tape is not tape:
        raise AutodiffError("output does not belong to this tape")
    if output.data.size != 1:
        raise AutodiffError("backward requires a scalar output")
    grads: dict[int, Array] = {output.node_id: np.ones_like(output.data)}
    wanted = {i for i, req in tape.leaf_requires_grad.items() if req}
    for rec in reversed(tape.records):
        g_out = grads.pop(rec.output_id, None)
        if g_out is None:
            continue
        input_grads = rec.vjp(g_out)
        for node_id, g_in in zip(rec.input_ids, input_grads):
            if g_in is None:
                continue
            if node_id in grads:
                grads[node_id] = grads[node_id] + g_in
            else:
                grads[node_id] = g_in
    result: dict[int, Array] = {}
    for node_id in wanted:
        g = grads.get(node_id)
        if g is None:
            g = np.zeros_like(tape.leaf_values[node_id])
        result[node_id] = g
    return result


# ---------------------------------------------------------------------------
# parameter store + optimizer
# ---------------------------------------------------------------------------


class ParamStore:
    """Named parameter tensors with per-parameter Adam moments."""

    def __init__(self, params: dict[str, Array]):
        self.params: dict[str, Array] = {}
        for name, value in params.items():
            if name in self.params:
                raise AutodiffError(f"duplicate parameter name {name!r}")
            self.params[name] = _as_array(value)
        self.m = {k: np.zeros_like(v) for k, v in self.params.items()}
        self.v = {k: np.zeros_like(v) for k, v in self.params.items()}
        self.step_count = 0

    def copy(self) -> "ParamStore":
        dup = ParamStore({k: v.copy() for k, v in self.params.items()})
        dup.m = {k: v.copy() for k, v in self.m.items()}
        dup.v = {k: v.copy() for k, v in self.v.items()}
        dup.step_count = self.step_count
        return dup


def adam_step(
    store: ParamStore,
    grads: dict[str, Array],
    lr: float = 1e-3,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> ParamStore:
    """Adam update with bias correction; mutates and returns the store."""
    store.step_count += 1
    t = store.step_count
    for name, param in store.params.items():
        g = grads.get(name)
        if g is None:
            g = np.zeros_like(param)
        g = _as_array(g)
        if g.shape != param.shape:
            raise ShapeMismatch(f"gradient shape {g.shape} != param shape {param.shape} for {name!r}")
        if not np.all(np.isfinite(g)):
            raise NonFiniteValue(f"non-finite gradient for {name!r}")
        store.m[name] = beta1 * store.m[name] + (1.0 - beta1) * g
        store.v[name] = beta2 * store.v[name] + (1.0 - beta2) * g * g
        m_hat = store.m[name] / (1.0 - beta1 ** t)
        v_hat = store.v[name] / (1.0 - beta2 ** t)
        param -= lr * m_hat / (np.sqrt(v_hat) + eps)
    return store


def global_grad_norm(grads: dict[str, Array]) -> float:
    total = 0.0
    for g in grads.values():
        total += float((g * g).sum())
    return float(np.sqrt(total))


def clip_grads(grads: dict[str, Array], max_norm: float) -> tuple[dict[str, Array], float]:
    """Scale gradients so the global norm is at most max_norm; returns (grads, pre-clip norm)."""
    norm = global_grad_norm(grads)
    if max_norm > 0 and norm > max_norm:
        scale = max_norm / norm
        grads = {k: g * scale for k, g in grads.items()}
    return grads, norm
