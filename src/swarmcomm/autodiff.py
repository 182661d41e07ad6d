"""Reverse-mode automatic differentiation over dense numpy tensors.

The training loop differentiates a fully unrolled multi-step simulation, so
everything here is tape-based: operations on a weight's gradient path append
a record (op name, input ids, output id, vjp closure) to the tape, and
``backward`` walks the records in reverse. Tensors without a tape behave as
plain numpy wrappers, which gives evaluation code a zero-cost fast path
through the same forward functions.

Only the gradient's path is recorded: ``requires_grad`` leaves (the weights)
and the outputs of ops with at least one such input get a node id, and only
those ops append a record. A constant (noise, masks, scalars, positions) stays
attached to its tape, so mixing tapes still raises and every op on it checks
its output for non-finite values, but it gets no id and no record, and the
tape keeps no reference to it. A vjp computes the gradients of the inputs with
an id only. ``backward`` drops each record's vjp as soon as it has run or been
skipped, which frees the forward arrays the closure saved; the walked tape is
spent and a second ``backward`` on it raises, as in PyTorch without
``retain_graph``.

A fused op records a chain of primitive ops as one: the attention round,
output head, reward and dynamics of a training step in ``transformer`` and
``env``. It computes with the chain's own numpy expressions (the kernels
below, which the tests' op chain shares; weighted_sum is bitwise its sums
over the senders), checks for non-finite values each array whose overflow a
later op of the chain could hide, and lists an input
the chain used several times once per use, in the order the chain's reverse
walk reached those uses. ``backward`` then adds that input's gradients in the
chain's order, so every weight gradient is bitwise the chain's. The primitives
here are those a training step records plus the four (``getitem``,
``matmul``, ``tanh``, ``tensor_sum``) that the acceptance tests' autodiff
criterion differentiates; the chain's other primitives live with the tests.
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


def check_finite(data: Array, context: str) -> None:
    if not np.isfinite(data).all():
        raise NonFiniteValue(f"non-finite result in {context}")


# vjp(g, need): the gradient of each input flagged in need, None for the others
Vjp = Callable[[Array, tuple[bool, ...]], tuple[Optional[Array], ...]]


@dataclass
class TapeRecord:
    op: str
    input_ids: tuple[Optional[int], ...]  # None for a constant input, which needs no gradient
    output_id: int
    vjp: Optional[Vjp]  # None once backward has walked past the record


class Tape:
    """Append-only record of the ops on a weight's gradient path, topologically ordered by construction."""

    def __init__(self) -> None:
        self.records: list[TapeRecord] = []
        self.spent = False  # set by backward, which frees the saved values
        self._weight_shapes: dict[int, tuple[int, ...]] = {}  # requires_grad leaves, by node id
        self._next_id = 0

    def _alloc_id(self) -> int:
        node_id = self._next_id
        self._next_id += 1
        return node_id

    def leaf(self, data: TensorLike, requires_grad: bool = False) -> "Tensor":
        arr = _as_array(data)
        check_finite(arr, "leaf")
        if not requires_grad:
            return Tensor(arr, tape=self)
        node_id = self._alloc_id()
        self._weight_shapes[node_id] = arr.shape
        return Tensor(arr, tape=self, node_id=node_id)

    def constant(self, data: TensorLike) -> "Tensor":
        return self.leaf(data, requires_grad=False)

    def emit(
        self,
        op: str,
        inputs: Sequence["Tensor"],
        out_data: Array,
        vjp: Vjp,
    ) -> "Tensor":
        """Record an op on the gradient path (see on_path); its caller has checked the values."""
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


def coerce(*operands: TensorLike) -> tuple[list[Tensor], Optional[Tape]]:
    """The operands as tensors and the tape they share, if any.

    On a tape, every operand not yet on it becomes one of its constants.
    """
    tape = None
    for x in operands:
        if isinstance(x, Tensor) and x.tape is not None:
            if tape is not None and x.tape is not tape:
                raise AutodiffError("operands recorded on different tapes")
            tape = x.tape
    if tape is None:
        return [x if isinstance(x, Tensor) else Tensor(x) for x in operands], None
    return [
        x if isinstance(x, Tensor) and x.tape is tape else tape.constant(x.data if isinstance(x, Tensor) else x)
        for x in operands
    ], tape


def on_path(tape: Optional[Tape], inputs: Sequence[Tensor]) -> bool:
    """Whether an op on these inputs is on a weight's gradient path, so it is recorded and needs a vjp."""
    return tape is not None and any(t.node_id is not None for t in inputs)


def _unrecorded(tape: Optional[Tape], op: str, inputs: Sequence[Tensor], out: Array) -> Optional[Tensor]:
    """A primitive's result when it is not recorded, or None when it is on the gradient path.

    Off a tape the result is a plain tensor. On a tape it is checked for
    non-finite values first; an op on constants alone stays on the tape
    without a record. The check comes before the caller builds any vjp.
    """
    if tape is None:
        return Tensor(out)
    check_finite(out, op)
    if on_path(tape, inputs):
        return None
    return Tensor(out, tape=tape)


def unbroadcast(grad: Array, shape: tuple[int, ...]) -> Array:
    """Sum gradient over axes that were broadcast in the forward pass."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (g, s) in enumerate(zip(grad.shape, shape)) if s == 1 and g != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def _only(need: tuple[bool, ...], *grads: Callable[[], Array]) -> tuple[Optional[Array], ...]:
    """Each input's gradient, computed by its thunk where need is set, else None."""
    return tuple(grad() if n else None for n, grad in zip(need, grads))


# ---------------------------------------------------------------------------
# kernels of the fused ops
# ---------------------------------------------------------------------------


def softmax_forward(x: Array) -> Array:
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def softmax_vjp(g: Array, out: Array) -> Array:
    dot = (g * out).sum(axis=-1, keepdims=True)
    return out * (g - dot)


def l2_norm_forward(x: Array) -> Array:
    return np.sqrt((x ** 2).sum(axis=-1))


def l2_norm_vjp(g: Array, x: Array, out: Array) -> Array:
    safe = np.where(out == 0.0, 1.0, out)
    zero = np.expand_dims(out == 0.0, -1)
    scale = np.where(zero, 0.0, np.expand_dims(g, -1) / np.expand_dims(safe, -1))
    return x * scale


def weighted_sum(rows: Array, pairs: Array) -> Array:
    """Σ_j rows[..., i, j] * pairs[..., i, j, :], the one sender-axis weighted sum of training, dynamics and search.

    pairs may be a strided view or broadcast a size-1 axis. It is exact: np.einsum
    adds the senders in order, one multiply and one add per term, so the result is
    bitwise the broadcast sum (rows[..., None] * pairs).sum(axis=-2). Do not swap in
    a BLAS matmul, which blocks the sum and came out 2-4e-16 off.
    """
    return np.einsum("...ij,...ijd->...id", rows, pairs)


def mlp_forward(x: Array, w1: Array, b1: Array, w2: Array, b2: Array, check: Optional[str]) -> tuple[Array, Array]:
    """(tanh(x @ w1 + b1), that @ w2 + b2); the pre-activation is checked when check names an op."""
    h = mlp_hidden(x, w1, b1, check)
    return h, mlp_out(h, w2, b2)


def mlp_hidden(x: Array, w1: Array, b1: Array, check: Optional[str] = None) -> Array:
    """The first layer, tanh(x @ w1 + b1); the pre-activation is checked when check names an op.

    The tanh is applied in place, so the result is what mlp_vjp needs.
    """
    h = np.matmul(x, w1)
    h += b1
    if check is not None:
        check_finite(h, check)
    np.tanh(h, out=h)
    return h


def mlp_out(h: Array, w2: Array, b2: Array, out: Optional[Array] = None) -> Array:
    """The second layer, h @ w2 + b2, into out when given (_mlp_chunks writes whole chunks straight into its result)."""
    out = np.matmul(h, w2, out=out)
    out += b2
    return out


_ROW_CHUNK = 64


def mlp_forward_rows(x: Array, w1: Array, b1: Array, w2: Array, b2: Array) -> Array:
    """mlp_forward's output, each row bitwise independent of the other rows of x.

    A plain matmul's row can depend on the rows beside it: BLAS takes another
    path for another row count (one row goes through gemv). Here each layer
    runs as np.matmul over (chunks, 64, k) stacks of the rows, the last chunk
    zero-padded, so every chunk is the same gemm and a row comes out the same
    in whichever batch it is computed. The expression is mlp_forward's. The
    whole chunks are read in place and written straight into the result, so
    only the last chunk is copied.
    """
    rows, cols = x.shape
    full = rows - rows % _ROW_CHUNK
    out = np.empty((rows, w2.shape[1]))
    _mlp_chunks(x[:full], w1, b1, w2, b2, out[:full])
    if full < rows:
        tail = np.zeros((_ROW_CHUNK, cols))
        tail[: rows - full] = x[full:]
        out[full:] = _mlp_chunks(tail, w1, b1, w2, b2, np.empty((_ROW_CHUNK, w2.shape[1])))[: rows - full]
    return out


def _mlp_chunks(x: Array, w1: Array, b1: Array, w2: Array, b2: Array, out: Array) -> Array:
    """mlp_forward over whole 64-row chunks of x, one np.matmul per layer, written into out."""
    h = mlp_hidden(x.reshape(x.shape[0] // _ROW_CHUNK, _ROW_CHUNK, x.shape[1]), w1, b1)
    mlp_out(h, w2, b2, out=out.reshape(h.shape[0], _ROW_CHUNK, out.shape[1]))
    return out


def mlp_vjp(
    g: Array, x: Array, w1: Array, w2: Array, h: Array, need: Sequence[bool]
) -> tuple[Optional[Array], ...]:
    """Gradients of (x, w1, b1, w2, b2) where need is set, with the matmul/add/tanh chain's expressions."""
    gx = gw1 = gb1 = None
    if need[0] or need[1] or need[2]:
        gpre = g @ w2.T  # times 1 - h*h below, in place: no fresh (rows, hidden) temporaries
        slope = h * h
        np.subtract(1.0, slope, out=slope)
        gpre *= slope
        del slope
        gx = gpre @ w1.T if need[0] else None
        gw1 = x.T @ gpre if need[1] else None
        gb1 = unbroadcast(gpre, w1.shape[1:]) if need[2] else None
    gw2 = h.T @ g if need[3] else None
    gb2 = unbroadcast(g, w2.shape[1:]) if need[4] else None
    return gx, gw1, gb1, gw2, gb2


def take_along_last_vjp(g: Array, idx: Array, shape: tuple[int, ...]) -> Array:
    full = np.zeros(shape, dtype=np.float64)
    flat_full = full.reshape(-1, shape[-1])
    flat_idx = np.broadcast_to(idx, g.shape).reshape(-1, g.shape[-1])
    flat_g = g.reshape(-1, g.shape[-1])
    rows = np.repeat(np.arange(flat_full.shape[0]), flat_idx.shape[1])
    np.add.at(flat_full, (rows, flat_idx.ravel()), flat_g.ravel())
    return full


# ---------------------------------------------------------------------------
# primitive ops
# ---------------------------------------------------------------------------


def add(a: TensorLike, b: TensorLike) -> Tensor:
    (ta, tb), tape = coerce(a, b)
    out = ta.data + tb.data
    if (res := _unrecorded(tape, "add", (ta, tb), out)) is not None:
        return res
    sa, sb = ta.data.shape, tb.data.shape

    def vjp(g: Array, need):
        return _only(need, lambda: unbroadcast(g, sa), lambda: unbroadcast(g, sb))

    return tape.emit("add", (ta, tb), out, vjp)


def sub(a: TensorLike, b: TensorLike) -> Tensor:
    (ta, tb), tape = coerce(a, b)
    out = ta.data - tb.data
    if (res := _unrecorded(tape, "sub", (ta, tb), out)) is not None:
        return res
    sa, sb = ta.data.shape, tb.data.shape

    def vjp(g: Array, need):
        return _only(need, lambda: unbroadcast(g, sa), lambda: unbroadcast(-g, sb))

    return tape.emit("sub", (ta, tb), out, vjp)


def mul(a: TensorLike, b: TensorLike) -> Tensor:
    (ta, tb), tape = coerce(a, b)
    out = ta.data * tb.data
    if (res := _unrecorded(tape, "mul", (ta, tb), out)) is not None:
        return res
    da, db = ta.data, tb.data

    def vjp(g: Array, need):
        return _only(need, lambda: unbroadcast(g * db, da.shape), lambda: unbroadcast(g * da, db.shape))

    return tape.emit("mul", (ta, tb), out, vjp)


def matmul(a: TensorLike, b: TensorLike) -> Tensor:
    (ta, tb), tape = coerce(a, b)
    if ta.ndim not in (1, 2) or tb.ndim not in (1, 2):
        raise ShapeMismatch("matmul supports 1-D and 2-D operands only")
    try:
        out = ta.data @ tb.data
    except ValueError as exc:
        raise ShapeMismatch(str(exc)) from exc
    if (res := _unrecorded(tape, "matmul", (ta, tb), out)) is not None:
        return res
    da, db = ta.data, tb.data

    def vjp(g: Array, need):
        if da.ndim == 2 and db.ndim == 2:
            return _only(need, lambda: g @ db.T, lambda: da.T @ g)
        if da.ndim == 2 and db.ndim == 1:
            return _only(need, lambda: np.outer(g, db), lambda: da.T @ g)
        if da.ndim == 1 and db.ndim == 2:
            return _only(need, lambda: db @ g, lambda: np.outer(da, g))
        return _only(need, lambda: g * db, lambda: g * da)

    return tape.emit("matmul", (ta, tb), out, vjp)


def concat(tensors: Sequence[TensorLike], axis: int = -1) -> Tensor:
    items, tape = coerce(*tensors)
    out = np.concatenate([t.data for t in items], axis=axis)
    if (res := _unrecorded(tape, "concat", items, out)) is not None:
        return res
    sizes = [t.data.shape[axis] for t in items]
    splits = np.cumsum(sizes)[:-1]

    def vjp(g: Array, need):
        return tuple(part if n else None for n, part in zip(need, np.split(g, splits, axis=axis)))

    return tape.emit("concat", items, out, vjp)


def reshape(a: TensorLike, shape: Sequence[int]) -> Tensor:
    (ta,), tape = coerce(a)
    shape = tuple(int(s) for s in shape)
    out = ta.data.reshape(shape)
    if (res := _unrecorded(tape, "reshape", (ta,), out)) is not None:
        return res
    orig = ta.data.shape

    def vjp(g: Array, _need):
        return (g.reshape(orig),)

    return tape.emit("reshape", (ta,), out, vjp)


def getitem(a: TensorLike, key) -> Tensor:
    (ta,), tape = coerce(a)
    out = ta.data[key]
    if tape is not None:
        out = np.array(out, copy=True)
    if (res := _unrecorded(tape, "getitem", (ta,), out)) is not None:
        return res
    shape = ta.data.shape

    def vjp(g: Array, _need):
        full = np.zeros(shape, dtype=np.float64)
        np.add.at(full, key, g)
        return (full,)

    return tape.emit("getitem", (ta,), out, vjp)


def tensor_sum(a: TensorLike, axis=None, keepdims: bool = False) -> Tensor:
    (ta,), tape = coerce(a)
    out = ta.data.sum(axis=axis, keepdims=keepdims)
    out = np.asarray(out, dtype=np.float64)
    if (res := _unrecorded(tape, "sum", (ta,), out)) is not None:
        return res
    shape = ta.data.shape

    def vjp(g: Array, _need):
        if axis is None:
            return (np.broadcast_to(g, shape).copy(),)
        g_exp = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(g_exp, shape).copy(),)

    return tape.emit("sum", (ta,), out, vjp)


def tanh(a: TensorLike) -> Tensor:
    (ta,), tape = coerce(a)
    out = np.tanh(ta.data)
    if (res := _unrecorded(tape, "tanh", (ta,), out)) is not None:
        return res

    def vjp(g: Array, _need):
        return (g * (1.0 - out * out),)

    return tape.emit("tanh", (ta,), out, vjp)


# ---------------------------------------------------------------------------
# backward pass
# ---------------------------------------------------------------------------


def backward(tape: Tape, output: Tensor) -> dict[int, Array]:
    """Reverse-mode gradients of a scalar output w.r.t. every requires_grad leaf.

    Spends the tape: each record's vjp is dropped once it has run or been
    skipped, so the forward arrays it saved are freed during the walk. The
    records themselves stay; a second backward raises AutodiffError.
    """
    if output.tape is not tape:
        raise AutodiffError("output does not belong to this tape")
    if output.data.size != 1:
        raise AutodiffError("backward requires a scalar output")
    if tape.spent:
        raise AutodiffError("backward already ran on this tape and freed its saved values")
    tape.spent = True
    grads: dict[Optional[int], Array] = {output.node_id: np.ones_like(output.data)}
    for rec in reversed(tape.records):
        vjp, rec.vjp = rec.vjp, None
        g_out = grads.pop(rec.output_id, None)
        if g_out is None:
            continue
        input_grads = vjp(g_out, tuple(i is not None for i in rec.input_ids))
        del vjp
        for node_id, g_in in zip(rec.input_ids, input_grads):
            if g_in is None:
                continue
            if node_id in grads:
                grads[node_id] = grads[node_id] + g_in
            else:
                grads[node_id] = g_in
    return {i: grads[i] if i in grads else np.zeros(shape) for i, shape in tape._weight_shapes.items()}


# ---------------------------------------------------------------------------
# parameter store + optimizer
# ---------------------------------------------------------------------------


class ParamStore:
    """Named parameter tensors with per-parameter Adam moments."""

    def __init__(self, params: dict[str, Array]):
        self.params: dict[str, Array] = {name: _as_array(value) for name, value in params.items()}
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
