"""Reverse-mode automatic differentiation over dense float64 arrays.

Design: each primitive op wraps its numpy result in a :class:`Tensor` and, when
any input requires gradients, records a :class:`TapeNode` linking inputs to
outputs together with a closure that maps output adjoints to input adjoints.
:func:`backward` reconstructs the tape for a scalar root (iterative post-order,
so deep recurrent graphs do not hit the recursion limit) and walks it in
reverse, visiting each node exactly once.

Everything is float64. Broadcasting is restricted to scalar-with-tensor; the
one sanctioned structured broadcast is :func:`add_rowvec` (bias over matrix
rows), which has its own explicit adjoint.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .errors import ContractError, DimensionError, NonFiniteValueError

Array = np.ndarray


class Tensor:
    """Dense float64 array with an optional gradient slot.

    Non-finite entries are rejected at construction; this is what keeps the
    whole pipeline NaN/Inf-free rather than per-op checks.
    """

    __slots__ = ("data", "requires_grad", "grad", "node")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if not np.isfinite(arr).all():
            raise NonFiniteValueError("tensor entries must be finite (got NaN or Inf)")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: Array | None = None
        self.node: TapeNode | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __neg__(self):
        return scale(self, -1.0)

    def __sub__(self, other):
        return add(self, scale(_as_tensor(other), -1.0))

    def __matmul__(self, other):
        return matmul(self, other)

    def sum(self) -> "Tensor":
        return sum_all(self)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


class TapeNode:
    """One recorded primitive: inputs, outputs, and the adjoint closure.

    ``backward`` receives one adjoint array per output (zeros for outputs the
    loss never used) and returns one adjoint array (or None) per input.
    """

    __slots__ = ("op", "inputs", "outputs", "backward")

    def __init__(self, op: str, inputs: tuple[Tensor, ...], outputs: tuple[Tensor, ...],
                 backward: Callable[..., tuple[Array | None, ...]]):
        self.op = op
        self.inputs = inputs
        self.outputs = outputs
        self.backward = backward


class Tape:
    """Ops reachable from a root, ordered so every node's parents precede it."""

    def __init__(self, nodes: list[TapeNode]):
        self.nodes = nodes

    @staticmethod
    def trace(root: Tensor) -> "Tape":
        if root.node is None:
            return Tape([])
        order: list[TapeNode] = []
        seen: set[int] = set()
        # Iterative post-order DFS; recursion would overflow on long LSTM chains.
        stack: list[tuple[TapeNode, bool]] = [(root.node, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for t in node.inputs:
                if t.node is not None and id(t.node) not in seen:
                    stack.append((t.node, False))
        return Tape(order)


def _as_tensor(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=np.float64))


def _record(op: str, inputs: tuple[Tensor, ...], out_data, backward) -> Tensor | tuple[Tensor, ...]:
    multi = isinstance(out_data, tuple)
    track = any(t.requires_grad for t in inputs)
    outs = tuple(Tensor(d, requires_grad=track) for d in (out_data if multi else (out_data,)))
    if track:
        node = TapeNode(op, inputs, outs, backward)
        for o in outs:
            o.node = node
    return outs if multi else outs[0]


def backward(loss: Tensor) -> None:
    """Populate ``.grad`` on every requires_grad tensor reachable from ``loss``.

    Deterministic: the accumulation order is fixed by the tape order. Tensors
    that never fed into ``loss`` keep ``grad = None``; see :func:`gradient`
    for the zeros-for-unused convention.
    """
    if loss.shape != ():
        raise ContractError(f"backward requires a scalar loss, got shape {loss.shape}")
    tape = Tape.trace(loss)
    adjoint: dict[int, Array] = {id(loss): np.ones((), dtype=np.float64)}
    for node in reversed(tape.nodes):
        out_grads = tuple(
            adjoint[id(o)] if id(o) in adjoint else np.zeros_like(o.data)
            for o in node.outputs
        )
        in_grads = node.backward(*out_grads)
        for t, g in zip(node.inputs, in_grads):
            if g is None:
                continue
            if id(t) in adjoint:
                adjoint[id(t)] = adjoint[id(t)] + g
            else:
                adjoint[id(t)] = g
    for node in tape.nodes:
        for t in node.inputs + node.outputs:
            if t.requires_grad and id(t) in adjoint:
                t.grad = adjoint[id(t)]
    if loss.requires_grad:
        t_grad = adjoint.get(id(loss))
        if t_grad is not None:
            loss.grad = t_grad


def gradient(loss: Tensor, params: Sequence[Tensor]) -> list[Array]:
    """Gradients of ``loss`` for ``params``; zeros for params the loss never used."""
    backward(loss)
    return [p.grad if p.grad is not None else np.zeros_like(p.data) for p in params]


# ---------------------------------------------------------------------------
# primitives


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product of two 2-D tensors."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.ndim != 2 or b.ndim != 2:
        raise DimensionError(f"matmul requires 2-D operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise DimensionError(f"matmul inner dimensions differ: {a.shape} vs {b.shape}")
    out = a.data @ b.data

    def back(g):
        return g @ b.data.T, a.data.T @ g

    return _record("matmul", (a, b), out, back)


def _binary_shapes(op: str, a: Tensor, b: Tensor) -> None:
    # Same shape, or one side scalar; nothing broader is supported on purpose.
    if a.shape == b.shape or a.shape == () or b.shape == ():
        return
    raise DimensionError(f"{op}: shapes {a.shape} and {b.shape} are not compatible "
                         "(only scalar-with-tensor broadcasting is supported)")


def _reduce_for(shape: tuple[int, ...], g: Array) -> Array:
    return g.sum() if shape == () and g.shape != () else g


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _binary_shapes("add", a, b)
    out = a.data + b.data

    def back(g):
        return _reduce_for(a.shape, g), _reduce_for(b.shape, g)

    return _record("add", (a, b), out, back)


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _binary_shapes("mul", a, b)
    out = a.data * b.data

    def back(g):
        return _reduce_for(a.shape, g * b.data), _reduce_for(b.shape, g * a.data)

    return _record("mul", (a, b), out, back)


def scale(a: Tensor, s: float) -> Tensor:
    """Multiply by a plain (non-differentiated) constant."""
    a = _as_tensor(a)
    s = float(s)
    return _record("scale", (a,), a.data * s, lambda g: (g * s,))


def div_scalar(a: Tensor, d: float) -> Tensor:
    """Divide by a plain constant.

    Not the same as scale(a, 1/d): a true division rounds once, which keeps
    mean-of-identical-values exact (sum of n copies of v, divided by n,
    returns v). The contrastive loss relies on that for its uniform-score
    value.
    """
    a = _as_tensor(a)
    d = float(d)
    if d == 0.0:
        raise DimensionError("division by zero")
    return _record("div_scalar", (a,), a.data / d, lambda g: (g / d,))


def relu(a: Tensor) -> Tensor:
    a = _as_tensor(a)
    out = np.maximum(a.data, 0.0)
    # Subgradient at 0 is taken as 0.
    mask = a.data > 0.0
    return _record("relu", (a,), out, lambda g: (g * mask,))


def sigmoid(a: Tensor) -> Tensor:
    a = _as_tensor(a)
    out = _sigmoid(a.data)
    return _record("sigmoid", (a,), out, lambda g: (g * out * (1.0 - out),))


def tanh(a: Tensor) -> Tensor:
    a = _as_tensor(a)
    out = np.tanh(a.data)
    return _record("tanh", (a,), out, lambda g: (g * (1.0 - out * out),))


def log_softmax(a: Tensor) -> Tensor:
    """Log-softmax along the last axis, stable via max subtraction."""
    a = _as_tensor(a)
    if a.ndim not in (1, 2) or a.shape[-1] < 1:
        raise DimensionError(f"log_softmax requires a non-empty 1-D or 2-D input, got shape {a.shape}")
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    out = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))

    def back(g):
        return (g - np.exp(out) * g.sum(axis=-1, keepdims=True),)

    return _record("log_softmax", (a,), out, back)


def sum_all(a: Tensor) -> Tensor:
    a = _as_tensor(a)
    out = a.data.sum()

    def back(g):
        return (np.full(a.shape, g, dtype=np.float64),)

    return _record("sum", (a,), out, back)


def row(a: Tensor, i: int) -> Tensor:
    """Row ``i`` of a matrix, as a 1-D tensor."""
    a = _as_tensor(a)
    if a.ndim != 2:
        raise DimensionError(f"row requires a 2-D input, got shape {a.shape}")
    i = int(i)

    def back(g):
        z = np.zeros_like(a.data)
        z[i] = g
        return (z,)

    return _record("row", (a,), a.data[i].copy(), back)


def rows(a: Tensor, start: int, stop: int) -> Tensor:
    """Rows ``[start, stop)`` of a matrix."""
    a = _as_tensor(a)
    if a.ndim != 2:
        raise DimensionError(f"rows requires a 2-D input, got shape {a.shape}")
    start, stop = int(start), int(stop)

    def back(g):
        z = np.zeros_like(a.data)
        z[start:stop] = g
        return (z,)

    return _record("rows", (a,), a.data[start:stop].copy(), back)


def col(a: Tensor, j: int) -> Tensor:
    """Column ``j`` of a matrix, as a 1-D tensor."""
    a = _as_tensor(a)
    if a.ndim != 2:
        raise DimensionError(f"col requires a 2-D input, got shape {a.shape}")
    j = int(j)

    def back(g):
        z = np.zeros_like(a.data)
        z[:, j] = g
        return (z,)

    return _record("col", (a,), a.data[:, j].copy(), back)


def stack_rows(vectors: Sequence[Tensor]) -> Tensor:
    """Stack equal-length 1-D tensors into a matrix, one per row."""
    vs = tuple(_as_tensor(v) for v in vectors)
    if not vs:
        raise DimensionError("stack_rows requires at least one vector")
    if any(v.ndim != 1 or v.shape != vs[0].shape for v in vs):
        raise DimensionError("stack_rows requires 1-D vectors of equal length")
    out = np.stack([v.data for v in vs])

    def back(g):
        return tuple(g[i] for i in range(len(vs)))

    return _record("stack_rows", vs, out, back)


def transpose(a: Tensor) -> Tensor:
    a = _as_tensor(a)
    if a.ndim != 2:
        raise DimensionError(f"transpose requires a 2-D input, got shape {a.shape}")
    return _record("transpose", (a,), a.data.T.copy(), lambda g: (g.T,))


def add_rowvec(m: Tensor, v: Tensor) -> Tensor:
    """Add a 1-D vector to every row of a matrix (bias broadcast)."""
    m, v = _as_tensor(m), _as_tensor(v)
    if m.ndim != 2 or v.ndim != 1 or m.shape[1] != v.shape[0]:
        raise DimensionError(f"add_rowvec: incompatible shapes {m.shape} and {v.shape}")
    out = m.data + v.data

    def back(g):
        return g, g.sum(axis=0)

    return _record("add_rowvec", (m, v), out, back)


def gather_pairs(s: Tensor, row_idx: np.ndarray, col_idx: np.ndarray) -> Tensor:
    """``out[r, j] = s[row_idx[r, j], col_idx[r]]``; indices are constants.

    Adjoint scatter-adds back into ``s``, so repeated index pairs accumulate.
    """
    s = _as_tensor(s)
    row_idx = np.asarray(row_idx, dtype=np.intp)
    col_idx = np.asarray(col_idx, dtype=np.intp)
    if s.ndim != 2 or row_idx.ndim != 2 or col_idx.shape != (row_idx.shape[0],):
        raise DimensionError("gather_pairs: expected 2-D source, 2-D row indices and matching 1-D column indices")
    out = s.data[row_idx, col_idx[:, None]]

    def back(g):
        z = np.zeros_like(s.data)
        np.add.at(z, (row_idx, col_idx[:, None]), g)
        return (z,)

    return _record("gather_pairs", (s,), out, back)


def _sigmoid(x: Array) -> Array:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def lstm_cell(x: Tensor, h_prev: Tensor, c_prev: Tensor,
              wx: Tensor, wh: Tensor, b: Tensor) -> tuple[Tensor, Tensor]:
    """One step of a standard LSTM cell (gate order i, f, g, o).

        a = x @ wx + h_prev @ wh + b
        i, f, o = sigmoid(a_i), sigmoid(a_f), sigmoid(a_o);  g = tanh(a_g)
        c = f * c_prev + i * g;  h = o * tanh(c)

    Fused into a single tape node with a hand-derived adjoint; gradients
    through time come from chaining cells on the tape.
    """
    x, h_prev, c_prev = _as_tensor(x), _as_tensor(h_prev), _as_tensor(c_prev)
    wx, wh, b = _as_tensor(wx), _as_tensor(wh), _as_tensor(b)
    if x.ndim != 1 or h_prev.ndim != 1 or c_prev.ndim != 1:
        raise DimensionError("lstm_cell state and input must be 1-D")
    hdim = h_prev.shape[0]
    if (wx.shape != (x.shape[0], 4 * hdim) or wh.shape != (hdim, 4 * hdim)
            or b.shape != (4 * hdim,) or c_prev.shape != (hdim,)):
        raise DimensionError(
            f"lstm_cell: inconsistent shapes x={x.shape} h={h_prev.shape} c={c_prev.shape} "
            f"wx={wx.shape} wh={wh.shape} b={b.shape}")

    a = x.data @ wx.data + h_prev.data @ wh.data + b.data
    i = _sigmoid(a[:hdim])
    f = _sigmoid(a[hdim:2 * hdim])
    g_ = np.tanh(a[2 * hdim:3 * hdim])
    o = _sigmoid(a[3 * hdim:])
    c = f * c_prev.data + i * g_
    tc = np.tanh(c)
    h = o * tc

    def back(gh, gc):
        dc = gc + gh * o * (1.0 - tc * tc)
        da = np.concatenate([
            dc * g_ * i * (1.0 - i),
            dc * c_prev.data * f * (1.0 - f),
            dc * i * (1.0 - g_ * g_),
            gh * tc * o * (1.0 - o),
        ])
        return (
            wx.data @ da,            # x
            wh.data @ da,            # h_prev
            dc * f,                  # c_prev
            np.outer(x.data, da),    # wx
            np.outer(h_prev.data, da),  # wh
            da,                      # b
        )

    return _record("lstm_cell", (x, h_prev, c_prev, wx, wh, b), (h, c), back)
