"""Reverse-mode automatic differentiation over dense float64 arrays.

Design: each primitive op wraps its numpy result in one :class:`Tensor` and,
when any input requires gradients, records a :class:`TapeNode` on it: the
op's inputs and a closure that maps the output's adjoint to the inputs'
adjoints. References point only from an output to its node and from a node
to its inputs, so the graph has no cycles and reference counting frees it as
soon as the loss is dropped. :func:`gradient` reconstructs the tape for a
scalar loss (iterative post-order), walks it in reverse visiting each node
exactly once, and returns the adjoints of the requested leaf tensors. Tensors
carry no gradient state, so one call never sees another's results.

The recurrent context encoder is one :func:`lstm_layer` node per layer: it
runs the whole sequence forward and back through time inside its closure.

The ops are the ones the model calls, plus :func:`mul`, which the
finite-difference tests use to weight op outputs.

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
    """Dense float64 array, optionally the output of a recorded op.

    Non-finite entries are rejected at construction; this is what keeps the
    whole pipeline NaN/Inf-free rather than per-op checks.
    """

    __slots__ = ("data", "requires_grad", "node")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if not np.isfinite(arr).all():
            raise NonFiniteValueError("tensor entries must be finite (got NaN or Inf)")
        self.data = arr
        self.requires_grad = bool(requires_grad)
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

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


class TapeNode:
    """One recorded primitive: its inputs and the adjoint closure.

    ``back`` receives the adjoint of the op's output and returns one adjoint
    array (or None, for an input that needs none) per input. The node does
    not refer to its output, which keeps the graph acyclic.
    """

    __slots__ = ("op", "inputs", "back")

    def __init__(self, op: str, inputs: tuple[Tensor, ...],
                 back: Callable[[Array], tuple[Array | None, ...]]):
        self.op = op
        self.inputs = inputs
        self.back = back


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


def _record(op: str, inputs: tuple[Tensor, ...], out_data, back) -> Tensor:
    track = any(t.requires_grad for t in inputs)
    out = Tensor(out_data, requires_grad=track)
    if track:
        out.node = TapeNode(op, inputs, back)
    return out


def gradient(loss: Tensor, params: Sequence[Tensor]) -> list[Array]:
    """Gradients of the scalar ``loss`` for the leaf tensors ``params``;
    zeros for params the loss never used.

    Adjoints are keyed by the node that produced a tensor (by the tensor
    itself for leaves); every node on the tape lies on a path to the loss, so
    each has an adjoint when its turn comes, and it is dropped once used.
    Deterministic: the accumulation order is fixed by the tape order.
    """
    if loss.shape != ():
        raise ContractError(f"gradient requires a scalar loss, got shape {loss.shape}")
    if any(p.node is not None for p in params):
        raise ContractError("gradient is taken for leaf tensors only")
    adjoint: dict[TapeNode | Tensor, Array] = {loss.node or loss: np.ones((), dtype=np.float64)}
    for node in reversed(Tape.trace(loss).nodes):
        for t, g in zip(node.inputs, node.back(adjoint.pop(node))):
            if g is None:
                continue
            key = t.node or t
            adjoint[key] = adjoint[key] + g if key in adjoint else g
    return [adjoint[p] if p in adjoint else np.zeros_like(p.data) for p in params]


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
        return (g @ b.data.T if a.requires_grad else None,
                a.data.T @ g if b.requires_grad else None)

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


def index(a: Tensor, key) -> Tensor:
    """``a.data[key]`` for a constant numpy index ``key``: an int, a slice,
    integer arrays, or a tuple of these.

    A basic key (ints and slices only) selects each entry at most once, so
    its adjoint is written by assignment. Any other key scatter-adds back
    into ``a``, so entries gathered more than once accumulate.
    """
    a = _as_tensor(a)
    basic = all(isinstance(k, (int, np.integer, slice))
                for k in (key if isinstance(key, tuple) else (key,)))

    def back(g):
        z = np.zeros_like(a.data)
        if basic:
            z[key] = g
        else:
            np.add.at(z, key, g)
        return (z,)

    return _record("index", (a,), a.data[key].copy(), back)


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


def _sigmoid(x: Array) -> Array:
    # 1 / (1 + exp(-x)) for x >= 0 and exp(x) / (1 + exp(x)) below, so exp
    # never overflows; exp(-|x|) is the one exponential both forms need
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def lstm_layer(x: Tensor, wx: Tensor, wh: Tensor, b: Tensor) -> Tensor:
    """A standard LSTM (gate order i, f, g, o) over the rows of ``x``, from a
    zero state; row t of the result is h_t:

        a_t = x_t @ wx + h_{t-1} @ wh + b
        i, f, o = sigmoid(a_i), sigmoid(a_f), sigmoid(a_o);  g = tanh(a_g)
        c_t = f * c_{t-1} + i * g;  h_t = o * tanh(c_t)

    One tape node for the whole sequence. The input projection is one matrix
    product; the recurrence caches the gates, c and tanh(c). Backward runs
    through time to fill the pre-activation adjoints dA (T x 4H), after which
    each input's adjoint is one matrix product.
    """
    x, wx, wh, b = _as_tensor(x), _as_tensor(wx), _as_tensor(wh), _as_tensor(b)
    if x.ndim != 2:
        raise DimensionError(f"lstm_layer input must be 2-D, got shape {x.shape}")
    steps, hdim = x.shape[0], wh.shape[0]
    if (wx.shape != (x.shape[1], 4 * hdim) or wh.shape != (hdim, 4 * hdim)
            or b.shape != (4 * hdim,)):
        raise DimensionError(f"lstm_layer: inconsistent shapes x={x.shape} "
                             f"wx={wx.shape} wh={wh.shape} b={b.shape}")

    xw = x.data @ wx.data
    gates = np.empty((steps, 4 * hdim))   # i, f, g, o after their nonlinearities
    cs = np.zeros((steps + 1, hdim))      # c_{t-1} in row t, c_t in row t+1
    hs = np.zeros((steps + 1, hdim))      # likewise for h
    tcs = np.empty((steps, hdim))
    for t in range(steps):
        a = xw[t] + hs[t] @ wh.data + b.data
        gates[t] = _sigmoid(a)
        s = gates[t]
        s[2 * hdim:3 * hdim] = np.tanh(a[2 * hdim:3 * hdim])
        cs[t + 1] = s[hdim:2 * hdim] * cs[t] + s[:hdim] * s[2 * hdim:3 * hdim]
        tcs[t] = np.tanh(cs[t + 1])
        hs[t + 1] = s[3 * hdim:] * tcs[t]

    def back(gh):
        i, f, g_, o = np.split(gates, 4, axis=1)
        # the elementwise factors that do not depend on the recurrence
        dc_from_h = o * (1.0 - tcs * tcs)
        dgates = np.concatenate([g_ * i * (1.0 - i), cs[:-1] * f * (1.0 - f),
                                 i * (1.0 - g_ * g_)], axis=1).reshape(steps, 3, hdim)
        do = tcs * o * (1.0 - o)
        da = np.empty((steps, 4 * hdim))
        da3 = da[:, :3 * hdim].reshape(steps, 3, hdim)  # a view into da
        dh = np.zeros(hdim)
        dc = np.zeros(hdim)
        for t in range(steps - 1, -1, -1):
            h_adj = gh[t] + dh
            dc = dc + h_adj * dc_from_h[t]
            da3[t] = dc * dgates[t]
            da[t, 3 * hdim:] = h_adj * do[t]
            dh = wh.data @ da[t]
            dc = dc * f[t]
        return (da @ wx.data.T if x.requires_grad else None,
                x.data.T @ da, hs[:-1].T @ da, da.sum(axis=0))

    return _record("lstm_layer", (x, wx, wh, b), hs[1:], back)
