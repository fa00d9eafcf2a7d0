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
runs every sequence of a client batch, packed step-major, forward and back
through time inside its closure.

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

    # a basic key gives a view, which is safe because no op writes to its inputs
    return _record("index", (a,), a.data[key], back)


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


def _sigmoid(x: Array, out: Array | None = None) -> Array:
    # 1 / (1 + exp(-x)) for x >= 0 and exp(x) / (1 + exp(x)) below, so exp
    # never overflows; exp(-|x|) is the one exponential both forms need
    e = np.exp(-np.abs(x))
    return np.divide(np.where(x >= 0, 1.0, e), 1.0 + e, out=out)


# packed rows per chunk of the LSTM backward pass: bounds its scratch memory
_CHUNK_ROWS = 256


def lstm_layer(x: Tensor, wx: Tensor, wh: Tensor, b: Tensor, lengths=None) -> Tensor:
    """A standard LSTM (gate order i, f, g, o) over each sequence of rows of
    ``x``, from a zero state; row t of a sequence's result is its h_t:

        a_t = x_t @ wx + h_{t-1} @ wh + b
        i, f, o = sigmoid(a_i), sigmoid(a_f), sigmoid(a_o);  g = tanh(a_g)
        c_t = f * c_{t-1} + i * g;  h_t = o * tanh(c_t)

    The rows of ``x`` are consecutive sequences of the given ``lengths``
    (one sequence when None). One tape node for all of them. Internally the
    rows are packed step-major, longest sequence first (a stable sort), so
    step t is one contiguous block of the sequences still running and one
    ``h @ wh`` advances them all, with no padding. The input projection is
    one matrix product; the recurrence caches the gates, c and tanh(c).
    Backward runs through time to fill the pre-activation adjoints dA in
    packed order, a chunk of steps at a time; each chunk then adds its share
    of every input's adjoint with one matrix product.
    """
    x, wx, wh, b = _as_tensor(x), _as_tensor(wx), _as_tensor(wh), _as_tensor(b)
    if x.ndim != 2:
        raise DimensionError(f"lstm_layer input must be 2-D, got shape {x.shape}")
    rows, hdim = x.shape[0], wh.shape[0]
    if (wx.shape != (x.shape[1], 4 * hdim) or wh.shape != (hdim, 4 * hdim)
            or b.shape != (4 * hdim,)):
        raise DimensionError(f"lstm_layer: inconsistent shapes x={x.shape} "
                             f"wx={wx.shape} wh={wh.shape} b={b.shape}")
    lengths = np.array([rows] if lengths is None else lengths, dtype=np.intp)
    if lengths.ndim != 1 or lengths.size == 0 or lengths.min() <= 0 or lengths.sum() != rows:
        raise DimensionError(f"lstm_layer: sequence lengths {lengths.tolist()} must be "
                             f"positive and sum to the {rows} input rows")

    # packed row p holds original row order[p]; step t is rows off[t]:off[t+1]
    by_length = np.argsort(-lengths, kind="stable")
    starts = (np.cumsum(lengths) - lengths)[by_length]
    running_at = lengths[by_length][None, :] > np.arange(lengths.max())[:, None]
    order = (starts[None, :] + np.arange(lengths.max())[:, None])[running_at]
    running = running_at.sum(axis=1)
    first = int(running[0])  # step 0 of every sequence
    # packed row of the same sequence one step earlier; row `rows` of cs is
    # the zero c_{-1} of step 0
    prev = np.concatenate([np.full(first, rows),
                           np.arange(first, rows) - np.repeat(running[:-1], running[1:])])
    off = np.concatenate([[0], np.cumsum(running)]).tolist()
    running = running.tolist()

    gates = x.data[order] @ wx.data   # x_t @ wx, then i, f, g, o in place
    cs = np.zeros((rows + 1, hdim))   # c_t, then a zero row
    tcs = np.empty((rows, hdim))      # tanh(c_t)
    hs = np.empty((rows, hdim))       # h_t
    h = np.zeros((first, hdim))
    c = cs[rows:]                     # the zero c_{-1}, broadcast over step 0
    for t, n in enumerate(running):
        p = slice(off[t], off[t + 1])
        s = gates[p]
        s += h[:n] @ wh.data
        s += b.data
        g = np.tanh(s[:, 2 * hdim:3 * hdim])
        _sigmoid(s, out=s)
        s[:, 2 * hdim:3 * hdim] = g
        c_prev, c = c[:n], cs[p]
        np.multiply(s[:, hdim:2 * hdim], c_prev, out=c)
        c += s[:, :hdim] * g
        h = hs[p]
        np.multiply(s[:, 3 * hdim:], np.tanh(c, out=tcs[p]), out=h)
    out = np.empty((rows, hdim))
    out[order] = hs

    def back(gh):
        i, f, g_, o = (gates[:, j * hdim:(j + 1) * hdim] for j in range(4))
        dwx, dwh, db = np.zeros_like(wx.data), np.zeros_like(wh.data), np.zeros(4 * hdim)
        dx = np.empty_like(x.data) if x.requires_grad else None
        # adjoints flowing back from step t+1; rows of sequences that end at
        # step t stay zero, since steps only grow going backwards
        dh = np.zeros((first, hdim))
        dc = np.zeros((first, hdim))
        # steps are taken in chunks of about _CHUNK_ROWS packed rows, so only
        # one chunk's pre-activation adjoints dA are alive at a time
        span = max(1, _CHUNK_ROWS // first)
        chunk = np.empty((min(rows, span * first), 4 * hdim))
        for t_end in range(len(running), 0, -span):
            t_start = max(0, t_end - span)
            lo, hi = off[t_start], off[t_end]
            r = slice(lo, hi)
            # dA = [dc * g i (1-i), dc * c_prev f (1-f), dc * i (1-g^2),
            # dh * tanh(c) o (1-o)]; the factors after dc and dh do not
            # depend on the recurrence, so they are written in first and
            # each step only multiplies
            da = chunk[:hi - lo]
            d = da[:, :hdim]
            np.multiply(g_[r], i[r], out=d)
            d *= 1.0 - i[r]
            d = da[:, hdim:2 * hdim]
            np.multiply(cs[prev[r]], f[r], out=d)
            d *= 1.0 - f[r]
            d = da[:, 2 * hdim:3 * hdim]
            np.multiply(g_[r], g_[r], out=d)
            np.subtract(1.0, d, out=d)
            d *= i[r]
            d = da[:, 3 * hdim:]
            np.multiply(tcs[r], o[r], out=d)
            d *= 1.0 - o[r]
            da3 = da[:, :3 * hdim].reshape(hi - lo, 3, hdim)  # a view into da
            for t in range(t_end - 1, t_start - 1, -1):
                n, p = running[t], slice(off[t], off[t + 1])
                q = slice(off[t] - lo, off[t + 1] - lo)  # the same rows within the chunk
                h_adj = gh[order[p]] + dh[:n]
                tc = tcs[p]
                dc_t = dc[:n] + h_adj * (o[p] * (1.0 - tc * tc))
                da3[q] *= dc_t[:, None, :]
                da[q, 3 * hdim:] *= h_adj
                np.matmul(da[q], wh.data.T, out=dh[:n])
                np.multiply(dc_t, f[p], out=dc[:n])
            dwx += x.data[order[r]].T @ da
            # h_{t-1} of an original row is the row before it; step 0's is zero
            past = max(lo, first)
            dwh += out[order[past:hi] - 1].T @ da[past - lo:]
            db += da.sum(axis=0)
            if dx is not None:
                dx[order[r]] = da @ wx.data.T
        return dx, dwx, dwh, db

    return _record("lstm_layer", (x, wx, wh, b), out, back)
