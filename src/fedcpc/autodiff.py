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

The model records one hand-derived node per layer: :func:`dense_relu` for
the whole frame encoder, :func:`lstm_layer` per LSTM layer (every sequence
of a client batch, packed, through time inside its closure) and
:func:`infonce` for the contrastive loss of a client batch.

The ops are the ones the model calls, plus :func:`mul` and :func:`sum_all`,
which the finite-difference tests use to reduce op outputs to a scalar.

Everything is float64. :func:`mul` broadcasts only scalar-with-tensor; the
layer nodes add their biases to every row themselves.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .errors import ContractError, DimensionError, NonFiniteValueError

Array = np.ndarray


def _finite(arr: Array) -> Array:
    if not np.isfinite(arr).all():
        raise NonFiniteValueError("tensor entries must be finite (got NaN or Inf)")
    return arr


class Tensor:
    """Dense float64 array, optionally the output of a recorded op.

    Non-finite entries are rejected at construction; this is what keeps the
    whole pipeline NaN/Inf-free rather than per-op checks.
    """

    __slots__ = ("data", "requires_grad", "node")

    def __init__(self, data, requires_grad: bool = False):
        self.data = _finite(np.asarray(data, dtype=np.float64))
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
    return x if isinstance(x, Tensor) else Tensor(x)


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


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    # Same shape, or one side scalar; nothing broader is supported on purpose.
    if not (a.shape == b.shape or a.shape == () or b.shape == ()):
        raise DimensionError(f"mul: shapes {a.shape} and {b.shape} are not compatible "
                             "(only scalar-with-tensor broadcasting is supported)")
    out = a.data * b.data

    def back(g):
        # a scalar operand collects the adjoint of every position it scaled
        ga, gb = g * b.data, g * a.data
        return (ga.sum() if a.shape == () else ga), (gb.sum() if b.shape == () else gb)

    return _record("mul", (a, b), out, back)


def sum_all(a: Tensor) -> Tensor:
    a = _as_tensor(a)
    out = a.data.sum()

    def back(g):
        return (np.full(a.shape, g, dtype=np.float64),)

    return _record("sum", (a,), out, back)


def dense_relu(x: Tensor, layers) -> Tensor:
    """The feed-forward stack h <- relu(h @ W + b) for each (W, b) of
    ``layers`` in turn, from h = ``x``, as one tape node.

    The node keeps each layer's output; the closure walks the layers back,
    masking the adjoint where the output is not positive (the subgradient at
    0 is taken as 0), and returns the adjoints of ``x`` and of every W and b.
    ``g @ W.T`` is formed only where the layer's input needs an adjoint.
    """
    x = _as_tensor(x)
    layers = [(_as_tensor(w), _as_tensor(b)) for w, b in layers]
    if x.ndim != 2 or not layers:
        raise DimensionError(f"dense_relu needs a 2-D input and at least one layer, "
                             f"got input shape {x.shape}")
    hs = [x.data]  # the input, then every layer's output
    for w, b in layers:
        if w.ndim != 2 or w.shape[0] != hs[-1].shape[1] or b.shape != (w.shape[1],):
            raise DimensionError(f"dense_relu: layer W {w.shape}, b {b.shape} does not "
                                 f"take {hs[-1].shape[1]} input columns")
        h = hs[-1] @ w.data
        h += b.data
        # relu would hide a -inf pre-activation, so it is checked here
        hs.append(np.maximum(_finite(h), 0.0, out=h))

    def back(g):
        grads = []
        for j in range(len(layers) - 1, -1, -1):
            g = g * (hs[j + 1] > 0.0)
            grads += [g.sum(axis=0), hs[j].T @ g]
            g = g @ layers[j][0].data.T if j or x.requires_grad else None
        return g, *reversed(grads)

    return _record("dense_relu", (x, *(t for pair in layers for t in pair)), hs[-1], back)


def _sigmoid(x: Array, out: Array | None = None) -> Array:
    # 1 / (1 + exp(-x)) for x >= 0 and exp(x) / (1 + exp(x)) below, so exp
    # never overflows; exp(-|x|) is the one exponential both forms need
    e = np.exp(-np.abs(x))
    return np.divide(np.where(x >= 0, 1.0, e), 1.0 + e, out=out)


def _sequence_lengths(op: str, lengths, rows: int) -> Array:
    """``lengths`` as an array, one sequence of ``rows`` when None."""
    lengths = np.array([rows] if lengths is None else lengths, dtype=np.intp)
    if lengths.ndim != 1 or lengths.size == 0 or lengths.min() <= 0 or lengths.sum() != rows:
        raise DimensionError(f"{op}: sequence lengths {lengths.tolist()} must be "
                             f"positive and sum to the {rows} input rows")
    return lengths


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
    lengths = _sequence_lengths("lstm_layer", lengths, rows)

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


def infonce(z: Tensor, c: Tensor, heads, lengths, candidates, temperature: float) -> Tensor:
    """Mean contrastive (InfoNCE) loss over each sequence of rows of the
    latents ``z`` and contexts ``c``, as one tape node.

    The rows are consecutive sequences of the given ``lengths`` (one sequence
    when None). ``heads`` holds (W_k, b_k) for horizons k = 1..K.
    ``candidates[u]`` holds sequence u's candidate frames, one row per
    (t, k) pair in horizon-major order (k = 1..K, then t = 0..T-k-1), the
    true frame t+k first. With s_j = z_j . (c_t @ W_k + b_k) / temperature,
    a sequence's loss is

        (1/K) sum_k -(1/(T-k)) sum_t log softmax_j(s_j over row (t, k))[0]

    and the node's value is the mean over sequences. The closure gives the
    adjoints of z, c and every W_k and b_k; it revisits the pairs (u, k) in
    the forward order, so each adjoint sums its terms in a fixed order.
    """
    z, c = _as_tensor(z), _as_tensor(c)
    heads = [(_as_tensor(w), _as_tensor(b)) for w, b in heads]
    if z.ndim != 2 or c.ndim != 2 or z.shape[0] != c.shape[0]:
        raise DimensionError(f"infonce: latents {z.shape} and contexts {c.shape} "
                             "must be 2-D with one row per frame")
    if not heads or any(w.shape != (c.shape[1], z.shape[1]) or b.shape != (z.shape[1],)
                        for w, b in heads):
        raise DimensionError(f"infonce: every head must map {c.shape[1]} context "
                             f"columns to {z.shape[1]} latent columns")
    lengths = _sequence_lengths("infonce", lengths, z.shape[0]).tolist()
    horizons = len(heads)
    if len(candidates) != len(lengths) or any(
            n <= horizons or cand.ndim != 2
            or cand.shape[0] != sum(n - k for k in range(1, horizons + 1))
            for n, cand in zip(lengths, candidates)):
        raise DimensionError(f"infonce: need one candidate row per (t, k) pair of each "
                             f"sequence, for {horizons} horizons and lengths {lengths}")
    inv_temp = 1.0 / temperature
    cache = []  # per (sequence, horizon): rows, head, gather key, pred^T, log-softmax
    total = None
    start = 0
    for n, cand in zip(lengths, candidates):
        rows = slice(start, start + n)
        start += n
        loss = None
        first = 0
        for j, (w, b) in enumerate(heads):
            width = n - j - 1
            key = (cand[first:first + width], np.arange(width)[:, None])
            first += width
            pred_t = (c.data[rows][:width] @ w.data + b.data).T.copy()
            logits = ((z.data[rows] @ pred_t) * inv_temp)[key]
            shifted = logits - logits.max(axis=-1, keepdims=True)
            out = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
            # A true division rounds once, where scaling by 1/(T-k) would
            # round twice: the sum of T-k copies of v divided by T-k gives v
            # back, so uniform scores give exactly ln N.
            term = out[:, 0].sum() / -float(width)
            loss = term if loss is None else loss + term
            cache.append((rows, j, key, pred_t, out))
        loss = loss / float(horizons)
        total = loss if total is None else total + loss
    inv_count = 1.0 / len(lengths)

    def back(g):
        dz, dc = np.zeros_like(z.data), np.zeros_like(c.data)
        dheads = [(np.zeros_like(w.data), np.zeros_like(b.data)) for w, b in heads]
        g_horizon = (g * inv_count) / float(horizons)
        for rows, j, key, pred_t, out in cache:
            width = pred_t.shape[1]
            g_true = g_horizon / -float(width)
            dlogits = -np.exp(out) * g_true
            dlogits[:, 0] += g_true
            ds = np.zeros((rows.stop - rows.start, width))
            np.add.at(ds, key, dlogits)
            ds *= inv_temp
            dz[rows] += ds @ pred_t.T
            dpred = (z.data[rows].T @ ds).T
            dw, db = dheads[j]
            dw += c.data[rows][:width].T @ dpred
            db += dpred.sum(axis=0)
            dc[rows][:width] += dpred @ heads[j][0].data.T
        return dz, dc, *(d for pair in dheads for d in pair)

    return _record("infonce", (z, c, *(t for pair in heads for t in pair)),
                   total * inv_count, back)
