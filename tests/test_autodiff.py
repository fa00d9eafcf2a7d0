"""Tape correctness: every primitive against central finite differences,
plus structural invariants of the tape walk."""

import numpy as np
import pytest

from fedcpc import autodiff as ad
from fedcpc.autodiff import Tensor, Tape, gradient
from fedcpc.errors import ContractError, DimensionError


def fd_grad(f, x: np.ndarray, step: float = 1e-5) -> np.ndarray:
    """Central differences of a scalar function over every entry of x."""
    g = np.zeros_like(x, dtype=np.float64)
    flat = g.ravel()
    base = x.astype(np.float64).copy()
    for i in range(base.size):
        b = base.copy().ravel()
        b[i] += step
        up = f(b.reshape(x.shape))
        b[i] -= 2 * step
        down = f(b.reshape(x.shape))
        flat[i] = (up - down) / (2 * step)
    return g


def rel_err(a: np.ndarray, b: np.ndarray) -> float:
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-8)
    return float(np.max(np.abs(a - b) / denom))


def check_against_fd(build, x0, tol=1e-6):
    """build(tensor) -> scalar loss tensor; compares tape grad with FD."""
    t = Tensor(x0, requires_grad=True)
    (g,) = gradient(build(t), [t])
    fd = fd_grad(lambda arr: build(Tensor(arr)).item(), x0)
    assert rel_err(g, fd) < tol


def test_tensor_rejects_nonfinite():
    with pytest.raises(ValueError):
        Tensor([1.0, np.nan])
    with pytest.raises(ValueError):
        Tensor(np.inf)


def test_backward_needs_scalar():
    t = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(ContractError):
        gradient(ad.mul(t, 2.0), [t])


def test_matmul_against_fd():
    rng = np.random.default_rng(0)
    a0 = rng.standard_normal((3, 4))
    b0 = rng.standard_normal((4, 2))

    check_against_fd(lambda a: ad.sum_all(ad.matmul(a, Tensor(b0))), a0)
    check_against_fd(lambda b: ad.sum_all(ad.matmul(Tensor(a0), b)), b0)


def test_matmul_identity():
    rng = np.random.default_rng(1)
    a = Tensor(rng.standard_normal((4, 4)), requires_grad=True)
    out = ad.matmul(a, Tensor(np.eye(4)))
    assert np.array_equal(out.data, a.data)
    (g,) = gradient(ad.sum_all(out), [a])
    assert np.array_equal(g, np.ones((4, 4)))


def test_matmul_constant_operand_gets_no_adjoint():
    rng = np.random.default_rng(22)
    a0, b0 = rng.standard_normal((5, 3)), rng.standard_normal((3, 2))
    g = rng.standard_normal((5, 2))
    b = Tensor(b0, requires_grad=True)
    ga, gb = ad.matmul(Tensor(a0), b).node.back(g)
    assert ga is None
    # the adjoint that is computed is the same product, bit for bit
    _, gb_both = ad.matmul(Tensor(a0, requires_grad=True), b).node.back(g)
    assert np.array_equal(gb, gb_both)
    assert np.array_equal(gradient(ad.sum_all(ad.matmul(Tensor(a0), b)), [b])[0],
                          a0.T @ np.ones((5, 2)))


def test_matmul_rejects_non_2d():
    with pytest.raises(DimensionError):
        ad.matmul(Tensor(np.ones(3)), Tensor(np.ones((3, 2))))
    with pytest.raises(DimensionError):
        ad.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 2))))


def test_add_mul_shapes():
    with pytest.raises(DimensionError):
        ad.add_rowvec(Tensor(np.ones((2, 3))), Tensor(np.ones(4)))
    with pytest.raises(DimensionError):
        ad.mul(Tensor(np.ones((2, 2))), Tensor(np.ones(2)))


def test_mul_scalar_broadcast_adjoint():
    rng = np.random.default_rng(2)
    x0 = rng.standard_normal((3, 2))
    s = Tensor(np.asarray(0.7), requires_grad=True)
    x = Tensor(x0)
    (g,) = gradient(ad.sum_all(ad.mul(x, s)), [s])
    # the scalar collects one adjoint per broadcast position
    assert g.shape == ()
    assert abs(float(g) - x0.sum()) < 1e-12


def test_add_mul_scale_against_fd():
    rng = np.random.default_rng(15)
    x0 = rng.standard_normal((3, 2))
    y0 = rng.standard_normal((3, 2))
    v0 = rng.standard_normal(2)
    w = Tensor(np.arange(1.0, 7.0).reshape(3, 2))
    check_against_fd(lambda t: ad.sum_all(ad.mul(ad.add_rowvec(t, Tensor(v0)), w)), x0)
    check_against_fd(lambda t: ad.sum_all(ad.mul(t, Tensor(y0))), x0)
    check_against_fd(lambda t: ad.sum_all(ad.mul(ad.mul(t, -2.5), w)), x0)


@pytest.mark.parametrize("op", [ad.relu])
def test_elementwise_against_fd(op):
    rng = np.random.default_rng(3)
    # keep values away from relu's kink at 0
    x0 = rng.standard_normal(10) + np.sign(rng.standard_normal(10)) * 0.1
    check_against_fd(lambda t: ad.sum_all(ad.mul(op(t), Tensor(np.arange(1.0, 11.0)))), x0)


def test_relu_subgradient_zero_at_kink():
    x = Tensor(np.array([0.0, -1.0, 2.0]), requires_grad=True)
    (g,) = gradient(ad.sum_all(ad.relu(x)), [x])
    assert np.array_equal(g, np.array([0.0, 0.0, 1.0]))


def test_add_rowvec_against_fd():
    rng = np.random.default_rng(8)
    m0 = rng.standard_normal((3, 4))
    v0 = rng.standard_normal(4)
    check_against_fd(lambda t: ad.sum_all(ad.add_rowvec(t, Tensor(v0))), m0)
    check_against_fd(lambda t: ad.sum_all(ad.add_rowvec(Tensor(m0), t)), v0)


def test_scale_and_sum_trivials():
    x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    loss = ad.mul(ad.sum_all(x), 0.5)
    assert loss.item() == 7.5
    (g,) = gradient(loss, [x])
    assert np.array_equal(g, np.full((2, 3), 0.5))


def test_half_squared_norm_gradient_is_w():
    rng = np.random.default_rng(11)
    w0 = rng.standard_normal((4, 3))
    w = Tensor(w0, requires_grad=True)
    (g,) = gradient(ad.mul(ad.sum_all(ad.mul(w, w)), 0.5), [w])
    assert np.max(np.abs(g - w0)) < 1e-15


def lstm_weights(rng, in_dim, hid):
    return (rng.standard_normal((in_dim, 4 * hid)) * 0.4,
            rng.standard_normal((hid, 4 * hid)) * 0.4,
            rng.standard_normal(4 * hid) * 0.1)


def lstm_cell_oracle(xs, wx, wh, b, gh):
    """Per-step numpy LSTM and its backward through time, one cell at a time:
    the forward and adjoint formulas of a single fused LSTM cell, chained.
    Returns (h rows, dx, dwx, dwh, db) for output adjoint ``gh``."""
    hid = wh.shape[0]

    def sig(v):
        return 1.0 / (1.0 + np.exp(-v))

    h, c = np.zeros(hid), np.zeros(hid)
    cache, outs = [], []
    for x in xs:
        a = x @ wx + h @ wh + b
        i, f = sig(a[:hid]), sig(a[hid:2 * hid])
        g_, o = np.tanh(a[2 * hid:3 * hid]), sig(a[3 * hid:])
        cache.append((x, h, c, i, f, g_, o))
        c = f * c + i * g_
        h = o * np.tanh(c)
        outs.append(h)
    dx = np.zeros_like(xs)
    dwx, dwh, db = np.zeros_like(wx), np.zeros_like(wh), np.zeros_like(b)
    dh_next, dc_next = np.zeros(hid), np.zeros(hid)
    for t in range(len(xs) - 1, -1, -1):
        x, h_prev, c_prev, i, f, g_, o = cache[t]
        tc = np.tanh(f * c_prev + i * g_)
        dh = gh[t] + dh_next
        dc = dc_next + dh * o * (1.0 - tc * tc)
        da = np.concatenate([dc * g_ * i * (1.0 - i), dc * c_prev * f * (1.0 - f),
                             dc * i * (1.0 - g_ * g_), dh * tc * o * (1.0 - o)])
        dx[t] = wx @ da
        dwx += np.outer(x, da)
        dwh += np.outer(h_prev, da)
        db += da
        dh_next, dc_next = wh @ da, dc * f
    return np.stack(outs), dx, dwx, dwh, db


def test_lstm_layer_matches_per_step_oracle():
    rng = np.random.default_rng(16)
    in_dim, hid, steps = 5, 4, 9
    xs = rng.standard_normal((steps, in_dim))
    wx0, wh0, b0 = lstm_weights(rng, in_dim, hid)
    gh = rng.standard_normal((steps, hid))
    want = lstm_cell_oracle(xs, wx0, wh0, b0, gh)
    ts = [Tensor(v, requires_grad=True) for v in (xs, wx0, wh0, b0)]
    out = ad.lstm_layer(*ts)
    grads = gradient(ad.sum_all(ad.mul(out, Tensor(gh))), ts)
    for got, ref in zip([out.data, *grads], want):
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref)) <= 1e-12


def test_packed_lstm_layer_matches_per_sequence_oracle():
    # unsorted lengths, two equal ones and a length-1 sequence
    rng = np.random.default_rng(21)
    in_dim, hid, lengths = 5, 4, [5, 9, 1, 9, 3]
    xs = rng.standard_normal((sum(lengths), in_dim))
    wx0, wh0, b0 = lstm_weights(rng, in_dim, hid)
    gh = rng.standard_normal((sum(lengths), hid))
    h_want, dx_want = np.empty((sum(lengths), hid)), np.empty_like(xs)
    dws_want = [np.zeros_like(wx0), np.zeros_like(wh0), np.zeros_like(b0)]
    start = 0
    for n in lengths:
        rows = slice(start, start + n)
        start += n
        h, dx, *dws = lstm_cell_oracle(xs[rows], wx0, wh0, b0, gh[rows])
        h_want[rows], dx_want[rows] = h, dx
        for acc, d in zip(dws_want, dws):
            acc += d
    ts = [Tensor(v, requires_grad=True) for v in (xs, wx0, wh0, b0)]
    out = ad.lstm_layer(*ts, lengths=lengths)
    grads = gradient(ad.sum_all(ad.mul(out, Tensor(gh))), ts)
    for got, ref in zip([out.data, *grads], [h_want, dx_want, *dws_want]):
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref)) <= 1e-12


def test_packed_lstm_layer_against_fd():
    rng = np.random.default_rng(22)
    in_dim, hid, lengths = 3, 4, [4, 2, 3]
    args = [rng.standard_normal((sum(lengths), in_dim)), *lstm_weights(rng, in_dim, hid)]
    readout = Tensor(rng.standard_normal((sum(lengths), hid)))
    for pick in range(4):
        def build(t, pick=pick):
            inner = [Tensor(a) for a in args]
            inner[pick] = t
            return ad.sum_all(ad.mul(ad.lstm_layer(*inner, lengths=lengths), readout))

        check_against_fd(build, args[pick], tol=1e-5)


@pytest.mark.parametrize("lengths", [[3, 3], [4, 1, 0], [6, -1], []])
def test_packed_lstm_layer_rejects_bad_lengths(lengths):
    rng = np.random.default_rng(23)
    wx, wh, b = (Tensor(v) for v in lstm_weights(rng, 3, 2))
    with pytest.raises(DimensionError):
        ad.lstm_layer(Tensor(np.ones((5, 3))), wx, wh, b, lengths=lengths)


def test_lstm_cell_zero_weights():
    # zero weights, g-gate bias beta: i=f=o=1/2 and g=tanh(beta) at every
    # step, so c_t = tanh(beta) * (1 - 2**-t) and h_t = tanh(c_t) / 2
    dim, beta = 4, 0.8
    b = np.zeros(4 * dim)
    b[2 * dim:3 * dim] = beta
    h = ad.lstm_layer(Tensor(np.ones((3, 2))), Tensor(np.zeros((2, 4 * dim))),
                      Tensor(np.zeros((dim, 4 * dim))), Tensor(b))
    c = np.tanh(beta) * (1.0 - 0.5 ** np.arange(1, 4))
    assert np.max(np.abs(h.data - 0.5 * np.tanh(c)[:, None])) < 1e-15


@pytest.mark.parametrize("steps", [1, 5])
def test_lstm_layer_against_fd(steps):
    """Gradient of a weighted readout of every h_t w.r.t. the input and each
    weight checks out against finite differences."""
    rng = np.random.default_rng(12)
    in_dim, hid = 3, 4
    args = [rng.standard_normal((steps, in_dim)), *lstm_weights(rng, in_dim, hid)]
    readout = Tensor(rng.standard_normal((steps, hid)))
    for pick in range(4):
        def build(t, pick=pick):
            inner = [Tensor(a) for a in args]
            inner[pick] = t
            return ad.sum_all(ad.mul(ad.lstm_layer(*inner), readout))

        check_against_fd(build, args[pick], tol=1e-5)


def test_stacked_lstm_layers_against_fd():
    rng = np.random.default_rng(17)
    in_dim, hid, steps = 3, 4, 5
    args = [rng.standard_normal((steps, in_dim)), *lstm_weights(rng, in_dim, hid),
            *lstm_weights(rng, hid, hid)]
    readout = Tensor(rng.standard_normal((steps, hid)))
    for pick in range(7):
        def build(t, pick=pick):
            inner = [Tensor(a) for a in args]
            inner[pick] = t
            h = ad.lstm_layer(*inner[:4])
            return ad.sum_all(ad.mul(ad.lstm_layer(h, *inner[4:]), readout))

        # gradient entries near 1e-4 carry finite-difference noise near 1e-10
        check_against_fd(build, args[pick], tol=1e-5)


def test_lstm_layer_constant_input_gets_no_adjoint():
    rng = np.random.default_rng(18)
    wx, wh, b = (Tensor(v, requires_grad=True) for v in lstm_weights(rng, 3, 2))
    out = ad.lstm_layer(Tensor(rng.standard_normal((4, 3))), wx, wh, b)
    assert out.node.back(np.ones((4, 2)))[0] is None


def test_lstm_layer_rejects_bad_shapes():
    rng = np.random.default_rng(19)
    wx, wh, b = (Tensor(v) for v in lstm_weights(rng, 3, 2))
    with pytest.raises(DimensionError):
        ad.lstm_layer(Tensor(np.ones(3)), wx, wh, b)
    with pytest.raises(DimensionError):
        ad.lstm_layer(Tensor(np.ones((4, 2))), wx, wh, b)
    with pytest.raises(DimensionError):
        ad.lstm_layer(Tensor(np.ones((4, 3))), wx, wh, Tensor(np.zeros(7)))


def test_sigmoid_matches_two_branch_form_bitwise():
    rng = np.random.default_rng(20)
    x = np.concatenate([rng.standard_normal(500) * 40, [0.0, -0.0, 800.0, -800.0, 1e-300]])
    want = np.empty_like(x)
    pos = x >= 0
    want[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    want[~pos] = np.exp(x[~pos]) / (1.0 + np.exp(x[~pos]))
    assert np.array_equal(ad._sigmoid(x), want)


def test_lstm_causality():
    """h_t must not depend on x_s for s > t."""
    rng = np.random.default_rng(13)
    weights = [Tensor(v) for v in lstm_weights(rng, 3, 4)]
    xs = rng.standard_normal((4, 3))
    bumped = xs.copy()
    bumped[3] += 10.0
    base = ad.lstm_layer(Tensor(xs), *weights).data
    moved = ad.lstm_layer(Tensor(bumped), *weights).data
    assert np.array_equal(base[:3], moved[:3])
    assert not np.array_equal(base[3], moved[3])


def infonce_candidates(rng, lengths, horizons, negatives):
    """Per sequence, one row per (t, k) pair, horizon-major: the true frame
    t+k, then distinct other frames of the same sequence."""
    out = []
    for n in lengths:
        rows = []
        for k in range(1, horizons + 1):
            for t in range(n - k):
                others = np.delete(np.arange(n), t + k)
                rows.append([t + k, *rng.choice(others, size=negatives, replace=False)])
        out.append(np.array(rows))
    return out


def test_infonce_against_fd():
    # three unequal sequences, the middle one as short as 2 horizons and 4
    # candidates allow
    rng = np.random.default_rng(24)
    lat, ctx, horizons, lengths = 3, 2, 2, [7, 4, 5]
    cands = infonce_candidates(rng, lengths, horizons, 3)
    args = [rng.standard_normal((sum(lengths), lat)), rng.standard_normal((sum(lengths), ctx))]
    for _ in range(horizons):
        args += [rng.standard_normal((ctx, lat)), rng.standard_normal(lat)]
    for pick in range(len(args)):
        def build(t, pick=pick):
            inner = [Tensor(a) for a in args]
            inner[pick] = t
            heads = list(zip(inner[2::2], inner[3::2]))
            return ad.infonce(inner[0], inner[1], heads, lengths, cands, 0.7)

        check_against_fd(build, args[pick])


def test_gather_pairs_forward_and_adjoint():
    # row (t, k) of the candidates scores s[idx[r, j], t]; a row that names a
    # frame twice counts it twice, in the value and in the adjoint
    rng = np.random.default_rng(9)
    z0, c0 = rng.standard_normal((5, 3)), rng.standard_normal((5, 2))
    head = (Tensor(rng.standard_normal((2, 3))), Tensor(rng.standard_normal(3)))
    cands = [np.array([[1, 1, 3], [2, 0, 4], [3, 3, 3], [4, 2, 0]])]

    def build(t):
        return ad.infonce(t, Tensor(c0), [head], [5], cands, 1.0)

    scores = z0 @ (c0[:4] @ head[0].data + head[1].data).T
    logits = scores[cands[0], np.arange(4)[:, None]]
    want = -np.mean(logits[:, 0] - np.log(np.exp(logits).sum(axis=1)))
    assert abs(build(Tensor(z0)).item() - want) < 1e-12
    check_against_fd(build, z0)


def test_mean_of_identical_values_is_exact():
    # identical latent rows make every score of a row equal, so each of the
    # 5 terms is -ln 4, and their mean must be ln 4 to the last bit
    rng = np.random.default_rng(10)
    head = (Tensor(rng.standard_normal((2, 3))), Tensor(np.zeros(3)))
    cands = infonce_candidates(rng, [6], 1, 3)
    loss = ad.infonce(Tensor(np.ones((6, 3))), Tensor(rng.standard_normal((6, 2))),
                      [head], [6], cands, 1.0)
    assert loss.item() == np.log(4.0)


def test_infonce_rejects_bad_inputs():
    rng = np.random.default_rng(25)
    z, c = Tensor(np.ones((9, 3))), Tensor(np.ones((9, 2)))
    heads = [(Tensor(np.ones((2, 3))), Tensor(np.zeros(3)))]
    cands = infonce_candidates(rng, [5, 4], 1, 2)
    ad.infonce(z, c, heads, [5, 4], cands, 1.0)
    with pytest.raises(DimensionError):
        ad.infonce(z, c, heads, [5, 3], cands, 1.0)  # lengths do not cover the rows
    with pytest.raises(DimensionError):
        ad.infonce(z, c, heads, [5, 4], cands[:1], 1.0)  # a sequence has no candidates
    with pytest.raises(DimensionError):
        ad.infonce(z, c, heads, [4, 5], cands, 1.0)  # candidate rows per sequence differ
    with pytest.raises(DimensionError):
        ad.infonce(z, Tensor(np.ones((8, 2))), heads, [5, 4], cands, 1.0)
    with pytest.raises(DimensionError):
        ad.infonce(z, c, [(Tensor(np.ones((3, 3))), Tensor(np.zeros(3)))], [5, 4], cands, 1.0)


def test_every_public_op_has_a_caller_outside_autodiff():
    """An op the package stops calling fails here instead of lingering.
    ``mul`` and ``sum_all`` build the scalar losses of the finite-difference
    tests and are exempt."""
    import ast
    from pathlib import Path

    package = Path(ad.__file__).parent
    public = {node.name for node in ast.parse(Path(ad.__file__).read_text()).body
              if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")}
    called = set()
    for path in sorted(package.glob("*.py")):
        if path.name == "autodiff.py":
            continue
        tree = ast.parse(path.read_text())
        # the module's local names for autodiff, and the names imported from it
        modules, imported = set(), set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    if node.module is None and alias.name == "autodiff":
                        modules.add(alias.asname or alias.name)
                    elif node.module == "autodiff":
                        imported.add(alias.asname or alias.name)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            if isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name) \
                    and f.value.id in modules:
                called.add(f.attr)
            elif isinstance(f, ast.Name) and f.id in imported:
                called.add(f.id)
    assert public - called - {"mul", "sum_all"} == set()


def test_gradient_zeros_for_unused_params():
    used = Tensor(np.ones(3), requires_grad=True)
    unused = Tensor(np.ones((2, 2)), requires_grad=True)
    loss = ad.sum_all(used)
    gs = gradient(loss, [used, unused])
    assert np.array_equal(gs[0], np.ones(3))
    assert np.array_equal(gs[1], np.zeros((2, 2)))


def test_gradient_rejects_non_leaf_params():
    x = Tensor(np.ones(3), requires_grad=True)
    y = ad.mul(x, 2.0)
    with pytest.raises(ContractError):
        gradient(ad.sum_all(y), [y])


def test_gradient_ignores_previous_calls():
    a = Tensor(np.ones(3), requires_grad=True)
    b = Tensor(np.ones(3), requires_grad=True)
    gradient(ad.sum_all(ad.mul(a, b)), [a, b])
    ga, gb = gradient(ad.sum_all(ad.mul(b, 5.0)), [a, b])
    assert np.array_equal(ga, np.zeros(3))
    assert np.array_equal(gb, np.full(3, 5.0))


def test_backward_is_deterministic():
    rng = np.random.default_rng(14)
    x0 = rng.standard_normal((4, 4))

    def run():
        x = Tensor(x0, requires_grad=True)
        y = ad.matmul(x, x)  # x used twice: adjoints must accumulate identically
        return gradient(ad.sum_all(ad.mul(y, y)), [x])[0]

    a, b = run(), run()
    assert np.array_equal(a, b)


def test_tape_topological_order():
    x = Tensor(np.ones(2), requires_grad=True)
    y = ad.mul(x, x)
    z = ad.mul(y, x)       # diamond: x feeds both y and z
    loss = ad.sum_all(z)
    tape = Tape.trace(loss)
    seen = set()
    for node in tape.nodes:
        for inp in node.inputs:
            if inp.node is not None:
                assert id(inp.node) in seen, "input produced after consumer"
        seen.add(id(node))
    # each node appears exactly once
    ids = [id(n) for n in tape.nodes]
    assert len(ids) == len(set(ids))
