"""Tests for the contrastive model: parameter plumbing, encoders, negative
sampling, and the InfoNCE objective against independent oracles."""

import numpy as np
import pytest

from fedcpc import autodiff as ad
from fedcpc import model as m
from fedcpc.autodiff import Tensor
from fedcpc.errors import ConfigError, DimensionError, TooShortError


def tiny_config(**overrides):
    base = dict(input_dim=5, enc_layers=2, enc_units=4, ctx_layers=2,
                ctx_units=3, future_steps=2, temperature=1.0, num_negatives=3)
    base.update(overrides)
    return m.CpcConfig(**base)


def rand_params(config, seed):
    return m.init_params(config, seed)


# ---------------------------------------------------------------- config

def test_config_rejects_bad_values():
    with pytest.raises(ConfigError):
        tiny_config(future_steps=0)
    with pytest.raises(ConfigError):
        tiny_config(temperature=0.0)
    with pytest.raises(ConfigError):
        tiny_config(num_negatives=0)
    with pytest.raises(ConfigError):
        tiny_config(enc_units=0)


def test_min_frames_covers_horizon_and_candidates():
    cfg = tiny_config(future_steps=2, num_negatives=3)  # 4 candidates
    assert cfg.min_frames() == 4
    cfg = tiny_config(future_steps=6, num_negatives=2)
    assert cfg.min_frames() == 7
    assert m.usable_frames(7, cfg)
    assert not m.usable_frames(6, cfg)


def test_desk_config_shape():
    cfg = m.CpcConfig()
    assert (cfg.enc_layers, cfg.enc_units) == (2, 64)
    assert (cfg.ctx_layers, cfg.ctx_units) == (1, 128)
    assert cfg.future_steps == 4 and cfg.num_candidates == 8


# ------------------------------------------------------- parameter plumbing

def test_param_count_matches_shapes():
    cfg = tiny_config()
    n = sum(int(np.prod(s)) for _, s in m.param_shapes(cfg))
    assert m.param_count(cfg) == n
    assert m.flatten(rand_params(cfg, 0)).shape == (n,)


def test_flatten_unflatten_roundtrip_bitwise():
    cfg = tiny_config()
    params = rand_params(cfg, 7)
    vec = m.flatten(params)
    back = m.flatten(m.unflatten(cfg, vec))
    assert np.array_equal(vec, back)


def test_unflatten_rejects_wrong_length():
    cfg = tiny_config()
    with pytest.raises(ConfigError):
        m.unflatten(cfg, np.zeros(m.param_count(cfg) + 1))


def test_init_bias_layout():
    cfg = tiny_config(ctx_units=3)
    params = rand_params(cfg, 3)
    for w, b in params.enc:
        assert np.all(b.data == 0.0)
        bound = np.sqrt(1.0 / w.shape[0])
        assert np.all(np.abs(w.data) <= bound)
    h = cfg.ctx_units
    for wx, wh, b in params.ar:
        assert np.all(b.data[h:2 * h] == 1.0)  # forget gate open at init
        assert np.all(b.data[:h] == 0.0) and np.all(b.data[2 * h:] == 0.0)
    for w, b in params.heads:
        assert np.all(b.data == 0.0)


def test_init_deterministic_per_seed():
    cfg = tiny_config()
    a = m.flatten(rand_params(cfg, 11))
    b = m.flatten(rand_params(cfg, 11))
    c = m.flatten(rand_params(cfg, 12))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_named_order_matches_param_shapes():
    cfg = tiny_config()  # two encoder and two LSTM layers
    params = rand_params(cfg, 0)
    assert [(n, t.shape) for n, t in params.named.items()] == m.param_shapes(cfg)
    # the per-layer views cover every tensor once, in flattening order
    assert (len(params.enc), len(params.ar), len(params.heads)) == (2, 2, cfg.future_steps)
    viewed = [t for layer in params.enc + params.ar + params.heads for t in layer]
    assert [id(t) for t in viewed] == [id(t) for t in params.tensors()]


# ------------------------------------------------------------------ encode

def test_encode_is_frame_local():
    cfg = tiny_config()
    params = rand_params(cfg, 5)
    rng = np.random.default_rng(0)
    x = rng.standard_normal((6, cfg.input_dim))
    base = m.encode(Tensor(x), params).data
    x2 = x.copy()
    x2[3] += 1.0
    bumped = m.encode(Tensor(x2), params).data
    changed = np.any(base != bumped, axis=1)
    assert changed[3]
    assert not np.any(changed[[0, 1, 2, 4, 5]])


def test_encode_rejects_wrong_width():
    cfg = tiny_config()
    params = rand_params(cfg, 5)
    with pytest.raises(ConfigError):
        m.encode(Tensor(np.zeros((4, cfg.input_dim + 1))), params)


def test_encode_matches_numpy_oracle():
    cfg = tiny_config()
    params = rand_params(cfg, 9)
    rng = np.random.default_rng(1)
    x = rng.standard_normal((5, cfg.input_dim))
    h = x
    for w, b in params.enc:
        h = np.maximum(h @ w.data + b.data, 0.0)
    got = m.encode(Tensor(x), params).data
    assert np.max(np.abs(got - h)) < 1e-12


# ------------------------------------------------------------ contextualize

def lstm_unroll_oracle(z, params):
    """Plain numpy stacked LSTM, gate order i, f, g, o."""
    def sig(v):
        return 1.0 / (1.0 + np.exp(-v))

    seq = z
    for wx, wh, b in params:
        hdim = wh.shape[0]
        h = np.zeros(hdim)
        c = np.zeros(hdim)
        outs = []
        for t in range(seq.shape[0]):
            g = seq[t] @ wx + h @ wh + b
            i = sig(g[:hdim])
            f = sig(g[hdim:2 * hdim])
            gg = np.tanh(g[2 * hdim:3 * hdim])
            o = sig(g[3 * hdim:])
            c = f * c + i * gg
            h = o * np.tanh(c)
            outs.append(h)
        seq = np.stack(outs)
    return seq


def test_contextualize_matches_unroll_oracle():
    cfg = tiny_config(ctx_layers=2, ctx_units=3)
    params = rand_params(cfg, 13)
    rng = np.random.default_rng(2)
    z = rng.standard_normal((7, cfg.enc_units))
    got = m.contextualize(Tensor(z), params).data
    want = lstm_unroll_oracle(z, [(wx.data, wh.data, b.data) for wx, wh, b in params.ar])
    assert got.shape == (7, cfg.ctx_units)
    assert np.max(np.abs(got - want)) < 1e-12


def test_contextualize_is_causal():
    cfg = tiny_config()
    params = rand_params(cfg, 17)
    rng = np.random.default_rng(3)
    z = rng.standard_normal((6, cfg.enc_units))
    base = m.contextualize(Tensor(z), params).data
    z2 = z.copy()
    z2[4] += 1.0
    bumped = m.contextualize(Tensor(z2), params).data
    assert np.array_equal(base[:4], bumped[:4])
    assert np.any(base[4:] != bumped[4:])


def test_contextualize_rejects_wrong_width():
    cfg = tiny_config()
    params = rand_params(cfg, 0)
    with pytest.raises(ConfigError):
        m.contextualize(Tensor(np.zeros((4, cfg.enc_units + 2))), params)


# --------------------------------------------------------- negative sampling

def test_sample_negatives_excludes_target_and_is_distinct():
    rng = np.random.default_rng(0)
    for _ in range(200):
        idx = m.sample_negatives(t=2, k=1, total=10, count=6, rng=rng)
        assert idx.shape == (6,)
        assert 3 not in idx
        assert len(set(idx.tolist())) == 6
        assert np.all((idx >= 0) & (idx < 10))


def test_sample_negatives_too_short():
    rng = np.random.default_rng(0)
    with pytest.raises(TooShortError):
        m.sample_negatives(t=0, k=1, total=4, count=4, rng=rng)
    # exactly enough candidates: must succeed and use them all
    idx = m.sample_negatives(t=0, k=1, total=4, count=3, rng=rng)
    assert sorted(idx.tolist()) == [0, 2, 3]


def test_sample_negatives_target_out_of_range():
    rng = np.random.default_rng(0)
    with pytest.raises(ConfigError):
        m.sample_negatives(t=5, k=3, total=8, count=2, rng=rng)


def test_sample_negatives_matches_candidate_array_draws():
    # oracle: choose among an explicit array of the frames other than t+k
    def oracle(t, k, total, count, rng):
        candidates = np.concatenate([np.arange(t + k), np.arange(t + k + 1, total)])
        return rng.choice(candidates, size=count, replace=False)

    for seed in range(40):
        for total in (8, 9, 31, 93, 300):
            for k in (1, 4):
                t = int(np.random.default_rng(seed).integers(0, total - k))
                want = oracle(t, k, total, 7, np.random.default_rng(seed))
                got = m.sample_negatives(t, k, total, 7, np.random.default_rng(seed))
                assert np.array_equal(got, want)


def test_sample_negatives_uniform_chi_square():
    # 3000 draws of 2 negatives from the 7 candidates != 4; chi-square
    # against uniform with 6 dof stays under the 0.999 quantile.
    rng = np.random.default_rng(123)
    counts = np.zeros(8)
    draws = 3000
    for _ in range(draws):
        for j in m.sample_negatives(t=3, k=1, total=8, count=2, rng=rng):
            counts[j] += 1
    assert counts[4] == 0
    observed = np.delete(counts, 4)
    expected = draws * 2 / 7.0
    chi2 = float(np.sum((observed - expected) ** 2 / expected))
    assert chi2 < 22.46  # chi2(6).ppf(0.999)


# -------------------------------------------------------- bulk negatives

def per_pair_negatives(steps, config, rng):
    """The oracle: one sample_negatives call per (t, k) pair, horizon-major."""
    return np.array([m.sample_negatives(t, k, steps, config.num_negatives, rng)
                     for k in range(1, config.future_steps + 1) for t in range(steps - k)])


@pytest.mark.parametrize("n_neg", [1, 3, 7])
@pytest.mark.parametrize("k_fut", [1, 4])
def test_draw_negatives_equals_per_pair_draws(k_fut, n_neg):
    # steps=8 with 7 negatives leaves pop == count, which takes the loop
    cfg = m.CpcConfig(future_steps=k_fut, num_negatives=n_neg)
    for steps in (8, 9, 20, 74, 98, 300):
        for seed in range(200):
            bulk = np.random.default_rng([seed, 5, steps])
            loop = np.random.default_rng([seed, 5, steps])
            got = m.draw_negatives(steps, cfg, bulk)
            assert np.array_equal(got, per_pair_negatives(steps, cfg, loop)), (steps, seed)
            assert bulk.bit_generator.state == loop.bit_generator.state, (steps, seed)


def count_sample_negatives(monkeypatch):
    calls = []
    inner = m.sample_negatives

    def counted(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(m, "sample_negatives", counted)
    return calls


def test_draw_negatives_falls_back_on_a_lemire_rejection(monkeypatch):
    from fedcpc.rng import choice_rows

    cfg = m.CpcConfig()
    pairs = sum(93 - k for k in range(1, cfg.future_steps + 1))
    probe = np.random.default_rng([18659, 5, 93])
    before = probe.bit_generator.state
    assert choice_rows(probe, 92, cfg.num_negatives, pairs) is None
    assert probe.bit_generator.state == before  # untouched on fallback
    calls = count_sample_negatives(monkeypatch)
    bulk, loop = np.random.default_rng([18659, 5, 93]), np.random.default_rng([18659, 5, 93])
    got = m.draw_negatives(93, cfg, bulk)
    assert len(calls) == pairs
    assert np.array_equal(got, per_pair_negatives(93, cfg, loop))
    assert bulk.bit_generator.state == loop.bit_generator.state


def test_draw_negatives_falls_back_on_a_buffered_half(monkeypatch):
    cfg = m.CpcConfig()
    bulk, loop = np.random.default_rng(3), np.random.default_rng(3)
    for g in (bulk, loop):
        g.random(dtype=np.float32)  # leaves a 32-bit half buffered
    assert bulk.bit_generator.state["has_uint32"] == 1
    calls = count_sample_negatives(monkeypatch)
    got = m.draw_negatives(20, cfg, bulk)
    assert len(calls) == got.shape[0]
    assert np.array_equal(got, per_pair_negatives(20, cfg, loop))
    assert bulk.bit_generator.state == loop.bit_generator.state


def test_failing_self_check_forces_the_loop(monkeypatch):
    from fedcpc import rng as rng_mod

    assert rng_mod.choice_rows_verified()
    monkeypatch.setattr(rng_mod, "choice_rows_verified", lambda: False)
    calls = count_sample_negatives(monkeypatch)
    cfg = m.CpcConfig()
    bulk, loop = np.random.default_rng(11), np.random.default_rng(11)
    got = m.draw_negatives(30, cfg, bulk)
    assert len(calls) == got.shape[0] == sum(30 - k for k in range(1, 5))
    assert np.array_equal(got, per_pair_negatives(30, cfg, loop))
    assert bulk.bit_generator.state == loop.bit_generator.state


# ----------------------------------------------------------------- infonce

def infonce_oracle(z, c, params, config, rng):
    """Verbatim restatement of the objective with plain numpy loops:

        loss = (1/K) sum_k -(1/(T-k)) sum_t
               [ s(t+k | t, k) - log sum_j exp(s(j | t, k)) ]

    where j ranges over {true frame} + sampled negatives and
    s(j | t, k) = z_j . (c_t W_k + b_k) / temperature. Negatives are drawn
    through the shared sampler in the same horizon-major order the loss
    uses, so both sides score identical candidate sets.
    """
    steps = z.shape[0]
    total = 0.0
    for k in range(1, config.future_steps + 1):
        w, b = params.heads[k - 1]
        acc = 0.0
        for t in range(steps - k):
            pred_t = c[t] @ w.data + b.data
            cands = [t + k] + list(m.sample_negatives(t, k, steps, config.num_negatives, rng))
            scores = np.array([z[j] @ pred_t for j in cands]) / config.temperature
            mx = scores.max()
            logsumexp = mx + np.log(np.sum(np.exp(scores - mx)))
            acc += scores[0] - logsumexp
        total += -acc / (steps - k)
    return total / config.future_steps


def test_infonce_matches_verbatim_oracle():
    # T=6 frames, K=2 horizons, 4-way candidate sets.
    cfg = tiny_config(future_steps=2, num_negatives=3)
    params = rand_params(cfg, 31)
    gen = np.random.default_rng(5)
    steps = 6
    z = gen.standard_normal((steps, cfg.enc_units))
    c = gen.standard_normal((steps, cfg.ctx_units))
    loss = m.infonce_loss(Tensor(z), Tensor(c), params, cfg,
                          np.random.default_rng(99)).item()
    want = infonce_oracle(z, c, params, cfg, np.random.default_rng(99))
    assert abs(loss - want) < 1e-10


@pytest.mark.parametrize("steps,k_fut,n_neg", [(6, 2, 3), (9, 3, 5), (12, 4, 7)])
def test_infonce_oracle_other_geometries(steps, k_fut, n_neg):
    cfg = tiny_config(future_steps=k_fut, num_negatives=n_neg, temperature=0.7)
    params = rand_params(cfg, 33)
    gen = np.random.default_rng(6)
    z = gen.standard_normal((steps, cfg.enc_units))
    c = gen.standard_normal((steps, cfg.ctx_units))
    loss = m.infonce_loss(Tensor(z), Tensor(c), params, cfg,
                          np.random.default_rng(7)).item()
    want = infonce_oracle(z, c, params, cfg, np.random.default_rng(7))
    assert abs(loss - want) < 1e-10


def test_infonce_uniform_scores_exact_ln_n():
    # Identical latent frames make every candidate score equal, so each
    # softmax term is exactly -ln(1/N) and the loss must equal ln N to the
    # last bit, not just approximately.
    cfg = tiny_config(future_steps=2, num_negatives=3)
    params = rand_params(cfg, 41)
    z = np.tile(np.linspace(0.1, 0.9, cfg.enc_units), (6, 1))
    gen = np.random.default_rng(8)
    c = gen.standard_normal((6, cfg.ctx_units))
    loss = m.infonce_loss(Tensor(z), Tensor(c), params, cfg,
                          np.random.default_rng(9)).item()
    assert loss == np.log(cfg.num_candidates)


def test_infonce_uniform_exact_across_geometries():
    for k_fut, n_neg, steps in [(1, 1, 4), (2, 3, 6), (3, 7, 9), (4, 7, 12)]:
        cfg = tiny_config(future_steps=k_fut, num_negatives=n_neg)
        params = rand_params(cfg, 43)
        z = np.ones((steps, cfg.enc_units))
        c = np.random.default_rng(10).standard_normal((steps, cfg.ctx_units))
        loss = m.infonce_loss(Tensor(z), Tensor(c), params, cfg,
                              np.random.default_rng(11)).item()
        assert loss == np.log(n_neg + 1), (k_fut, n_neg, steps)


def packed_inputs(cfg, lengths, seed):
    gen = np.random.default_rng(seed)
    return (gen.standard_normal((sum(lengths), cfg.enc_units)),
            gen.standard_normal((sum(lengths), cfg.ctx_units)))


def test_packed_infonce_is_the_mean_of_sequence_losses_bitwise():
    cfg = tiny_config(future_steps=2, num_negatives=3, temperature=0.7)
    params = rand_params(cfg, 34)
    lengths = [9, cfg.min_frames(), 6]
    z, c = packed_inputs(cfg, lengths, 17)
    packed = m.infonce_loss(Tensor(z), Tensor(c), params, cfg,
                            *(np.random.default_rng(s) for s in range(3)),
                            lengths=lengths).item()
    total, start = None, 0
    for n, seed in zip(lengths, range(3)):
        rows = slice(start, start + n)
        start += n
        loss = m.infonce_loss(Tensor(z[rows]), Tensor(c[rows]), params, cfg,
                              np.random.default_rng(seed)).item()
        total = loss if total is None else total + loss
    assert packed == total * (1.0 / len(lengths))


def test_infonce_needs_one_generator_per_sequence():
    cfg = tiny_config()
    params = rand_params(cfg, 35)
    z, c = packed_inputs(cfg, [5, 6], 18)
    for rngs in ([np.random.default_rng(0)], [np.random.default_rng(i) for i in range(3)]):
        with pytest.raises(DimensionError):
            m.infonce_loss(Tensor(z), Tensor(c), params, cfg, *rngs, lengths=[5, 6])


def test_batch_records_one_infonce_node():
    cfg = tiny_config()  # two encoder layers and two LSTM layers
    params = rand_params(cfg, 36)
    x = np.random.default_rng(19).standard_normal((15, cfg.input_dim))
    loss = m.batch_loss(x, [5, 4, 6], params, cfg,
                        [np.random.default_rng(i) for i in range(3)])
    ops = [node.op for node in ad.Tape.trace(loss).nodes]
    assert ops.count("infonce") == 1 and ops[-1] == "infonce"
    assert len(ops) == 3 * cfg.enc_layers + cfg.ctx_layers + 1


def test_infonce_too_short_errors():
    cfg = tiny_config(future_steps=3, num_negatives=3)
    params = rand_params(cfg, 44)
    gen = np.random.default_rng(12)

    def run(steps):
        z = gen.standard_normal((steps, cfg.enc_units))
        c = gen.standard_normal((steps, cfg.ctx_units))
        return m.infonce_loss(Tensor(z), Tensor(c), params, cfg,
                              np.random.default_rng(0))

    with pytest.raises(TooShortError):
        run(3)  # cannot reach horizon 3
    run(4)  # minimal usable length


def test_infonce_frame_count_mismatch():
    cfg = tiny_config()
    params = rand_params(cfg, 45)
    z = np.zeros((6, cfg.enc_units))
    c = np.zeros((5, cfg.ctx_units))
    with pytest.raises(ConfigError):
        m.infonce_loss(Tensor(z), Tensor(c), params, cfg, np.random.default_rng(0))


def test_infonce_candidate_sets_depend_on_rng_state():
    cfg = tiny_config(future_steps=2, num_negatives=3)
    params = rand_params(cfg, 46)
    gen = np.random.default_rng(13)
    z = gen.standard_normal((8, cfg.enc_units))
    c = gen.standard_normal((8, cfg.ctx_units))
    a = m.infonce_loss(Tensor(z), Tensor(c), params, cfg, np.random.default_rng(1)).item()
    b = m.infonce_loss(Tensor(z), Tensor(c), params, cfg, np.random.default_rng(1)).item()
    d = m.infonce_loss(Tensor(z), Tensor(c), params, cfg, np.random.default_rng(2)).item()
    assert a == b
    assert a != d


def test_infonce_gradient_matches_fd_on_head():
    # End-to-end spot check that the loss is differentiable wrt a head
    # weight; FD on two coordinates of W_1.
    cfg = tiny_config(future_steps=2, num_negatives=2)
    params = rand_params(cfg, 47)
    gen = np.random.default_rng(14)
    z_data = gen.standard_normal((6, cfg.enc_units))
    c_data = gen.standard_normal((6, cfg.ctx_units))

    def value():
        return m.infonce_loss(Tensor(z_data), Tensor(c_data), params, cfg,
                              np.random.default_rng(3))

    w1 = params.heads[0][0]
    (g,) = ad.gradient(value(), [w1])
    step = 1e-6
    for idx in [(0, 0), (2, 1)]:
        keep = w1.data[idx]
        w1.data[idx] = keep + step
        up = value().item()
        w1.data[idx] = keep - step
        down = value().item()
        w1.data[idx] = keep
        fd = (up - down) / (2 * step)
        assert abs(fd - g[idx]) / max(abs(fd), abs(g[idx]), 1e-6) < 1e-4


def test_utterance_loss_near_ln_n_at_init():
    # A freshly initialized model is nearly uninformative, so the loss
    # starts within a few percent of ln(num_candidates).
    cfg = m.CpcConfig()
    params = m.init_params(cfg, 42)
    gen = np.random.default_rng(15)
    feats = gen.standard_normal((12, cfg.input_dim))
    loss = m.utterance_loss(feats, params, cfg, np.random.default_rng(4)).item()
    assert abs(loss - np.log(8)) / np.log(8) < 0.05

