"""Tests for the federated loop: selection, client updates, aggregation,
the server optimizer, and the one-round equivalence with a plain SGD step."""

import gc

import numpy as np
import pytest

from fedcpc import federated as fed_mod
from fedcpc import model as m
from fedcpc.autodiff import gradient
from fedcpc.central import sgd_reference_step
from fedcpc.errors import ConfigError, NonFiniteUpdateError
from fedcpc.federated import (ClientUpdate, FedConfig, MetricsRow, ServerState,
                              aggregate, batch_mean_loss, build_streams,
                              client_update, render_metrics, run_federated,
                              select_clients, server_step)
from fedcpc.frontend import SAMPLE_RATE, synth_corpus, synth_spec
from fedcpc.optim import AdamConfig, AdamState, adam_step
from fedcpc.rng import substream
from fedcpc.silo import ClientStream, UtteranceRecord

SMALL = m.CpcConfig(enc_units=16, ctx_units=16, future_steps=2, num_negatives=3)


@pytest.fixture(scope="module")
def corpus():
    # 5 speakers x 8 utterances, all long enough to use
    return synth_corpus(5, 1, 8, seed=21)


def short_record(name="tiny", samples=2000):
    # 2000 samples -> 11 STFT frames -> 3 stacked frames, below the minimum
    # of 4 that SMALL needs; 560 samples cannot even fill one stacked frame
    ref = synth_spec("temporal", 3, 0, 0, 0, samples)
    return UtteranceRecord(name, "spk000", "ch00", ref, samples / SAMPLE_RATE)


# ------------------------------------------------------------------ config

def test_fed_config_validation():
    with pytest.raises(ConfigError):
        FedConfig(client_batch_size=9)
    with pytest.raises(ConfigError):
        FedConfig(client_batch_size=0)
    with pytest.raises(ConfigError):
        FedConfig(clients_per_round=0)
    with pytest.raises(ConfigError):
        FedConfig(server_opt="sgd")
    with pytest.raises(ConfigError):
        FedConfig(rounds_max=0)
    cfg = FedConfig(server_lr=3e-3)
    assert cfg.adam_config() == AdamConfig(lr=3e-3, beta1=0.9, beta2=0.999, eps=1e-8)


# --------------------------------------------------------------- selection

def test_select_single_stream():
    assert select_clients([7], 4, np.random.default_rng(0)) == [7]


def test_select_same_seed_same_choice():
    active = list(range(10))
    a = select_clients(active, 4, np.random.default_rng(5))
    b = select_clients(active, 4, np.random.default_rng(5))
    assert a == b
    assert len(a) == 4 and len(set(a)) == 4
    assert a == sorted(a)


def test_select_empty_errors():
    with pytest.raises(ConfigError):
        select_clients([], 2, np.random.default_rng(0))


def test_select_uniform_over_rounds():
    # one pick per round, seeded per round exactly as the run loop does;
    # counts stay within 3 sigma of uniform and chi-square stays under the
    # 0.999 quantile for 9 dof
    active = list(range(10))
    counts = np.zeros(10)
    rounds = 10_000
    for r in range(rounds):
        (pick,) = select_clients(active, 1, substream(99, 3, r))
        counts[pick] += 1
    expected = rounds / 10
    sigma = np.sqrt(rounds * 0.1 * 0.9)
    assert np.all(np.abs(counts - expected) <= 3 * sigma)
    chi2 = float(np.sum((counts - expected) ** 2 / expected))
    assert chi2 < 27.88


# ---------------------------------------------------------- batch loss

def test_batch_mean_loss_skips_short_utterances(corpus):
    weights = m.flatten(m.init_params(SMALL, 0))
    batch = [corpus[0], short_record()]
    loss, _, usable = batch_mean_loss(weights, batch, SMALL, seed=4)
    assert [r.utterance_id for r in usable] == [corpus[0].utterance_id]
    assert np.isfinite(loss.item())


def test_batch_mean_loss_all_short():
    weights = m.flatten(m.init_params(SMALL, 0))
    batch = [short_record("a"), short_record("b", samples=560)]
    loss, _, usable = batch_mean_loss(weights, batch, SMALL, seed=4)
    assert usable == []
    assert loss.item() == 0.0


def test_gradient_leaves_no_cyclic_garbage(corpus):
    # the tape holds no reference cycles, so dropping the loss frees it
    # without the cyclic collector
    weights = m.flatten(m.init_params(SMALL, 0))
    gc.collect()
    gc.disable()
    try:
        loss, params, _ = batch_mean_loss(weights, corpus[:4], SMALL, seed=4)
        grads = gradient(loss, params.tensors())
        del loss, params, grads
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_batch_mean_loss_same_seed_same_value(corpus):
    weights = m.flatten(m.init_params(SMALL, 0))
    a, _, _ = batch_mean_loss(weights, corpus[:3], SMALL, seed=4)
    b, _, _ = batch_mean_loss(weights, corpus[:3], SMALL, seed=4)
    c, _, _ = batch_mean_loss(weights, corpus[:3], SMALL, seed=5)
    assert a.item() == b.item()
    assert a.item() != c.item()


# ------------------------------------------------------------ client update

def test_client_update_zero_lr_keeps_weights(corpus):
    weights = m.flatten(m.init_params(SMALL, 1))
    stream = ClientStream(0, [corpus[:2]])
    update = client_update(weights, stream, FedConfig(client_lr=0.0), SMALL, 1)
    assert np.array_equal(update.delta, np.zeros_like(weights))
    assert update.num_utterances == 2


def test_client_update_zero_weights_fixed_point(corpus):
    # all-zero weights give zero latents through the ReLU kink, constant
    # ln(N) loss, and an exactly zero gradient: delta_k = 0 bitwise
    weights = np.zeros(m.param_count(SMALL))
    stream = ClientStream(0, [corpus[:2]])
    update = client_update(weights, stream, FedConfig(client_lr=1.0), SMALL, 1)
    assert np.array_equal(update.delta, np.zeros_like(weights))
    assert update.mean_loss == pytest.approx(np.log(SMALL.num_candidates))


def test_client_update_matches_reference_step(corpus):
    weights = m.flatten(m.init_params(SMALL, 2))
    batch = corpus[:3]
    stream = ClientStream(0, [batch])
    cfg = FedConfig(client_lr=1.0, seed=17)
    update = client_update(weights, stream, cfg, SMALL, 1)
    want = sgd_reference_step(weights, batch, 1.0, SMALL, seed=17)
    assert np.max(np.abs((weights - update.delta) - want)) < 1e-12
    assert np.array_equal(weights, m.flatten(m.init_params(SMALL, 2)))  # input untouched
    assert update.num_utterances == 3


def test_client_update_exhausted_stream_returns_none():
    weights = np.zeros(m.param_count(SMALL))
    stream = ClientStream(0, [])
    assert client_update(weights, stream, FedConfig(), SMALL, 1) is None


def test_client_update_skips_unusable_batch(corpus):
    weights = m.flatten(m.init_params(SMALL, 3))
    stream = ClientStream(0, [[short_record()], [corpus[0]]])
    update = client_update(weights, stream, FedConfig(), SMALL, 1)
    assert update is not None
    assert update.num_utterances == 1
    assert stream.exhausted


def test_client_update_all_unusable_returns_none():
    weights = m.flatten(m.init_params(SMALL, 3))
    stream = ClientStream(0, [[short_record("a")], [short_record("b")]])
    assert client_update(weights, stream, FedConfig(), SMALL, 1) is None
    assert stream.exhausted


def test_client_update_long_unusable_stream_returns_none():
    # a stream of 1,200 batches too short to fill one frame: the retries
    # must not nest (a recursive retry overflowed the stack near 1,000)
    weights = m.flatten(m.init_params(SMALL, 3))
    stream = ClientStream(0, [[short_record(f"s{i}", samples=560)] for i in range(1200)])
    assert client_update(weights, stream, FedConfig(), SMALL, 1) is None
    assert stream.exhausted


def test_client_update_delta_sums_local_steps(corpus):
    # two local steps on one batch: delta is client_lr times the sum of the
    # gradients at w and at w - client_lr * g(w)
    weights = m.flatten(m.init_params(SMALL, 4))
    batch = corpus[:2]
    cfg = FedConfig(client_lr=0.5, local_steps=2, seed=5)
    update = client_update(weights, ClientStream(0, [batch]), cfg, SMALL, 1)
    w1 = sgd_reference_step(weights, batch, 0.5, SMALL, seed=5)
    w2 = sgd_reference_step(w1, batch, 0.5, SMALL, seed=5)
    assert np.max(np.abs((weights - update.delta) - w2)) < 1e-12
    assert update.num_utterances == 2


# ------------------------------------------------------------- aggregation

def test_aggregate_identical_inputs_identity():
    v = np.array([1.0, -2.0, 3.0])
    updates = [ClientUpdate(v.copy(), n, i, 1, 0.0) for i, n in enumerate([1, 5, 2])]
    assert np.array_equal(aggregate(updates), v)


def test_aggregate_weighted_mean_scalar():
    updates = [ClientUpdate(np.array([0.0]), 1, 0, 1, 0.0),
               ClientUpdate(np.array([4.0]), 3, 1, 1, 0.0)]
    assert aggregate(updates)[0] == 3.0


def test_aggregate_matches_highprec_oracle():
    rng = np.random.default_rng(6)
    updates = [ClientUpdate(rng.standard_normal(50), int(n), i, 1, 0.0)
               for i, n in enumerate(rng.integers(1, 9, size=5))]
    got = aggregate(updates)
    total = sum(u.num_utterances for u in updates)
    want = sum((np.longdouble(u.num_utterances) / total) * u.delta.astype(np.longdouble)
               for u in updates)
    assert np.max(np.abs(got - want.astype(np.float64))) < 1e-12


def test_aggregate_order_invariant_bitwise():
    rng = np.random.default_rng(7)
    updates = [ClientUpdate(rng.standard_normal(20), int(n), i, 1, 0.0)
               for i, n in enumerate(rng.integers(1, 9, size=4))]
    a = aggregate(updates)
    b = aggregate(list(reversed(updates)))
    assert np.array_equal(a, b)


def test_aggregate_validation():
    with pytest.raises(ConfigError):
        aggregate([])
    updates = [ClientUpdate(np.zeros(3), 1, 0, 1, 0.0),
               ClientUpdate(np.zeros(4), 1, 1, 1, 0.0)]
    with pytest.raises(ConfigError):
        aggregate(updates)


# ------------------------------------------------------------- server step

def test_server_step_zero_pseudo_gradient_is_noop():
    w = np.array([1.0, 2.0])
    state = ServerState.fresh(w)
    server_step(state, np.zeros(2), FedConfig(server_opt="adam", server_lr=0.1))
    assert np.array_equal(state.weights, w)
    assert state.round_index == 1


def test_server_step_plain_adopts_average_bitwise():
    state = ServerState.fresh(np.array([1.0, 2.0]))
    server_step(state, np.array([0.5, -0.5]), FedConfig(server_opt="plain"))
    assert np.array_equal(state.weights, np.array([0.5, 2.5]))


def test_server_step_rejects_non_finite():
    state = ServerState.fresh(np.zeros(2))
    with pytest.raises(NonFiniteUpdateError):
        server_step(state, np.array([np.nan, 0.0]), FedConfig())
    assert state.round_index == 0


def test_server_step_shape_mismatch():
    state = ServerState.fresh(np.zeros(2))
    with pytest.raises(ConfigError):
        server_step(state, np.zeros(3), FedConfig())


def test_server_adam_matches_reference_three_rounds():
    rng = np.random.default_rng(8)
    w0 = rng.standard_normal(12)
    gs = [rng.standard_normal(12) for _ in range(3)]
    cfg = FedConfig(server_opt="adam", server_lr=1e-3)
    state = ServerState.fresh(w0)
    for g in gs:
        server_step(state, g, cfg)

    # independent textbook Adam
    w = w0.copy()
    mm = np.zeros(12)
    vv = np.zeros(12)
    for t, g in enumerate(gs, start=1):
        mm = 0.9 * mm + 0.1 * g
        vv = 0.999 * vv + 0.001 * g * g
        m_hat = mm / (1 - 0.9 ** t)
        v_hat = vv / (1 - 0.999 ** t)
        w = w - 1e-3 * m_hat / (np.sqrt(v_hat) + 1e-8)
    assert np.max(np.abs(state.weights - w)) < 1e-12


def test_adam_step_standalone_oracle():
    state = AdamState.zeros(3)
    w = np.array([1.0, -1.0, 0.5])
    g = np.array([0.1, -0.2, 0.0])
    got = adam_step(state, w, g, AdamConfig(lr=0.01))
    m_hat = (0.1 * g) / (1 - 0.9)
    v_hat = (0.001 * g * g) / (1 - 0.999)
    want = w - 0.01 * m_hat / (np.sqrt(v_hat) + 1e-8)
    assert np.max(np.abs(got - want)) < 1e-15
    assert state.t == 1


# --------------------------------------------------- one-round equivalence

def test_one_round_fedsgd_equals_central_sgd(corpus):
    # keystone identity: plain averaging of per-client SGD steps at unit
    # weights equals one SGD step on the sample-weighted union loss
    fed = FedConfig(num_clients=4, clients_per_round=4, client_batch_size=2,
                    local_steps=1, batches_per_step=1, rounds_max=1,
                    client_lr=0.1, server_opt="plain", seed=13)
    streams = build_streams(corpus, fed)
    state = ServerState.fresh(m.flatten(m.init_params(SMALL, fed.seed)))
    w0 = state.weights.copy()
    chosen = select_clients([s.client_index for s in streams if not s.exhausted],
                            fed.clients_per_round, substream(fed.seed, 3, 1))
    union = []
    updates = []
    for idx in chosen:
        stream = streams[idx]
        union.extend(stream.batches[stream.cursor])
        updates.append(client_update(state.weights, stream, fed, SMALL, 1))
    server_step(state, aggregate(updates), fed)
    want = sgd_reference_step(w0, union, fed.client_lr, SMALL, fed.seed)
    assert np.max(np.abs(state.weights - want)) < 1e-9


# ---------------------------------------------------------------- full runs

def test_run_federated_counts_single_pass(corpus):
    fed = FedConfig(num_clients=5, clients_per_round=5, client_batch_size=8,
                    rounds_max=50, server_opt="plain", client_lr=0.0, seed=3)
    result = run_federated(corpus, fed, SMALL)
    assert sum(r.utterances for r in result.metrics) == len(corpus)
    assert len(result.metrics) == 1  # 5 silos x 1 batch of 8, one shot
    assert result.metrics[0].clients == 5


def test_run_federated_stops_when_drained(corpus):
    fed = FedConfig(num_clients=5, clients_per_round=2, client_batch_size=4,
                    rounds_max=100, server_opt="plain", client_lr=0.0, seed=3)
    result = run_federated(corpus, fed, SMALL)
    assert sum(r.utterances for r in result.metrics) == len(corpus)
    assert len(result.metrics) < 100
    rounds = [r.round for r in result.metrics]
    assert rounds == sorted(rounds) and len(set(rounds)) == len(rounds)


def test_run_federated_deterministic_checkpoints(corpus, tmp_path):
    fed = FedConfig(num_clients=3, clients_per_round=2, client_batch_size=4,
                    rounds_max=3, server_opt="adam", server_lr=1e-3, seed=9)
    a = tmp_path / "a"
    b = tmp_path / "b"
    a.mkdir()
    b.mkdir()
    ra = run_federated(corpus, fed, SMALL, out_dir=a)
    rb = run_federated(corpus, fed, SMALL, out_dir=b)
    assert np.array_equal(ra.weights, rb.weights)
    assert [p.split("/")[-1] for p in ra.checkpoints] == [p.split("/")[-1] for p in rb.checkpoints]
    for pa, pb in zip(ra.checkpoints, rb.checkpoints):
        from fedcpc.checkpoint import file_sha256
        assert file_sha256(pa) == file_sha256(pb)
    assert render_metrics(ra.metrics) == render_metrics(rb.metrics) or any(
        ma.wall_ms != mb.wall_ms for ma, mb in zip(ra.metrics, rb.metrics))


def test_run_federated_parallel_equals_serial(corpus):
    fed = FedConfig(num_clients=4, clients_per_round=4, client_batch_size=4,
                    rounds_max=2, server_opt="adam", server_lr=1e-3, seed=10)
    serial = run_federated(corpus, fed, SMALL, workers=1)
    parallel = run_federated(corpus, fed, SMALL, workers=4)
    assert np.array_equal(serial.weights, parallel.weights)
    assert [r.mean_client_loss for r in serial.metrics] == \
           [r.mean_client_loss for r in parallel.metrics]


def test_deterministic_mode_zeroes_wall_ms(corpus, monkeypatch):
    monkeypatch.setenv("FEDCPC_DETERMINISTIC", "1")
    fed = FedConfig(num_clients=3, clients_per_round=2, client_batch_size=4,
                    rounds_max=2, server_opt="plain", client_lr=0.0, seed=4)
    result = run_federated(corpus, fed, SMALL, workers=8)
    assert all(r.wall_ms == 0 for r in result.metrics)


# ----------------------------------------------------------------- metrics

def test_metrics_render_roundtrip():
    rows = [MetricsRow(1, 4, 16, 2.0794415416798357, 0.012345678901234567, 840)]
    text = render_metrics(rows, header_comments=["cfg seed=42"])
    lines = text.strip().splitlines()
    assert lines[0] == "# cfg seed=42"
    assert lines[1].startswith("# round\t")
    fields = lines[2].split("\t")
    assert float(fields[3]) == rows[0].mean_client_loss
    assert float(fields[4]) == rows[0].grad_norm
    assert int(fields[5]) == 840
