"""Tests for the centralized baseline and the SGD reference step."""

import numpy as np
import pytest

from fedcpc import model as m
from fedcpc.autodiff import gradient
from fedcpc.central import CentralConfig, run_central, sgd_reference_step
from fedcpc.checkpoint import file_sha256
from fedcpc.errors import ConfigError
from fedcpc.federated import batch_mean_loss
from fedcpc.frontend import synth_corpus
from fedcpc.optim import AdamConfig, AdamState, adam_step
from fedcpc.rng import TAG_SHUFFLE, substream

SMALL = m.CpcConfig(enc_units=16, ctx_units=16, future_steps=2, num_negatives=3)


@pytest.fixture(scope="module")
def corpus():
    return synth_corpus(3, 1, 4, seed=31)


def test_central_config_validation():
    with pytest.raises(ConfigError):
        CentralConfig(epochs=0)
    with pytest.raises(ConfigError):
        CentralConfig(batch_size=0)
    with pytest.raises(ConfigError):
        CentralConfig(max_steps=0)


def test_empty_corpus_rejected():
    with pytest.raises(ConfigError):
        run_central([], CentralConfig(), SMALL)


def test_one_step_when_batch_covers_corpus(corpus):
    cfg = CentralConfig(epochs=1, batch_size=len(corpus), lr=1e-3, seed=2)
    result = run_central(corpus, cfg, SMALL)
    assert len(result.metrics) == 1
    assert result.metrics[0].utterances == len(corpus)
    assert result.metrics[0].clients == 1


def test_steps_counted_and_capped(corpus):
    cfg = CentralConfig(epochs=2, batch_size=5, lr=1e-3, seed=2)
    result = run_central(corpus, cfg, SMALL)
    # 12 utterances -> ceil(12/5) = 3 steps per epoch, 2 epochs
    assert [r.round for r in result.metrics] == list(range(1, 7))
    capped = run_central(corpus, CentralConfig(epochs=2, batch_size=5, lr=1e-3,
                                               max_steps=4, seed=2), SMALL)
    assert [r.round for r in capped.metrics] == [1, 2, 3, 4]


def test_first_step_is_adam_on_the_batch_gradient_bitwise(corpus):
    # the one-client round loop must not perturb the central step: its
    # first step equals adam_step on the first shuffled batch's gradient,
    # and its row reports that batch's loss, both bit for bit
    cfg = CentralConfig(epochs=1, batch_size=5, lr=1e-3, max_steps=1, seed=2)
    result = run_central(corpus, cfg, SMALL)
    w0 = m.flatten(m.init_params(SMALL, cfg.seed))
    perm = substream(cfg.seed, TAG_SHUFFLE, 0).permutation(len(corpus))
    batch = [corpus[i] for i in perm[:cfg.batch_size]]
    loss, params, usable = batch_mean_loss(w0, batch, SMALL, cfg.seed)
    g = np.concatenate([t.ravel() for t in gradient(loss, params.tensors())])
    want = adam_step(AdamState.zeros(w0.size), w0, g, AdamConfig(lr=cfg.lr))
    assert np.array_equal(result.weights, want)
    row = result.metrics[0]
    assert (row.utterances, row.mean_client_loss) == (len(usable), loss.item())
    assert row.grad_norm == float(np.linalg.norm(g))


def test_same_seed_identical_checkpoints(corpus, tmp_path):
    cfg = CentralConfig(epochs=1, batch_size=4, lr=1e-3, seed=6)
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    ra = run_central(corpus, cfg, SMALL, out_dir=a)
    rb = run_central(corpus, cfg, SMALL, out_dir=b)
    assert np.array_equal(ra.weights, rb.weights)
    assert file_sha256(a / "final.ckpt") == file_sha256(b / "final.ckpt")


def test_different_seed_different_weights(corpus):
    ra = run_central(corpus, CentralConfig(epochs=1, batch_size=4, lr=1e-3, seed=6), SMALL)
    rb = run_central(corpus, CentralConfig(epochs=1, batch_size=4, lr=1e-3, seed=7), SMALL)
    assert not np.array_equal(ra.weights, rb.weights)


def test_shuffle_mixes_speakers(corpus):
    # the per-epoch permutation with this seed must put two speakers into at
    # least one batch: verified on the actual batch layout
    seed, batch_size = 6, 4
    perm = substream(seed, TAG_SHUFFLE, 0).permutation(len(corpus))
    mixed = False
    for start in range(0, len(corpus), batch_size):
        speakers = {corpus[i].speaker_id for i in perm[start:start + batch_size]}
        mixed = mixed or len(speakers) > 1
    assert mixed


def test_loss_decreases_on_small_run(corpus):
    cfg = CentralConfig(epochs=4, batch_size=6, lr=3e-3, seed=8)
    result = run_central(corpus, cfg, SMALL)
    losses = [r.mean_client_loss for r in result.metrics]
    assert losses[-1] < losses[0]


# ------------------------------------------------------------ reference step

def test_reference_step_zero_lr(corpus):
    w = m.flatten(m.init_params(SMALL, 1))
    out = sgd_reference_step(w, corpus[:2], 0.0, SMALL, seed=3)
    assert np.array_equal(out, w)


def test_reference_step_constant_loss_fixed_point(corpus):
    w = np.zeros(m.param_count(SMALL))
    out = sgd_reference_step(w, corpus[:2], 0.5, SMALL, seed=3)
    assert np.array_equal(out, w)


def test_reference_step_rejects_empty():
    w = np.zeros(m.param_count(SMALL))
    with pytest.raises(ConfigError):
        sgd_reference_step(w, [], 0.1, SMALL, seed=3)


def test_reference_step_moves_weights(corpus):
    w = m.flatten(m.init_params(SMALL, 1))
    out = sgd_reference_step(w, corpus[:2], 0.1, SMALL, seed=3)
    assert not np.array_equal(out, w)
    assert np.all(np.isfinite(out))
