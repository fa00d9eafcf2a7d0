"""Tests for the linear probe: task splits, context extraction, and the
logistic-regression trainer."""

import numpy as np
import pytest

from fedcpc import model as m
from fedcpc import probe as pr
from fedcpc.errors import ConfigError
from fedcpc.frontend import features_for_record, synth_corpus

SMALL = m.CpcConfig(enc_units=16, ctx_units=16, future_steps=2, num_negatives=3)


@pytest.fixture(scope="module")
def corpus():
    return synth_corpus(3, 1, 5, seed=51)


def test_probe_config_validation():
    with pytest.raises(ConfigError):
        pr.ProbeConfig(epochs=0)
    with pytest.raises(ConfigError):
        pr.ProbeConfig(lr=0.0)
    with pytest.raises(ConfigError):
        pr.ProbeConfig(eval_fraction=0.0)
    with pytest.raises(ConfigError):
        pr.ProbeConfig(eval_fraction=1.0)


# -------------------------------------------------------------------- task

def test_build_task_split_disjoint_and_balanced(corpus):
    task = pr.build_task(corpus, eval_fraction=0.2)
    train_ids = {r.utterance_id for r in task.train_records}
    eval_ids = {r.utterance_id for r in task.eval_records}
    assert not train_ids & eval_ids
    assert len(train_ids | eval_ids) == len(corpus)
    # stride 5 split: 5 utterances per speaker -> 4 train, 1 eval each
    assert len(task.eval_records) == 3
    per_class = {c: 0 for c in task.classes}
    for r in task.eval_records:
        per_class[r.speaker_id] += 1
    assert set(per_class.values()) == {1}


def test_build_task_label_mapping(corpus):
    task = pr.build_task(corpus, 0.2)
    assert task.classes == sorted(task.classes)
    for r in task.eval_records:
        assert task.classes[task.label(r)] == r.speaker_id


def test_build_task_needs_two_speakers(corpus):
    solo = [r for r in corpus if r.speaker_id == "spk000"]
    with pytest.raises(ConfigError):
        pr.build_task(solo, 0.2)


def test_build_task_needs_enough_utterances(corpus):
    # stride 5 needs at least 5 utterances per speaker
    thin = [r for r in corpus if not r.utterance_id.endswith("4")]
    with pytest.raises(ConfigError):
        pr.build_task(thin, 0.2)


def test_build_task_half_split(corpus):
    task = pr.build_task(corpus, eval_fraction=0.5)
    assert len(task.eval_records) == 6  # stride 2 on 5 utterances -> 2 eval
    assert len(task.train_records) == 9


# ---------------------------------------------------------------- contexts

def test_extract_contexts_deterministic(corpus):
    w = m.flatten(m.init_params(SMALL, 5))
    a = pr.extract_contexts(w, SMALL, corpus[:3])
    b = pr.extract_contexts(w, SMALL, corpus[:3])
    assert np.array_equal(a, b)
    assert a.shape == (3, SMALL.ctx_units)


def test_extract_contexts_zero_weights_zero_output(corpus):
    w = np.zeros(m.param_count(SMALL))
    contexts = pr.extract_contexts(w, SMALL, corpus[:2])
    assert np.array_equal(contexts, np.zeros((2, SMALL.ctx_units)))


def test_extract_contexts_matches_composition_oracle(corpus):
    w = m.flatten(m.init_params(SMALL, 6))
    got = pr.extract_contexts(w, SMALL, corpus[:2])
    params = m.unflatten(SMALL, w, requires_grad=False)
    for i, record in enumerate(corpus[:2]):
        feats = features_for_record(record)
        c = m.contextualize(m.encode(feats, params), params).data.mean(axis=0)
        assert np.array_equal(got[i], c)


def test_extract_contexts_config_mismatch(corpus):
    with pytest.raises(ConfigError):
        pr.extract_contexts(np.zeros(10), SMALL, corpus[:1])


# ------------------------------------------------------------------- probe

def test_train_probe_separable_toy():
    rng = np.random.default_rng(0)
    x0 = rng.normal(loc=-2.0, size=(40, 5))
    x1 = rng.normal(loc=+2.0, size=(40, 5))
    x_train = np.vstack([x0, x1])
    y_train = np.array([0] * 40 + [1] * 40)
    x_eval = np.vstack([rng.normal(-2.0, size=(10, 5)), rng.normal(2.0, size=(10, 5))])
    y_eval = np.array([0] * 10 + [1] * 10)
    _, acc = pr.train_probe(x_train, y_train, x_eval, y_eval,
                            num_classes=2, epochs=200, lr=0.1, seed=1)
    assert acc == 1.0


def test_train_probe_shuffled_labels_chance_level():
    # labels carry no information, so eval accuracy stays within binomial
    # 3 sigma of 1/num_classes
    rng = np.random.default_rng(2)
    classes = 4
    x_train = rng.standard_normal((400, 8))
    y_train = rng.integers(0, classes, size=400)
    x_eval = rng.standard_normal((200, 8))
    y_eval = rng.integers(0, classes, size=200)
    _, acc = pr.train_probe(x_train, y_train, x_eval, y_eval,
                            num_classes=classes, epochs=300, lr=0.05, seed=3)
    p = 1.0 / classes
    sigma = np.sqrt(p * (1 - p) / 200)
    assert abs(acc - p) <= 3 * sigma


def test_train_probe_single_class_rejected():
    x = np.zeros((10, 3))
    y = np.zeros(10, dtype=int)
    with pytest.raises(ConfigError):
        pr.train_probe(x, y, x, y, num_classes=2, epochs=10, lr=0.1, seed=0)
    with pytest.raises(ConfigError):
        pr.train_probe(x, y, x, y, num_classes=1, epochs=10, lr=0.1, seed=0)


def test_train_probe_deterministic():
    rng = np.random.default_rng(4)
    x_train = rng.standard_normal((60, 6))
    y_train = rng.integers(0, 3, size=60)
    x_eval = rng.standard_normal((30, 6))
    y_eval = rng.integers(0, 3, size=30)

    def run(seed):
        return pr.train_probe(x_train, y_train, x_eval, y_eval,
                              num_classes=3, epochs=50, lr=0.05, seed=seed)

    wa, acc_a = run(5)
    wb, acc_b = run(5)
    assert np.array_equal(wa, wb) and acc_a == acc_b


# ------------------------------------------------------------------ report

def test_probe_report_format():
    results = [pr.ProbeResult("federated", "final.ckpt", 0.9734375, 640)]
    text = pr.render_probe_report(results, header_comments=["cfg seed=42"])
    lines = text.strip().splitlines()
    assert lines[0] == "# cfg seed=42"
    assert lines[1] == "# " + pr.PROBE_HEADER
    arm, ckpt, acc, n = lines[2].split("\t")
    assert (arm, ckpt) == ("federated", "final.ckpt")
    assert float(acc) == 0.9734375
    assert int(n) == 640


def test_evaluate_weights_end_to_end(corpus):
    task = pr.build_task(corpus, 0.2)
    w = m.flatten(m.init_params(SMALL, 7))
    cfg = pr.ProbeConfig(epochs=50, lr=0.05, seed=7)
    a = pr.evaluate_weights("random-init", "none", w, SMALL, task, cfg)
    b = pr.evaluate_weights("random-init", "none", w, SMALL, task, cfg)
    assert a.accuracy == b.accuracy
    assert a.n_eval == len(task.eval_records)
    assert 0.0 <= a.accuracy <= 1.0
