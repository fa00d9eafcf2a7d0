"""Acceptance suite: seven end-to-end criteria, one test each.

Every test prints exactly one summary line, "ACCEPTANCE <n> <name>: PASS/FAIL
(<measured values>)", computed before the assertions so the line appears even
when a criterion fails (run with -s to see the lines for passing tests).

Thresholds follow the pinned-measurement protocol: the pipeline was run once
with the canonical seed (42), the numbers recorded, and the assertions placed
with margin. Pinned measurements on this corpus: federated loss ratio 0.167
(threshold 0.8), probe gap +82 points over random init (threshold 10),
federated-vs-central probe gap 0.2 points (threshold 5).
"""

import time
from types import SimpleNamespace

import numpy as np
import pytest

from fedcpc import cli
from fedcpc import config as cfg_mod
from fedcpc import model as m
from fedcpc.autodiff import Tensor
from fedcpc.central import run_central, sgd_reference_step
from fedcpc.checkpoint import file_sha256
from fedcpc.federated import (FedConfig, ServerState, aggregate, build_streams,
                              client_update, run_federated, select_clients,
                              server_step)
from fedcpc.frontend import synth_corpus
from fedcpc.gradcheck import REL_TOL, run_gradcheck
from fedcpc.probe import build_task, evaluate_weights, render_probe_report
from fedcpc.rng import TAG_ASSIGN, TAG_SELECT, substream
from fedcpc.silo import assign_to_clients, partition_by_speaker


def verdict(number: int, name: str, ok: bool, detail: str) -> str:
    line = f"ACCEPTANCE {number} {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    return line


# --------------------------------------------------------------- criterion 1

def test_criterion_1_gradient_fidelity():
    started = time.monotonic()
    reports = run_gradcheck(m.CpcConfig(), seed=42)
    elapsed = time.monotonic() - started
    worst = max(r.max_rel_err for r in reports)
    groups = len(reports)
    ok = all(r.passed for r in reports) and elapsed < 120.0
    line = verdict(1, "gradient-fidelity", ok,
                   f"{groups} groups, worst rel err {worst:.2e}, tol {REL_TOL}, "
                   f"{elapsed:.1f}s of 120s")
    assert all(r.passed for r in reports), line
    assert elapsed < 120.0, line


# --------------------------------------------------------------- criterion 2

def infonce_oracle(z, c, params, config, rng):
    """Verbatim restatement of the objective with plain numpy loops."""
    steps = z.shape[0]
    total = 0.0
    for k in range(1, config.future_steps + 1):
        w, b = params.heads[k - 1]
        acc = 0.0
        for t in range(steps - k):
            pred_t = c[t] @ w.data + b.data
            cands = [t + k] + list(m.sample_negatives(t, k, steps,
                                                      config.num_negatives, rng))
            scores = np.array([z[j] @ pred_t for j in cands]) / config.temperature
            mx = scores.max()
            acc += scores[0] - (mx + np.log(np.sum(np.exp(scores - mx))))
        total += -acc / (steps - k)
    return total / config.future_steps


def test_criterion_2_infonce_oracle():
    # 6 frames, 2 horizons, 4-way candidate sets
    config = m.CpcConfig(input_dim=16, enc_layers=1, enc_units=8, ctx_layers=1,
                         ctx_units=6, future_steps=2, temperature=1.0,
                         num_negatives=3)
    params = m.init_params(config, 42)
    feats = substream(42, 99).standard_normal((6, config.input_dim))
    z = m.encode(Tensor(feats), params)
    c = m.contextualize(z, params)
    got = m.infonce_loss(z, c, params, config, np.random.default_rng(7)).item()
    want = infonce_oracle(z.data, c.data, params, config, np.random.default_rng(7))
    diff = abs(got - want)

    uniform_z = Tensor(np.tile(np.linspace(0.2, 0.8, config.enc_units), (6, 1)))
    uniform = m.infonce_loss(uniform_z, c, params, config,
                             np.random.default_rng(8)).item()
    exact = uniform == np.log(config.num_candidates)

    ok = diff < 1e-10 and exact
    line = verdict(2, "infonce-oracle", ok,
                   f"oracle diff {diff:.2e} of 1e-10, uniform loss "
                   f"{'==' if exact else '!='} ln 4")
    assert diff < 1e-10, line
    assert exact, line


# --------------------------------------------------------------- criterion 3

def test_criterion_3_fedsgd_equals_central_sgd():
    started = time.monotonic()
    cpc = m.CpcConfig()
    records = synth_corpus(4, 1, 2, seed=42)
    fed = FedConfig(num_clients=4, clients_per_round=4, client_batch_size=2,
                    local_steps=1, batches_per_step=1, rounds_max=1,
                    client_lr=0.1, server_opt="plain", seed=42)
    streams = build_streams(records, fed)
    state = ServerState.fresh(m.flatten(m.init_params(cpc, fed.seed)))
    w0 = state.weights.copy()
    chosen = select_clients([s.client_index for s in streams if not s.exhausted],
                            fed.clients_per_round, substream(fed.seed, TAG_SELECT, 1))
    union, updates = [], []
    for idx in chosen:
        stream = streams[idx]
        union.extend(stream.batches[stream.cursor])
        updates.append(client_update(state.weights, stream, fed, cpc, 1))
    server_step(state, aggregate(updates), fed)
    want = sgd_reference_step(w0, union, fed.client_lr, cpc, fed.seed)
    diff = float(np.max(np.abs(state.weights - want)))
    elapsed = time.monotonic() - started
    ok = diff < 1e-9 and elapsed < 60.0
    line = verdict(3, "fedsgd-equals-sgd", ok,
                   f"one round of 4 clients, max weight diff {diff:.2e} of 1e-9, "
                   f"{elapsed:.1f}s of 60s")
    assert diff < 1e-9, line
    assert elapsed < 60.0, line


# --------------------------------------------------------------- criterion 4

def test_criterion_4_partition_invariants():
    started = time.monotonic()
    records = synth_corpus(100, 3, 2, seed=42)
    silos = partition_by_speaker(records)

    def layout(seed):
        streams = assign_to_clients(silos, 10, 4, substream(seed, TAG_ASSIGN))
        return [[tuple(r.utterance_id for r in b) for b in st.batches]
                for st in streams]

    streams = assign_to_clients(silos, 10, 4, substream(42, TAG_ASSIGN))
    pure = all(len({r.speaker_id for r in batch}) == 1
               for st in streams for batch in st.batches)
    emitted = sorted(r.utterance_id for st in streams for b in st.batches for r in b)
    coverage = emitted == sorted(r.utterance_id for r in records)
    monotone = True
    for st in streams:
        last_chapter: dict[str, str] = {}
        for batch in st.batches:
            speaker = batch[0].speaker_id
            for r in batch:
                if speaker in last_chapter and r.chapter_id < last_chapter[speaker]:
                    monotone = False
                last_chapter[speaker] = r.chapter_id
    replay = layout(42) == layout(42)
    elapsed = time.monotonic() - started
    ok = pure and coverage and monotone and replay and elapsed < 30.0
    line = verdict(4, "partition-invariants", ok,
                   f"100 speakers, {len(records)} utterances, purity={pure}, "
                   f"coverage={coverage}, chapter-monotone={monotone}, "
                   f"replay={replay}, {elapsed:.1f}s of 30s")
    assert ok, line


# ----------------------------------------------- shared pipeline for 5, 6, 7

@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """The pinned desk-scale experiment, straight from the shipped defaults:
    10-speaker corpus, 200 federated rounds, 200 central steps, and linear
    probes of the random-init, federated, and central encoders."""
    cfg = cfg_mod.desk_preset()
    cpc = cfg_mod.cpc_config(cfg)
    timings = {}

    records = synth_corpus(cfg["corpus.speakers"], cfg["corpus.chapters"],
                           cfg["corpus.utterances"], cfg["seed"],
                           style=cfg["corpus.style"])
    task = build_task(records, cfg["probe.eval_fraction"])
    probe = cfg_mod.probe_config(cfg)

    t0 = time.monotonic()
    fed_result = run_federated(records, cfg_mod.fed_config(cfg), cpc)
    timings["federated"] = time.monotonic() - t0

    t0 = time.monotonic()
    central_result = run_central(records, cfg_mod.central_config(cfg), cpc)
    timings["central"] = time.monotonic() - t0

    weights = {
        "random-init": m.flatten(m.init_params(cpc, cfg["seed"])),
        "federated": fed_result.weights,
        "central": central_result.weights,
    }
    probes = {}
    for arm, w in weights.items():
        t0 = time.monotonic()
        probes[arm] = evaluate_weights(arm, "final", w, cpc, task, probe)
        timings[f"probe-{arm}"] = time.monotonic() - t0

    gap = abs(probes["federated"].accuracy - probes["central"].accuracy)
    summary_dir = tmp_path_factory.mktemp("probe-summary")
    summary_path = summary_dir / "probe_summary.tsv"
    summary = render_probe_report(
        [probes["random-init"], probes["federated"], probes["central"]],
        header_comments=[f"gap federated-vs-central {100 * gap:.2f} points"])
    summary_path.write_text(summary, encoding="utf-8")

    return SimpleNamespace(fed=fed_result, central=central_result,
                           probes=probes, timings=timings,
                           summary_path=summary_path)


# --------------------------------------------------------------- criterion 5

def test_criterion_5_end_to_end_learning(pipeline):
    losses = [r.mean_client_loss for r in pipeline.fed.metrics]
    ratio = losses[-1] / losses[0]
    acc_fed = pipeline.probes["federated"].accuracy
    acc_rand = pipeline.probes["random-init"].accuracy
    gain = 100 * (acc_fed - acc_rand)
    spent = (pipeline.timings["federated"] + pipeline.timings["probe-federated"]
             + pipeline.timings["probe-random-init"])
    ok = ratio <= 0.8 and gain >= 10.0 and spent < 900.0
    line = verdict(5, "end-to-end-learning", ok,
                   f"{len(losses)} rounds, loss {losses[0]:.4f} -> {losses[-1]:.4f} "
                   f"(ratio {ratio:.3f} of 0.8), probe {100 * acc_rand:.1f}% -> "
                   f"{100 * acc_fed:.1f}% (+{gain:.1f} of 10 points), "
                   f"{spent:.0f}s of 900s")
    assert ratio <= 0.8, line
    assert gain >= 10.0, line
    assert spent < 900.0, line


# --------------------------------------------------------------- criterion 6

def test_criterion_6_federated_central_parity(pipeline):
    acc_fed = pipeline.probes["federated"].accuracy
    acc_central = pipeline.probes["central"].accuracy
    gap = 100 * abs(acc_fed - acc_central)
    summary = pipeline.summary_path.read_text(encoding="utf-8")
    reported = "gap federated-vs-central" in summary
    ok = gap <= 5.0 and reported
    line = verdict(6, "federated-central-parity", ok,
                   f"federated {100 * acc_fed:.1f}% vs central "
                   f"{100 * acc_central:.1f}%, gap {gap:.1f} of 5 points, "
                   f"reported in summary: {reported}")
    assert gap <= 5.0, line
    assert reported, line


# --------------------------------------------------------------- criterion 7

PIPELINE_CFG = """\
seed=42
corpus.speakers=3
corpus.chapters=2
corpus.utterances=6
fed.num_clients=3
fed.clients_per_round=3
fed.client_batch_size=4
fed.rounds_max=10
probe.epochs=50
"""


def test_criterion_7_pipeline_determinism(tmp_path, monkeypatch):
    monkeypatch.setenv("FEDCPC_DETERMINISTIC", "1")
    serialized = tmp_path / "experiment.cfg"
    serialized.write_text(PIPELINE_CFG)

    def full_pipeline(root):
        root.mkdir()
        corpus = root / "corpus"
        assert cli.main(["synth", "--config", str(serialized),
                         "--out", str(corpus)]) == 0
        manifest = str(corpus / "manifest.tsv")
        assert cli.main(["silo", "--manifest", manifest,
                         "--out", str(root / "silos.tsv")]) == 0
        assert cli.main(["pretrain", "--config", str(serialized),
                         "--manifest", manifest, "--out", str(root / "train")]) == 0
        assert cli.main(["probe", "--config", str(serialized),
                         "--checkpoint", str(root / "train" / "final.ckpt"),
                         "--manifest", manifest,
                         "--out", str(root / "probe.tsv")]) == 0
        hashes = {p.name: file_sha256(p) for p in sorted((root / "train").glob("*.ckpt"))}
        return SimpleNamespace(
            manifest=(corpus / "manifest.tsv").read_bytes(),
            silos=(root / "silos.tsv").read_bytes(),
            metrics=(root / "train" / "metrics.tsv").read_bytes(),
            probe=(root / "probe.tsv").read_bytes(),
            hashes=hashes,
        )

    a = full_pipeline(tmp_path / "run_a")
    b = full_pipeline(tmp_path / "run_b")
    same_hashes = a.hashes == b.hashes and len(a.hashes) >= 2
    same_logs = a.metrics == b.metrics and a.probe == b.probe
    same_inputs = a.manifest == b.manifest and a.silos == b.silos
    ok = same_hashes and same_logs and same_inputs
    line = verdict(7, "pipeline-determinism", ok,
                   f"{len(a.hashes)} checkpoints hash-identical: {same_hashes}, "
                   f"metric+probe logs identical: {same_logs}, "
                   f"manifest+silo reports identical: {same_inputs}")
    assert ok, line
