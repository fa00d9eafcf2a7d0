"""End-to-end CLI tests: every subcommand run in-process with a scaled-down
config, checking exit codes, artifacts, and rerun reproducibility."""

import warnings

import numpy as np
import pytest

from fedcpc import cli
from fedcpc.checkpoint import file_sha256, load_checkpoint
from fedcpc.frontend import save_pcm, synth_waveform
from fedcpc.silo import UtteranceRecord, load_manifest, write_manifest

TINY_CFG = """\
seed=42
corpus.speakers=3
corpus.chapters=1
corpus.utterances=4
cpc.enc_units=8
cpc.ctx_units=8
cpc.future_steps=2
cpc.num_negatives=3
fed.num_clients=3
fed.clients_per_round=3
fed.client_batch_size=4
fed.rounds_max=2
fed.server_opt=plain
central.batch_size=6
central.max_steps=2
probe.epochs=30
probe.eval_fraction=0.25
"""


@pytest.fixture()
def cfg_file(tmp_path):
    path = tmp_path / "tiny.cfg"
    path.write_text(TINY_CFG)
    return path


@pytest.fixture()
def corpus_dir(tmp_path, cfg_file):
    out = tmp_path / "corpus"
    assert cli.main(["synth", "--config", str(cfg_file), "--out", str(out)]) == 0
    return out


def manifest_of(corpus_dir):
    return str(corpus_dir / "manifest.tsv")


def assert_one_line_error(rc, err, *needles):
    assert rc == 1
    assert err.startswith("error:") and err.count("\n") == 1
    assert "Traceback" not in err
    for needle in needles:
        assert needle in err


# ------------------------------------------------------------------- synth

def test_synth_writes_manifest_and_config(corpus_dir, capsys):
    manifest = corpus_dir / "manifest.tsv"
    assert manifest.exists()
    assert (corpus_dir / "config.txt").exists()
    rows = [line for line in manifest.read_text().splitlines()
            if line and not line.startswith("#")]
    assert len(rows) == 3 * 1 * 4
    # config is embedded as comments
    assert any(line.startswith("# cfg seed=42") for line in
               manifest.read_text().splitlines())


def test_synth_same_seed_identical_bytes(tmp_path, cfg_file):
    a, b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["synth", "--config", str(cfg_file), "--out", str(a)]) == 0
    assert cli.main(["synth", "--config", str(cfg_file), "--out", str(b)]) == 0
    assert (a / "manifest.tsv").read_bytes() == (b / "manifest.tsv").read_bytes()


def test_synth_seed_override_changes_output(tmp_path, cfg_file):
    a, b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["synth", "--config", str(cfg_file), "--out", str(a)]) == 0
    assert cli.main(["synth", "--config", str(cfg_file), "--seed", "7",
                     "--out", str(b)]) == 0
    assert (a / "manifest.tsv").read_bytes() != (b / "manifest.tsv").read_bytes()


# -------------------------------------------------------------------- silo

def test_silo_report(corpus_dir, tmp_path, capsys):
    report = tmp_path / "report.tsv"
    rc = cli.main(["silo", "--manifest", manifest_of(corpus_dir), "--out", str(report)])
    captured = capsys.readouterr()
    assert rc == 0
    assert "3 speakers, 12 utterances" in captured.err
    lines = report.read_text().strip().splitlines()
    assert lines[-1] == "total\t12\t" + lines[-1].split("\t")[-1]
    assert sum(1 for line in lines if not line.startswith("#")) == 4  # 3 + total


def test_silo_malformed_manifest(tmp_path, capsys):
    bad = tmp_path / "bad.tsv"
    bad.write_text("ok\tspk\tch\tref\t1.0\nbroken line\n")
    rc = cli.main(["silo", "--manifest", str(bad)])
    captured = capsys.readouterr()
    assert rc == 1
    assert "error:" in captured.err
    assert "line 2" in captured.err


def test_silo_missing_manifest(tmp_path, capsys):
    rc = cli.main(["silo", "--manifest", str(tmp_path / "none.tsv")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------- pretrain

def test_pretrain_federated_artifacts(corpus_dir, tmp_path, cfg_file, capsys):
    out = tmp_path / "fed"
    rc = cli.main(["pretrain", "--config", str(cfg_file),
                   "--manifest", manifest_of(corpus_dir), "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 0
    assert (out / "metrics.tsv").exists()
    assert (out / "config.txt").exists()
    final = out / "final.ckpt"
    assert final.exists()
    assert captured.out.strip().endswith("final.ckpt")
    config, weights, meta = load_checkpoint(final)
    assert config.enc_units == 8
    assert meta["x.seed"] == "42"
    assert np.all(np.isfinite(weights))


def test_pretrain_central_mode(corpus_dir, tmp_path, cfg_file, capsys):
    out = tmp_path / "cen"
    rc = cli.main(["pretrain", "--config", str(cfg_file), "--mode", "central",
                   "--manifest", manifest_of(corpus_dir), "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 0
    assert "central" in captured.err
    rows = [line for line in (out / "metrics.tsv").read_text().splitlines()
            if line and not line.startswith("#")]
    assert len(rows) == 2  # max_steps
    assert all(line.split("\t")[1] == "1" for line in rows)  # clients column


def test_pretrain_rerun_identical(corpus_dir, tmp_path, cfg_file, monkeypatch):
    monkeypatch.setenv("FEDCPC_DETERMINISTIC", "1")
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        rc = cli.main(["pretrain", "--config", str(cfg_file),
                       "--manifest", manifest_of(corpus_dir), "--out", str(out)])
        assert rc == 0
    assert file_sha256(a / "final.ckpt") == file_sha256(b / "final.ckpt")
    assert (a / "metrics.tsv").read_bytes() == (b / "metrics.tsv").read_bytes()


def test_pretrain_diverging_run_is_a_one_line_error(tmp_path, capsys):
    # client_lr=1e200 under plain averaging blows the weights up within a
    # couple of rounds; the run must end with a diagnostic, not a traceback
    cfg = tmp_path / "diverge.cfg"
    cfg.write_text("corpus.speakers=3\ncorpus.chapters=1\ncorpus.utterances=12\n"
                   "cpc.enc_units=8\ncpc.ctx_units=8\nfed.num_clients=3\n"
                   "fed.clients_per_round=3\nfed.rounds_max=3\n"
                   "fed.client_lr=1e200\nfed.server_opt=plain\n")
    corpus = tmp_path / "corpus"
    assert cli.main(["synth", "--config", str(cfg), "--out", str(corpus)]) == 0
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy overflow warnings would add lines
        rc = cli.main(["pretrain", "--config", str(cfg), "--manifest",
                       str(corpus / "manifest.tsv"), "--out", str(tmp_path / "run")])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error:") and err.count("\n") == 1
    assert "Traceback" not in err
    assert "round " in err and "client " in err


@pytest.mark.parametrize("argv", [
    ["pretrain", "--workers", "0", "--manifest", "none.tsv"],
    ["synth", "--seed", "-5"],
], ids=["workers-0", "seed-negative"])
def test_flag_values_are_validated(tmp_path, capsys, argv):
    rc = cli.main(argv + ["--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error:") and err.count("\n") == 1
    assert argv[1].lstrip("-") in err


# ------------------------------------------------------------------- probe

def test_probe_random_init(corpus_dir, tmp_path, cfg_file, capsys):
    report = tmp_path / "probe.tsv"
    rc = cli.main(["probe", "--config", str(cfg_file), "--random-init",
                   "--manifest", manifest_of(corpus_dir), "--out", str(report)])
    captured = capsys.readouterr()
    assert rc == 0
    assert "accuracy" in captured.err
    rows = [line for line in report.read_text().splitlines()
            if line and not line.startswith("#")]
    arm, name, acc, n_eval = rows[0].split("\t")
    assert arm == "random-init"
    assert 0.0 <= float(acc) <= 1.0
    assert int(n_eval) == 3


def test_probe_checkpoint_arm(corpus_dir, tmp_path, cfg_file, capsys):
    out = tmp_path / "fed"
    assert cli.main(["pretrain", "--config", str(cfg_file),
                     "--manifest", manifest_of(corpus_dir), "--out", str(out)]) == 0
    capsys.readouterr()
    rc = cli.main(["probe", "--config", str(cfg_file),
                   "--checkpoint", str(out / "final.ckpt"), "--arm", "federated",
                   "--manifest", manifest_of(corpus_dir)])
    captured = capsys.readouterr()
    assert rc == 0
    assert captured.out.splitlines()[-1].startswith("federated\tfinal.ckpt\t")


@pytest.mark.parametrize("arm", ["a\tb", "a\nb"])
def test_probe_rejects_a_delimiter_in_a_field(corpus_dir, tmp_path, cfg_file, capsys, arm):
    report = tmp_path / "probe.tsv"
    rc = cli.main(["probe", "--config", str(cfg_file), "--random-init", "--arm", arm,
                   "--manifest", manifest_of(corpus_dir), "--out", str(report)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error:") and err.count("\n") == 1
    assert "delimiter" in err
    assert not report.exists()


def test_probe_requires_source(corpus_dir, cfg_file, capsys):
    rc = cli.main(["probe", "--config", str(cfg_file),
                   "--manifest", manifest_of(corpus_dir)])
    captured = capsys.readouterr()
    assert rc == 2
    assert "--checkpoint or --random-init" in captured.err


def test_probe_missing_checkpoint_is_a_one_line_error(corpus_dir, tmp_path, cfg_file, capsys):
    rc = cli.main(["probe", "--config", str(cfg_file), "--manifest", manifest_of(corpus_dir),
                   "--checkpoint", str(tmp_path / "missing.ckpt")])
    assert_one_line_error(rc, capsys.readouterr().err, "missing.ckpt")


@pytest.mark.parametrize("command", ["pretrain", "probe"])
def test_missing_pcm_file_is_a_one_line_error(corpus_dir, tmp_path, cfg_file, capsys, command):
    pcm = tmp_path / "pcm"
    pcm.mkdir()
    records = []
    for r in load_manifest(manifest_of(corpus_dir)):
        save_pcm(pcm / f"{r.utterance_id}.pcm", synth_waveform(r.audio_ref))
        records.append(UtteranceRecord(r.utterance_id, r.speaker_id, r.chapter_id,
                                       f"{r.utterance_id}.pcm", r.duration_s))
    write_manifest(pcm / "manifest.tsv", records)
    missing = records[0].audio_ref
    (pcm / missing).unlink()  # its .len sidecar stays
    argv = [command, "--config", str(cfg_file), "--manifest", str(pcm / "manifest.tsv")]
    argv += (["--out", str(tmp_path / "run")] if command == "pretrain" else ["--random-init"])
    rc = cli.main(argv)
    assert_one_line_error(rc, capsys.readouterr().err, missing)


@pytest.mark.parametrize("command", ["pretrain", "probe"])
def test_zero_sample_synth_spec(corpus_dir, tmp_path, cfg_file, capsys, command):
    # an empty render is skipped in training like a too-short PCM file, and
    # the probe, which needs every utterance, reports it in one line
    records = load_manifest(manifest_of(corpus_dir))
    records.append(UtteranceRecord("spk000-empty", "spk000", "ch00",
                                   "synth:v1:temporal:1:0:0:0:0", 0.001))
    manifest = tmp_path / "manifest.tsv"
    write_manifest(manifest, records)
    argv = [command, "--config", str(cfg_file), "--manifest", str(manifest)]
    capsys.readouterr()
    if command == "pretrain":
        out = tmp_path / "run"
        assert cli.main(argv + ["--out", str(out)]) == 0
        rows = [line.split("\t") for line in (out / "metrics.tsv").read_text().splitlines()
                if line and not line.startswith("#")]
        # every utterance is drawn within the two rounds; the empty one is not counted
        assert sum(int(row[2]) for row in rows) == len(records) - 1
    else:
        rc = cli.main(argv + ["--random-init"])
        assert_one_line_error(rc, capsys.readouterr().err, "0 samples")


@pytest.mark.parametrize("command", ["probe", "silo", "gradcheck"])
def test_out_in_a_missing_directory_is_a_one_line_error(corpus_dir, tmp_path, cfg_file,
                                                       capsys, command):
    out = tmp_path / "nodir" / "report.tsv"
    argv = [command, "--config", str(cfg_file), "--out", str(out)]
    if command != "gradcheck":
        argv += ["--manifest", manifest_of(corpus_dir)]
    if command == "probe":
        argv.append("--random-init")
    capsys.readouterr()
    rc = cli.main(argv)
    assert_one_line_error(rc, capsys.readouterr().err, str(out))
    assert not out.parent.exists()


# --------------------------------------------------------------- gradcheck

def test_gradcheck_cli(cfg_file, tmp_path, capsys):
    report = tmp_path / "grad.tsv"
    rc = cli.main(["gradcheck", "--config", str(cfg_file), "--out", str(report)])
    captured = capsys.readouterr()
    assert rc == 0
    assert "passed for all" in captured.err
    assert report.exists()


# ------------------------------------------------------------------ parser

def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        cli.main(["refit"])


def test_paper_scale_refused_via_cli(tmp_path, capsys):
    cfg = tmp_path / "paper.cfg"
    cfg.write_text("scale=paper\n")
    rc = cli.main(["synth", "--config", str(cfg), "--out", str(tmp_path / "x")])
    captured = capsys.readouterr()
    assert rc == 1
    assert "acknowledge_paper_scale" in captured.err
