"""Atomic artifact writes: a failed write leaves the earlier file as it was
and no temporary file behind."""

import errno

import pytest

from fedcpc import checkpoint as ck
from fedcpc import cli
from fedcpc import config as cfg_mod
from fedcpc import federated as fed
from fedcpc import files
from fedcpc import model as m
from fedcpc.errors import CheckpointError, ConfigError, ManifestError
from fedcpc.frontend import synth_corpus
from fedcpc.silo import write_manifest

SMALL = m.CpcConfig(enc_units=8, ctx_units=8, future_steps=2, num_negatives=3)


def test_writer_creates_then_replaces(tmp_path):
    path = tmp_path / "a.txt"
    for data in (b"first", b"second"):
        with files.atomic_writer(path) as f:
            f.write(data)
        assert path.read_bytes() == data
    assert [p.name for p in tmp_path.iterdir()] == ["a.txt"]


def test_failure_midway_keeps_the_earlier_file(tmp_path):
    path = tmp_path / "a.txt"
    path.write_bytes(b"earlier")
    with pytest.raises(RuntimeError):
        with files.atomic_writer(path) as f:
            f.write(b"partial")
            raise RuntimeError("serializer failed")
    assert path.read_bytes() == b"earlier"
    assert [p.name for p in tmp_path.iterdir()] == ["a.txt"]


def test_missing_directory_raises_the_given_error(tmp_path):
    path = tmp_path / "nodir" / "a.ckpt"
    with pytest.raises(CheckpointError, match="nodir"):
        with files.atomic_writer(path, CheckpointError) as f:
            f.write(b"x")
    assert not (tmp_path / "nodir").exists()


class DiskFull:
    """A file that takes half of the first write, then fails as a full disk
    does."""

    def __init__(self, f):
        self.f = f

    def write(self, data):
        self.f.write(data[:len(data) // 2])
        raise OSError(errno.ENOSPC, "No space left on device")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.f.close()


def write_checkpoint(path):
    ck.save_checkpoint(path, SMALL, m.flatten(m.init_params(SMALL, 1)))


def write_metrics(path):
    fed.write_metrics(path, [], header_comments=["cfg seed=1"])


def write_corpus_manifest(path):
    write_manifest(path, synth_corpus(2, 1, 2, seed=3))


def write_config(path):
    cfg_mod.write_config(path, cfg_mod.load_config(None))


def write_cli_report(path):
    cli._emit(path, "# report\n")


@pytest.mark.parametrize("write, error", [
    (write_checkpoint, CheckpointError),
    (write_metrics, ConfigError),
    (write_corpus_manifest, ManifestError),
    (write_config, ConfigError),
    (write_cli_report, ConfigError),
], ids=["checkpoint", "metrics", "manifest", "config", "cli-report"])
def test_every_artifact_survives_a_full_disk(tmp_path, monkeypatch, write, error):
    path = tmp_path / "artifact"
    write(path)
    before = path.read_bytes()
    kept = sorted(p.name for p in tmp_path.iterdir())
    monkeypatch.setattr(files, "open", lambda p, mode: DiskFull(open(p, mode)), raising=False)
    with pytest.raises(error, match="No space left"):
        write(path)
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == kept

