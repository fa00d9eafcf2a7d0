"""Property tests for the input parsers: whatever bytes arrive, each parser
either returns a value or raises a FedcpcError, which the CLI prints as a
one-line diagnostic. Nothing else may escape."""

import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fedcpc import checkpoint as ck
from fedcpc import model as m
from fedcpc.config import load_config
from fedcpc.errors import FedcpcError
from fedcpc.frontend import STYLES, parse_synth_spec, synth_waveform, waveform_features
from fedcpc.silo import load_manifest

TINY = m.CpcConfig(input_dim=6, enc_layers=1, enc_units=4, ctx_layers=1,
                   ctx_units=3, future_steps=2, num_negatives=2)


def _checkpoint_bytes() -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "x.ckpt"
        ck.save_checkpoint(path, TINY, m.flatten(m.init_params(TINY, 0)), meta={"round": "3"})
        return path.read_bytes()


VALID_CKPT = _checkpoint_bytes()
# a header that claims 3 million horizons but lists the table of 2
HUGE_CLAIM = VALID_CKPT.replace(b"meta cfg.future_steps 2\n", b"meta cfg.future_steps 3000000\n")


def _splice(blob: bytes):
    """``blob`` with one span replaced by arbitrary bytes."""
    return st.builds(lambda i, n, new: blob[:i] + new + blob[i + n:],
                     st.integers(0, len(blob)), st.integers(0, 16), st.binary(max_size=16))


@pytest.fixture(scope="module")
def input_file(tmp_path_factory):
    return tmp_path_factory.mktemp("properties") / "input"


def _parses_or_raises(load, path: Path, data: bytes) -> None:
    path.write_bytes(data)
    try:
        load(path)
    except FedcpcError:
        pass


MANIFEST = (b"# utterance_id\tspeaker_id\tchapter_id\taudio_ref\tduration_s\n"
            b"u1\tspk000\tch00\tsynth:v1:temporal:1:0:0:0:16000\t1.0\n")


@settings(deadline=None)
@given(st.one_of(st.binary(), _splice(MANIFEST)))
@example(b"\xff\n")
def test_manifest_parses_or_raises(input_file, data):
    _parses_or_raises(load_manifest, input_file, data)


@settings(deadline=None)
@given(st.one_of(st.binary(), _splice(b"seed=3\ncpc.enc_units=8\nfed.client_lr=0.5\n")))
@example(b"seed=\xff\n")
def test_config_parses_or_raises(input_file, data):
    _parses_or_raises(load_config, input_file, data)


@settings(max_examples=50, deadline=None)
@given(st.one_of(st.binary(), _splice(VALID_CKPT)))
@example(HUGE_CLAIM)
def test_checkpoint_parses_or_raises(input_file, data):
    _parses_or_raises(ck.load_checkpoint, input_file, data)


_FIELD = st.one_of(st.integers(0, 2 ** 70).map(str), st.text(max_size=4))
_SPEC = st.builds(lambda style, fields, n: ":".join(["synth:v1", style, *fields, n]),
                  st.sampled_from(STYLES + ("",)), st.lists(_FIELD, min_size=4, max_size=4),
                  st.one_of(st.integers(0, 4000).map(str), _FIELD))


@settings(max_examples=50, deadline=None)
@given(st.one_of(st.text(), _SPEC))
@example("synth:v1:temporal:1:0:0:0:0")
def test_synth_spec_parses_and_renders_or_raises(spec):
    # a spec that parses is also rendered into features, when it is short
    try:
        if parse_synth_spec(spec)[-1] <= 4000:
            waveform_features(synth_waveform(spec))
    except FedcpcError:
        pass
