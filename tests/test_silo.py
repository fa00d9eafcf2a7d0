"""Tests for manifest parsing and speaker-siloed client streams."""

import numpy as np
import pytest

from fedcpc import silo as si
from fedcpc.errors import ManifestError
from fedcpc.frontend import synth_corpus


def rec(utt, spk, chap, dur=1.5):
    return si.UtteranceRecord(utt, spk, chap, f"synth:v1:temporal:0:0:0:0:{int(dur * 16000)}", dur)


# ---------------------------------------------------------------- manifest

def test_parse_manifest_basic():
    text = ("# comment\n"
            "\n"
            "a-1-0\tspkA\tch1\tx.pcm\t2.0\n"
            "b-1-0\tspkB\tch1\ty.pcm\t1.25\n")
    records = si.parse_manifest(text)
    assert [r.utterance_id for r in records] == ["a-1-0", "b-1-0"]
    assert records[0].duration_s == 2.0


def test_parse_manifest_field_count_error_carries_line():
    with pytest.raises(ManifestError) as e:
        si.parse_manifest("# head\nok\tspk\tch\tref\t1.0\nbad line\n")
    assert e.value.line == 3
    assert "line 3" in str(e.value)


def test_parse_manifest_bad_duration():
    with pytest.raises(ManifestError) as e:
        si.parse_manifest("a\tspk\tch\tref\tfast\n")
    assert e.value.line == 1
    with pytest.raises(ManifestError):
        si.parse_manifest("a\tspk\tch\tref\t-1.0\n")
    with pytest.raises(ManifestError):
        si.parse_manifest("a\tspk\tch\tref\tinf\n")


def test_parse_manifest_duplicate_id():
    text = "a\tspk\tch\tref\t1.0\na\tspk2\tch\tref\t1.0\n"
    with pytest.raises(ManifestError) as e:
        si.parse_manifest(text)
    assert e.value.line == 2
    assert "duplicate" in str(e.value)


def test_parse_manifest_empty_field():
    with pytest.raises(ManifestError):
        si.parse_manifest("a\t\tch\tref\t1.0\n")


def test_manifest_roundtrip(tmp_path):
    records = [rec("s1-c1-0001", "s1", "c1", 2.25), rec("s2-c3-0007", "s2", "c3", 0.8125)]
    path = tmp_path / "manifest.tsv"
    si.write_manifest(path, records, header_comments=["generated for tests"])
    back = si.load_manifest(path)
    assert back == records


def test_render_manifest_rejects_embedded_delimiter():
    with pytest.raises(ManifestError):
        si.render_manifest([rec("a\tb", "s", "c")])


def test_load_manifest_missing_file(tmp_path):
    with pytest.raises(ManifestError):
        si.load_manifest(tmp_path / "nope.tsv")


# --------------------------------------------------------------- partition

def test_partition_two_speakers():
    records = [rec("a1", "A", "c1"), rec("b1", "B", "c1"),
               rec("a2", "A", "c2"), rec("b2", "B", "c1")]
    silos = si.partition_by_speaker(records)
    assert [s.speaker_id for s in silos] == ["A", "B"]
    assert [len(s.records) for s in silos] == [2, 2]


def test_partition_single_speaker_chapter_sorted():
    records = [rec("u3", "A", "c2"), rec("u1", "A", "c1"), rec("u2", "A", "c1")]
    (s,) = si.partition_by_speaker(records)
    assert [r.utterance_id for r in s.records] == ["u1", "u2", "u3"]


def test_partition_empty_errors():
    with pytest.raises(ManifestError):
        si.partition_by_speaker([])


def test_partition_100_speakers_matches_sort_oracle():
    records = synth_corpus(100, 3, 2, seed=5)
    shuffled = list(records)
    np.random.default_rng(0).shuffle(shuffled)
    silos = si.partition_by_speaker(shuffled)
    assert len(silos) == 100
    for silo in silos:
        keys = [(r.chapter_id, r.utterance_id) for r in silo.records]
        assert keys == sorted(keys)
        assert {r.speaker_id for r in silo.records} == {silo.speaker_id}
    flat = sorted(r.utterance_id for s in silos for r in s.records)
    assert flat == sorted(r.utterance_id for r in records)


def test_silo_duration_sum():
    silo = si.SpeakerSilo("A", [rec("u1", "A", "c1", 1.5), rec("u2", "A", "c1", 2.5)])
    assert silo.duration_s == 4.0


# ------------------------------------------------------------- assignment

def test_assign_three_silos_three_clients():
    records = [rec(f"{s}{i}", s, "c1") for s in "ABC" for i in range(4)]
    silos = si.partition_by_speaker(records)
    streams = si.assign_to_clients(silos, 3, 2, np.random.default_rng(0))
    assert len(streams) == 3
    speakers_per_client = [{r.speaker_id for b in st.batches for r in b} for st in streams]
    assert all(len(s) == 1 for s in speakers_per_client)
    assert set.union(*speakers_per_client) == {"A", "B", "C"}


def test_assign_batch_cut_sizes():
    records = [rec(f"u{i}", "A", "c1") for i in range(9)]
    silos = si.partition_by_speaker(records)
    (stream,) = si.assign_to_clients(silos, 1, 8, np.random.default_rng(1))
    assert [len(b) for b in stream.batches] == [8, 1]


def test_assign_multiset_coverage_20_silos_4_clients():
    records = synth_corpus(20, 2, 3, seed=9)
    silos = si.partition_by_speaker(records)
    streams = si.assign_to_clients(silos, 4, 4, np.random.default_rng(2))
    emitted = sorted(r.utterance_id for st in streams for b in st.batches for r in b)
    assert emitted == sorted(r.utterance_id for r in records)


def test_assign_idle_clients_warn():
    records = [rec("a1", "A", "c1")]
    silos = si.partition_by_speaker(records)
    with pytest.warns(UserWarning):
        streams = si.assign_to_clients(silos, 3, 2, np.random.default_rng(3))
    assert sum(1 for st in streams if st.batches) == 1


def test_assign_validates_arguments():
    silos = si.partition_by_speaker([rec("a1", "A", "c1")])
    with pytest.raises(ManifestError):
        si.assign_to_clients(silos, 0, 2, np.random.default_rng(0))
    with pytest.raises(ManifestError):
        si.assign_to_clients(silos, 1, 0, np.random.default_rng(0))


def test_assign_deterministic_per_seed():
    records = synth_corpus(12, 2, 2, seed=4)
    silos = si.partition_by_speaker(records)

    def layout(seed):
        streams = si.assign_to_clients(silos, 5, 3, np.random.default_rng(seed))
        return [[tuple(r.utterance_id for r in b) for b in st.batches] for st in streams]

    assert layout(7) == layout(7)
    assert layout(7) != layout(8)


def test_assign_distinct_speakers_on_concurrent_clients():
    # with at least as many silos as clients, the first silo dealt to each
    # client is a distinct speaker
    records = synth_corpus(8, 1, 2, seed=6)
    silos = si.partition_by_speaker(records)
    streams = si.assign_to_clients(silos, 4, 2, np.random.default_rng(5))
    first_speakers = [st.batches[0][0].speaker_id for st in streams]
    assert len(set(first_speakers)) == 4


# ------------------------------------------------------------ next_batch

def test_next_batch_single_pass():
    records = [rec(f"u{i}", "A", "c1") for i in range(5)]
    silos = si.partition_by_speaker(records)
    (stream,) = si.assign_to_clients(silos, 1, 2, np.random.default_rng(0))
    seen = []
    while not stream.exhausted:
        seen.extend(stream.next_batch())
    assert stream.next_batch() is None
    assert stream.next_batch() is None  # drained stays drained
    assert sorted(r.utterance_id for r in seen) == sorted(r.utterance_id for r in records)


def test_stream_of_two_batches():
    stream = si.ClientStream(0, [[rec("a", "A", "c")], [rec("b", "A", "c")]])
    assert stream.next_batch() is not None
    assert stream.next_batch() is not None
    assert stream.next_batch() is None


# ----------------------------------------------------------------- report

def test_silo_report_totals():
    silos = si.partition_by_speaker([rec("a1", "A", "c1", 2.0), rec("b1", "B", "c1", 3.0)])
    report = si.silo_report(silos)
    lines = report.strip().splitlines()
    assert lines[0].startswith("#")
    assert lines[-1] == "total\t2\t5.0"
    assert any(line.startswith("A\t1\t") for line in lines)
