"""Tests for the audio frontend: STFT framing, feature stacking, PCM
fixtures, and the synthetic corpus generator."""

import numpy as np
import pytest

from fedcpc import frontend as fe
from fedcpc.errors import ConfigError, ManifestError, TooShortError


def tone(freq_hz, n, sample_rate=fe.SAMPLE_RATE, amp=0.5):
    t = np.arange(n) / sample_rate
    return fe.Waveform(amp * np.sin(2.0 * np.pi * freq_hz * t))


# ---------------------------------------------------------------- waveform

def test_waveform_validation():
    with pytest.raises(ConfigError):
        fe.Waveform(np.zeros((4, 2)))
    with pytest.raises(ConfigError):
        fe.Waveform(np.array([0.0, np.nan]))
    with pytest.raises(ConfigError):
        fe.Waveform(np.zeros(4), sample_rate_hz=0)
    w = fe.Waveform(np.zeros(16000))
    assert w.duration_s == 1.0


# ------------------------------------------------------------- stft_frames

def test_stft_400_samples_is_one_frame():
    frames = fe.stft_frames(fe.Waveform(np.zeros(400)))
    assert frames.shape == (1, fe.N_BINS)


def test_stft_frame_count_formula():
    for n in (400, 401, 559, 560, 561, 1600, 16000):
        frames = fe.stft_frames(fe.Waveform(np.zeros(n)))
        assert frames.shape[0] == 1 + (n - 400) // 160, n


def test_stft_too_short():
    with pytest.raises(TooShortError):
        fe.stft_frames(fe.Waveform(np.zeros(399)))


def test_stft_zeros_give_log_floor():
    frames = fe.stft_frames(fe.Waveform(np.zeros(800)))
    assert np.all(frames == np.log(fe.LOG_FLOOR))


def test_stft_sinusoid_peaks_at_bin_62():
    # bin b is centered at b * 16000 / 512 Hz
    freq = 62 * fe.SAMPLE_RATE / fe.FFT_SIZE
    frames = fe.stft_frames(tone(freq, 16000))
    assert np.all(np.argmax(frames, axis=1) == 62)


def test_stft_circular_shift_moves_frames_one_index():
    rng = np.random.default_rng(0)
    x = rng.standard_normal(16000)
    base = fe.stft_frames(fe.Waveform(x))
    rolled = fe.stft_frames(fe.Waveform(np.roll(x, 160)))
    # interior frames see identical samples, one window later
    assert np.max(np.abs(rolled[1:] - base[:-1])) < 1e-9


def test_stft_finite_for_finite_input():
    rng = np.random.default_rng(1)
    frames = fe.stft_frames(fe.Waveform(rng.standard_normal(8000) * 1e6))
    assert np.all(np.isfinite(frames))


# ------------------------------------------------------------------ stack3

def test_stack3_row_counts():
    assert fe.stack3(np.zeros((10, 256))).num_frames == 3
    assert fe.stack3(np.zeros((3, 256))).num_frames == 1
    assert fe.stack3(np.zeros((5, 256))).num_frames == 1


def test_stack3_too_short_and_bad_shape():
    with pytest.raises(TooShortError):
        fe.stack3(np.zeros((2, 256)))
    with pytest.raises(ConfigError):
        fe.stack3(np.zeros((6, 255)))


def test_stack3_index_oracle():
    rng = np.random.default_rng(2)
    frames = rng.standard_normal((10, 256))
    seq = fe.stack3(frames)
    assert seq.x.shape == (3, 768)
    assert seq.frame_shift_s == 0.030
    for i in range(3):
        for j in range(3):
            assert np.array_equal(seq.x[i, 256 * j:256 * (j + 1)], frames[3 * i + j])


def test_waveform_features_shape():
    seq = fe.waveform_features(tone(1000.0, 16000))
    frames = 1 + (16000 - 400) // 160
    assert seq.x.shape == (frames // 3, 768)
    assert np.all(np.isfinite(seq.x))


# --------------------------------------------------------------------- pcm

def test_pcm_roundtrip(tmp_path):
    rng = np.random.default_rng(3)
    w = fe.Waveform(rng.uniform(-0.99, 0.99, size=2048))
    path = tmp_path / "clip.pcm"
    fe.save_pcm(path, w)
    back = fe.load_pcm(path)
    assert back.samples.shape == w.samples.shape
    # half-step rounding plus the 32767/32768 scale asymmetry
    assert np.max(np.abs(back.samples - w.samples)) <= 1.5 / 32768.0


def test_pcm_missing_sidecar(tmp_path):
    path = tmp_path / "clip.pcm"
    path.write_bytes(b"\x00\x00")
    with pytest.raises(ManifestError):
        fe.load_pcm(path)


def test_pcm_garbled_sidecar(tmp_path):
    path = tmp_path / "clip.pcm"
    path.write_bytes(b"\x00\x00")
    (tmp_path / "clip.pcm.len").write_text("abc\n")
    with pytest.raises(ManifestError):
        fe.load_pcm(path)


def test_pcm_length_mismatch(tmp_path):
    path = tmp_path / "clip.pcm"
    path.write_bytes(b"\x00\x00\x00\x00")
    (tmp_path / "clip.pcm.len").write_text("3\n")
    with pytest.raises(ManifestError):
        fe.load_pcm(path)


# ----------------------------------------------------------------- synth

def test_synth_spec_roundtrip():
    ref = fe.synth_spec("temporal", 42, 3, 1, 7, 24000)
    assert fe.parse_synth_spec(ref) == ("temporal", 42, 3, 1, 7, 24000)


def test_parse_synth_spec_errors():
    with pytest.raises(ManifestError):
        fe.parse_synth_spec("file.pcm")
    with pytest.raises(ManifestError):
        fe.parse_synth_spec("synth:v1:temporal:1:2:3")
    with pytest.raises(ManifestError):
        fe.parse_synth_spec("synth:v1:smooth:1:2:3:4:5")
    with pytest.raises(ManifestError):
        fe.parse_synth_spec("synth:v1:temporal:1:2:x:4:5")
    with pytest.raises(ConfigError):
        fe.synth_spec("smooth", 1, 2, 3, 4, 5)


def test_synth_waveform_deterministic_bitwise():
    ref = fe.synth_spec("temporal", 42, 0, 0, 0, 16000)
    a = fe.synth_waveform(ref)
    b = fe.synth_waveform(ref)
    assert np.array_equal(a.samples, b.samples)
    other = fe.synth_waveform(fe.synth_spec("temporal", 42, 0, 0, 1, 16000))
    assert not np.array_equal(a.samples, other.samples)


def test_synth_corpus_counts_and_ranges():
    records = fe.synth_corpus(2, 1, 2, seed=7)
    assert len(records) == 4
    assert {r.speaker_id for r in records} == {"spk000", "spk001"}
    for r in records:
        assert 1.0 <= r.duration_s <= 3.0
        w = fe.synth_waveform(r.audio_ref)
        assert w.samples.size == round(r.duration_s * fe.SAMPLE_RATE)
        assert np.max(np.abs(w.samples)) <= 0.9 + 1e-12


def test_synth_corpus_deterministic():
    a = fe.synth_corpus(2, 2, 3, seed=11)
    b = fe.synth_corpus(2, 2, 3, seed=11)
    assert [r.audio_ref for r in a] == [r.audio_ref for r in b]
    c = fe.synth_corpus(2, 2, 3, seed=12)
    assert [r.audio_ref for r in a] != [r.audio_ref for r in c]


def test_signature_styles():
    f_a, a_a, r_a, n_a = fe.speaker_signature(5, 0, "temporal")
    f_b, a_b, r_b, n_b = fe.speaker_signature(5, 1, "temporal")
    # temporal speakers share everything except envelope rates
    assert np.array_equal(f_a, f_b) and np.array_equal(a_a, a_b) and n_a == n_b
    assert not np.array_equal(r_a, r_b)
    f_c, a_c, _, n_c = fe.speaker_signature(5, 0, "spectral")
    f_d, a_d, _, n_d = fe.speaker_signature(5, 1, "spectral")
    assert not np.array_equal(f_c, f_d)
    with pytest.raises(ConfigError):
        fe.speaker_signature(5, 0, "smooth")


def test_resolve_audio_pcm_and_synth(tmp_path):
    w = fe.Waveform(np.linspace(-0.5, 0.5, 1024))
    fe.save_pcm(tmp_path / "a.pcm", w)
    got = fe.resolve_audio("a.pcm", base_dir=tmp_path)
    assert got.samples.size == 1024
    ref = fe.synth_spec("spectral", 1, 0, 0, 0, 800)
    assert fe.resolve_audio(ref).samples.size == 800


def test_features_for_record():
    records = fe.synth_corpus(1, 1, 1, seed=3)
    seq = fe.features_for_record(records[0])
    assert seq.x.shape[1] == 768
    assert seq.num_frames >= 10


def test_spectral_frames_separate_speakers_nearest_centroid():
    # Speaker bands in the spectral style are frame-visible: a nearest
    # centroid classifier over raw STFT frames, fit on three utterances per
    # speaker, labels held-out frames with high accuracy. This is the
    # learnability floor for the probe task.
    records = fe.synth_corpus(10, 1, 4, seed=42, style="spectral")
    by_speaker = {}
    for r in records:
        by_speaker.setdefault(r.speaker_id, []).append(r)
    speakers = sorted(by_speaker)
    centroids, eval_sets = [], []
    for s in speakers:
        train, held = by_speaker[s][:3], by_speaker[s][3]
        frames = np.vstack([fe.stft_frames(fe.resolve_audio(r.audio_ref)) for r in train])
        centroids.append(frames.mean(axis=0))
        eval_sets.append(fe.stft_frames(fe.resolve_audio(held.audio_ref)))
    centroids = np.stack(centroids)
    hits = total = 0
    for label, frames in enumerate(eval_sets):
        d = ((frames[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        hits += int(np.sum(np.argmin(d, axis=1) == label))
        total += frames.shape[0]
    assert hits / total > 0.90
