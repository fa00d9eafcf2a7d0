"""Waveform handling and the log-STFT feature pipeline.

Features are 256-dimensional log magnitudes of a Hann-windowed 512-point
real DFT, computed every 10 ms over 25 ms windows at 16 kHz, with three
consecutive frames concatenated into one 768-dimensional row (stride 3, so
one row per 30 ms).

Audio arrives either as a headerless 16-bit little-endian PCM file with a
``.len`` sidecar holding the sample count, or as a ``synth:`` generator spec
that deterministically renders a speaker-signature waveform (three sinusoid
bands plus noise) without touching disk.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, ManifestError, TooShortError
from .rng import TAG_CORPUS, substream
from .silo import UtteranceRecord

SAMPLE_RATE = 16000
FFT_SIZE = 512
N_BINS = 256
LOG_FLOOR = 1e-10

_SYNTH_PREFIX = "synth:v1:"


@dataclass
class Waveform:
    samples: np.ndarray
    sample_rate_hz: int = SAMPLE_RATE

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1:
            raise ConfigError(f"waveform must be 1-D, got shape {self.samples.shape}")
        if not np.all(np.isfinite(self.samples)):
            raise ConfigError("waveform contains non-finite samples")
        if self.sample_rate_hz <= 0:
            raise ConfigError("sample_rate_hz must be positive")

    @property
    def duration_s(self) -> float:
        return self.samples.size / self.sample_rate_hz


@dataclass
class FeatureSequence:
    """T x 768 feature matrix; one row per 3 stacked STFT frames."""

    x: np.ndarray
    frame_shift_s: float

    @property
    def num_frames(self) -> int:
        return self.x.shape[0]


def stft_frames(w: Waveform, window_ms: float = 25.0, shift_ms: float = 10.0) -> np.ndarray:
    """Log-magnitude STFT, one row per frame, ``N_BINS`` columns."""
    window = int(round(w.sample_rate_hz * window_ms / 1000.0))
    shift = int(round(w.sample_rate_hz * shift_ms / 1000.0))
    if w.samples.size < window:
        raise TooShortError(f"waveform has {w.samples.size} samples, window needs {window}")
    frames = np.lib.stride_tricks.sliding_window_view(w.samples, window)[::shift]
    spectrum = np.fft.rfft(frames * np.hanning(window), n=FFT_SIZE, axis=1)
    return np.log(LOG_FLOOR + np.abs(spectrum[:, :N_BINS]))


def stack3(frames: np.ndarray) -> FeatureSequence:
    """Concatenate non-overlapping triples of frames; remainder dropped."""
    if frames.ndim != 2 or frames.shape[1] != N_BINS:
        raise ConfigError(f"expected T x {N_BINS} frames, got shape {frames.shape}")
    rows = frames.shape[0] // 3
    if rows < 1:
        raise TooShortError(f"{frames.shape[0]} frames cannot fill a 3-frame stack")
    x = frames[:3 * rows].reshape(rows, 3 * N_BINS)
    return FeatureSequence(x, frame_shift_s=0.030)


def waveform_features(w: Waveform) -> FeatureSequence:
    return stack3(stft_frames(w))


# PCM fixtures: raw samples, with the sample count in a sidecar so the
# payload stays headerless.

def save_pcm(path, w: Waveform) -> None:
    scaled = np.clip(np.round(w.samples * 32767.0), -32768, 32767).astype("<i2")
    Path(path).write_bytes(scaled.tobytes())
    Path(str(path) + ".len").write_text(f"{scaled.size}\n", encoding="ascii")


def load_pcm(path, sample_rate_hz: int = SAMPLE_RATE) -> Waveform:
    blob = Path(path).read_bytes()
    sidecar = Path(str(path) + ".len")
    if not sidecar.exists():
        raise ManifestError(f"{path}: missing {sidecar.name} sidecar")
    try:
        count = int(sidecar.read_text().strip())
    except ValueError:
        raise ManifestError(f"{sidecar}: sample count is not an integer") from None
    if len(blob) != 2 * count:
        raise ManifestError(f"{path}: {len(blob)} bytes but sidecar declares {count} samples")
    samples = np.frombuffer(blob, dtype="<i2").astype(np.float64) / 32768.0
    return Waveform(samples, sample_rate_hz)


# Synthetic speakers: three sinusoid bands (bin-centered so the energy stays
# concentrated) plus a noise floor, with each band's amplitude oscillating at
# a speaker-persistent rate and a fresh phase per utterance. The modulation
# matters twice over: a stationary signal would make the true future frame
# indistinguishable from same-utterance negatives (nothing for the
# contrastive objective to learn), and it can carry speaker identity through
# time rather than through the spectrum.
#
# Two styles:
#   spectral  each speaker owns its band positions, amplitudes, gains, and
#             noise level; single frames identify the speaker, so even an
#             untrained encoder yields separable utterance features.
#   temporal  every speaker shares the same bands, amplitudes, and noise
#             level; only the modulation rates differ. Single frames and
#             time-averaged spectra are speaker-agnostic, so a downstream
#             probe succeeds only through features that track temporal
#             dynamics, which is what pre-training is supposed to buy.

STYLES = ("spectral", "temporal")

_SHARED_BINS = np.array([40, 110, 190])
_SHARED_AMPS = np.array([1.0, 0.85, 0.9])
_SHARED_NOISE = 0.08


def _style_tag(style: str) -> int:
    if style not in STYLES:
        raise ConfigError(f"corpus style must be one of {STYLES}, got {style!r}")
    return STYLES.index(style)


def speaker_signature(seed: int, speaker_index: int,
                      style: str = "temporal") -> tuple[np.ndarray, np.ndarray,
                                                        np.ndarray, float]:
    """(band freqs Hz, band amps, envelope rates Hz, noise sigma)."""
    rng = substream(seed, TAG_CORPUS, _style_tag(style), speaker_index)
    if style == "spectral":
        bins = np.sort(rng.choice(np.arange(8, 241), size=3, replace=False))
        amps = rng.uniform(0.5, 1.0, size=3)
        env_rates_hz = rng.uniform(0.5, 2.5, size=3)
        noise_sigma = float(rng.uniform(0.05, 0.10))
    else:
        bins = _SHARED_BINS
        amps = _SHARED_AMPS
        env_rates_hz = rng.uniform(0.6, 3.0, size=3)
        noise_sigma = _SHARED_NOISE
    return bins * (SAMPLE_RATE / FFT_SIZE), amps, env_rates_hz, noise_sigma


def synth_spec(style: str, seed: int, speaker_index: int, chapter_index: int,
               utt_index: int, num_samples: int) -> str:
    _style_tag(style)
    return (f"{_SYNTH_PREFIX}{style}:{seed}:{speaker_index}:{chapter_index}:"
            f"{utt_index}:{num_samples}")


def parse_synth_spec(ref: str) -> tuple[str, int, int, int, int, int]:
    if not ref.startswith(_SYNTH_PREFIX):
        raise ManifestError(f"not a synth spec: {ref!r}")
    parts = ref[len(_SYNTH_PREFIX):].split(":")
    if len(parts) != 6:
        raise ManifestError(f"synth spec needs 6 fields, got {ref!r}")
    if parts[0] not in STYLES:
        raise ManifestError(f"synth spec has unknown style {parts[0]!r}")
    try:
        return (parts[0], *(int(p) for p in parts[1:]))  # type: ignore[return-value]
    except ValueError:
        raise ManifestError(f"synth spec has non-integer field: {ref!r}") from None


def synth_waveform(ref: str) -> Waveform:
    """Render a generator spec; identical specs give bitwise-equal audio."""
    style, seed, spk, chap, utt, n = parse_synth_spec(ref)
    freqs, amps, env_rates_hz, noise_sigma = speaker_signature(seed, spk, style)
    rng = substream(seed, TAG_CORPUS, _style_tag(style), spk, chap, utt)
    t = np.arange(n) / SAMPLE_RATE
    x = np.zeros(n)
    for f, a, r in zip(freqs, amps, env_rates_hz):
        # per-utterance band gain is a spectral cue, so only that style has it
        gain = rng.uniform(0.7, 1.3) if style == "spectral" else 1.0
        phase = rng.uniform(0.0, 2.0 * np.pi)
        env_phase = rng.uniform(0.0, 2.0 * np.pi)
        # full-depth amplitude modulation: the band breathes between silent
        # and full strength once per envelope cycle
        env = 0.5 + 0.5 * np.sin(2.0 * np.pi * r * t + env_phase)
        x += a * gain * env * np.sin(2.0 * np.pi * f * t + phase)
    x += rng.normal(0.0, noise_sigma, size=n)
    x *= 0.9 / np.max(np.abs(x))
    return Waveform(x)


def synth_corpus(num_speakers: int, chapters_per_speaker: int,
                 utts_per_chapter: int, seed: int,
                 style: str = "temporal") -> list[UtteranceRecord]:
    """Manifest records for a fully synthetic corpus; audio stays virtual
    (generator specs in audio_ref), utterances 1 to 3 seconds long."""
    if min(num_speakers, chapters_per_speaker, utts_per_chapter) < 1:
        raise ConfigError("corpus counts must all be >= 1")
    tag = _style_tag(style)
    # temporal speakers need a couple of modulation cycles on record for the
    # rates to be identifiable, so their utterances skip the shortest lengths
    min_samples = SAMPLE_RATE if style == "spectral" else SAMPLE_RATE + SAMPLE_RATE // 2
    records = []
    for spk in range(num_speakers):
        speaker_id = f"spk{spk:03d}"
        for chap in range(chapters_per_speaker):
            chapter_id = f"ch{chap:02d}"
            for utt in range(utts_per_chapter):
                rng = substream(seed, TAG_CORPUS, tag, spk, chap, utt, 0)
                n = int(rng.integers(min_samples, 3 * SAMPLE_RATE + 1))
                records.append(UtteranceRecord(
                    utterance_id=f"{speaker_id}-{chapter_id}-{utt:04d}",
                    speaker_id=speaker_id,
                    chapter_id=chapter_id,
                    audio_ref=synth_spec(style, seed, spk, chap, utt, n),
                    duration_s=n / SAMPLE_RATE,
                ))
    return records


def resolve_audio(ref: str, base_dir=None) -> Waveform:
    if ref.startswith("synth:"):
        return synth_waveform(ref)
    path = Path(ref)
    if base_dir is not None and not path.is_absolute():
        path = Path(base_dir) / path
    return load_pcm(path)


def features_for_record(record: UtteranceRecord, base_dir=None) -> FeatureSequence:
    return waveform_features(resolve_audio(record.audio_ref, base_dir))
