"""Audio and image ingestion.

Turns PCM16 WAV files into log-Mel spectrograms (the network's audio input)
and PPM/PGM images into normalized channel-first tensors. Also reads the
tab-separated manifest files that list dataset items.
"""

from __future__ import annotations

import functools
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, DataError
from .pnm import read_pnm
from .tensor import Tensor, bilinear_resize_array

LOG_FLOOR = 1e-10
_STFT_BLOCK_BYTES = 1 << 18  # bytes of tapered frames per block in extract_logmel


@dataclass
class AudioClip:
    """Mono waveform with samples in [-1, 1]."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.size == 0:
            raise DataError("audio clip has no samples")
        if self.sample_rate <= 0:
            raise ConfigurationError(f"bad sample rate: {self.sample_rate}")


@dataclass
class LogMelSpectrogram:
    """Log-compressed mel power spectrogram, values shaped [1, T, n_mels]."""

    values: Tensor

    @property
    def num_frames(self) -> int:
        return self.values.shape[1]


# ---------------------------------------------------------------------------
# WAV
# ---------------------------------------------------------------------------


def load_wav(path) -> AudioClip:
    """Decode a PCM16 RIFF/WAVE file; stereo is downmixed by averaging."""
    with open(path, "rb") as f:
        raw = f.read()
    if raw[:4] != b"RIFF":
        raise DataError(f"{path}: missing RIFF tag at byte 0")
    if raw[8:12] != b"WAVE":
        raise DataError(f"{path}: missing WAVE tag at byte 8")
    pos = 12
    fmt = None
    data = None
    while pos + 8 <= len(raw):
        chunk_id = raw[pos : pos + 4]
        (chunk_size,) = struct.unpack_from("<I", raw, pos + 4)
        body_start = pos + 8
        if body_start + chunk_size > len(raw):
            raise DataError(
                f"{path}: chunk {chunk_id!r} at byte {pos} runs past end of file"
            )
        if chunk_id == b"fmt ":
            if chunk_size < 16:
                raise DataError(f"{path}: fmt chunk too short at byte {pos}")
            fmt = struct.unpack_from("<HHIIHH", raw, body_start)
            fmt_offset = body_start
        elif chunk_id == b"data":
            data = raw[body_start : body_start + chunk_size]
            data_offset = pos
        pos = body_start + chunk_size + (chunk_size & 1)
    if fmt is None:
        raise DataError(f"{path}: no fmt chunk before byte {len(raw)}")
    if data is None:
        raise DataError(f"{path}: no data chunk before byte {len(raw)}")
    audio_format, channels, sample_rate, _, _, bits = fmt
    if audio_format != 1:
        raise DataError(
            f"{path}: not PCM (format {audio_format}) at byte {fmt_offset}"
        )
    if bits != 16:
        raise DataError(f"{path}: need 16-bit samples, got {bits}")
    if channels not in (1, 2):
        raise DataError(f"{path}: need mono or stereo, got {channels} channels")
    if sample_rate == 0:
        raise DataError(f"{path}: sample rate 0 at byte {fmt_offset + 4}")
    frames = len(data) // (2 * channels)
    if frames == 0:
        raise DataError(f"{path}: data chunk at byte {data_offset} holds no sample frame")
    ints = np.frombuffer(data, dtype="<i2", count=frames * channels)
    samples = ints.astype(np.float64) / 32768.0
    if channels == 2:
        samples = samples.reshape(-1, 2).mean(axis=1)
    return AudioClip(samples, sample_rate)


def write_wav(path, clip: AudioClip) -> None:
    """Write a mono PCM16 WAV (fixture and export helper)."""
    ints = np.clip(np.round(clip.samples * 32768.0), -32768, 32767).astype("<i2")
    payload = ints.tobytes()
    header = struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF",
        36 + len(payload),
        b"WAVE",
        b"fmt ",
        16,
        1,
        1,
        clip.sample_rate,
        clip.sample_rate * 2,
        2,
        16,
        b"data",
        len(payload),
    )
    with open(path, "wb") as f:
        f.write(header)
        f.write(payload)


# ---------------------------------------------------------------------------
# waveform shaping
# ---------------------------------------------------------------------------


def resample(clip: AudioClip, target_rate: int) -> AudioClip:
    """Linear-interpolation resampling; identity when rates match."""
    if target_rate <= 0:
        raise ConfigurationError(f"bad target rate: {target_rate}")
    if target_rate == clip.sample_rate:
        return AudioClip(clip.samples.copy(), clip.sample_rate)
    n_out = int(round(clip.samples.size * target_rate / clip.sample_rate))
    n_out = max(n_out, 1)
    positions = np.arange(n_out) * (clip.sample_rate / target_rate)
    resampled = np.interp(positions, np.arange(clip.samples.size), clip.samples)
    return AudioClip(resampled, target_rate)


def fix_length(clip: AudioClip, seconds: float) -> AudioClip:
    """Truncate or zero-pad (at the end) to exactly round(seconds * rate)."""
    if seconds <= 0:
        raise ConfigurationError(f"bad target duration: {seconds}")
    n = int(round(seconds * clip.sample_rate))
    if clip.samples.size >= n:
        out = clip.samples[:n].copy()
    else:
        out = np.zeros(n)
        out[: clip.samples.size] = clip.samples
    return AudioClip(out, clip.sample_rate)


# ---------------------------------------------------------------------------
# log-Mel extraction
# ---------------------------------------------------------------------------


def hz_to_mel(hz):
    return 2595.0 * np.log10(1.0 + np.asarray(hz, dtype=np.float64) / 700.0)


def mel_to_hz(mel):
    return 700.0 * (10.0 ** (np.asarray(mel, dtype=np.float64) / 2595.0) - 1.0)


@functools.lru_cache(maxsize=16)
def mel_filterbank(n_mels: int, n_fft: int, sample_rate: int) -> np.ndarray:
    """Triangular filters on the HTK mel scale, each row normalized to sum 1.

    Returns [n_mels, n_fft//2 + 1] weights over the non-negative FFT bins,
    as a cached read-only array.
    """
    if n_mels < 1:
        raise ConfigurationError(f"n_mels must be positive, got {n_mels}")
    edges_mel = np.linspace(0.0, hz_to_mel(sample_rate / 2.0), n_mels + 2)
    edges_hz = mel_to_hz(edges_mel)
    bin_hz = np.arange(n_fft // 2 + 1) * (sample_rate / n_fft)
    bank = np.zeros((n_mels, bin_hz.size))
    for m in range(n_mels):
        left, center, right = edges_hz[m], edges_hz[m + 1], edges_hz[m + 2]
        rising = (bin_hz - left) / (center - left)
        falling = (right - bin_hz) / (right - center)
        bank[m] = np.clip(np.minimum(rising, falling), 0.0, None)
    sums = bank.sum(axis=1)
    if np.any(sums <= 0.0):
        raise ConfigurationError(
            f"mel filter narrower than one FFT bin (n_mels={n_mels}, n_fft={n_fft})"
        )
    bank /= sums[:, None]
    bank.flags.writeable = False  # the cache hands this array to every caller
    return bank


def _hann(window: int) -> np.ndarray:
    # Periodic Hann, as used for STFT analysis.
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(window) / window)


def extract_logmel(
    clip: AudioClip,
    hop: int = 400,
    n_mels: int = 64,
    n_fft: int = 1024,
) -> LogMelSpectrogram:
    """STFT power -> mel filterbank -> ln(x + 1e-10).

    Each frame is tapered by an n_fft-point periodic Hann window. Center
    framing with reflect padding, so the frame count is
    1 + floor(num_samples / hop).
    """
    if hop < 1:
        raise ConfigurationError(f"hop must be >= 1, got {hop}")
    samples = clip.samples
    if samples.size < 2:
        raise DataError(
            f"clip of {samples.size} samples is too short to frame with reflection"
        )
    # Frame t is padded[t*hop : t*hop + n_fft]. The right pad of
    # n_fft - n_fft//2 leaves exactly 1 + num_samples // hop window starts,
    # also for odd n_fft.
    pad = n_fft // 2
    padded = np.pad(samples, (pad, n_fft - pad), mode="reflect")
    taper = _hann(n_fft)
    windows = np.lib.stride_tricks.sliding_window_view(padded, n_fft)[::hop]
    n_frames = windows.shape[0]
    # Tapered frames and their spectra are made one block of rows at a time.
    # Whole-clip arrays (3.3 MB each for a 10-s clip) pushed the heap's swing
    # per call past the point where malloc hands the freed top back to the
    # OS, so some processes faulted ~10 MB back in on every call and ran at
    # two thirds of the speed of others.
    power = np.empty((n_frames, n_fft // 2 + 1))
    rows = max(1, _STFT_BLOCK_BYTES // (8 * n_fft))
    for first in range(0, n_frames, rows):
        spectrum = np.fft.rfft(windows[first : first + rows] * taper, axis=1)
        power[first : first + rows] = np.abs(spectrum) ** 2
    bank = mel_filterbank(n_mels, n_fft, clip.sample_rate)
    mel_power = power @ bank.T
    values = np.log(mel_power + LOG_FLOOR)[None, :, :]
    return LogMelSpectrogram(values=Tensor(values))


# ---------------------------------------------------------------------------
# images and manifests
# ---------------------------------------------------------------------------


def load_image(path, size: int | None = None) -> Tensor:
    """Read a PPM/PGM image as Tensor[3,H,W], divided by the file's maxval into [0,1].

    Grayscale images are replicated across the three channels; ``size``
    triggers a bilinear resize to size x size.
    """
    pixels, maxval = read_pnm(path)
    if pixels.ndim == 2:
        pixels = np.repeat(pixels[:, :, None], 3, axis=2)
    chw = pixels.astype(np.float64).transpose(2, 0, 1) / maxval
    if size is not None and chw.shape[1:] != (size, size):
        chw = bilinear_resize_array(chw, size, size)
    return Tensor(chw)


def read_manifest(path) -> list[tuple[Path, str]]:
    """Parse `path<TAB>label` lines; relative paths resolve next to the manifest."""
    manifest = Path(path)
    base = manifest.parent
    entries = []
    for lineno, line in enumerate(manifest.read_text(encoding="utf-8").splitlines(), 1):
        if not line.strip():
            continue
        if "\t" not in line:
            raise DataError(f"{path}:{lineno}: expected `path<TAB>label`")
        item, label = line.split("\t", 1)
        item_path = Path(item)
        if not item_path.is_absolute():
            item_path = base / item_path
        entries.append((item_path, label.strip()))
    return entries
