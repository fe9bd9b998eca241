"""Audio ingestion: PCM16 WAV files to log-Mel spectrograms, the network's audio input.

The log-Mel settings are fixed: ``N_MELS`` bands from an ``N_FFT``-point
STFT every ``HOP`` samples, a 25 ms hop at 16 kHz. A 10-s 16 kHz clip
gives 401×64. The STFT runs over blocks of frames in buffers reused from
block to block; each block's power is re² + im², and its mel rows come from
a banded product: each group of adjacent filters is multiplied over only the
FFT bins it covers.
"""

from __future__ import annotations

import functools
import struct
import wave
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DataError, is_int
from .tensor import Tensor

N_MELS = 64
N_FFT = 1024
HOP = 400
LOG_FLOOR = 1e-10
# Bytes of extract_logmel's tapered-frame buffer, reused for every block of
# 32 frames; the power and mel rows of a block stay in cache between steps.
_STFT_BLOCK_BYTES = 1 << 18
_MEL_GROUPS = 4  # banded blocks of the mel projection; see _mel_bands


@dataclass
class AudioClip:
    """Mono waveform: a 1-D array of finite samples, nominally in [-1, 1].

    Integer or float samples are stored as float64; a float64 array is kept
    as given, not copied.
    """

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        rate = self.sample_rate
        if not is_int(rate) or rate <= 0:
            raise ConfigurationError(f"sample rate must be a positive integer, got {rate!r}")
        try:
            samples = np.asarray(self.samples)
        except ValueError as exc:  # a ragged nesting
            raise DataError(f"audio samples do not form an array: {exc}") from exc
        if samples.dtype.kind not in "iuf":
            raise DataError(f"audio samples must be integers or floats, got dtype {samples.dtype}")
        self.samples = np.asarray(samples, dtype=np.float64)
        if self.samples.ndim != 1:
            raise DataError(f"audio samples must be 1-D, got shape {self.samples.shape}")
        if self.samples.size == 0:
            raise DataError("audio clip has no samples")
        finite = np.isfinite(self.samples)
        if not finite.all():
            first = np.argmin(finite)
            raise DataError(f"audio sample {first} is {self.samples[first]}, not finite")


@dataclass
class LogMelSpectrogram:
    """Log-compressed mel power spectrogram, values shaped [1, T, n_mels]."""

    values: Tensor


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
    data_offset = None
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
            data_offset, data_size = pos, chunk_size
        pos = body_start + chunk_size + (chunk_size & 1)
    if fmt is None:
        raise DataError(f"{path}: no fmt chunk before byte {len(raw)}")
    if data_offset is None:
        raise DataError(f"{path}: no data chunk before byte {len(raw)}")
    audio_format, channels, sample_rate, _, _, bits = fmt
    if audio_format != 1:
        raise DataError(
            f"{path}: not PCM (format {audio_format}) at byte {fmt_offset}"
        )
    if bits != 16:
        raise DataError(
            f"{path}: need 16-bit samples, got {bits} at byte {fmt_offset + 14}"
        )
    if channels not in (1, 2):
        raise DataError(
            f"{path}: need mono or stereo, got {channels} channels at byte {fmt_offset + 2}"
        )
    if sample_rate == 0:
        raise DataError(f"{path}: sample rate 0 at byte {fmt_offset + 4}")
    frames = data_size // (2 * channels)
    if frames == 0:
        raise DataError(f"{path}: data chunk at byte {data_offset} holds no sample frame")
    ints = np.frombuffer(raw, "<i2", frames * channels, data_offset + 8)
    # One pass, and the same values as a cast then / 32768: 2**-15 is exact.
    samples = ints * (1.0 / 32768.0)
    if channels == 2:
        samples = samples.reshape(-1, 2).mean(axis=1)
    return AudioClip(samples, sample_rate)


def write_wav(path, clip: AudioClip) -> None:
    """Write a mono PCM16 WAV (fixture and export helper)."""
    # The header stores the byte rate, 2 × rate for mono PCM16, in 32 bits.
    if clip.sample_rate > 2**31 - 1:
        raise ConfigurationError(
            f"sample rate {clip.sample_rate} does not fit a PCM16 WAV header (at most {2**31 - 1})"
        )
    ints = np.clip(np.round(clip.samples * 32768.0), -32768, 32767).astype("<i2")
    # wave.open takes a Path for a file object, so it gets an open file.
    with open(path, "wb") as f, wave.open(f, "wb") as out:
        out.setnchannels(1)
        out.setsampwidth(2)
        out.setframerate(clip.sample_rate)
        out.writeframes(ints.tobytes())


# ---------------------------------------------------------------------------
# log-Mel extraction
# ---------------------------------------------------------------------------


def hz_to_mel(hz):
    return 2595.0 * np.log10(1.0 + np.asarray(hz, dtype=np.float64) / 700.0)


def mel_to_hz(mel):
    return 700.0 * (10.0 ** (np.asarray(mel, dtype=np.float64) / 2595.0) - 1.0)


@functools.lru_cache(maxsize=16)
def mel_filterbank(sample_rate: int) -> np.ndarray:
    """Triangular filters on the HTK mel scale, each row normalized to sum 1.

    Returns [N_MELS, N_FFT//2 + 1] weights over the non-negative FFT bins,
    as a cached read-only array. From 101275 Hz up, the lowest filter falls
    between two FFT bins, and the rate is rejected.
    """
    edges_mel = np.linspace(0.0, hz_to_mel(sample_rate / 2.0), N_MELS + 2)
    edges_hz = mel_to_hz(edges_mel)[:, None]
    left, center, right = edges_hz[:-2], edges_hz[1:-1], edges_hz[2:]
    bin_hz = np.arange(N_FFT // 2 + 1) * (sample_rate / N_FFT)
    rising = (bin_hz - left) / (center - left)
    falling = (right - bin_hz) / (right - center)
    # out=rising: two fewer bank-sized temporaries, 0.7 MB less audio_infer peak RSS.
    bank = np.clip(np.minimum(rising, falling, out=rising), 0.0, None, out=rising)
    sums = bank.sum(axis=1)
    if np.any(sums <= 0.0):
        raise ConfigurationError(
            f"sample rate {sample_rate} Hz: a mel filter is narrower than one FFT bin;"
            " resample the clip to 16000 Hz first"
        )
    bank /= sums[:, None]
    bank.flags.writeable = False  # the cache hands this array to every caller
    return bank


@functools.lru_cache(maxsize=16)
def _mel_bands(sample_rate: int) -> tuple:
    """``mel_filterbank(sample_rate)`` cut into ``_MEL_GROUPS`` banded blocks.

    Each block is (filter slice, FFT-bin slice, read-only weights shaped
    [bins, filters]): a run of adjacent filters and the bins they cover.
    ``power[:, bins] @ weights`` gives those filters' columns of
    ``power @ bank.T`` up to rounding, since every weight outside the block
    is zero. A 16 kHz bank has 1001 non-zero weights; the dense product does
    32832 multiply-adds a frame, four blocks 8512. On one x86-64 core with
    numpy 2.4, a 32-frame block took 13 µs with four blocks, 16 and 17 µs
    with two and eight, and 61 µs dense.
    """
    bank = mel_filterbank(sample_rate)
    blocks = []
    for filters in np.array_split(np.arange(N_MELS), _MEL_GROUPS):
        mels = slice(filters[0], filters[-1] + 1)
        covered = np.flatnonzero(bank[mels].any(axis=0))
        bins = slice(covered[0], covered[-1] + 1)
        weights = np.ascontiguousarray(bank[mels, bins].T)
        weights.flags.writeable = False  # the cache hands this array to every caller
        blocks.append((mels, bins, weights))
    return tuple(blocks)


def _hann(window: int) -> np.ndarray:
    # Periodic Hann, as used for STFT analysis.
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(window) / window)


_TAPER = _hann(N_FFT)
_TAPER.flags.writeable = False


def extract_logmel(clip: AudioClip) -> LogMelSpectrogram:
    """STFT power -> mel filterbank -> ln(x + 1e-10), shaped [1, T, N_MELS].

    Each frame is tapered by an N_FFT = 1024-point periodic Hann window, and
    frames start every HOP = 400 samples (25 ms at 16 kHz). Center framing
    with reflect padding, so the frame count is 1 + floor(num_samples / HOP):
    a 10-s 16 kHz clip gives 401×64. A clip sampled at 101275 Hz or more is
    rejected, because its lowest mel filter falls between two FFT bins:
    resample the clip to 16000 Hz first.

    The power is re² + im² of each FFT bin, and the mel projection is a
    banded product (``_mel_bands``) that skips the bank's zero weights. Both
    round differently from the textbook ``ln(|rfft|² @ bankᵀ + 1e-10)``, and
    the tests hold the two within 1e-14 absolute.
    """
    samples = clip.samples
    if samples.size < 2:
        raise DataError(
            f"clip of {samples.size} samples is too short to frame with reflection"
        )
    bands = _mel_bands(clip.sample_rate)
    # Frame t is padded[t*HOP : t*HOP + N_FFT].
    padded = np.pad(samples, N_FFT // 2, mode="reflect")
    windows = np.lib.stride_tricks.sliding_window_view(padded, N_FFT)[::HOP]
    n_frames = windows.shape[0]
    # Tapered frames, spectra and power are made one block of rows at a time,
    # in buffers reused across blocks, and each block's mel rows are written
    # straight into the output. Whole-clip arrays (3.3 MB each for a 10-s
    # clip) pushed the heap's swing per call past the point where malloc
    # hands the freed top back to the OS, so some processes faulted ~10 MB
    # back in on every call and ran at two thirds of the speed of others.
    rows = _STFT_BLOCK_BYTES // (8 * N_FFT)
    frames = np.empty((rows, N_FFT))
    power = np.empty((rows, N_FFT // 2 + 1))
    mel = np.empty((n_frames, N_MELS))
    for first in range(0, n_frames, rows):
        stop = min(first + rows, n_frames)
        block = slice(0, stop - first)
        # A copy, then an in-place taper: 22 µs against 33 µs per 32-frame
        # block (numpy 2.4, 2-vCPU x86 VM) for one multiply straight from
        # the strided windows.
        frames[block] = windows[first:stop]
        frames[block] *= _TAPER
        parts = np.fft.rfft(frames[block], axis=1).view(np.float64)  # re, im, re, im, ...
        np.square(parts, out=parts)
        np.add(parts[:, 0::2], parts[:, 1::2], out=power[block])
        for mels, bins, weights in bands:
            np.matmul(power[block, bins], weights, out=mel[first:stop, mels])
    mel += LOG_FLOOR
    np.log(mel, out=mel)
    return LogMelSpectrogram(values=Tensor(mel[None]))
