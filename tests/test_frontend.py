"""Audio frontend: WAV decoding and writing, clip checks, log-Mel extraction."""

import re
import struct
import tracemalloc

import numpy as np
import pytest

from avscene import frontend as fe
from avscene.errors import ConfigurationError, DataError


def make_clip(samples, rate=16000):
    return fe.AudioClip(np.asarray(samples, dtype=np.float64), rate)


# extract_logmel's re² + im² power and banded mel product round differently
# from the reference's |rfft|² and dense product. Over the 26 reference cases
# below the worst absolute difference is 8.9e-16, so this bound leaves an
# 11x margin. Starting every frame one sample late moves the worst value of a
# case by 4.9e-5 to 0.014, where it keeps the frame count.
REFERENCE_TOLERANCE = 1e-14


def index_framed_logmel(clip, hop=400, n_fft=1024):
    """extract_logmel with frames gathered by a fancy index (the reference)."""
    samples = clip.samples
    pad = n_fft // 2
    padded = np.pad(samples, pad, mode="reflect")
    n_frames = 1 + samples.size // hop
    starts = np.arange(n_frames) * hop
    frames = padded[starts[:, None] + np.arange(n_fft)[None, :]] * fe._hann(n_fft)
    power = np.abs(np.fft.rfft(frames, axis=1)) ** 2
    mel_power = power @ fe.mel_filterbank(clip.sample_rate).T
    return np.log(mel_power + fe.LOG_FLOOR)[None, :, :]


class TestWav:
    def test_silence_roundtrip(self, tmp_path):
        path = tmp_path / "z.wav"
        fe.write_wav(path, make_clip(np.zeros(16000)))
        clip = fe.load_wav(path)
        assert clip.sample_rate == 16000
        assert clip.samples.size == 16000
        assert np.all(clip.samples == 0.0)

    def test_int16_scaling(self, tmp_path):
        path = tmp_path / "half.wav"
        fe.write_wav(path, make_clip([0.5, -0.5]))
        clip = fe.load_wav(path)
        assert clip.samples[0] == pytest.approx(16384 / 32768)
        assert clip.samples[1] == pytest.approx(-16384 / 32768)

    def test_stereo_downmix(self, tmp_path):
        import struct

        left = int(0.2 * 32768)
        right = int(0.4 * 32768)
        payload = struct.pack("<hh", left, right)
        header = struct.pack(
            "<4sI4s4sIHHIIHH4sI",
            b"RIFF", 36 + len(payload), b"WAVE",
            b"fmt ", 16, 1, 2, 8000, 32000, 4, 16,
            b"data", len(payload),
        )
        path = tmp_path / "st.wav"
        path.write_bytes(header + payload)
        clip = fe.load_wav(path)
        assert clip.samples.size == 1
        assert clip.samples[0] == pytest.approx((left + right) / 2 / 32768)

    def test_rejects_non_riff(self, tmp_path):
        path = tmp_path / "bad.wav"
        path.write_bytes(b"JUNKJUNKJUNKJUNK")
        with pytest.raises(DataError, match="byte 0"):
            fe.load_wav(path)

    def test_rejects_non_pcm(self, tmp_path):
        import struct

        header = struct.pack(
            "<4sI4s4sIHHIIHH4sI",
            b"RIFF", 36, b"WAVE",
            b"fmt ", 16, 3, 1, 8000, 16000, 2, 16,  # format 3 = float
            b"data", 0,
        )
        path = tmp_path / "f32.wav"
        path.write_bytes(header)
        with pytest.raises(DataError, match="PCM"):
            fe.load_wav(path)

    def test_truncated_chunk(self, tmp_path):
        import struct

        header = struct.pack(
            "<4sI4s4sIHHIIHH4sI",
            b"RIFF", 36 + 100, b"WAVE",
            b"fmt ", 16, 1, 1, 8000, 16000, 2, 16,
            b"data", 100,  # declares 100 bytes, provides none
        )
        path = tmp_path / "trunc.wav"
        path.write_bytes(header)
        with pytest.raises(DataError, match="byte"):
            fe.load_wav(path)


    @staticmethod
    def pcm16_mono(rate, payload):
        import struct

        header = struct.pack(
            "<4sI4s4sIHHIIHH4sI",
            b"RIFF", 36 + len(payload), b"WAVE",
            b"fmt ", 16, 1, 1, rate, 2 * rate, 2, 16,
            b"data", len(payload),
        )
        return header + payload

    def test_zero_sample_rate_names_file_and_byte(self, tmp_path):
        path = tmp_path / "rate0.wav"
        path.write_bytes(self.pcm16_mono(0, b"\x00\x01" * 4))
        # The rate field follows the fmt body's two 16-bit fields (bytes 20-23).
        with pytest.raises(DataError, match=rf"{re.escape(str(path))}: .*rate 0 at byte 24"):
            fe.load_wav(path)

    @pytest.mark.parametrize("payload", [b"", b"\x01"])
    def test_data_chunk_without_a_frame_names_file_and_byte(self, tmp_path, payload):
        path = tmp_path / "empty.wav"
        path.write_bytes(self.pcm16_mono(8000, payload))
        with pytest.raises(DataError, match=rf"{re.escape(str(path))}: data chunk at byte 36"):
            fe.load_wav(path)

    @pytest.mark.parametrize(
        "channels, bits, message",
        [
            # The fmt body starts at byte 20: channels at +2, bits at +14.
            (1, 8, "need 16-bit samples, got 8 at byte 34"),
            (3, 16, "need mono or stereo, got 3 channels at byte 22"),
        ],
        ids=["bits", "channels"],
    )
    def test_sample_layout_errors_name_file_and_byte(self, tmp_path, channels, bits, message):
        import struct

        align = channels * bits // 8
        header = struct.pack(
            "<4sI4s4sIHHIIHH4sI",
            b"RIFF", 36 + 4 * align, b"WAVE",
            b"fmt ", 16, 1, channels, 8000, 8000 * align, align, bits,
            b"data", 4 * align,
        )
        path = tmp_path / "layout.wav"
        path.write_bytes(header + bytes(4 * align))
        with pytest.raises(DataError, match=rf"{re.escape(str(path))}: {message}$"):
            fe.load_wav(path)

    @pytest.mark.parametrize("rate", [8000, 16000, 44100])
    @pytest.mark.parametrize("n", [1, 7, 160000])
    def test_write_wav_bytes_are_pinned(self, tmp_path, n, rate):
        # A 44-byte canonical PCM16 mono header, then the rounded, clipped
        # little-endian samples.
        samples = np.random.default_rng(n).uniform(-1.2, 1.2, n)
        path = tmp_path / "pin.wav"
        fe.write_wav(path, make_clip(samples, rate))
        ints = np.clip(np.round(samples * 32768.0), -32768, 32767).astype("<i2")
        assert path.read_bytes() == self.pcm16_mono(rate, ints.tobytes())

    @staticmethod
    def chunk(chunk_id, body):
        # RIFF pads a chunk of odd size with one byte that its size leaves out.
        return chunk_id + struct.pack("<I", len(body)) + body + b"\x00" * (len(body) & 1)

    @staticmethod
    def riff(*chunks):
        body = b"WAVE" + b"".join(chunks)
        return b"RIFF" + struct.pack("<I", len(body)) + body

    @staticmethod
    def fmt(channels=1, rate=8000):
        return struct.pack("<HHIIHH", 1, channels, rate, rate * 2 * channels, 2 * channels, 16)

    INTS = np.array([8192, -16384, 32767, -32768], dtype="<i2")

    @pytest.mark.parametrize(
        "make, message",
        [
            (lambda t: b"", "missing RIFF tag at byte 0"),
            (lambda t: b"RIFF" + struct.pack("<I", 4) + b"AVI ", "missing WAVE tag at byte 8"),
            (lambda t: t.riff(t.chunk(b"data", bytes(4))), "no fmt chunk before byte 24"),
            (lambda t: t.riff(t.chunk(b"fmt ", t.fmt())), "no data chunk before byte 36"),
            (
                lambda t: t.riff(t.chunk(b"fmt ", t.fmt()[:14]), t.chunk(b"data", bytes(4))),
                "fmt chunk too short at byte 12",
            ),
            (
                lambda t: t.riff() + b"fmt " + struct.pack("<I", 16) + bytes(8),
                "chunk b'fmt ' at byte 12 runs past end of file",
            ),
            (
                lambda t: t.riff(t.chunk(b"fmt ", t.fmt())) + b"data" + struct.pack("<I", 100) + bytes(4),
                "chunk b'data' at byte 36 runs past end of file",
            ),
        ],
        ids=["empty", "wave_tag", "no_fmt", "no_data", "short_fmt", "truncated_fmt", "truncated_data"],
    )
    def test_container_errors_name_file_and_byte(self, tmp_path, make, message):
        path = tmp_path / "bad.wav"
        path.write_bytes(make(self))
        with pytest.raises(DataError, match=re.escape(f"{path}: {message}") + "$"):
            fe.load_wav(path)

    @pytest.mark.parametrize(
        "make",
        [
            lambda t, fmt, data: t.riff(t.chunk(b"LIST", b"INFOxxxx"), fmt, data),
            lambda t, fmt, data: t.riff(fmt, t.chunk(b"note", b"abc"), data),
            lambda t, fmt, data: t.riff(data, fmt),
            lambda t, fmt, data: t.riff(t.chunk(b"fmt ", t.fmt() + bytes(2)), data),
            lambda t, fmt, data: t.riff(fmt, data, t.chunk(b"id3 ", bytes(10))),
            lambda t, fmt, data: t.riff(fmt, data) + b"junk",
        ],
        ids=[
            "chunk_before_fmt",
            "odd_chunk_padded",
            "data_before_fmt",
            "fmt_extension",
            "chunk_after_data",
            "partial_header_at_end",
        ],
    )
    def test_chunk_layouts_that_decode(self, tmp_path, make):
        path = tmp_path / "layout.wav"
        path.write_bytes(make(self, self.chunk(b"fmt ", self.fmt()), self.chunk(b"data", self.INTS.tobytes())))
        clip = fe.load_wav(path)
        assert clip.sample_rate == 8000
        assert np.array_equal(clip.samples, self.INTS / 32768.0)

    def test_every_int16_code_decodes_to_code_over_32768(self, tmp_path):
        codes = np.arange(-32768, 32768).astype("<i2")
        path = tmp_path / "codes.wav"
        path.write_bytes(self.pcm16_mono(8000, codes.tobytes()))
        assert np.array_equal(fe.load_wav(path).samples, codes.astype(np.float64) / 32768.0)

    def test_int16_extremes_decode_exactly(self, tmp_path):
        ints = np.array([-32768, -1, 0, 1, 32767], dtype="<i2")
        path = tmp_path / "ext.wav"
        path.write_bytes(self.pcm16_mono(8000, ints.tobytes()))
        clip = fe.load_wav(path)
        assert clip.samples.tolist() == [-1.0, -1 / 32768, 0.0, 1 / 32768, 32767 / 32768]

    @pytest.mark.parametrize("channels, size, frames", [(1, 5, 2), (2, 6, 1)], ids=["mono", "stereo"])
    def test_bytes_short_of_a_frame_are_dropped(self, tmp_path, channels, size, frames):
        path = tmp_path / "odd.wav"
        payload = np.arange(1, 4, dtype="<i2").tobytes()[:size]
        path.write_bytes(self.riff(self.chunk(b"fmt ", self.fmt(channels)), self.chunk(b"data", payload)))
        clip = fe.load_wav(path)
        want = np.array([1, 2, 3][: frames * channels], dtype=np.float64).reshape(frames, channels)
        assert np.array_equal(clip.samples, want.mean(axis=1) / 32768.0)

    def test_round_trip_error_is_at_most_half_a_step(self, tmp_path):
        samples = np.random.default_rng(3).uniform(-1.0, 32767 / 32768, 20000)
        path = tmp_path / "rt.wav"
        fe.write_wav(path, make_clip(samples))
        assert np.max(np.abs(fe.load_wav(path).samples - samples)) <= 0.5 / 32768

    def test_write_wav_clips_to_the_int16_range(self, tmp_path):
        path = tmp_path / "clip.wav"
        fe.write_wav(path, make_clip([1.0, 2.0, -1.0, -2.0, 32767.4 / 32768]))
        ints = np.frombuffer(path.read_bytes()[44:], dtype="<i2")
        assert ints.tolist() == [32767, 32767, -32768, -32768, 32767]

    def test_write_wav_rejects_a_rate_the_header_cannot_hold(self, tmp_path):
        # The byte rate of mono PCM16, 2 × rate, is a 32-bit header field.
        path = tmp_path / "fast.wav"
        with pytest.raises(ConfigurationError, match=re.escape(f"sample rate {2**31} does not fit")):
            fe.write_wav(path, make_clip(np.zeros(10), 2**31))
        assert not path.exists()
        fe.write_wav(path, make_clip([0.5, -0.25], 2**31 - 1))
        clip = fe.load_wav(path)
        assert clip.sample_rate == 2**31 - 1 and clip.samples.tolist() == [0.5, -0.25]

    @pytest.mark.parametrize("as_path", [str, lambda p: p], ids=["str", "Path"])
    def test_load_wav_takes_str_or_path(self, tmp_path, as_path):
        path = tmp_path / "p.wav"
        path.write_bytes(self.pcm16_mono(8000, self.INTS.tobytes()))
        assert np.array_equal(fe.load_wav(as_path(path)).samples, self.INTS / 32768.0)


class TestAudioClip:
    @pytest.mark.parametrize(
        "rate",
        [16000.5, 16000.0, float("nan"), "16000", 0, -8000, np.int64(0), True],
        ids=["16000.5", "16000.0", "nan", "str", "0", "-8000", "np_int64_0", "True"],
    )
    def test_rate_must_be_a_positive_integer(self, rate):
        with pytest.raises(ConfigurationError, match=re.escape(f"got {rate!r}") + "$"):
            fe.AudioClip(np.zeros(4), rate)

    @pytest.mark.parametrize("shape", [(3000, 2), (1, 4), (2, 2, 2), ()])
    def test_samples_that_are_not_one_dimensional_name_their_shape(self, shape):
        # extract_logmel frames a 1-D signal.
        want = re.escape(f"audio samples must be 1-D, got shape {shape}") + "$"
        with pytest.raises(DataError, match=want):
            fe.AudioClip(np.zeros(shape), 16000)

    def test_numpy_integer_rate_is_accepted(self, tmp_path):
        path = tmp_path / "np.wav"
        fe.write_wav(path, fe.AudioClip(np.zeros(4), np.int32(8000)))
        assert fe.load_wav(path).sample_rate == 8000

    @pytest.mark.parametrize(
        "bad, index", [(np.nan, 0), (np.inf, 3), (-np.inf, 5)], ids=["nan", "inf", "-inf"]
    )
    def test_non_finite_sample_names_its_index(self, bad, index):
        samples = np.zeros(6)
        samples[index:] = bad
        with pytest.raises(DataError, match=rf"audio sample {index} is {bad}, not finite$"):
            fe.AudioClip(samples, 16000)

    NOT_REAL = "audio samples must be integers or floats, got dtype"

    @pytest.mark.parametrize(
        "samples, message",
        [
            (np.array([0.5 + 1j, 0.0]), f"{NOT_REAL} complex128$"),
            (np.array(["a", "b"]), f"{NOT_REAL} <U1$"),
            (np.array([True, False]), f"{NOT_REAL} bool$"),
            ([[0.0, 0.5], [0.25]], "audio samples do not form an array: .*inhomogeneous"),
        ],
        ids=["complex", "str", "bool", "ragged"],
    )
    def test_samples_that_are_not_real_numbers_are_a_data_error(self, samples, message):
        # A cast to float64 would drop an imaginary part, read True as 1.0,
        # or fail with a bare ValueError.
        with pytest.raises(DataError, match=message):
            fe.AudioClip(samples, 16000)

    @pytest.mark.parametrize("dtype", [np.int16, np.uint8, np.float32, np.float64])
    def test_integer_and_float_samples_are_stored_as_float64(self, dtype):
        samples = np.array([0, 1, 2], dtype=dtype)
        clip = fe.AudioClip(samples, 16000)
        assert clip.samples.dtype == np.float64
        assert np.array_equal(clip.samples, samples)
        assert (clip.samples is samples) == (dtype == np.float64)  # float64 is not copied

    @pytest.mark.parametrize("samples", [np.zeros(0), []], ids=["array", "list"])
    def test_empty_samples_are_a_data_error(self, samples):
        with pytest.raises(DataError, match="^audio clip has no samples$"):
            fe.AudioClip(samples, 16000)

    def test_list_samples_are_stored_as_float64(self):
        clip = fe.AudioClip([0, 1, -1], 16000)
        assert clip.samples.dtype == np.float64
        assert clip.samples.tolist() == [0.0, 1.0, -1.0]


class TestLogMel:
    def test_paper_input_shape(self):
        clip = make_clip(np.random.default_rng(4).uniform(-0.5, 0.5, 80000))
        spec = fe.extract_logmel(clip)
        assert spec.values.shape == (1, 201, 64)

    def test_silence_floor(self):
        # Zero power is exactly zero in every mel cell, so the floor is exact.
        spec = fe.extract_logmel(make_clip(np.zeros(8000)))
        assert np.all(spec.values.data == np.log(fe.LOG_FLOOR))

    def test_full_scale_square_wave_stays_finite(self):
        # Full-scale samples: a bin's power is at most 512², the squared sum
        # of the taper, so re² + im² cannot overflow.
        clip = make_clip(np.where(np.arange(16000) % 80 < 40, 1.0, -1.0))
        with np.errstate(all="raise"):
            values = fe.extract_logmel(clip).values.data
        assert np.all(np.isfinite(values))

    def test_sine_lands_in_nearest_band(self):
        # Independent center-frequency oracle for the HTK filterbank.
        rate, freq = 16000, 1000.0
        edges_mel = np.linspace(0.0, 2595.0 * np.log10(1.0 + rate / 2 / 700.0), 66)
        centers_hz = 700.0 * (10.0 ** (edges_mel[1:-1] / 2595.0) - 1.0)
        expected_band = int(np.argmin(np.abs(centers_hz - freq)))

        t = np.arange(32000) / rate
        clip = make_clip(0.9 * np.sin(2 * np.pi * freq * t), rate=rate)
        spec = fe.extract_logmel(clip)
        per_frame = np.argmax(spec.values.data[0], axis=1)
        assert np.all(per_frame == expected_band)

    def test_frame_count_law(self):
        for n in (399, 400, 401, 80000):
            clip = make_clip(np.random.default_rng(n).uniform(-0.1, 0.1, n))
            spec = fe.extract_logmel(clip)
            assert spec.values.shape[1] == 1 + n // 400

    def test_filterbank_rows_normalized(self):
        bank = fe.mel_filterbank(16000)
        assert bank.shape == (64, 513)
        assert np.all(bank >= 0.0)
        assert np.max(np.abs(bank.sum(axis=1) - 1.0)) < 1e-9

    RATES = [8000, 16000, 22050, 44100, 48000, 96000]

    @staticmethod
    def band_edges_hz(rate):
        # N_MELS + 2 edges evenly spaced in mel from 0 Hz to Nyquist.
        return fe.mel_to_hz(np.linspace(0.0, fe.hz_to_mel(rate / 2), fe.N_MELS + 2))

    @pytest.mark.parametrize("rate", RATES)
    def test_filterbank_rows_are_normalized_triangles_between_their_edges(self, rate):
        bank = fe.mel_filterbank(rate)
        edges = self.band_edges_hz(rate)
        bin_hz = np.arange(fe.N_FFT // 2 + 1) * rate / fe.N_FFT
        assert bank.shape == (fe.N_MELS, fe.N_FFT // 2 + 1)
        assert np.max(np.abs(bank.sum(axis=1) - 1.0)) < 1e-9
        for k, row in enumerate(bank):
            inside = (bin_hz > edges[k]) & (bin_hz < edges[k + 2])
            assert np.all(row[~inside] == 0.0) and np.all(row[inside] >= 0.0)
            peak = np.argmax(row)  # the bin nearest the center, on either side
            assert abs(bin_hz[peak] - edges[k + 1]) < rate / fe.N_FFT

    @pytest.mark.parametrize("rate", RATES)
    def test_tone_at_a_wide_band_center_lands_in_that_band(self, rate):
        # The periodic Hann window's main lobe is 4 bins wide, so a band whose
        # slopes span under 3 bins can lose a tone at its center to a neighbour;
        # each wider band must win its own center frequency in every frame.
        edges = self.band_edges_hz(rate)
        slopes = np.minimum(np.diff(edges)[:-1], np.diff(edges)[1:])
        wide = np.flatnonzero(slopes >= 3 * rate / fe.N_FFT)
        assert wide.size >= 36
        t = np.arange(rate) / rate
        for k in wide:
            clip = make_clip(0.9 * np.sin(2 * np.pi * edges[k + 1] * t), rate=rate)
            per_frame = np.argmax(fe.extract_logmel(clip).values.data[0], axis=1)
            assert np.all(per_frame == k), (k, np.unique(per_frame))

    @pytest.mark.parametrize("rate, accepted", [(101274, True), (101275, False)])
    def test_highest_rate_with_a_bin_in_every_filter(self, rate, accepted):
        if accepted:
            assert fe.mel_filterbank(rate).shape == (fe.N_MELS, fe.N_FFT // 2 + 1)
        else:
            with pytest.raises(ConfigurationError, match=f"^sample rate {rate} Hz: a mel filter"):
                fe.mel_filterbank(rate)

    def test_mel_scale_anchors(self):
        # HTK: 700 Hz is log10(2) * 2595 mel, and 0 Hz is 0 mel.
        assert fe.hz_to_mel(0.0) == 0.0 and fe.mel_to_hz(0.0) == 0.0
        assert fe.hz_to_mel(700.0) == pytest.approx(2595.0 * np.log10(2.0), rel=1e-15)
        assert fe.mel_to_hz(2595.0) == pytest.approx(6300.0, rel=1e-14)

    def test_mel_scale_round_trips(self):
        hz = np.linspace(0.0, 48000.0, 4801)
        assert np.allclose(fe.mel_to_hz(fe.hz_to_mel(hz)), hz, rtol=1e-12, atol=1e-9)
        assert np.all(np.diff(fe.hz_to_mel(hz)) > 0.0)

    def test_taper_is_a_periodic_hann(self):
        # Periodic: the first N points of an (N + 1)-point symmetric Hann window.
        assert np.allclose(fe._hann(fe.N_FFT), np.hanning(fe.N_FFT + 1)[:-1], rtol=0, atol=1e-15)
        assert np.allclose(fe._hann(4), [0.0, 0.5, 1.0, 0.5], rtol=0, atol=1e-15)

    def test_rate_whose_lowest_filter_misses_every_bin_is_named(self):
        # At 192 kHz the 1024-point FFT's bins are 187.5 Hz apart, wider than
        # the lowest mel filter; at 96 kHz every filter still covers a bin.
        clip = make_clip(np.zeros(2048), rate=192000)
        want = (
            "^sample rate 192000 Hz: a mel filter is narrower than one FFT bin;"
            " resample the clip to 16000 Hz first$"
        )
        with pytest.raises(ConfigurationError, match=want):
            fe.extract_logmel(clip)
        spec = fe.extract_logmel(make_clip(np.zeros(2048), rate=96000))
        assert spec.values.shape == (1, 6, 64)

    def test_scaling_is_monotone(self):
        rng = np.random.default_rng(6)
        clip = make_clip(rng.uniform(-0.3, 0.3, 12000))
        base = fe.extract_logmel(clip).values.data
        amp = fe.extract_logmel(make_clip(clip.samples * 2.5)).values.data
        assert np.all(amp >= base - 1e-12)

    def test_determinism(self):
        clip = make_clip(np.random.default_rng(8).uniform(-1, 1, 8000))
        a = fe.extract_logmel(clip).values.data
        b = fe.extract_logmel(clip).values.data
        assert np.array_equal(a, b)

    def test_too_short_rejected(self):
        with pytest.raises(DataError):
            fe.extract_logmel(make_clip([0.5]))

    # The strided view and the STFT's 32-row blocks are the same code at any
    # stride. Strides other than HOP = 400 reach more frames at short lengths
    # (hop 1 crosses 32 block edges at n = 1025), so these tests set the constant.
    @pytest.mark.parametrize("hop", [1, 7, 400, 1024])
    @pytest.mark.parametrize("n", [2, 399, 400, 401, 1023, 1024, 1025])
    def test_strided_framing_matches_index_reference(self, monkeypatch, n, hop):
        monkeypatch.setattr(fe, "HOP", hop)
        clip = make_clip(np.random.default_rng(n + hop).uniform(-0.5, 0.5, n))
        got = fe.extract_logmel(clip).values.data
        assert got.shape == (1, 1 + n // hop, 64)
        assert np.max(np.abs(got - index_framed_logmel(clip, hop=hop))) <= REFERENCE_TOLERANCE

    @pytest.mark.parametrize(
        "n, hop",
        [(160000, 400), (160000, 1024)],
        # The ids keep the n-hop-window-n_fft form these cases had while the
        # taper length was a parameter, so earlier runs' ids still match.
        ids=["160000-400-1024-1024", "160000-1024-1024-1024"],
    )
    def test_strided_framing_long_and_windowed(self, monkeypatch, n, hop):
        monkeypatch.setattr(fe, "HOP", hop)
        clip = make_clip(np.random.default_rng(n).uniform(-0.5, 0.5, n))
        got = fe.extract_logmel(clip).values.data
        want = index_framed_logmel(clip, hop=hop)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= REFERENCE_TOLERANCE

    def test_ten_second_clip_peak_stays_bounded(self):
        # Frames, spectra and power go through reused 32-row buffers: the
        # traced peak is 2.30 MiB, 1.23 MiB of it the padded clip. Whole-clip
        # frames and spectra put it at 9.08 MiB, and a whole-clip power array
        # alone at 3.56 MiB.
        clip = make_clip(np.random.default_rng(12).uniform(-0.5, 0.5, 160000))
        fe.extract_logmel(clip)  # fill the filterbank cache first
        tracemalloc.start()
        try:
            fe.extract_logmel(clip)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * 2**20

    @pytest.mark.parametrize("rate", [8000, 16000, 22050, 44100, 96000, 101274])
    def test_mel_bands_rebuild_the_filterbank_exactly(self, rate):
        dense = np.zeros((fe.N_MELS, fe.N_FFT // 2 + 1))
        for mels, bins, weights in fe._mel_bands(rate):
            assert not weights.flags.writeable
            dense[mels, bins] = weights.T
        assert np.array_equal(dense, fe.mel_filterbank(rate))

    def test_filterbank_is_cached_read_only(self):
        bank = fe.mel_filterbank(16000)
        assert bank is fe.mel_filterbank(16000)
        with pytest.raises(ValueError):
            bank[0, 0] = 1.0

