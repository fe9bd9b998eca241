"""Audio/image frontend: WAV decoding, resampling, log-Mel extraction."""

import re
import tracemalloc

import numpy as np
import pytest

from avscene import frontend as fe
from avscene import pnm
from avscene.errors import DataError


def make_clip(samples, rate=16000):
    return fe.AudioClip(np.asarray(samples, dtype=np.float64), rate)


def index_framed_logmel(clip, hop=400, n_mels=64, n_fft=1024):
    """extract_logmel with frames gathered by a fancy index (the reference)."""
    samples = clip.samples
    pad = n_fft // 2
    padded = np.pad(samples, pad, mode="reflect")
    n_frames = 1 + samples.size // hop
    starts = np.arange(n_frames) * hop
    frames = padded[starts[:, None] + np.arange(n_fft)[None, :]] * fe._hann(n_fft)
    power = np.abs(np.fft.rfft(frames, axis=1)) ** 2
    mel_power = power @ fe.mel_filterbank(n_mels, n_fft, clip.sample_rate).T
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


class TestResample:
    def test_same_rate_identity(self):
        clip = make_clip(np.random.default_rng(0).uniform(-1, 1, 800))
        out = fe.resample(clip, 16000)
        assert np.array_equal(out.samples, clip.samples)

    def test_constant_preserved(self):
        clip = make_clip(np.full(4800, 0.25), rate=48000)
        out = fe.resample(clip, 16000)
        assert out.samples.size == 1600
        assert np.max(np.abs(out.samples - 0.25)) < 1e-12

    def test_sine_peak_survives(self):
        # FFT-peak oracle: a 440 Hz tone must stay at 440 Hz after 48k -> 16k.
        rate = 48000
        t = np.arange(2 * rate) / rate
        clip = make_clip(0.8 * np.sin(2 * np.pi * 440.0 * t), rate=rate)
        out = fe.resample(clip, 16000)
        assert out.samples.size == 32000
        spectrum = np.abs(np.fft.rfft(out.samples))
        peak_hz = np.argmax(spectrum) * 16000 / out.samples.size
        assert abs(peak_hz - 440.0) <= 16000 / out.samples.size


class TestFixLength:
    def test_truncates(self):
        clip = make_clip(np.arange(96000) / 96000.0)
        out = fe.fix_length(clip, 5.0)
        assert out.samples.size == 80000
        assert np.array_equal(out.samples, clip.samples[:80000])

    def test_pads_with_zeros(self):
        clip = make_clip(np.ones(64000))
        out = fe.fix_length(clip, 5.0)
        assert out.samples.size == 80000
        assert np.all(out.samples[64000:] == 0.0)
        assert np.all(out.samples[:64000] == 1.0)

    def test_exact_length_unchanged(self):
        clip = make_clip(np.random.default_rng(1).uniform(-1, 1, 80000))
        out = fe.fix_length(clip, 5.0)
        assert np.array_equal(out.samples, clip.samples)


class TestLogMel:
    def test_paper_input_shape(self):
        clip = make_clip(np.random.default_rng(4).uniform(-0.5, 0.5, 80000))
        spec = fe.extract_logmel(clip)
        assert spec.values.shape == (1, 201, 64)

    def test_silence_floor(self):
        spec = fe.extract_logmel(make_clip(np.zeros(8000)))
        assert np.max(np.abs(spec.values.data - np.log(1e-10))) < 1e-12

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
            assert spec.num_frames == 1 + n // 400

    def test_filterbank_rows_normalized(self):
        bank = fe.mel_filterbank(64, 1024, 16000)
        assert np.all(bank >= 0.0)
        assert np.max(np.abs(bank.sum(axis=1) - 1.0)) < 1e-9

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

    @pytest.mark.parametrize("hop", [1, 7, 400, 1024])
    @pytest.mark.parametrize("n", [2, 399, 400, 401, 1023, 1024, 1025])
    def test_strided_framing_matches_index_reference(self, n, hop):
        clip = make_clip(np.random.default_rng(n + hop).uniform(-0.5, 0.5, n))
        got = fe.extract_logmel(clip, hop=hop).values.data
        assert got.shape == (1, 1 + n // hop, 64)
        assert np.array_equal(got, index_framed_logmel(clip, hop=hop))

    @pytest.mark.parametrize(
        "n, hop, n_fft",
        [(160000, 400, 1024), (160000, 1024, 1024), (801, 400, 1023)],
        # The ids keep the n-hop-window-n_fft form these cases had while the
        # taper length was a parameter, so earlier runs' ids still match.
        ids=["160000-400-1024-1024", "160000-1024-1024-1024", "801-400-1023-1023"],
    )
    def test_strided_framing_long_and_windowed(self, n, hop, n_fft):
        clip = make_clip(np.random.default_rng(n).uniform(-0.5, 0.5, n))
        got = fe.extract_logmel(clip, hop=hop, n_fft=n_fft)
        want = index_framed_logmel(clip, hop=hop, n_fft=n_fft)
        assert np.array_equal(got.values.data, want)

    def test_ten_second_clip_peak_stays_bounded(self):
        # Frames and spectra go through in blocks: whole-clip arrays of
        # 3.3 MB each put the traced peak at 9.08 MiB; blocked, it is 3.56 MiB.
        clip = make_clip(np.random.default_rng(12).uniform(-0.5, 0.5, 160000))
        fe.extract_logmel(clip)  # fill the filterbank cache first
        tracemalloc.start()
        try:
            fe.extract_logmel(clip)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4.5 * 2**20

    def test_odd_n_fft_keeps_frame_count(self):
        # With hop dividing the length, the last frame starts on the last
        # sample; the index reference runs off the symmetric padding here.
        clip = make_clip(np.random.default_rng(3).uniform(-0.5, 0.5, 800))
        spec = fe.extract_logmel(clip, hop=400, n_fft=1023)
        assert spec.num_frames == 3
        assert np.all(np.isfinite(spec.values.data))

    def test_filterbank_is_cached_read_only(self):
        bank = fe.mel_filterbank(64, 1024, 16000)
        assert bank is fe.mel_filterbank(64, 1024, 16000)
        with pytest.raises(ValueError):
            bank[0, 0] = 1.0


class TestImagesAndManifest:
    def test_ppm_roundtrip(self, tmp_path):
        rng = np.random.default_rng(10)
        img = rng.integers(0, 256, size=(6, 5, 3), dtype=np.uint8)
        path = tmp_path / "x.ppm"
        pnm.write_ppm(path, img)
        pixels, maxval = pnm.read_pnm(path)
        assert np.array_equal(pixels, img) and maxval == 255

    def test_pgm_replicated_to_rgb(self, tmp_path):
        img = np.arange(12, dtype=np.uint8).reshape(3, 4)
        path = tmp_path / "g.pgm"
        with open(path, "wb") as f:
            f.write(b"P5\n4 3\n255\n" + img.tobytes())
        tensor = fe.load_image(path)
        assert tensor.shape == (3, 3, 4)
        assert np.array_equal(tensor.data[0], tensor.data[2])
        assert tensor.data.max() <= 1.0

    @pytest.mark.parametrize("maxval", [15, 255])
    def test_load_image_divides_by_maxval(self, tmp_path, maxval):
        img = np.array([[0, maxval // 3], [maxval - 1, maxval]], dtype=np.uint8)
        path = tmp_path / "m.pgm"
        path.write_bytes(b"P5\n2 2\n%d\n" % maxval + img.tobytes())
        tensor = fe.load_image(path)
        assert tensor.data[0, 1, 1] == 1.0
        assert np.array_equal(tensor.data[1], img / maxval)

    def test_sample_above_maxval_names_byte(self, tmp_path):
        path = tmp_path / "over.pgm"
        path.write_bytes(b"P5\n2 1\n15\n" + bytes([15, 16]))
        with pytest.raises(DataError, match="sample 16 exceeds maxval 15 at byte 11"):
            pnm.read_pnm(path)

    def test_load_image_resize(self, tmp_path):
        img = np.full((10, 8, 3), 128, dtype=np.uint8)
        path = tmp_path / "c.ppm"
        pnm.write_ppm(path, img)
        tensor = fe.load_image(path, size=16)
        assert tensor.shape == (3, 16, 16)
        assert np.max(np.abs(tensor.data - 128 / 255)) < 1e-12

    def test_truncated_ppm(self, tmp_path):
        path = tmp_path / "t.ppm"
        path.write_bytes(b"P6\n4 4\n255\n" + b"\x00" * 10)
        with pytest.raises(DataError, match="byte"):
            pnm.read_pnm(path)

    def test_manifest_parsing(self, tmp_path):
        (tmp_path / "a.wav").write_bytes(b"")
        manifest = tmp_path / "list.tsv"
        manifest.write_text("a.wav\tdog\n\n/abs/b.wav\tcat\n", encoding="utf-8")
        entries = fe.read_manifest(manifest)
        assert entries[0] == (tmp_path / "a.wav", "dog")
        assert str(entries[1][0]) == "/abs/b.wav"
        assert entries[1][1] == "cat"

    def test_manifest_rejects_missing_tab(self, tmp_path):
        manifest = tmp_path / "bad.tsv"
        manifest.write_text("a.wav dog\n", encoding="utf-8")
        with pytest.raises(DataError, match="TAB"):
            fe.read_manifest(manifest)
