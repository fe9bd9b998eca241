"""Audio/image frontend: WAV decoding, resampling, log-Mel extraction."""

import re
import tracemalloc

import numpy as np
import pytest

from avscene import frontend as fe
from avscene import pnm
from avscene.errors import ConfigurationError, DataError


def make_clip(samples, rate=16000):
    return fe.AudioClip(np.asarray(samples, dtype=np.float64), rate)


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


class TestArguments:
    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda clip, image: fe.load_image(image, size=0), "image size must be >= 1, got 0"),
            (lambda clip, image: fe.load_image(image, size=-1), "image size must be >= 1, got -1"),
            (lambda clip, image: fe.load_image(image, size=2.5), "image size must be an integer, got 2.5"),
            (lambda clip, image: fe.load_image(image, size=True), "image size must be an integer, got True"),
            (lambda clip, image: fe.fix_length(clip, float("nan")), "duration .* got nan"),
            (lambda clip, image: fe.fix_length(clip, float("inf")), "duration .* got inf"),
            (lambda clip, image: fe.resample(clip, float("nan")), "target rate .* got nan"),
            (
                lambda clip, image: fe.fix_length(clip, 1e300),
                r"target duration 1e\+300 s asks for 1.6e\+304 samples, .* float64 array can hold",
            ),
            (
                lambda clip, image: fe.resample(clip, 1e300),
                r"target rate 1e\+300 asks for 5e\+298 samples, .* float64 array can hold",
            ),
            (
                lambda clip, image: fe.fix_length(clip, 1e-9),
                r"target duration 1e-09 s asks for 1\.6e-05 samples, which rounds to 0",
            ),
            (
                lambda clip, image: fe.resample(clip, 1e-3),
                r"target rate 0\.001 asks for 5e-05 samples, which rounds to 0",
            ),
        ],
        ids=[
            "size_0",
            "size_-1",
            "size_2.5",
            "size_True",
            "seconds_nan",
            "seconds_inf",
            "rate_nan",
            "seconds_1e300",
            "rate_1e300",
            "seconds_1e-9",
            "rate_1e-3",
        ],
    )
    def test_bad_value_is_a_configuration_error_naming_it(self, tmp_path, call, message):
        image = tmp_path / "x.ppm"
        pnm.write_ppm(image, np.zeros((4, 4, 3), dtype=np.uint8))
        with pytest.raises(ConfigurationError, match=message + "$"):
            call(make_clip(np.zeros(800)), image)


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
        bank = fe.mel_filterbank(16000)
        assert bank.shape == (64, 513)
        assert np.all(bank >= 0.0)
        assert np.max(np.abs(bank.sum(axis=1) - 1.0)) < 1e-9

    def test_rate_whose_lowest_filter_misses_every_bin_is_named(self):
        # At 192 kHz the 1024-point FFT's bins are 187.5 Hz apart, wider than
        # the lowest mel filter; at 96 kHz every filter still covers a bin.
        clip = make_clip(np.zeros(2048), rate=192000)
        want = (
            "^sample rate 192000 Hz: a mel filter is narrower than one FFT bin;"
            r" resample the clip to 16000 Hz first \(frontend.resample\)$"
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
        assert np.array_equal(got, index_framed_logmel(clip, hop=hop))

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
        got = fe.extract_logmel(clip)
        want = index_framed_logmel(clip, hop=hop)
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

    def test_filterbank_is_cached_read_only(self):
        bank = fe.mel_filterbank(16000)
        assert bank is fe.mel_filterbank(16000)
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

    @pytest.mark.parametrize(
        "header, message",
        [
            (b"P6\n4 x3 255\n", "bad PNM header token b'x3' at byte 5"),
            (b"P5 # note\n2 2\n25a\n", "bad PNM header token b'25a' at byte 14"),
            (b"# note\nP7\n1 1\n255\n", "unsupported PNM magic b'P7' at byte 7"),
            (b"P5\n4 -2\n255\n", "bad PNM header token b'-2' at byte 5"),
            (b"P5\n1_0 2\n255\n", "bad PNM header token b'1_0' at byte 3"),
        ],
        ids=["height", "maxval_after_comment", "magic_after_comment", "sign", "underscore"],
    )
    def test_bad_header_token_names_its_first_byte(self, tmp_path, header, message):
        path = tmp_path / "h.pnm"
        path.write_bytes(header + bytes(12))
        with pytest.raises(DataError, match=re.escape(message) + "$"):
            pnm.read_pnm(path)

    @pytest.mark.parametrize(
        "header, message",
        [
            (b"P6\n0 4\n255\n", "bad PNM width 0 at byte 3"),
            (b"P5\n4 0\n255\n", "bad PNM height 0 at byte 5"),
            (b"P6 # note\n4 4\n300\n", "bad PNM maxval 300 at byte 14"),
            (b"P5\n4 4\n0\n", "bad PNM maxval 0 at byte 7"),
        ],
        ids=["width_0", "height_0", "maxval_300", "maxval_0"],
    )
    def test_bad_header_field_names_field_and_byte(self, tmp_path, header, message):
        path = tmp_path / "f.pnm"
        path.write_bytes(header + bytes(48))
        with pytest.raises(DataError, match=re.escape(f"{path}: {message}") + "$"):
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

    @pytest.mark.parametrize(
        "text, message",
        [
            ("a.wav\tdog\n\tdog\n", "bad.tsv:2: empty path"),
            ("a.wav\tdog\n  \tdog\n", "bad.tsv:2: empty path"),
            ("clip.wav\t\n", "bad.tsv:1: empty label"),
            ("clip.wav\t  \n", "bad.tsv:1: empty label"),
        ],
        ids=["no_path", "blank_path", "no_label", "blank_label"],
    )
    def test_manifest_rejects_empty_fields(self, tmp_path, text, message):
        manifest = tmp_path / "bad.tsv"
        manifest.write_text(text, encoding="utf-8")
        with pytest.raises(DataError, match=re.escape(message) + "$"):
            fe.read_manifest(manifest)

    def test_manifest_that_is_not_utf8_names_the_file(self, tmp_path):
        manifest = tmp_path / "latin1.tsv"
        manifest.write_bytes("caf\u00e9.wav\tdog\n".encode("latin-1"))
        with pytest.raises(DataError, match=re.escape(f"{manifest}: ") + ".*utf-8"):
            fe.read_manifest(manifest)
