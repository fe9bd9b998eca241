"""Binary PPM (P6) and PGM (P5) reading and writing.

These formats carry the visual inputs (``frontend.load_image`` reads them);
no image codec dependency is needed and the bytes are reproducible.
"""

from __future__ import annotations

import numpy as np

from .errors import DataError


def _read_token(raw: bytes, pos: int) -> tuple[bytes, int]:
    # Skip whitespace and '#' comment lines.
    n = len(raw)
    while pos < n:
        ch = raw[pos : pos + 1]
        if ch == b"#":
            while pos < n and raw[pos : pos + 1] != b"\n":
                pos += 1
        elif ch.isspace():
            pos += 1
        else:
            break
    start = pos
    while pos < n and not raw[pos : pos + 1].isspace():
        pos += 1
    if start == pos:
        raise DataError(f"unexpected end of PNM header at byte {start}")
    return raw[start:pos], pos


def read_pnm(path) -> tuple[np.ndarray, int]:
    """Read P5 -> uint8[H,W] or P6 -> uint8[H,W,3], with the header's maxval.

    A sample above maxval is rejected, so pixels / maxval lies in [0, 1].
    """
    with open(path, "rb") as f:
        raw = f.read()
    magic, pos = _read_token(raw, 0)
    if magic not in (b"P5", b"P6"):
        raise DataError(
            f"{path}: unsupported PNM magic {magic!r} at byte {pos - len(magic)}"
        )
    fields = []
    for name, top in (("width", np.inf), ("height", np.inf), ("maxval", 255)):
        token, pos = _read_token(raw, pos)
        start = pos - len(token)
        if not token.isdigit():  # int() would also take a sign or an underscore
            raise DataError(f"{path}: bad PNM header token {token!r} at byte {start}")
        value = int(token)
        if not 1 <= value <= top:
            raise DataError(f"{path}: bad PNM {name} {value} at byte {start}")
        fields.append(value)
    width, height, maxval = fields
    pos += 1  # single whitespace after maxval
    channels = 3 if magic == b"P6" else 1
    expected = width * height * channels
    if len(raw) - pos < expected:
        raise DataError(
            f"{path}: PNM payload ends at byte {len(raw)}, expected {pos + expected}"
        )
    pixels = np.frombuffer(raw, dtype=np.uint8, count=expected, offset=pos)
    over = np.flatnonzero(pixels > maxval)
    if over.size:
        raise DataError(
            f"{path}: sample {pixels[over[0]]} exceeds maxval {maxval} "
            f"at byte {pos + over[0]}"
        )
    shape = (height, width, 3) if channels == 3 else (height, width)
    return pixels.reshape(shape), maxval


def write_ppm(path, image: np.ndarray) -> None:
    """Write uint8[H,W,3] as binary P6."""
    img = np.asarray(image)
    if img.ndim != 3 or img.shape[2] != 3 or img.dtype != np.uint8:
        raise DataError(f"write_ppm: need uint8[H,W,3], got {img.dtype}{img.shape}")
    h, w = img.shape[:2]
    with open(path, "wb") as f:
        f.write(b"P6\n%d %d\n255\n" % (w, h))
        f.write(np.ascontiguousarray(img).tobytes())
