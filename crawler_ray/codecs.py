"""Deterministic toy image codecs + PSNR.

The sandbox has no image libraries (no PIL/cv2), so per the build rules the
*decode step* of the multimodal path is a clearly-marked deterministic fake:
three tiny codecs with REAL encode/decode round-trips over numpy pixel
arrays, one of them lossy, so the per-row invariant from BASELINE.json
``input_hint`` (decoded-pixel allclose, PSNR >= 40 dB for lossy formats,
caption equality) is a real check, not a tautology.

Formats:
- ``bmp``  — magic ``BMPX`` + w + h + raw RGB bytes (lossless)
- ``png``  — magic ``PNGX`` + w + h + zlib(raw RGB) (lossless)
- ``jpeg`` — magic ``JPGX`` + w + h + zlib(quantized RGB); uniform
  quantization step 4 → PSNR ≈ 46 dB (lossy, above the 40 dB gate)

Swap these for PIL/turbojpeg calls on a real deployment; every other part
of the plumbing (binary Arrow columns, batch sizes, actor signatures) is
format-agnostic.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

_MAGIC = {"bmp": b"BMPX", "png": b"PNGX", "jpeg": b"JPGX"}
_FMT_OF_MAGIC = {v: k for k, v in _MAGIC.items()}
_Q = 4  # jpeg-ish quantization step


def encode_image(pixels: np.ndarray, fmt: str) -> bytes:
    """pixels: uint8 array of shape (h, w, 3)."""
    h, w, c = pixels.shape
    assert c == 3 and pixels.dtype == np.uint8
    header = _MAGIC[fmt] + struct.pack("<II", w, h)
    if fmt == "bmp":
        return header + pixels.tobytes()
    if fmt == "png":
        return header + zlib.compress(pixels.tobytes(), 1)
    if fmt == "jpeg":
        q = ((pixels.astype(np.uint16) // _Q) * _Q + _Q // 2).clip(0, 255).astype(np.uint8)
        return header + zlib.compress(q.tobytes(), 1)
    raise ValueError(f"unknown fmt {fmt!r}")


def decode_image(data: bytes) -> np.ndarray:
    """Returns uint8 (h, w, 3). Raises ValueError on corrupt payload."""
    fmt = _FMT_OF_MAGIC.get(data[:4])
    if fmt is None or len(data) < 12:
        raise ValueError("unknown image magic or short header")
    w, h = struct.unpack("<II", data[4:12])
    rest = data[12:]
    try:
        raw = rest if fmt == "bmp" else zlib.decompress(rest)
    except zlib.error as e:
        raise ValueError(f"corrupt image payload: {e}") from None
    arr = np.frombuffer(raw, dtype=np.uint8)
    if arr.size != w * h * 3:
        raise ValueError("corrupt image payload")
    return arr.reshape(h, w, 3)


def psnr(a: np.ndarray, b: np.ndarray) -> float:
    """Peak signal-to-noise ratio in dB; inf for identical images.

    Integer arithmetic until the final division: squared diffs fit in
    int32 and their sum (accumulated in int64) is exact, so values are
    bit-identical to the float64 formulation while avoiding two
    full-image float copies."""
    d = a.astype(np.int32) - b
    mse = float(np.sum(d * d, dtype=np.int64)) / d.size
    if mse == 0:
        return float("inf")
    return 10.0 * np.log10(255.0**2 / mse)


def grayscale(pixels: np.ndarray) -> np.ndarray:
    """float64 channel mean of uint8 (..., 3) pixels.

    The channel sum of three uint8 values is exact in uint16 and one IEEE
    division rounds correctly, so the values are bit-identical to
    ``pixels.mean(axis=-1, dtype=np.float64)`` — whose reduction over a
    size-3 axis costs several times more."""
    s = pixels[..., 0].astype(np.uint16) + pixels[..., 1] + pixels[..., 2]
    return s / 3.0


def perceptual_hashes(pixels: np.ndarray) -> list[int]:
    """64-bit block-mean hashes (8x8 grayscale mean-threshold, signed
    int64) of a stack of same-shape uint8 (n, h, w, 3) images. When h and
    w are multiples of 8 (every corpus dim is) the stack is hashed in one
    vectorized pass; values equal ``perceptual_hash`` per image."""
    n, h, w, _ = pixels.shape
    if h % 8 or w % 8:
        return [perceptual_hash(px) for px in pixels]
    g = grayscale(pixels)
    blocks = g.reshape(n, 8, h // 8, 8, w // 8).mean(axis=(2, 4))
    bits = blocks > blocks.mean(axis=(1, 2), keepdims=True)
    return [_signed64(row) for row in np.packbits(bits.reshape(n, 64), axis=1)]


def perceptual_hash(pixels: np.ndarray) -> int:
    """64-bit block-mean hash (8x8 grayscale mean-threshold), signed int64."""
    h, w = pixels.shape[:2]
    if h % 8 == 0 and w % 8 == 0:
        return perceptual_hashes(pixels[None])[0]
    # uneven blocks: rows/cols split at floor(k * dim / 8), each block at
    # least one pixel wide
    g = grayscale(pixels)
    ys = (np.arange(9) * h) // 8
    xs = (np.arange(9) * w) // 8
    blocks = np.empty((8, 8))
    for i in range(8):
        for j in range(8):
            blocks[i, j] = g[
                ys[i] : max(ys[i + 1], ys[i] + 1), xs[j] : max(xs[j + 1], xs[j] + 1)
            ].mean()
    return _signed64(np.packbits((blocks > blocks.mean()).flatten()))


def _signed64(packed: np.ndarray) -> int:
    """The 8 packed hash bytes, big-endian, as a signed int64 value."""
    v = int.from_bytes(packed.tobytes(), "big")
    return v - 2**64 if v >= 2**63 else v
