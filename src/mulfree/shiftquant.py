"""Bit-exact 5-bit shift-weight packing and Q16.16 fixed-point inference.

A shift weight is one sign bit plus a 4-bit shift magnitude |p| in [0, 15]
(code = sign_bit << 4 | |p|); codes are packed five bits per weight with
no padding, little-endian within bytes. Activations use Q16.16: a signed
32-bit integer interpreted as value / 2**16. The affine kernel accumulates
exactly left-shifted terms in 64 bits and right-shifts once at the end,
saturating to the representable range.
"""

from __future__ import annotations

import math
import struct
import zlib

import numpy as np

from .errors import EncodingError, FixedPointRangeError

MAGIC = b"SAQ1"
SCALE = 1 << 16
Q16_MIN = -(1 << 31)
Q16_MAX = (1 << 31) - 1


def codes_from_sign_exp(s: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Encode (sign, exponent) into 5-bit codes: bit 4 = negative flag, bits 3..0 = |p|."""
    s = np.asarray(s)
    p = np.asarray(p)
    if s.shape != p.shape:
        raise EncodingError(f"sign {s.shape} and exponent {p.shape} shapes differ")
    if np.any((p < -15) | (p > 0)):
        raise EncodingError("exponent out of [-15, 0]")
    if np.any(np.abs(s.astype(np.int64)) != 1):
        raise EncodingError("sign values must be -1 or +1")
    neg = (s < 0).astype(np.uint8)
    return ((neg << 4) | (-p.astype(np.int64)).astype(np.uint8)).astype(np.uint8)


def sign_exp_from_codes(codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Decode 5-bit codes back to (sign, exponent)."""
    codes = np.asarray(codes)
    if np.any(codes > 0b11111):
        raise EncodingError("code exceeds 5 bits")
    s = np.where(codes & 0b10000, -1, 1).astype(np.int8)
    p = (-(codes & 0b1111).astype(np.int8)).astype(np.int8)
    return s, p


def pack_bits(codes: np.ndarray) -> bytes:
    """Pack 5-bit codes contiguously, LSB first within each byte."""
    codes = np.asarray(codes, dtype=np.uint8).ravel()
    bits = ((codes[:, None] >> np.arange(5, dtype=np.uint8)) & 1).astype(np.uint8).ravel()
    return np.packbits(bits, bitorder="little").tobytes()


def unpack_bits(data: bytes, count: int) -> np.ndarray:
    """Inverse of pack_bits for the first `count` codes."""
    need = (count * 5 + 7) // 8
    if len(data) < need:
        raise EncodingError(f"bitstream holds {len(data)} bytes, need {need} for {count} codes")
    bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8), bitorder="little")
    bits = bits[: count * 5].reshape(count, 5)
    return (bits << np.arange(5, dtype=np.uint8)).sum(axis=1).astype(np.uint8)


def pack_weights(s: np.ndarray, p: np.ndarray) -> bytes:
    """Serialize a (sign, exponent) tensor into the SAQ1 byte stream.

    Layout: magic "SAQ1", rank u32, dims u32 each, packed bitstream,
    CRC32 of the bitstream, all little-endian.
    """
    s = np.asarray(s)
    codes = codes_from_sign_exp(s, p)
    stream = pack_bits(codes)
    head = MAGIC + struct.pack("<I", s.ndim) + struct.pack(f"<{s.ndim}I", *s.shape)
    return head + stream + struct.pack("<I", zlib.crc32(stream))


def unpack_weights(blob: bytes) -> tuple[np.ndarray, np.ndarray]:
    """Parse a SAQ1 byte stream back into (sign, exponent) arrays."""
    if blob[:4] != MAGIC:
        raise EncodingError("not a SAQ1 stream")
    if len(blob) < 8:
        raise EncodingError("truncated SAQ1 header")
    (rank,) = struct.unpack_from("<I", blob, 4)
    off = 8 + 4 * rank
    if len(blob) < off:
        raise EncodingError(f"SAQ1 rank {rank} does not fit a {len(blob)}-byte stream")
    dims = struct.unpack_from(f"<{rank}I", blob, 8)
    count = math.prod(dims)
    nbytes = (count * 5 + 7) // 8
    stream = blob[off : off + nbytes]
    if len(blob) < off + nbytes + 4:
        raise EncodingError("truncated SAQ1 stream")
    (crc,) = struct.unpack_from("<I", blob, off + nbytes)
    if crc != zlib.crc32(stream):
        raise EncodingError("SAQ1 bitstream CRC mismatch")
    s, p = sign_exp_from_codes(unpack_bits(stream, count))
    return s.reshape(dims), p.reshape(dims)


def write_packed(path, s: np.ndarray, p: np.ndarray) -> None:
    with open(path, "wb") as fh:
        fh.write(pack_weights(s, p))


def read_packed(path) -> tuple[np.ndarray, np.ndarray]:
    with open(path, "rb") as fh:
        return unpack_weights(fh.read())


def to_fixed(x) -> np.ndarray:
    """Round to the nearest Q16.16 value (ties away from zero)."""
    x = np.asarray(x, dtype=np.float64)
    q = np.sign(x) * np.floor(np.abs(x) * SCALE + 0.5)
    if np.any(~np.isfinite(x)) or np.any(q < Q16_MIN) or np.any(q > Q16_MAX):
        raise FixedPointRangeError("value outside the Q16.16 range")
    return q.astype(np.int32)


def from_fixed(q) -> np.ndarray:
    return np.asarray(q, dtype=np.float64) / SCALE


def fixed_shift_affine(x_fixed: np.ndarray, s: np.ndarray, p: np.ndarray
                       ) -> tuple[np.ndarray, int]:
    """Integer shift-affine: out[.., o] ~ sum_i s[o,i] * x_fixed[.., i] * 2**p[o,i].

    Each term is an exact left shift, x << (15 - |p|), accumulated in int64
    at 2**-31 resolution; one final arithmetic right shift by 15 normalizes
    back to Q16.16, so the shift truncation costs at most a single ulp per
    output (per-term right shifts would accumulate up to one ulp per input
    channel). The final shift rounds toward -inf on negative sums; the
    result saturates to the Q16.16 range. Intermediate overflow is
    impossible for any Q16.16 input at fan-in up to 2**15. Returns
    (out, number of saturated outputs).
    """
    x_fixed = np.asarray(x_fixed)
    s = np.asarray(s)
    p = np.asarray(p)
    if s.ndim != 2 or s.shape != p.shape or x_fixed.shape[-1] != s.shape[1]:
        raise EncodingError(f"fixed_shift_affine: input {x_fixed.shape} vs codes {s.shape}")
    rows = x_fixed.reshape(-1, s.shape[1]).astype(np.int64, copy=False)
    lshift = 15 + p.astype(np.int64)  # in [0, 15]
    sw = s.astype(np.int64)
    acc = np.zeros((rows.shape[0], s.shape[0]), np.int64)
    for k in range(16):
        mask = lshift == k
        if mask.any():
            acc += (rows << k) @ (sw * mask).T
    acc >>= 15
    overflow = int(np.count_nonzero((acc < Q16_MIN) | (acc > Q16_MAX)))
    out = np.clip(acc, Q16_MIN, Q16_MAX).astype(np.int32)
    return out.reshape(x_fixed.shape[:-1] + (s.shape[0],)), overflow


def shift_affine_fixed(x: np.ndarray, s: np.ndarray, p: np.ndarray
                       ) -> tuple[np.ndarray, int]:
    """Float-in/float-out wrapper over the integer kernel (dequantizes the result)."""
    q, overflow = fixed_shift_affine(to_fixed(x), s, p)
    return from_fixed(q).astype(np.float32), overflow
