import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mulfree.errors import EncodingError, FixedPointRangeError
from mulfree.framing import frame
from mulfree.layers import quantize_shift
from mulfree.shiftquant import (Q16_MAX, Q16_MIN, codes_from_sign_exp,
                                fixed_shift_affine, from_fixed, pack_bits,
                                pack_weights, shift_affine_fixed, sign_exp_from_codes,
                                to_fixed, unpack_bits, unpack_weights)
from mulfree.tensor import affine_map, make_rng

# every shift-layer (c_in, c_out) of the desk and default presets
PRESET_SHIFT_SHAPES = [(6, 8), (8, 8), (8, 16), (16, 32), (35, 32), (35, 64),
                       (6, 64), (64, 64), (64, 128), (128, 256), (259, 512), (515, 1024)]


def fixed_shift_affine_loop(x_fixed, s, p):
    """The per-exponent kernel: one int64 product per occupied shift k over
    the input shifted left by k; the single-product kernel must match it bit
    for bit, saturation count included."""
    rows = np.asarray(x_fixed).reshape(-1, s.shape[1]).astype(np.int64)
    lshift = 15 + p.astype(np.int64)
    sw = s.astype(np.int64)
    acc = np.zeros((rows.shape[0], s.shape[0]), np.int64)
    for k in range(16):
        mask = lshift == k
        if mask.any():
            acc += (rows << k) @ (sw * mask).T
    acc >>= 15
    overflow = int(np.count_nonzero((acc < Q16_MIN) | (acc > Q16_MAX)))
    return np.clip(acc, Q16_MIN, Q16_MAX).astype(np.int32), overflow


class TestCodes:
    def test_unit_weight_code(self):
        codes = codes_from_sign_exp(np.array([1]), np.array([0]))
        assert codes[0] == 0b00000

    def test_negative_quarter_code(self):
        codes = codes_from_sign_exp(np.array([-1]), np.array([-2]))
        assert codes[0] == 0b10010

    def test_all_32_codes_roundtrip(self):
        codes = np.arange(32, dtype=np.uint8)
        s, p = sign_exp_from_codes(codes)
        back = codes_from_sign_exp(s, p)
        np.testing.assert_array_equal(back, codes)

    def test_out_of_range_exponent(self):
        with pytest.raises(EncodingError):
            codes_from_sign_exp(np.array([1]), np.array([-16]))
        with pytest.raises(EncodingError):
            codes_from_sign_exp(np.array([1]), np.array([1]))

    def test_bad_sign(self):
        with pytest.raises(EncodingError):
            codes_from_sign_exp(np.array([0]), np.array([0]))


class TestBitPacking:
    def test_two_code_byte_layout(self):
        # codes 18 (10010b) then 3 (00011b), LSB first:
        # stream bits = 0,1,0,0,1 | 1,1,0,0,0 -> byte0 = 0x72, byte1 = 0x00
        packed = pack_bits(np.array([18, 3], np.uint8))
        assert packed == b"\x72\x00"

    def test_density_five_bits_per_weight(self):
        assert len(pack_bits(np.zeros(8, np.uint8))) == 5  # 40 bits exactly

    def test_roundtrip_random_codes(self):
        rng = make_rng(0)
        codes = rng.integers(0, 32, size=7).astype(np.uint8)
        np.testing.assert_array_equal(unpack_bits(pack_bits(codes), 7), codes)

    def test_truncated_stream(self):
        with pytest.raises(EncodingError):
            unpack_bits(b"\x00", 7)

    @settings(deadline=None, max_examples=50)
    @given(st.lists(st.integers(0, 31), min_size=1, max_size=40))
    def test_roundtrip_property(self, codes):
        codes = np.array(codes, np.uint8)
        np.testing.assert_array_equal(unpack_bits(pack_bits(codes), len(codes)), codes)


class TestWeightStream:
    def test_roundtrip_with_shape(self):
        rng = make_rng(1)
        s, p, _ = quantize_shift(rng.uniform(-1, 1, (3, 5)).astype(np.float32))
        s2, p2 = unpack_weights(pack_weights(s, p))
        np.testing.assert_array_equal(s, s2)
        np.testing.assert_array_equal(p, p2)

    def test_file_roundtrip_and_crc(self, tmp_path):
        rng = make_rng(2)
        s, p, _ = quantize_shift(rng.uniform(-1, 1, (4, 4)).astype(np.float32))
        path = tmp_path / "w.saq1"
        path.write_bytes(pack_weights(s, p))
        s2, p2 = unpack_weights(path.read_bytes())
        np.testing.assert_array_equal(s, s2)
        np.testing.assert_array_equal(p, p2)
        blob = bytearray(path.read_bytes())
        blob[16] ^= 0xFF  # flip a bitstream byte (the header is 16 bytes)
        path.write_bytes(bytes(blob))
        with pytest.raises(EncodingError):
            unpack_weights(path.read_bytes())

    def test_crc_covers_the_shape(self):
        s, p, _ = quantize_shift(make_rng(2).uniform(-1, 1, (4, 4)).astype(np.float32))
        blob = bytearray(pack_weights(s, p))
        blob[8:16] = struct.pack("<2I", 2, 8)  # same count, another shape
        with pytest.raises(EncodingError):
            unpack_weights(bytes(blob))

    def test_magic_check(self):
        with pytest.raises(EncodingError):
            unpack_weights(b"NOPE" + b"\x00" * 16)

    def test_truncated_header(self):
        with pytest.raises(EncodingError):
            unpack_weights(b"SAQ1\x02\x00")

    def test_rank_beyond_numpy_limit(self):
        body = struct.pack("<I70I", 70, *[1] * 70) + bytes(1)  # one code, 70 dims of 1
        with pytest.raises(EncodingError):
            unpack_weights(frame(b"SAQ1", body))

    def test_rank_beyond_stream(self):
        with pytest.raises(EncodingError):
            unpack_weights(b"SAQ1" + (1 << 31).to_bytes(4, "little") + b"\x00" * 16)


class TestFixedQ16:
    def test_definition_values(self):
        assert int(to_fixed(1.0)) == 65536
        assert int(to_fixed(-0.5)) == -32768
        assert int(to_fixed(0.3)) == 19661  # round(0.3 * 65536) = round(19660.8)

    def test_roundtrip_error_bound(self):
        rng = make_rng(3)
        x = rng.uniform(-100, 100, 4096)
        err = np.abs(from_fixed(to_fixed(x)) - x)
        assert err.max() <= 2.0 ** -17

    def test_overflow_raises(self):
        with pytest.raises(FixedPointRangeError):
            to_fixed(32768.0)
        with pytest.raises(FixedPointRangeError):
            to_fixed(np.inf)


class TestFixedShiftAffine:
    def test_single_right_shift(self):
        y, ovf = fixed_shift_affine(np.array([65536], np.int32),
                                    np.array([[1]]), np.array([[-1]]))
        assert y[0] == 32768 and ovf == 0  # 1.0 * 2^-1 = 0.5

    def test_identity_shift(self):
        x = np.array([12345, -678], np.int32).reshape(2, 1)
        y, _ = fixed_shift_affine(x, np.array([[1]]), np.array([[0]]))
        np.testing.assert_array_equal(y[:, 0], x[:, 0])

    def test_two_input_dot(self):
        # 2.0 * 0.5 + 3.0 * 0.25 = 1.75 -> 114688 in Q16.16
        x = to_fixed(np.array([2.0, 3.0]))
        y, _ = fixed_shift_affine(x, np.array([[1, 1]]), np.array([[-1, -2]]))
        assert y[0] == 114688

    def test_negative_shift_rounds_toward_minus_inf(self):
        y, _ = fixed_shift_affine(np.array([-3], np.int32),
                                  np.array([[1]]), np.array([[-1]]))
        assert y[0] == -2  # -3 >> 1 floors to -2, not -1

    def test_saturation_counted_and_clamped(self):
        big = np.full(4, 2 ** 30, np.int64)
        y, ovf = fixed_shift_affine(big, np.ones((1, 4), np.int8),
                                    np.zeros((1, 4), np.int8))
        assert ovf == 1 and y[0] == 2 ** 31 - 1

    def test_parity_with_float_forward(self):
        rng = make_rng(4)
        worst = 0.0
        for _ in range(50):
            ci = int(rng.integers(1, 65))
            co = int(rng.integers(1, 65))
            s, p, wq = quantize_shift(rng.uniform(-1, 1, (co, ci)).astype(np.float32))
            x = rng.uniform(-8, 8, (20, ci)).astype(np.float32)
            y_float = affine_map(x, wq)
            y_fixed, ovf = shift_affine_fixed(x, s, p)
            assert ovf == 0
            worst = max(worst, float(np.abs(y_fixed - y_float).max()))
        assert worst <= 2.0 ** -12

    def test_shape_mismatch(self):
        with pytest.raises(EncodingError):
            fixed_shift_affine(np.zeros(3, np.int32), np.ones((2, 4)), np.zeros((2, 4)))

    @pytest.mark.parametrize("inputs", ["normal", "full_range"])
    @pytest.mark.parametrize("ci,co", PRESET_SHIFT_SHAPES)
    def test_bit_identical_to_per_exponent_loop(self, ci, co, inputs):
        rng = make_rng(ci * 10007 + co)
        s = rng.choice(np.array([-1, 1], np.int8), (co, ci))
        p = rng.integers(-15, 1, (co, ci)).astype(np.int8)  # all 16 shifts
        if inputs == "normal":
            x = to_fixed(rng.normal(0.0, 3.0, (32, ci)))
        else:  # the whole Q16.16 range, so many outputs saturate
            x = rng.integers(Q16_MIN, Q16_MAX, (32, ci), endpoint=True).astype(np.int32)
        y, ovf = fixed_shift_affine(x, s, p)
        y_ref, ovf_ref = fixed_shift_affine_loop(x, s, p)
        assert y.dtype == np.int32 and np.array_equal(y, y_ref)
        assert ovf == ovf_ref
        assert (ovf > 0) == (inputs == "full_range")
