"""End-to-end encoder/decoder tests: round-trip fidelity, staged API,
marker handling, resize, malformed input."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import synthetic_photo
from repro.jpeg import (JpegFormatError, TruncatedStreamError,
                        coefficients_to_planes, decode, decode_resized,
                        encode, entropy_decode, parse_jpeg, planes_to_image,
                        resize_bilinear)


def make_test_image(h, w, seed=0):
    """Smooth gradient + mild texture: compresses realistically."""
    rng = np.random.default_rng(seed)
    yy, xx = np.mgrid[0:h, 0:w]
    base = np.stack([xx * 255 / max(w - 1, 1),
                     yy * 255 / max(h - 1, 1),
                     (xx + yy) * 255 / max(h + w - 2, 1)], axis=-1)
    noise = rng.normal(0, 6, (h, w, 3))
    return np.clip(base + noise, 0, 255).astype(np.uint8)


def psnr(a, b):
    mse = np.mean((a.astype(np.float64) - b.astype(np.float64)) ** 2)
    return np.inf if mse == 0 else 10 * np.log10(255.0 ** 2 / mse)


# ----------------------------------------------------------- round trips
@pytest.mark.parametrize("subsampling", ["4:4:4", "4:2:0"])
@pytest.mark.parametrize("quality", [50, 75, 95])
def test_color_roundtrip_quality(subsampling, quality):
    img = make_test_image(64, 80)
    out = decode(encode(img, quality=quality, subsampling=subsampling))
    assert out.shape == img.shape
    assert psnr(out, img) > 30


def test_higher_quality_higher_fidelity():
    img = make_test_image(48, 48, seed=1)
    p_low = psnr(decode(encode(img, quality=30)), img)
    p_high = psnr(decode(encode(img, quality=90)), img)
    assert p_high > p_low


def test_higher_quality_bigger_file():
    img = make_test_image(48, 48, seed=2)
    assert len(encode(img, quality=90)) > len(encode(img, quality=30))


def test_grayscale_roundtrip():
    img = make_test_image(40, 56, seed=3)[..., 0]
    out = decode(encode(img, quality=85))
    assert out.shape == img.shape
    assert out.ndim == 2
    assert psnr(out, img) > 35


@pytest.mark.parametrize("h,w", [(8, 8), (16, 24), (17, 23), (1, 1),
                                 (9, 31), (64, 48)])
def test_arbitrary_dimensions(h, w):
    img = make_test_image(h, w, seed=h * 100 + w)
    out = decode(encode(img, quality=80, subsampling="4:2:0"))
    assert out.shape == (h, w, 3)


def test_flat_image_exact_dc():
    img = np.full((32, 32, 3), 128, dtype=np.uint8)
    out = decode(encode(img, quality=75))
    assert np.max(np.abs(out.astype(int) - 128)) <= 2


def test_restart_interval_roundtrip():
    img = make_test_image(64, 64, seed=4)
    plain = decode(encode(img, quality=75, subsampling="4:2:0"))
    rst = decode(encode(img, quality=75, subsampling="4:2:0",
                        restart_interval=2))
    np.testing.assert_array_equal(plain, rst)


@pytest.mark.parametrize("gray", [False, True], ids=["420", "gray"])
@pytest.mark.parametrize("restart_interval", [1, 3, 4, 7])
def test_restart_segments_decode_sequentially(gray, restart_interval):
    img = synthetic_photo(np.random.default_rng(restart_interval), 64, 80,
                          gray=gray)
    subsampling = "4:4:4" if gray else "4:2:0"
    data = encode(img, subsampling=subsampling,
                  restart_interval=restart_interval)
    np.testing.assert_array_equal(
        decode(data), decode(encode(img, subsampling=subsampling)))
    # Cut the second restart segment down to its first two bytes: the
    # decode must fail in that segment's first MCU, not resync on RST1.
    start = parse_jpeg(data).scan_offset
    rst = [i for i in range(start, len(data) - 1)
           if data[i] == 0xFF and 0xD0 <= data[i + 1] <= 0xD7]
    assert rst[1] - rst[0] > 4, "second segment too short to cut"
    with pytest.raises(TruncatedStreamError,
                       match=f"in MCU {restart_interval}:"):
        decode(data[:rst[0] + 4] + data[rst[1]:])


def test_restart_interval_many_segments():
    # >8 restarts exercises the RSTn modulo-8 counter.
    img = make_test_image(96, 96, seed=5)
    data = encode(img, quality=60, restart_interval=1)
    assert decode(data).shape == img.shape


def test_input_validation():
    with pytest.raises(TypeError):
        encode(np.zeros((8, 8), dtype=np.float32))
    with pytest.raises(ValueError):
        encode(np.zeros((8, 8, 2), dtype=np.uint8))
    with pytest.raises(ValueError):
        encode(np.zeros((8, 8, 3), dtype=np.uint8), subsampling="4:2:2")
    with pytest.raises(ValueError):
        encode(np.zeros((8, 8, 3), dtype=np.uint8), quality=0)


# ------------------------------------------------------------- staged API
def test_staged_pipeline_matches_fused():
    img = make_test_image(40, 40, seed=6)
    data = encode(img, quality=75, subsampling="4:2:0")
    parsed = parse_jpeg(data)
    coeffs = entropy_decode(parsed)
    planes = coefficients_to_planes(parsed, coeffs)
    staged = planes_to_image(parsed, planes)
    np.testing.assert_array_equal(staged, decode(data))


def test_entropy_stage_shapes():
    img = make_test_image(33, 49, seed=7)
    parsed = parse_jpeg(encode(img, quality=75, subsampling="4:2:0"))
    coeffs = entropy_decode(parsed)
    assert len(coeffs) == 3
    # 4:2:0: luma grid is 2x the chroma grid, MCU-aligned.
    assert coeffs[0].shape[0] == 2 * coeffs[1].shape[0]
    assert coeffs[0].shape[1] == 2 * coeffs[1].shape[1]
    assert coeffs[0].shape[2] == 64


def test_parse_reports_geometry():
    img = make_test_image(33, 49, seed=8)
    parsed = parse_jpeg(encode(img, subsampling="4:2:0"))
    f = parsed.frame
    assert (f.height, f.width) == (33, 49)
    assert f.hmax == 2 and f.vmax == 2
    assert f.mcu_width == 16 and f.mcu_height == 16
    assert f.mcus_per_row == 4 and f.mcu_rows == 3


def test_parse_restart_interval():
    img = make_test_image(32, 32, seed=9)
    parsed = parse_jpeg(encode(img, restart_interval=5))
    assert parsed.restart_interval == 5


# ------------------------------------------------------------- malformed
def test_missing_soi_rejected():
    with pytest.raises(JpegFormatError, match="SOI"):
        parse_jpeg(b"\x00\x01\x02\x03")


def test_truncated_stream_rejected():
    img = make_test_image(32, 32, seed=10)
    data = encode(img)
    with pytest.raises(JpegFormatError):
        decode(data[:len(data) // 2])


def test_empty_input_rejected():
    with pytest.raises(JpegFormatError):
        parse_jpeg(b"")


def test_no_sos_rejected():
    with pytest.raises(JpegFormatError, match="SOS|EOI"):
        parse_jpeg(b"\xFF\xD8\xFF\xD9")


def test_corrupt_scan_detected():
    img = make_test_image(32, 32, seed=11)
    data = bytearray(encode(img, quality=75))
    parsed = parse_jpeg(bytes(data))
    # Truncate right after the scan start: decoder must not hang or wrap.
    with pytest.raises(JpegFormatError):
        decode(bytes(data[:parsed.scan_offset + 4]))


# ---------------------------------------------------------------- resize
def test_decode_resized_shape():
    img = make_test_image(60, 90, seed=12)
    out = decode_resized(encode(img), 224, 224)
    assert out.shape == (224, 224, 3)
    assert out.dtype == np.uint8


def test_resize_bilinear_identity():
    img = make_test_image(32, 32, seed=13)
    np.testing.assert_array_equal(resize_bilinear(img, 32, 32), img)


def test_resize_bilinear_constant_preserved():
    img = np.full((10, 10), 50.0)
    np.testing.assert_allclose(resize_bilinear(img, 23, 17), 50.0)


def test_resize_downscale_averages():
    img = np.zeros((4, 4))
    img[:, 2:] = 100.0
    out = resize_bilinear(img, 2, 2)
    assert out[0, 0] < out[0, 1]


def test_resize_validation():
    with pytest.raises(ValueError):
        resize_bilinear(np.zeros((4,)), 2, 2)
    with pytest.raises(ValueError):
        resize_bilinear(np.zeros((4, 4)), 0, 2)


# ------------------------------------------------------------- properties
@given(st.integers(1, 40), st.integers(1, 40), st.integers(20, 95))
@settings(max_examples=15, deadline=None)
def test_roundtrip_shape_property(h, w, quality):
    img = make_test_image(h, w, seed=h * 1000 + w)
    out = decode(encode(img, quality=quality))
    assert out.shape == (h, w, 3)
