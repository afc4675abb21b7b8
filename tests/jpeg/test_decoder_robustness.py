"""Decoder robustness: fuzzing-adjacent tests that corrupt valid streams
and assert the decoder fails *cleanly* (JpegFormatError or a decoded
image — never a hang, crash, or unbounded loop)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import synthetic_photo
from repro.jpeg import JpegFormatError, decode, encode


def reference(seed=0, h=48, w=64, **kw):
    img = synthetic_photo(np.random.default_rng(seed), h, w)
    return encode(img, 75, **kw)


def try_decode(data: bytes):
    """Decode must either produce an array or raise JpegFormatError —
    every corruption surfaces as the one typed format error."""
    try:
        out = decode(data)
    except JpegFormatError:
        return None
    assert isinstance(out, np.ndarray)
    return out


@given(st.integers(2, 400), st.integers(0, 255))
@settings(max_examples=60, deadline=None)
def test_single_byte_corruption_never_hangs(pos, value):
    data = bytearray(reference())
    pos = pos % len(data)
    data[pos] = value
    try_decode(bytes(data))


def test_corrupt_dc_category_read_from_a_deep_accumulator():
    # Byte 200 := 0x10 yields a DC category above 15 while decode_block
    # holds more than 63 refilled bits; read() must still mask them.
    data = bytearray(reference())
    data[200] = 0x10
    try_decode(bytes(data))


@given(st.integers(0, 2000))
@settings(max_examples=30, deadline=None)
def test_truncation_never_hangs(cut):
    data = reference()
    try_decode(data[:cut % len(data)])


@given(st.binary(min_size=0, max_size=64))
@settings(max_examples=40, deadline=None)
def test_garbage_prefix_streams_rejected(junk):
    with pytest.raises(JpegFormatError):
        decode(junk + b"\x01\x02\x03")


def test_bit_flips_in_scan_detected_or_decoded():
    """Flipping entropy-coded bits must never escape the block bounds."""
    data = bytearray(reference(seed=3))
    rng = np.random.default_rng(0)
    from repro.jpeg import parse_jpeg
    scan_start = parse_jpeg(bytes(data)).scan_offset
    flips = rng.integers(scan_start, len(data) - 2, size=20)
    for pos in flips:
        corrupted = bytearray(data)
        corrupted[pos] ^= 0x40
        try_decode(bytes(corrupted))


def test_double_eoi_harmless():
    data = reference() + b"\xFF\xD9"
    out = decode(data)
    assert out.shape == (48, 64, 3)


def test_trailing_garbage_after_eoi_harmless():
    data = reference() + b"garbage trailing bytes"
    out = decode(data)
    assert out.shape == (48, 64, 3)
