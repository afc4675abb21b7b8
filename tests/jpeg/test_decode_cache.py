"""The FPGA mirror decodes every command from its own bytes.

The mirror's staged decode (huffman -> idct -> resize) keeps no state
between commands: a repeated command yields bit-identical pixels or the
same typed error, and a fault-injected (corrupted/truncated) stream can
never be served a clean result, nor a clean stream inherit a poisoned
error.  Any decode cache put back into this seam must keep these
properties, so they are checked against the real FaultInjector
mutations.
"""

import numpy as np

from repro.calib import DEFAULT_TESTBED
from repro.data import synthetic_photo
from repro.faults import FaultInjector, FaultPlan
from repro.fpga import DecodeCmd, ImageDecoderMirror
from repro.jpeg import decode_resized, encode
from repro.sim import Environment, SeedBank


def corpus_payload(index=0, h=48, w=64, quality=80):
    img = synthetic_photo(np.random.default_rng(index), h, w)
    return encode(img, quality=quality)


def poisoned_copy(payload, seed=0):
    """The exact mutation FaultInjector.maybe_poison_cmd performs."""

    class _Cmd:
        def __init__(self, data):
            self.payload = data
            self.poisoned = False

    inj = FaultInjector(Environment(), FaultPlan.of(
        FaultPlan.payload_corrupt(1.0)), seeds=SeedBank(seed))
    cmd = _Cmd(payload)
    assert inj.maybe_poison_cmd(cmd)
    assert cmd.payload != payload
    return cmd.payload


class TestMirrorSeam:
    """The FPGA mirror's staged decode, one command at a time."""

    def _mirror(self):
        return ImageDecoderMirror(Environment(), DEFAULT_TESTBED,
                                  functional=True)

    def _push(self, mirror, payload, out_hw=(32, 32)):
        cmd = DecodeCmd(cmd_id=0, source="dram", size_bytes=len(payload),
                        work_pixels=48 * 64 * 3 // 2, out_h=out_hw[0],
                        out_w=out_hw[1], channels=3, dest_phy=0,
                        dest_offset=0, payload=payload)
        return mirror._resize_fn(mirror._idct_fn(mirror._huffman_fn(cmd)))

    def test_hit_produces_identical_pixels(self):
        mirror = self._mirror()
        payload = corpus_payload()
        cold = self._push(mirror, payload)
        hot = self._push(mirror, payload)
        assert cold.error is None and hot.error is None
        assert hot.result is not cold.result
        np.testing.assert_array_equal(hot.result, cold.result)
        np.testing.assert_array_equal(
            cold.result, decode_resized(payload, 32, 32))

    def test_poisoned_cmd_errors_identically_hot_and_cold(self):
        mirror = self._mirror()
        bad = corpus_payload()[:96]              # reliably unparseable
        cold = self._push(mirror, bad)
        hot = self._push(mirror, bad)
        assert cold.error is not None
        assert hot.error == cold.error
        assert hot.result is None

    def test_clean_and_poisoned_cmds_never_cross(self):
        mirror = self._mirror()
        clean = corpus_payload()
        bad = clean[:len(clean) // 2]
        ok = self._push(mirror, clean)
        err = self._push(mirror, bad)
        ok2 = self._push(mirror, clean)
        err2 = self._push(mirror, bad)
        assert ok.error is None and ok2.error is None
        assert err.error is not None and err2.error == err.error
        assert err.result is None and err2.result is None
        np.testing.assert_array_equal(ok2.result, ok.result)

    def test_corrupted_cmd_pixels_match_its_own_bytes(self):
        mirror = self._mirror()
        clean = corpus_payload()
        bad = poisoned_copy(clean)
        ok = self._push(mirror, clean)
        garbled = self._push(mirror, bad)
        garbled_hot = self._push(mirror, bad)
        assert garbled.error is None
        np.testing.assert_array_equal(garbled_hot.result, garbled.result)
        np.testing.assert_array_equal(
            garbled.result, decode_resized(bad, 32, 32))
        assert not np.array_equal(garbled.result, ok.result)
