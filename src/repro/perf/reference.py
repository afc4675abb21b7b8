"""Verbatim pre-optimization implementations + ``reference_mode()``.

Every function/method here is the implementation the wall-clock
performance pass replaced, copied unchanged (modulo the ``_ref``
suffix and imports) from the pre-pass tree.  ``reference_mode()``
monkeypatches them over the optimized versions so benchmarks can time
old and new **in the same process on the same machine** — the resulting
speedup ratio is what the committed perf baseline stores, because
ratios transfer across machines while absolute MB/s numbers do not.

Both implementations are bit-exact by contract (the optimized paths
consume identical bits, produce identical pixels/metrics and raise
identical errors), so benchmarks also assert output equality across the
mode switch.  Every patch swaps one implementation for another and none
sets a flag, so an A/B run differs from a normal run only in which code
executes; ``tests/perf/test_harness.py`` and the perf-smoke benchmarks
use the reference side as their equivalence oracle.

The patch set covers three layers:

* codec — bit-by-bit Huffman ``decode``/``decode_block``, byte-at-a-time
  ``BitReader._pull_byte``, double-converting ``idct2_dequant``,
  full-frame-converting ``resize_bilinear``, stack-allocating
  ``planes_to_image``, per-block-copying ``entropy_decode``;
* sim kernel — ``Event.succeed``/``_run_callbacks`` via ``_push``,
  ``Timeout.__init__`` through ``Event.__init__``, lambda-based
  ``Process._resume``, ``Environment.run`` stepping one event per
  ``step()`` call, waiter-queue-roundtrip ``StorePut``/``StoreGet``,
  attribute-heavy ``Store._drain``;
* telemetry — eager-``insort`` ``LatencyRecorder.record``,
  ``max``/``min``-builtin ``TimeWeighted.set``, property-clock
  ``BusyTracker`` and ``Channel.put``/``get``, and a ``Channel`` that
  builds its occupancy and wait monitors with or without a registry.
"""

from __future__ import annotations

from bisect import insort
from contextlib import contextmanager
from typing import Any, Optional

import numpy as np

from ..jpeg import bitstream as _bitstream
from ..jpeg import decoder as _decoder
from ..jpeg import dct as _dct
from ..jpeg import huffman as _huffman
from ..jpeg import resize as _resize
from ..jpeg.bitstream import BitReader, EndOfScan
from ..jpeg.color import upsample_420, ycbcr_to_rgb
from ..jpeg.dct import idct2
from ..jpeg.huffman import (EOB, ZRL, HuffmanTable, decode_magnitude)
from ..jpeg.jfif import JpegFormatError, ParsedJpeg
from ..sim import core as _core
from ..sim import monitor as _monitor
from ..sim import queues as _queues
from ..sim import resources as _resources
from ..sim.core import PENDING, PROCESSED, TRIGGERED, Event, SimulationError

__all__ = ["reference_mode"]


# --------------------------------------------------------------------------
# Codec layer
# --------------------------------------------------------------------------

def _pull_byte_ref(self) -> None:
    data, pos = self._data, self._pos
    if pos >= len(data):
        raise EndOfScan("out of data")
    byte = data[pos]
    pos += 1
    if byte == 0xFF:
        if pos >= len(data):
            raise EndOfScan("truncated after 0xFF")
        nxt = data[pos]
        if nxt == 0x00:
            pos += 1  # stuffed byte: 0xFF is data
        else:
            # A real marker terminates bit-reading here.
            self.marker_found = nxt
            raise EndOfScan(f"marker 0xFF{nxt:02X}")
    self._acc = (self._acc << 8) | byte
    self._nbits += 8
    self._pos = pos


def decode_block_ref(reader: BitReader, pred_dc: int,
                     dc_table: HuffmanTable, ac_table: HuffmanTable,
                     out: Optional[np.ndarray] = None
                     ) -> tuple[np.ndarray, int]:
    """Pre-pass decode_block: one symbol at a time via ``decode_ref``.

    (``out`` is accepted so optimized callers still work under
    reference_mode; the pre-pass allocation behaviour is preserved.)
    """
    zz = np.zeros(64, dtype=np.int32)
    ssss = dc_table.decode_ref(reader)
    diff = decode_magnitude(reader.read(ssss), ssss) if ssss else 0
    dc = pred_dc + diff
    zz[0] = dc

    k = 1
    while k < 64:
        rs = ac_table.decode_ref(reader)
        if rs == EOB:
            break
        run, ssss = rs >> 4, rs & 0x0F
        if ssss == 0:
            if rs != ZRL:
                raise ValueError(f"invalid AC symbol 0x{rs:02X}")
            k += 16
            continue
        k += run
        if k >= 64:
            raise ValueError("AC run overflows block")
        zz[k] = decode_magnitude(reader.read(ssss), ssss)
        k += 1
    if out is not None:
        out[:] = zz
    return zz, dc


def entropy_decode_ref(parsed: ParsedJpeg) -> list[np.ndarray]:
    """Pre-pass entropy_decode: per-block try/except and copy-out."""
    from ..jpeg.errors import (BadHuffmanCodeError, BadMarkerError,
                               TruncatedStreamError)
    frame, scan = parsed.frame, parsed.scan
    order = {c.component_id: i for i, c in enumerate(frame.components)}
    ncomp = len(frame.components)
    mcus_x, mcus_y = frame.mcus_per_row, frame.mcu_rows

    out: list[np.ndarray] = []
    for comp in frame.components:
        out.append(np.zeros(
            (mcus_y * comp.v_samp, mcus_x * comp.h_samp, 64),
            dtype=np.int32))

    scan_idx = [order[c.component_id] for c in scan.components]
    dc_tabs = []
    ac_tabs = []
    for c in scan.components:
        try:
            dc_tabs.append(parsed.dc_tables[c.dc_table_id])
            ac_tabs.append(parsed.ac_tables[c.ac_table_id])
        except KeyError as exc:
            raise JpegFormatError(f"missing Huffman table {exc}") from None

    reader = BitReader(parsed.data, parsed.scan_offset)
    pred = [0] * ncomp
    interval = parsed.restart_interval
    mcu_index = 0
    expected_rst = 0
    for my in range(mcus_y):
        for mx in range(mcus_x):
            if interval and mcu_index and mcu_index % interval == 0:
                try:
                    n = reader.align_and_consume_rst()
                except EndOfScan as exc:
                    raise BadMarkerError(
                        f"restart boundary at MCU {mcu_index}: {exc}"
                    ) from None
                if n != expected_rst:
                    raise BadMarkerError(
                        f"restart marker out of order: RST{n}, "
                        f"expected RST{expected_rst}")
                expected_rst = (expected_rst + 1) % 8
                pred = [0] * ncomp
            for si, ci in enumerate(scan_idx):
                comp = frame.components[ci]
                for by in range(comp.v_samp):
                    for bx in range(comp.h_samp):
                        try:
                            zz, pred[ci] = decode_block_ref(
                                reader, pred[ci], dc_tabs[si], ac_tabs[si])
                        except EndOfScan as exc:
                            raise TruncatedStreamError(
                                f"scan truncated in MCU {mcu_index}: {exc}"
                            ) from None
                        except JpegFormatError:
                            raise
                        except ValueError as exc:
                            raise BadHuffmanCodeError(
                                f"corrupt scan in MCU {mcu_index}: {exc}"
                            ) from None
                        out[ci][my * comp.v_samp + by,
                                mx * comp.h_samp + bx] = zz
            mcu_index += 1
    return out


def idct2_dequant_ref(qcoeffs: np.ndarray, qtable: np.ndarray) -> np.ndarray:
    """Pre-pass idct2_dequant: separate float64 conversions + idct2."""
    qtable = np.asarray(qtable, dtype=np.float64)
    if qtable.shape != (8, 8):
        raise ValueError(f"qtable must be (8, 8), got {qtable.shape}")
    return idct2(np.asarray(qcoeffs, dtype=np.float64) * qtable)


def coefficients_to_planes_ref(parsed, coeffs):
    """Pre-PR8 coefficients_to_planes: one idct2_dequant per component.

    Calls ``_decoder.idct2_dequant`` through the module attribute so it
    composes with the PR 5 ``idct2_dequant_ref`` patch — with both
    active, the full pre-pass per-component path replays.
    """
    frame = parsed.frame
    planes = []
    for comp, zz in zip(frame.components, coeffs):
        try:
            qtable = parsed.qtables[comp.qtable_id]
        except KeyError:
            raise JpegFormatError(
                f"missing quantization table {comp.qtable_id}") from None
        blocks = _decoder.zigzag_unflatten(zz)           # (bh, bw, 8, 8)
        pix = _decoder.idct2_dequant(blocks, qtable) + 128.0
        bh, bw = pix.shape[:2]
        plane = pix.transpose(0, 2, 1, 3).reshape(bh * 8, bw * 8)
        comp_h = -(-frame.height * comp.v_samp // frame.vmax)
        comp_w = -(-frame.width * comp.h_samp // frame.hmax)
        planes.append(np.clip(plane[:comp_h, :comp_w], 0.0, 255.0))
    return planes


def resize_bilinear_ref(img: np.ndarray, out_h: int,
                        out_w: int) -> np.ndarray:
    """Pre-pass resize_bilinear: converts the whole frame before gather."""
    img = np.asarray(img)
    if img.ndim not in (2, 3):
        raise ValueError(f"expected 2-D or 3-D image, got {img.shape}")
    src_h, src_w = img.shape[:2]
    ylo, yhi, yf = _resize._axis_weights(src_h, out_h)
    xlo, xhi, xf = _resize._axis_weights(src_w, out_w)

    work = img.astype(np.float64)
    top = work[ylo]
    bot = work[yhi]
    if img.ndim == 3:
        yf_ = yf[:, None, None]
        xf_ = xf[None, :, None]
    else:
        yf_ = yf[:, None]
        xf_ = xf[None, :]
    rows = top * (1 - yf_) + bot * yf_
    left = rows[:, xlo]
    right = rows[:, xhi]
    out = left * (1 - xf_) + right * xf_
    if img.dtype == np.uint8:
        return np.clip(np.round(out), 0, 255).astype(np.uint8)
    return out


def planes_to_image_ref(parsed: ParsedJpeg,
                        planes: list[np.ndarray]) -> np.ndarray:
    """Pre-pass planes_to_image: np.stack + ycbcr_to_rgb round trip."""
    frame = parsed.frame
    if len(planes) == 1:
        return np.clip(np.round(planes[0]), 0, 255).astype(np.uint8)
    if len(planes) != 3:
        raise JpegFormatError(f"unsupported component count {len(planes)}")
    h, w = frame.height, frame.width
    full = []
    for comp, plane in zip(frame.components, planes):
        if plane.shape == (h, w):
            full.append(plane)
        else:
            full.append(upsample_420(plane, h, w))
    ycc = np.stack(full, axis=-1)
    return ycbcr_to_rgb(ycc)


# --------------------------------------------------------------------------
# Sim kernel
# --------------------------------------------------------------------------

def _succeed_ref(self, value: Any = None) -> Event:
    if self._state != PENDING:
        raise SimulationError("event already triggered")
    self._value = value
    self._ok = True
    self._state = TRIGGERED
    self.env._push(self)
    return self


def _run_callbacks_ref(self) -> None:
    self._state = PROCESSED
    callbacks, self.callbacks = self.callbacks, []
    for cb in callbacks:
        cb(self)


def _timeout_init_ref(self, env, delay: float, value: Any = None):
    if delay < 0:
        raise ValueError(f"negative delay {delay!r}")
    Event.__init__(self, env)
    self.delay = delay
    self._value = value
    self._ok = True
    self._state = TRIGGERED
    env._push(self, delay)


def _step_ref(proc, advance) -> None:
    try:
        target = advance()
    except StopIteration as stop:
        proc.succeed(stop.value)
        return
    proc._wait_on(target)


def _resume_ref(self, event: Event) -> None:
    if event._ok:
        _step_ref(self, lambda: self.generator.send(event._value))
    else:
        _step_ref(self, lambda: self.generator.throw(event._value))


def _run_ref(self, until=None) -> Any:
    if isinstance(until, Event):
        stop_evt = until
        while not stop_evt.triggered:
            if not self._queue:
                raise SimulationError(
                    "simulation ran dry before the awaited event fired")
            self.step()
        if not stop_evt._ok:
            raise stop_evt._value
        return stop_evt._value

    if until is not None:
        horizon = float(until)
        if horizon < self._now:
            raise ValueError(
                f"until={horizon} is in the past (now={self._now})")
        while self._queue and self._queue[0][0] <= horizon:
            self.step()
        self._now = max(self._now, horizon)
        return None

    while self._queue:
        self.step()
    return None


def _storeput_init_ref(self, store, item: Any):
    Event.__init__(self, store.env)
    self.item = item
    store._put_waiters.append(self)
    store._drain()


def _storeget_init_ref(self, store):
    Event.__init__(self, store.env)
    store._get_waiters.append(self)
    store._drain()


def _store_drain_ref(self) -> None:
    progressed = True
    while progressed:
        progressed = False
        # Admit puts while there is room.
        while self._put_waiters and len(self.items) < self.capacity:
            putter = self._put_waiters.popleft()
            self.items.append(putter.item)
            putter.succeed()
            progressed = True
        # Serve getters in arrival order.
        while self._get_waiters and self.items:
            getter = self._get_waiters[0]
            getter.succeed(self.items.popleft())
            self._get_waiters.popleft()
            progressed = True


# --------------------------------------------------------------------------
# Telemetry
# --------------------------------------------------------------------------

def _tw_set_ref(self, value: float) -> None:
    now = self.env.now
    self._area += self._value * (now - self._last_t)
    self._last_t = now
    self._value = float(value)
    self._max = max(self._max, self._value)
    self._min = min(self._min, self._value)


def _bt_begin_ref(self, category: str = "work") -> int:
    token = self._next_token
    self._next_token += 1
    self._open[token] = (category, self.env.now)
    return token


def _bt_end_ref(self, token: int) -> None:
    category, start = self._open.pop(token)
    self._busy[category] = self._busy.get(category, 0.0) + (
        self.env.now - start)


def _lr_record_ref(self, latency: float, trace_id=None) -> None:
    if latency < 0:
        raise ValueError(f"negative latency {latency}")
    self._count += 1
    self._sum += latency
    if latency < self._min:
        self._min = latency
    if latency > self._max:
        self._max = latency
    entry = (latency, self._count, trace_id)
    if len(self._sorted) < self._max_samples:
        insort(self._sorted, entry)
        return
    j = self._rng.randrange(self._count)
    if j < self._max_samples:
        del self._sorted[j]
        insort(self._sorted, entry)


def _channel_init_ref(self, env, capacity: float = float("inf"),
                      name: str = "channel", shed=None):
    self.env = env
    self.name = name
    self._store = _resources.Store(env, capacity=capacity, name=name)
    self.occupancy = _monitor.TimeWeighted(env, 0, name=f"{name}.occupancy")
    self.wait = _monitor.LatencyRecorder(name=f"{name}.wait")
    self.put_count = 0
    self.get_count = 0
    self.shed = None
    self._shed_count = None
    if shed is not None:
        self.arm_shed(shed)


def _channel_put_ref(self, item: Any):
    if self._rejects_at_admit(item):
        return
    yield self._store.put((self.env.now, item))
    self.put_count += 1
    self.occupancy.set(len(self._store))


def _channel_get_ref(self):
    while True:
        stamped = yield self._store.get()
        enq_t, item = stamped
        if self.shed is not None and self.shed.drop_expired_at_dequeue \
                and self.shed.expired(item, self.env.now):
            self.occupancy.set(len(self._store))
            self._shed_item(item, "dequeue")
            continue
        self.get_count += 1
        self.wait.record(self.env.now - enq_t)
        self.occupancy.set(len(self._store))
        return item


def _decode_bitwise(self, reader: BitReader) -> int:
    """Pre-pass HuffmanTable.decode: delegate straight to decode_ref
    (the 8-bit lookahead fast path did not exist)."""
    return HuffmanTable.decode_ref(self, reader)


# --------------------------------------------------------------------------
# The mode switch
# --------------------------------------------------------------------------

# (object-or-module, attribute, reference implementation).  Module-level
# functions must be patched at every `from x import f` binding site;
# class methods patch once and apply everywhere.
_PATCHES: list[tuple[Any, str, Any]] = [
    # codec
    (_bitstream.BitReader, "_pull_byte", _pull_byte_ref),
    (HuffmanTable, "decode", _decode_bitwise),
    (_huffman, "decode_block", decode_block_ref),
    (_decoder, "decode_block", decode_block_ref),
    (_decoder, "entropy_decode", entropy_decode_ref),
    (_dct, "idct2_dequant", idct2_dequant_ref),
    (_decoder, "idct2_dequant", idct2_dequant_ref),
    (_decoder, "coefficients_to_planes", coefficients_to_planes_ref),
    (_resize, "resize_bilinear", resize_bilinear_ref),
    (_decoder, "resize_bilinear", resize_bilinear_ref),
    (_decoder, "planes_to_image", planes_to_image_ref),
    # sim kernel
    (_core.Event, "succeed", _succeed_ref),
    (_core.Event, "_run_callbacks", _run_callbacks_ref),
    (_core.Timeout, "__init__", _timeout_init_ref),
    (_core.Process, "_resume", _resume_ref),
    (_core.Environment, "run", _run_ref),
    (_resources.StorePut, "__init__", _storeput_init_ref),
    (_resources.StoreGet, "__init__", _storeget_init_ref),
    (_resources.Store, "_drain", _store_drain_ref),
    # telemetry
    (_monitor.TimeWeighted, "set", _tw_set_ref),
    (_monitor.BusyTracker, "begin", _bt_begin_ref),
    (_monitor.BusyTracker, "end", _bt_end_ref),
    (_monitor.LatencyRecorder, "record", _lr_record_ref),
    (_queues.Channel, "__init__", _channel_init_ref),
    (_queues.Channel, "put", _channel_put_ref),
    (_queues.Channel, "get", _channel_get_ref),
]

# fpga.decoder re-binds several jpeg names at import time; patch those
# sites too (imported lazily to dodge a circular import at module load).


def _fpga_patches() -> list[tuple[Any, str, Any]]:
    from ..fpga import decoder as _fpga_decoder
    return [
        (_fpga_decoder, "entropy_decode", entropy_decode_ref),
        (_fpga_decoder, "coefficients_to_planes", coefficients_to_planes_ref),
        (_fpga_decoder, "planes_to_image", planes_to_image_ref),
        (_fpga_decoder, "resize_bilinear", resize_bilinear_ref),
    ]


@contextmanager
def reference_mode():
    """Swap every optimized hot path for its pre-pass implementation.

    Usage::

        new = bench(lambda: decode(data))
        with reference_mode():
            old = bench(lambda: decode(data))
        speedup = old.best_s / new.best_s

    Not reentrant and not thread-safe (it mutates module/class
    attributes); restores the optimized implementations on exit even if
    the body raises.
    """
    patches = _PATCHES + _fpga_patches()
    saved = [(obj, attr, getattr(obj, attr)) for obj, attr, _ in patches]
    try:
        for obj, attr, fn in patches:
            setattr(obj, attr, fn)
        yield
    finally:
        for obj, attr, fn in saved:
            setattr(obj, attr, fn)
