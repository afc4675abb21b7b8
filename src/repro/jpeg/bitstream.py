"""Entropy-coded-segment bit I/O with JPEG byte stuffing.

Within a JPEG scan, any 0xFF data byte is followed by a stuffed 0x00 so
decoders can find markers by scanning for 0xFF. The reader treats
0xFF D0-D7 (RSTn) as segment boundaries and any other marker as
end-of-scan.

The reader refills its accumulator in bulk: whenever four plain bytes
(no 0xFF anywhere among them) are next in the buffer they are loaded in
one 32-bit gulp; only windows containing 0xFF — stuffing candidates or
markers — fall back to the byte-at-a-time path.  :meth:`BitReader.
ensure_bits` additionally offers a *non-consuming* best-effort refill
that stops cleanly at markers instead of raising, which is what the
table-driven Huffman fast path (:meth:`repro.jpeg.huffman.HuffmanTable.
decode`) peeks through.
"""

from __future__ import annotations

__all__ = ["BitWriter", "BitReader", "EndOfScan"]

# value & _MASK[n] == low n bits; sized for the deepest accumulator the
# reader can hold: huffman.decode_block refills inline from 54 buffered
# bits with a 64-bit gulp, then may hand the reader to read().
_MASK = tuple((1 << n) - 1 for n in range(128))


class EndOfScan(Exception):
    """Reader hit a non-RST marker (or ran out of bytes) mid-read."""


class BitWriter:
    """MSB-first bit accumulator emitting a stuffed entropy-coded segment."""

    def __init__(self) -> None:
        self._out = bytearray()
        self._acc = 0
        self._nbits = 0

    def write(self, value: int, nbits: int) -> None:
        """Append the low ``nbits`` of ``value``, MSB first."""
        if nbits < 0 or nbits > 24:
            raise ValueError(f"nbits out of range: {nbits}")
        if nbits == 0:
            return
        if value < 0 or value >= (1 << nbits):
            raise ValueError(f"value {value} does not fit in {nbits} bits")
        self._acc = (self._acc << nbits) | value
        self._nbits += nbits
        while self._nbits >= 8:
            self._nbits -= 8
            byte = (self._acc >> self._nbits) & 0xFF
            self._out.append(byte)
            if byte == 0xFF:
                self._out.append(0x00)  # stuffing
        self._acc &= (1 << self._nbits) - 1

    def flush(self) -> None:
        """Pad the final partial byte with 1-bits (T.81 F.1.2.3)."""
        if self._nbits:
            pad = 8 - self._nbits
            self.write((1 << pad) - 1, pad)

    def emit_marker(self, marker_low: int) -> None:
        """Flush then write a raw marker (e.g. RSTn) into the stream."""
        self.flush()
        self._out.append(0xFF)
        self._out.append(marker_low)

    def getvalue(self) -> bytes:
        return bytes(self._out)

    def __len__(self) -> int:
        return len(self._out)


class BitReader:
    """MSB-first bit reader over a stuffed entropy-coded segment."""

    def __init__(self, data: bytes, pos: int = 0):
        self._data = data
        self._pos = pos
        self._acc = 0
        self._nbits = 0
        self.marker_found: int | None = None

    def _pull_byte(self) -> None:
        """Refill the accumulator — in bulk where the stream allows.

        The fast path loads four plain bytes (no 0xFF among them) in one
        gulp; a window containing 0xFF is handled byte-at-a-time so the
        stuffing (0xFF00) and marker rules apply exactly as before.
        """
        data, pos = self._data, self._pos
        chunk = data[pos:pos + 4]
        if len(chunk) == 4 and 0xFF not in chunk:
            self._acc = (self._acc << 32) | int.from_bytes(chunk, "big")
            self._nbits += 32
            self._pos = pos + 4
            return
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

    def ensure_bits(self, want: int) -> int:
        """Best-effort refill to ``want`` buffered bits *without raising*.

        Returns the number of bits now buffered, which may be less than
        ``want`` when a marker (or the end of the buffer) is closer.
        Unlike :meth:`read`, hitting a marker neither raises
        :class:`EndOfScan` nor records ``marker_found`` — nothing past
        the last whole data byte is consumed, so a subsequent
        :meth:`read` still fails at exactly the position the one-bit-at-
        a-time path would have.
        """
        nbits = self._nbits
        if nbits >= want:
            return nbits
        data, pos = self._data, self._pos
        size = len(data)
        acc = self._acc
        while nbits < want:
            chunk = data[pos:pos + 4]
            if len(chunk) == 4 and 0xFF not in chunk:
                acc = (acc << 32) | int.from_bytes(chunk, "big")
                nbits += 32
                pos += 4
                continue
            if pos >= size:
                break
            byte = data[pos]
            if byte == 0xFF:
                if pos + 1 >= size or data[pos + 1] != 0x00:
                    break            # marker / truncation: stop cleanly
                acc = (acc << 8) | 0xFF
                pos += 2
            else:
                acc = (acc << 8) | byte
                pos += 1
            nbits += 8
        self._acc = acc
        self._nbits = nbits
        self._pos = pos
        return nbits

    def read(self, nbits: int) -> int:
        """Read ``nbits`` (MSB first); raises EndOfScan past the segment."""
        if nbits < 0 or nbits > 24:
            raise ValueError(f"nbits out of range: {nbits}")
        have = self._nbits
        while have < nbits:
            self._pull_byte()
            have = self._nbits
        have -= nbits
        self._nbits = have
        value = (self._acc >> have) & _MASK[nbits]
        self._acc &= _MASK[have]
        return value

    def read_bit(self) -> int:
        return self.read(1)

    def align_and_consume_rst(self) -> int:
        """Drop pad bits, consume an RSTn marker; returns n (0..7)."""
        self._acc = 0
        self._nbits = 0
        data, pos = self._data, self._pos
        if pos + 1 >= len(data) or data[pos] != 0xFF:
            raise EndOfScan("expected RST marker")
        low = data[pos + 1]
        if not 0xD0 <= low <= 0xD7:
            raise EndOfScan(f"expected RSTn, found 0xFF{low:02X}")
        self._pos = pos + 2
        return low - 0xD0
