"""Model bitstream format and column-granular configuration memory.

A bitstream image is::

    magic "PBIT" | u8 kind | 3 pad bytes | u32 kernel_id | u16 first_column
    | u16 column_count | u16 frames_per_column | u16 bytes_per_frame
    | u32 payload_length | payload | u32 crc32

All integers little-endian; the CRC-32 (polynomial 0x04C11DB7 reflected,
init and final xor 0xFFFFFFFF, i.e. the zlib/IEEE variant) covers header
plus payload.  Payload bytes are column-major: whole columns, each column
``frames_per_column * bytes_per_frame`` bytes.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass, field
from enum import IntEnum

MAGIC = b"PBIT"
_HEADER = struct.Struct("<4sB3xIHHHHI")
_CRC = struct.Struct("<I")
HEADER_BYTES = _HEADER.size  # 24
WRAPPER_BYTES = HEADER_BYTES + 4  # header + trailing CRC


class BitstreamError(Exception):
    pass


class BadMagic(BitstreamError):
    pass


class BadChecksum(BitstreamError):
    pass


class TruncatedPayload(BitstreamError):
    pass


class RegionOutOfBounds(BitstreamError):
    pass


class MisalignedPayload(BitstreamError):
    pass


class GeometryMismatch(BitstreamError):
    pass


class FixedRegionViolation(BitstreamError):
    pass


class BitstreamKind(IntEnum):
    FULL = 0
    PARTIAL = 1


@dataclass(frozen=True)
class DeviceGeometry:
    """Column grid of the model device.

    The fixed part occupies the suffix ``fixed_first .. columns-1``; the
    remaining prefix is the reconfigurable region and must be non-empty.
    """

    columns: int
    frames_per_column: int
    bytes_per_frame: int
    fixed_first: int

    def __post_init__(self) -> None:
        if min(self.columns, self.frames_per_column, self.bytes_per_frame) <= 0:
            raise ValueError("all geometry counts must be > 0")
        if not 0 < self.fixed_first < self.columns:
            raise ValueError("fixed part must be a non-empty proper suffix of columns")

    @property
    def column_bytes(self) -> int:
        return self.frames_per_column * self.bytes_per_frame

    @property
    def total_bytes(self) -> int:
        return self.columns * self.column_bytes

    @property
    def fixed_columns(self) -> range:
        return range(self.fixed_first, self.columns)

    def contains_region(self, first_column: int, column_count: int) -> bool:
        return first_column >= 0 and column_count >= 1 and first_column + column_count <= self.columns


DESK_GEOMETRY = DeviceGeometry(columns=16, frames_per_column=32, bytes_per_frame=64, fixed_first=12)


@dataclass(frozen=True)
class Bitstream:
    kind: BitstreamKind
    kernel_id: int
    first_column: int
    column_count: int
    frames_per_column: int
    bytes_per_frame: int
    payload: bytes = field(repr=False)

    @property
    def columns(self) -> range:
        return range(self.first_column, self.first_column + self.column_count)


def crc32(data: bytes) -> int:
    return zlib.crc32(data) & 0xFFFFFFFF


def encode(geometry: DeviceGeometry, kind: BitstreamKind, kernel_id: int,
           first_column: int, payload: bytes) -> bytes:
    """Build the byte image for ``payload`` starting at ``first_column``.

    The payload must cover a whole number of columns for ``geometry``;
    a full bitstream must cover every column.
    """
    cb = geometry.column_bytes
    if not payload or len(payload) % cb:
        raise MisalignedPayload(
            f"payload of {len(payload)} bytes is not a positive multiple of {cb}")
    column_count = len(payload) // cb
    if not geometry.contains_region(first_column, column_count):
        raise RegionOutOfBounds(
            f"columns {first_column}..{first_column + column_count - 1} "
            f"outside 0..{geometry.columns - 1}")
    if kind == BitstreamKind.FULL and (first_column, column_count) != (0, geometry.columns):
        raise RegionOutOfBounds("full bitstream must cover every column")
    if not 0 <= kernel_id < 2**32:
        raise ValueError("kernel_id must fit in 32 bits")
    header = _HEADER.pack(MAGIC, int(kind), kernel_id, first_column, column_count,
                          geometry.frames_per_column, geometry.bytes_per_frame, len(payload))
    return b"".join((header, payload, _CRC.pack(zlib.crc32(payload, zlib.crc32(header)))))


def parse(data) -> Bitstream:
    """Validate and decode a byte image (any bytes-like object); never
    returns a partial result.  The payload is copied once, out of the
    image."""
    data = memoryview(data)
    if len(data) < WRAPPER_BYTES:
        raise TruncatedPayload(f"image of {len(data)} bytes is shorter than the fixed wrapper")
    magic, kind_raw, kernel_id, first_column, column_count, fpc, bpf, payload_len = \
        _HEADER.unpack_from(data)
    if magic != MAGIC:
        raise BadMagic(f"bad magic {magic!r}")
    if len(data) != WRAPPER_BYTES + payload_len:
        raise TruncatedPayload(
            f"image is {len(data)} bytes, header says {WRAPPER_BYTES + payload_len}")
    stored = _CRC.unpack_from(data, HEADER_BYTES + payload_len)[0]
    if crc32(data[:HEADER_BYTES + payload_len]) != stored:
        raise BadChecksum("checksum mismatch")
    try:
        kind = BitstreamKind(kind_raw)
    except ValueError:
        raise BadMagic(f"unknown bitstream kind {kind_raw}") from None
    if column_count < 1 or fpc < 1 or bpf < 1:
        raise RegionOutOfBounds("empty region or zero-sized frames")
    if payload_len != column_count * fpc * bpf:
        raise MisalignedPayload(
            f"payload of {payload_len} bytes does not match {column_count} columns "
            f"of {fpc}x{bpf}")
    if kind == BitstreamKind.FULL and first_column != 0:
        raise RegionOutOfBounds("full bitstream must start at column 0")
    return Bitstream(kind, kernel_id, first_column, column_count, fpc, bpf,
                     bytes(data[HEADER_BYTES:HEADER_BYTES + payload_len]))


class ConfigurationMemory:
    """Per-column frame storage; all zero at power-on."""

    def __init__(self, geometry: DeviceGeometry) -> None:
        self.geometry = geometry
        self._data = bytearray(geometry.total_bytes)

    def snapshot(self) -> bytes:
        return bytes(self._data)

    def column(self, index: int) -> bytes:
        cb = self.geometry.column_bytes
        return bytes(memoryview(self._data)[index * cb:(index + 1) * cb])

    def _check_fit(self, bs: Bitstream) -> None:
        g = self.geometry
        if (bs.frames_per_column, bs.bytes_per_frame) != (g.frames_per_column, g.bytes_per_frame):
            raise GeometryMismatch(
                f"bitstream frames {bs.frames_per_column}x{bs.bytes_per_frame} "
                f"vs device {g.frames_per_column}x{g.bytes_per_frame}")
        if not g.contains_region(bs.first_column, bs.column_count):
            raise RegionOutOfBounds(
                f"columns {bs.first_column}..{bs.first_column + bs.column_count - 1} "
                f"outside 0..{g.columns - 1}")
        if bs.kind == BitstreamKind.FULL and bs.column_count != g.columns:
            raise GeometryMismatch("full bitstream does not cover this device")

    def apply(self, bs: Bitstream, allow_fixed: bool = False) -> None:
        """Replace exactly the addressed columns' frames.

        Validation happens before any mutation, so a failed apply leaves
        the memory untouched.
        """
        self._check_fit(bs)
        if not allow_fixed:
            overlap = set(bs.columns) & set(self.geometry.fixed_columns)
            if overlap:
                raise FixedRegionViolation(
                    f"partial bitstream touches fixed columns {sorted(overlap)}")
        cb = self.geometry.column_bytes
        start = bs.first_column * cb
        memoryview(self._data)[start:start + len(bs.payload)] = bs.payload

    def readback(self, first_column: int, column_count: int, kernel_id: int = 0) -> bytes:
        """Snapshot a column range as a partial bitstream image."""
        if not self.geometry.contains_region(first_column, column_count):
            raise RegionOutOfBounds(
                f"columns {first_column}..{first_column + column_count - 1} "
                f"outside 0..{self.geometry.columns - 1}")
        cb = self.geometry.column_bytes
        payload = memoryview(self._data)[first_column * cb:(first_column + column_count) * cb]
        return encode(self.geometry, BitstreamKind.PARTIAL, kernel_id, first_column, payload)
