"""Bitstream format, CRC, and configuration memory tests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proteus_sim.bitstream import (
    DESK_GEOMETRY,
    BadChecksum,
    BadMagic,
    BitstreamKind,
    ConfigurationMemory,
    DeviceGeometry,
    FixedRegionViolation,
    MisalignedPayload,
    RegionOutOfBounds,
    TruncatedPayload,
    crc32,
    encode,
    parse,
)


def crc32_bitwise(data: bytes) -> int:
    """Independent bit-at-a-time CRC-32 oracle (reflected 0x04C11DB7)."""
    crc = 0xFFFFFFFF
    for byte in data:
        crc ^= byte
        for _ in range(8):
            crc = (crc >> 1) ^ 0xEDB88320 if crc & 1 else crc >> 1
    return crc ^ 0xFFFFFFFF


def column_fill(geometry, column_count, seed=1):
    """Deterministic non-trivial payload covering whole columns."""
    n = column_count * geometry.column_bytes
    return bytes((seed * 131 + i * 7) % 256 for i in range(n))


def test_crc_reference_check_value():
    # Published check value for the IEEE/zlib CRC-32 variant.
    assert crc32_bitwise(b"123456789") == 0xCBF43926
    assert crc32(b"123456789") == 0xCBF43926


@given(st.binary(max_size=64))
def test_crc_matches_bitwise_oracle(data):
    assert crc32(data) == crc32_bitwise(data)


def test_partial_encode_size_arithmetic():
    payload = column_fill(DESK_GEOMETRY, 4)
    image = encode(DESK_GEOMETRY, BitstreamKind.PARTIAL, 0xAB, 0, payload)
    # 4 columns * 32 frames * 64 bytes payload, 24-byte header, 4-byte CRC.
    assert len(payload) == 8192
    assert len(image) == 8192 + 24 + 4


def test_full_encode_size_arithmetic():
    payload = column_fill(DESK_GEOMETRY, 16)
    image = encode(DESK_GEOMETRY, BitstreamKind.FULL, 0, 0, payload)
    assert len(payload) == 32768
    assert len(image) == 32768 + 28


def test_encode_region_out_of_bounds():
    payload = column_fill(DESK_GEOMETRY, 2)
    with pytest.raises(RegionOutOfBounds):
        encode(DESK_GEOMETRY, BitstreamKind.PARTIAL, 0, 15, payload)


def test_encode_misaligned_payload():
    with pytest.raises(MisalignedPayload):
        encode(DESK_GEOMETRY, BitstreamKind.PARTIAL, 0, 0, b"\x01" * 100)


def test_full_must_cover_device():
    payload = column_fill(DESK_GEOMETRY, 4)
    with pytest.raises(RegionOutOfBounds):
        encode(DESK_GEOMETRY, BitstreamKind.FULL, 0, 0, payload)


@st.composite
def geometries(draw):
    columns = draw(st.integers(2, 6))
    return DeviceGeometry(
        columns=columns,
        frames_per_column=draw(st.integers(1, 4)),
        bytes_per_frame=draw(st.integers(1, 8)),
        fixed_first=draw(st.integers(1, columns - 1)),
    )


@st.composite
def geometry_and_region(draw):
    g = draw(geometries())
    count = draw(st.integers(1, g.columns))
    first = draw(st.integers(0, g.columns - count))
    return g, first, count


# Bytes-like images: a mutable one is inverted after parse.
BYTES_LIKE = {"bytes": bytes, "bytearray": bytearray,
              "memoryview": lambda data: memoryview(bytearray(data))}


@given(geometry_and_region(), st.integers(0, 2**32 - 1), st.randoms(use_true_random=False),
       st.sampled_from(sorted(BYTES_LIKE)))
def test_parse_encode_roundtrip(region, kernel_id, rng, image_type):
    g, first, count = region
    kind = BitstreamKind.FULL if (first, count) == (0, g.columns) else BitstreamKind.PARTIAL
    payload = bytes(rng.getrandbits(8) for _ in range(count * g.column_bytes))
    image = BYTES_LIKE[image_type](encode(g, kind, kernel_id, first, payload))
    bs = parse(image)
    if not isinstance(image, bytes):
        image[:] = bytes(b ^ 0xFF for b in image)
    assert (bs.kind, bs.kernel_id, bs.first_column, bs.column_count) == (kind, kernel_id, first, count)
    assert (bs.frames_per_column, bs.bytes_per_frame) == (g.frames_per_column, g.bytes_per_frame)
    assert type(bs.payload) is bytes and bs.payload == payload


def test_parse_detects_flipped_payload_byte():
    image = bytearray(encode(DESK_GEOMETRY, BitstreamKind.PARTIAL, 1, 0, column_fill(DESK_GEOMETRY, 1)))
    image[24 + 100] ^= 0x40
    with pytest.raises(BadChecksum):
        parse(bytes(image))


def test_parse_detects_truncation():
    image = encode(DESK_GEOMETRY, BitstreamKind.PARTIAL, 1, 0, column_fill(DESK_GEOMETRY, 1))
    with pytest.raises(TruncatedPayload):
        parse(image[:-1])
    with pytest.raises(TruncatedPayload):
        parse(image + b"\x00")
    with pytest.raises(TruncatedPayload):
        parse(b"PB")


def test_parse_detects_bad_magic():
    image = bytearray(encode(DESK_GEOMETRY, BitstreamKind.PARTIAL, 1, 0, column_fill(DESK_GEOMETRY, 1)))
    image[:4] = b"XBIT"
    with pytest.raises(BadMagic):
        parse(bytes(image))


def test_apply_leaves_other_columns_untouched():
    mem = ConfigurationMemory(DESK_GEOMETRY)
    before = [mem.column(c) for c in range(16)]
    bs = parse(encode(DESK_GEOMETRY, BitstreamKind.PARTIAL, 1, 0, column_fill(DESK_GEOMETRY, 4)))
    mem.apply(bs)
    for c in range(4, 16):
        assert mem.column(c) == before[c]


def test_apply_is_idempotent():
    mem = ConfigurationMemory(DESK_GEOMETRY)
    bs = parse(encode(DESK_GEOMETRY, BitstreamKind.PARTIAL, 1, 2, column_fill(DESK_GEOMETRY, 3)))
    mem.apply(bs)
    first = mem.snapshot()
    mem.apply(bs)
    assert mem.snapshot() == first


def test_apply_rejects_fixed_region_partial():
    # fixed columns 12..15; a partial hitting 10..13 must be refused whole.
    mem = ConfigurationMemory(DESK_GEOMETRY)
    bs = parse(encode(DESK_GEOMETRY, BitstreamKind.PARTIAL, 1, 10, column_fill(DESK_GEOMETRY, 4)))
    before = mem.snapshot()
    with pytest.raises(FixedRegionViolation):
        mem.apply(bs)
    assert mem.snapshot() == before


def test_boot_path_may_write_fixed_columns():
    mem = ConfigurationMemory(DESK_GEOMETRY)
    bs = parse(encode(DESK_GEOMETRY, BitstreamKind.FULL, 0, 0, column_fill(DESK_GEOMETRY, 16)))
    mem.apply(bs, allow_fixed=True)
    assert mem.snapshot() == bs.payload


def test_readback_returns_written_payload():
    mem = ConfigurationMemory(DESK_GEOMETRY)
    payload = column_fill(DESK_GEOMETRY, 4, seed=9)
    mem.apply(parse(encode(DESK_GEOMETRY, BitstreamKind.PARTIAL, 7, 0, payload)))
    back = parse(mem.readback(0, 4, kernel_id=7))
    assert back.payload == payload
    assert back.kind == BitstreamKind.PARTIAL
    assert back.kernel_id == 7


def test_readback_of_unconfigured_columns_is_zero():
    mem = ConfigurationMemory(DESK_GEOMETRY)
    back = parse(mem.readback(5, 2))
    assert back.payload == bytes(2 * DESK_GEOMETRY.column_bytes)


def test_readback_out_of_bounds():
    mem = ConfigurationMemory(DESK_GEOMETRY)
    with pytest.raises(RegionOutOfBounds):
        mem.readback(15, 2)


def test_overlapping_applies_match_reference_replay():
    g = DeviceGeometry(8, 2, 4, fixed_first=7)
    mem = ConfigurationMemory(g)
    jobs = [(0, column_fill(g, 4, seed=3)), (2, column_fill(g, 3, seed=5))]
    # Independent oracle: replay per-column writes into a dict.
    reference: dict[int, bytes] = {c: bytes(g.column_bytes) for c in range(g.columns)}
    for first, payload in jobs:
        mem.apply(parse(encode(g, BitstreamKind.PARTIAL, 1, first, payload)))
        for i in range(len(payload) // g.column_bytes):
            reference[first + i] = payload[i * g.column_bytes:(i + 1) * g.column_bytes]
    assert mem.snapshot() == b"".join(reference[c] for c in range(g.columns))


@given(geometry_and_region(), st.randoms(use_true_random=False))
@settings(max_examples=60)
def test_apply_readback_roundtrip_and_fixed_protection(region, rng):
    g, first, count = region
    mem = ConfigurationMemory(g)
    fixed_before = {c: mem.column(c) for c in g.fixed_columns}
    payload = bytes(rng.getrandbits(8) for _ in range(count * g.column_bytes))
    bs = parse(encode(g, BitstreamKind.PARTIAL, 3, first, payload))
    touches_fixed = bool(set(bs.columns) & set(g.fixed_columns))
    if touches_fixed:
        with pytest.raises(FixedRegionViolation):
            mem.apply(bs)
    else:
        mem.apply(bs)
        assert parse(mem.readback(first, count)).payload == payload
    for c in g.fixed_columns:
        assert mem.column(c) == fixed_before[c]
