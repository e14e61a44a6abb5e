"""Scenario grammar tests."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from proteus_sim.scenario import (
    BindCmd,
    BootCmd,
    BusCmd,
    ExpectCmd,
    Fill,
    GeometryCmd,
    MakebitCmd,
    ParseError,
    ReadbackCmd,
    ReconfigCmd,
    Scenario,
    StallCmd,
    StreamCmd,
    parse_scenario,
    parse_time,
)

GOLDEN = """\
# demo scenario
geometry cols=8 frames=4 fbytes=16 fixed=6..7
bus grant=4 burst=256

makebit out=boot.pbit kind=full id=0 cols=0..7 fill=00
boot flash=boot.pbit
bind id=0x21 kernel=identity
makebit out=k.pbit kind=partial id=0x21 cols=0..3 fill=random:42
reconfig file=k.pbit          # trailing comment
readback cols=0..3 out=rb.pbit
stream in=k.pbit out=out.bin words=16
stall at=100us for=2ms
expect reconfig_pauses == 0
"""


def test_golden_script_parses_in_source_order(tmp_path):
    scenario = parse_scenario(GOLDEN, base_dir=tmp_path)
    assert scenario.commands == [
        GeometryCmd(2, 8, 4, 16, 6),
        BusCmd(3, 4, 256),
        MakebitCmd(5, "boot.pbit", "full", 0, 0, 7, Fill(byte=0)),
        BootCmd(6, "boot.pbit"),
        BindCmd(7, 0x21, "identity"),
        MakebitCmd(8, "k.pbit", "partial", 0x21, 0, 3, Fill(seed=42)),
        ReconfigCmd(9, "k.pbit"),
        ReadbackCmd(10, 0, 3, "rb.pbit"),
        StreamCmd(11, "k.pbit", "out.bin", 16),
        StallCmd(12, 100_000_000, 2_000_000_000),
        ExpectCmd(13, "reconfig_pauses", "==", 0.0),
    ]


def test_unknown_command_reports_position():
    with pytest.raises(ParseError) as err:
        parse_scenario("reconfg file=x\n")
    assert (err.value.line, err.value.col) == (1, 1)
    assert "unknown command" in err.value.message


def test_bad_argument_value_reports_token_column():
    with pytest.raises(ParseError) as err:
        parse_scenario("stream in=a out=b words=zero\n")
    assert err.value.line == 1
    assert err.value.col == len("stream in=a out=b ") + 1


def test_missing_argument_rejected():
    with pytest.raises(ParseError) as err:
        parse_scenario("boot\n")
    assert "missing argument" in err.value.message
    assert "flash" in err.value.message


def test_duplicate_argument_rejected():
    with pytest.raises(ParseError, match="duplicate"):
        parse_scenario("boot flash=a flash=b\n")


def test_unknown_argument_rejected():
    with pytest.raises(ParseError, match="unknown argument"):
        parse_scenario("boot flash=a speed=9\n")


def test_missing_file_reference_rejected(tmp_path):
    with pytest.raises(ParseError, match="file not found"):
        parse_scenario("boot flash=missing.pbit\n", base_dir=tmp_path)


def test_existing_file_reference_accepted(tmp_path):
    (tmp_path / "flash.pbit").write_bytes(b"x")
    scenario = parse_scenario("boot flash=flash.pbit\n", base_dir=tmp_path)
    assert isinstance(scenario.commands[0], BootCmd)


def test_file_produced_earlier_in_script_accepted(tmp_path):
    text = "makebit out=a.pbit kind=partial id=1 cols=0..1 fill=ff\nreconfig file=a.pbit\n"
    scenario = parse_scenario(text, base_dir=tmp_path)
    assert isinstance(scenario.commands[1], ReconfigCmd)


def test_expect_operators_and_errors():
    scenario = parse_scenario("expect a <= 1\nexpect b >= 2.5\nexpect c == 3\n")
    assert [(c.key, c.op, c.value) for c in scenario.commands] == [
        ("a", "<=", 1.0), ("b", ">=", 2.5), ("c", "==", 3.0)]
    with pytest.raises(ParseError, match="expected one of"):
        parse_scenario("expect a < 1\n")
    with pytest.raises(ParseError, match="bad number"):
        parse_scenario("expect a == fast\n")
    with pytest.raises(ParseError, match="exactly"):
        parse_scenario("expect a ==\n")


def test_time_units_convert_exactly():
    assert parse_time("1ns") == 1_000
    assert parse_time("100us") == 100_000_000
    assert parse_time("2ms") == 2_000_000_000
    assert parse_time("0.5us") == 500_000
    with pytest.raises(ValueError):
        parse_time("100")  # unit required
    with pytest.raises(ValueError):
        parse_time("0.0001ns")  # sub-picosecond
    with pytest.raises(ValueError):
        parse_time("5s")


def test_geometry_fixed_range_must_be_suffix():
    with pytest.raises(ParseError, match="right-most"):
        parse_scenario("geometry cols=8 frames=4 fbytes=16 fixed=5..6\n")
    with pytest.raises(ParseError, match="reconfigurable"):
        parse_scenario("geometry cols=8 frames=4 fbytes=16 fixed=0..7\n")


def test_fill_forms():
    base = "makebit out=a kind=partial id=1 cols=0..0 fill="
    assert parse_scenario(base + "a5\n").commands[0].fill == Fill(byte=0xA5)
    assert parse_scenario(base + "random\n").commands[0].fill == Fill()
    with pytest.raises(ParseError):
        parse_scenario(base + "xyz\n")
    with pytest.raises(ParseError):
        parse_scenario(base + "random:abc\n")


def test_id_accepts_hex_and_decimal():
    assert parse_scenario("bind id=0xFF kernel=negate\n").commands[0].kernel_id == 255
    assert parse_scenario("bind id=255 kernel=negate\n").commands[0].kernel_id == 255
    with pytest.raises(ParseError, match="32 bits"):
        parse_scenario("bind id=0x100000000 kernel=negate\n")


@given(st.text(max_size=200))
@example("boot flash")
@example("stall at=1us for=0us")
@example("makebit out= kind=full id=1 cols=1..0 fill=00")
@settings(max_examples=300)
def test_parser_totality(text):
    # Any input either parses or raises a located ParseError; never crashes.
    try:
        result = parse_scenario(text)
    except ParseError as err:
        assert err.line >= 1 and err.col >= 1
    else:
        assert isinstance(result, Scenario)
