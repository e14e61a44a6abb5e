"""Line-oriented scenario script parser.

Commands (one per line, ``#`` starts a comment, arguments are
``key=value`` pairs except for ``expect``)::

    geometry cols=<n> frames=<n> fbytes=<n> fixed=<a>..<b>
    bus grant=<cycles> burst=<cycles>
    boot flash=<path>
    bind id=<hex32> kernel=<name>
    makebit out=<path> kind=<full|partial> id=<hex32> cols=<a>..<b> fill=<hex8|random[:seed]>
    reconfig file=<path>
    readback cols=<a>..<b> out=<path>
    stream in=<path> out=<path> words=<n>
    stall at=<time><ns|us|ms> for=<time><ns|us|ms>
    expect <metrics_key> <=|>=|== <number>

The whole script is validated before anything runs; every rejection
carries a line and column.  Input files must either exist under the
scenario's directory or be produced by an earlier command in the script.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from decimal import Decimal
from pathlib import Path


class ParseError(Exception):
    def __init__(self, line: int, col: int, message: str) -> None:
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col
        self.message = message


@dataclass(frozen=True)
class GeometryCmd:
    line: int
    cols: int
    frames: int
    fbytes: int
    fixed_first: int


@dataclass(frozen=True)
class BusCmd:
    line: int
    grant: int
    burst: int


@dataclass(frozen=True)
class BootCmd:
    line: int
    flash: str


@dataclass(frozen=True)
class BindCmd:
    line: int
    kernel_id: int
    kernel: str


@dataclass(frozen=True)
class Fill:
    """A constant byte, or random bytes from ``seed`` (None: the run's seed)."""

    byte: int | None = None
    seed: int | None = None


@dataclass(frozen=True)
class MakebitCmd:
    line: int
    out: str
    kind: str
    kernel_id: int
    first: int
    last: int
    fill: Fill


@dataclass(frozen=True)
class ReconfigCmd:
    line: int
    file: str


@dataclass(frozen=True)
class ReadbackCmd:
    line: int
    first: int
    last: int
    out: str


@dataclass(frozen=True)
class StreamCmd:
    line: int
    in_path: str
    out_path: str
    words: int


@dataclass(frozen=True)
class StallCmd:
    line: int
    at_ps: int
    for_ps: int


@dataclass(frozen=True)
class ExpectCmd:
    line: int
    key: str
    op: str
    value: float


@dataclass
class Scenario:
    commands: list


_TIME_SCALE = {"ns": 1_000, "us": 1_000_000, "ms": 1_000_000_000}


def parse_time(text: str) -> int:
    """'100us' -> picoseconds; exact conversion or ValueError."""
    m = re.fullmatch(r"(\d+(?:\.\d+)?)(ns|us|ms)", text)
    if not m:
        raise ValueError(f"expected <number><ns|us|ms>, got {text!r}")
    ps = Decimal(m.group(1)) * _TIME_SCALE[m.group(2)]
    if ps != int(ps):
        raise ValueError(f"{text!r} does not land on an integer picosecond")
    return int(ps)


def _uint(text: str) -> int:
    if not re.fullmatch(r"\d+", text):
        raise ValueError(f"expected an unsigned integer, got {text!r}")
    return int(text)


def _positive(text: str) -> int:
    value = _uint(text)
    if value <= 0:
        raise ValueError(f"expected a positive integer, got {text!r}")
    return value


def _hex32(text: str) -> int:
    if re.fullmatch(r"0[xX][0-9a-fA-F]+", text):
        value = int(text, 16)
    elif re.fullmatch(r"\d+", text):
        value = int(text)
    else:
        raise ValueError(f"expected a 32-bit id (hex or decimal), got {text!r}")
    if value >= 2**32:
        raise ValueError(f"id {text} does not fit in 32 bits")
    return value


def _col_range(text: str) -> tuple[int, int]:
    m = re.fullmatch(r"(\d+)\.\.(\d+)", text)
    if not m:
        raise ValueError(f"expected <a>..<b>, got {text!r}")
    a, b = int(m.group(1)), int(m.group(2))
    if a > b:
        raise ValueError(f"empty range {text!r}")
    return a, b


def _fill(text: str) -> Fill:
    if re.fullmatch(r"[0-9a-fA-F]{2}", text):
        return Fill(byte=int(text, 16))
    if text == "random":
        return Fill()
    m = re.fullmatch(r"random:(\d+)", text)
    if m:
        return Fill(seed=int(m.group(1)))
    raise ValueError(f"expected two hex digits or random[:seed], got {text!r}")


def _path(text: str) -> str:
    return text


def _name(text: str) -> str:
    if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", text):
        raise ValueError(f"expected an identifier, got {text!r}")
    return text


def _kind(text: str) -> str:
    if text not in ("full", "partial"):
        raise ValueError(f"expected full or partial, got {text!r}")
    return text


# name -> {arg: converter}
_COMMANDS = {
    "geometry": {"cols": _positive, "frames": _positive, "fbytes": _positive,
                 "fixed": _col_range},
    "bus": {"grant": _uint, "burst": _positive},
    "boot": {"flash": _path},
    "bind": {"id": _hex32, "kernel": _name},
    "makebit": {"out": _path, "kind": _kind, "id": _hex32, "cols": _col_range,
                "fill": _fill},
    "reconfig": {"file": _path},
    "readback": {"cols": _col_range, "out": _path},
    "stream": {"in": _path, "out": _path, "words": _positive},
    "stall": {"at": parse_time, "for": parse_time},
}

_INPUT_ARGS = {"boot": ("flash",), "reconfig": ("file",), "stream": ("in",)}
_OUTPUT_ARGS = {"makebit": ("out",), "readback": ("out",), "stream": ("out",)}

_EXPECT_OPS = ("<=", ">=", "==")


def _build(name: str, line: int, args: dict):
    if name == "geometry":
        lo, hi = args["fixed"]
        if hi != args["cols"] - 1:
            raise ValueError("fixed range must end at the right-most column")
        if lo < 1 or lo >= args["cols"]:
            raise ValueError("fixed range must leave a reconfigurable prefix")
        return GeometryCmd(line, args["cols"], args["frames"], args["fbytes"], lo)
    if name == "bus":
        return BusCmd(line, args["grant"], args["burst"])
    if name == "boot":
        return BootCmd(line, args["flash"])
    if name == "bind":
        return BindCmd(line, args["id"], args["kernel"])
    if name == "makebit":
        a, b = args["cols"]
        return MakebitCmd(line, args["out"], args["kind"], args["id"], a, b, args["fill"])
    if name == "reconfig":
        return ReconfigCmd(line, args["file"])
    if name == "readback":
        a, b = args["cols"]
        return ReadbackCmd(line, a, b, args["out"])
    if name == "stream":
        return StreamCmd(line, args["in"], args["out"], args["words"])
    if name == "stall":
        if args["for"] <= 0:
            raise ValueError("stall duration must be positive")
        return StallCmd(line, args["at"], args["for"])
    raise AssertionError(name)


def parse_scenario(text: str, base_dir=None) -> Scenario:
    """Parse and fully validate a script; raises ParseError with location.

    With ``base_dir`` set, input file references must exist there unless an
    earlier command in the script produces them.
    """
    base = Path(base_dir) if base_dir is not None else None
    produced: set[str] = set()
    commands = []
    for line_no, raw in enumerate(text.splitlines(), 1):
        body = raw.split("#", 1)[0]
        if not body.strip():
            continue
        tokens = [(m.group(), m.start() + 1) for m in re.finditer(r"\S+", body)]
        name, name_col = tokens[0]
        if name == "expect":
            commands.append(_parse_expect(line_no, tokens))
            continue
        if name not in _COMMANDS:
            raise ParseError(line_no, name_col, f"unknown command {name!r}")
        converters = _COMMANDS[name]
        args: dict = {}
        cols: dict = {}
        for tok, tcol in tokens[1:]:
            key, eq, value = tok.partition("=")
            if not eq or not key:
                raise ParseError(line_no, tcol, f"expected key=value, got {tok!r}")
            if key not in converters:
                raise ParseError(line_no, tcol, f"unknown argument {key!r} for {name}")
            if key in args:
                raise ParseError(line_no, tcol, f"duplicate argument {key!r}")
            if not value:
                raise ParseError(line_no, tcol, f"empty value for {key!r}")
            try:
                args[key] = converters[key](value)
            except ValueError as exc:
                raise ParseError(line_no, tcol, str(exc)) from None
            cols[key] = tcol
        missing = [k for k in converters if k not in args]
        if missing:
            raise ParseError(line_no, name_col,
                             f"{name} is missing argument(s): {', '.join(missing)}")
        try:
            cmd = _build(name, line_no, args)
        except ValueError as exc:
            raise ParseError(line_no, name_col, str(exc)) from None
        if base is not None:
            for arg in _INPUT_ARGS.get(name, ()):
                path = args[arg]
                if path not in produced and not (base / path).exists():
                    raise ParseError(line_no, cols[arg], f"file not found: {path}")
        for arg in _OUTPUT_ARGS.get(name, ()):
            produced.add(args[arg])
        commands.append(cmd)
    return Scenario(commands)


def _parse_expect(line_no: int, tokens) -> ExpectCmd:
    if len(tokens) != 4:
        raise ParseError(line_no, tokens[0][1],
                         "expect takes exactly: <metrics_key> <=|>=|== <number>")
    key, key_col = tokens[1]
    if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", key):
        raise ParseError(line_no, key_col, f"bad metrics key {key!r}")
    op, op_col = tokens[2]
    if op not in _EXPECT_OPS:
        raise ParseError(line_no, op_col, f"expected one of {', '.join(_EXPECT_OPS)}")
    num, num_col = tokens[3]
    try:
        value = float(num)
    except ValueError:
        raise ParseError(line_no, num_col, f"bad number {num!r}") from None
    return ExpectCmd(line_no, key, op, value)
