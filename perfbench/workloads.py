"""The benchmark's workloads: inputs from a seed, set-up, the timed phase,
and output checks.

Every workload follows the same protocol:

* ``Workload(seed, workdir)`` generates all inputs from the seed.  The same
  seed always gives byte-identical inputs; the simulator only ever sees
  these generated inputs.
* ``setup()`` brings up what the timed phase needs: a booted board with
  the inputs staged in host memory, or the scenario files written to
  ``workdir``.  It is not part of the timed phase.
* ``run(state)`` is the timed phase.  It returns a ``Rep``: ``perf_counter``
  stamps of the phase and of each device job, simulated statistics, and
  every output needed for checking.
* ``check(state, rep)`` compares outputs against oracles that do not use
  the simulator (input bytes, the fir4 reference, the paper's analytic
  timings, the wire-rate ceiling) and against the simulated statistics
  recorded at the seed commit in ``reference.json``.  It returns one
  message per failed job.

The board is driven through its public register window, exactly as a host
driver would: program base/length registers, strobe ``control``, wait for
the done interrupt, acknowledge it.
"""

from __future__ import annotations

import hashlib
import json
import random
import shutil
import struct
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from proteus_sim import bitstream as bits
from proteus_sim.board import BoardConfig, World
from proteus_sim.fixed_part import (
    CTRL_START_DOWN,
    CTRL_START_READBACK,
    CTRL_START_RECONFIG,
    CTRL_START_UP,
    REG_CFG_BASE,
    REG_CFG_LEN,
    REG_CONTROL,
    REG_DOWN_BASE,
    REG_DOWN_LEN,
    REG_UP_BASE,
    REG_UP_LEN,
    IrqCause,
    TargetId,
)
from proteus_sim.runner import ScenarioRunner, emit_metrics
from proteus_sim.scenario import ReadbackCmd, ReconfigCmd, StreamCmd, parse_scenario
from proteus_sim.trace import emit_trace

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"
REFERENCE = json.loads(REFERENCE_PATH.read_text()) if REFERENCE_PATH.exists() else {}

CFG_PERIOD = 20_000          # ps per configuration byte (50 MB/s)
PCI_PERIOD = 30_303          # ps per 4-byte bus cycle (132 MB/s)
MiB = 1 << 20
IDENTITY_ID = 0x21
FIR4_ID = 0x33


@dataclass
class Rep:
    """Outcome of one timed phase."""

    start: float = 0.0                  # perf_counter stamps of the timed phase
    end: float = 0.0
    events: int = 0
    sim_ps: int = 0
    words: int = 0                      # payload words the jobs moved
    jobs: list = field(default_factory=list)   # (kind, start stamp, end stamp)
    attempted: int = 0
    bus_busy_ps: int = 0
    bus_cycles: int = 0
    outputs: dict = field(default_factory=dict)


def _rng(seed: int, stream: str) -> random.Random:
    """Independent, reproducible byte source per (seed, purpose)."""
    digest = hashlib.sha256(f"{seed}:{stream}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "little"))


def _boot(world: World, flash: bytes) -> None:
    report = world.device.power_up(flash)
    if not report.ok:
        raise RuntimeError("flash boot failed")
    world.sim.run_until(report.duration)


def _stage(world: World, data: bytes) -> int:
    _rid, base = world.host.map_shared_region(len(data))
    world.host.write(base, data)
    return base


def _wait(world: World, cause: IrqCause, what: str) -> None:
    world.run_until_cause(cause, what)
    world.acknowledge(cause)


def _reconfigure(world: World, base: int, nbytes: int) -> None:
    dev = world.device
    dev.host_reg_write(REG_CFG_BASE, base)
    dev.host_reg_write(REG_CFG_LEN, nbytes)
    dev.host_reg_write(REG_CONTROL, CTRL_START_RECONFIG)
    _wait(world, IrqCause.RECONFIG_DONE, "reconfig")


def fir4_oracle(data: bytes) -> bytes:
    """Sliding sum of each little-endian word and the three before it."""
    words = struct.unpack(f"<{len(data) // 4}I", data)
    out = [(w + a + b + c) & 0xFFFFFFFF
           for w, a, b, c in zip(words, (0,) + words, (0, 0) + words, (0, 0, 0) + words)]
    return struct.pack(f"<{len(out)}I", *out)


def check_image(image: bytes, first: int, count: int, payload: bytes) -> str | None:
    """Independent decode of a readback image: header, CRC, payload."""
    if len(image) != bits.WRAPPER_BYTES + len(payload):
        return f"readback image is {len(image)} bytes"
    magic, kind, _kid, col, cols, _f, _b, plen = struct.unpack_from("<4sB3xIHHHHI", image)
    if (magic, kind, col, cols, plen) != (b"PBIT", 1, first, count, len(payload)):
        return "readback header does not describe the requested columns"
    body = image[:-4]
    if zlib.crc32(body) != struct.unpack_from("<I", image, len(body))[0]:
        return "readback CRC mismatch"
    if image[bits.HEADER_BYTES:-4] != payload:
        return "readback payload differs from the staged payload"
    return None


def _check_sim(name: str, rep: Rep, ref: dict) -> list[str]:
    """Simulated statistics must equal the seed-commit reference exactly."""
    if ref is None:
        return [f"{name}: no seed-commit reference recorded"]
    got = {"sim_ps": rep.sim_ps, "bus_busy_ps": rep.bus_busy_ps, "bus_cycles": rep.bus_cycles}
    return [f"{name}: simulated {k} = {v}, reference {ref[k]}"
            for k, v in got.items() if v != ref[k]]


def _wire_rate_ok(rep: Rep) -> bool:
    """No window can move more than 4 bytes per bus cycle."""
    return rep.bus_cycles * PCI_PERIOD <= rep.bus_busy_ps <= rep.sim_ps


class Stream1MB:
    """One 1 MiB identity round trip, default bus, no stalls."""

    name = "stream_1mb"
    JOBS = 1
    NBYTES = MiB

    def __init__(self, seed: int, workdir: Path) -> None:
        g = bits.DESK_GEOMETRY
        self.flash = bits.encode(g, bits.BitstreamKind.FULL, 0, 0,
                                 _rng(seed, "flash").randbytes(g.total_bytes))
        self.kernel = bits.encode(g, bits.BitstreamKind.PARTIAL, IDENTITY_ID, 0,
                                  _rng(seed, "kernel").randbytes(4 * g.column_bytes))
        self.data = _rng(seed, "data").randbytes(self.NBYTES)

    def inputs(self) -> list[bytes]:
        return [self.flash, self.kernel, self.data]

    def setup(self):
        world = World()
        _boot(world, self.flash)
        world.device.registry.bind(IDENTITY_ID, "identity")
        _reconfigure(world, _stage(world, self.kernel), len(self.kernel))
        in_base = _stage(world, self.data)
        _rid, out_base = world.host.map_shared_region(self.NBYTES)
        return world, in_base, out_base

    def run(self, state) -> Rep:
        world, in_base, out_base = state
        dev, sim, bus = world.device, world.sim, world.bus
        n = self.NBYTES
        ev0, t0, busy0, cyc0 = sim.executed, sim.now, bus.busy_ticks, bus.total_data_cycles
        start = perf_counter()
        dev.host_reg_write(REG_DOWN_BASE, in_base)
        dev.host_reg_write(REG_DOWN_LEN, n)
        dev.host_reg_write(REG_UP_BASE, out_base)
        dev.host_reg_write(REG_UP_LEN, n)
        dev.host_reg_write(REG_CONTROL, CTRL_START_DOWN | CTRL_START_UP)
        _wait(world, IrqCause.DOWNSTREAM_DONE, "downstream job")
        _wait(world, IrqCause.UPSTREAM_DONE, "upstream job")
        out = world.host.read(out_base, n)
        end = perf_counter()
        return Rep(start=start, end=end, events=sim.executed - ev0, sim_ps=sim.now - t0,
                   words=n // 4, jobs=[("stream", start, end)], attempted=self.JOBS,
                   bus_busy_ps=bus.busy_ticks - busy0,
                   bus_cycles=bus.total_data_cycles - cyc0, outputs={"out": out})

    def check(self, state, rep: Rep) -> list[str]:
        world = state[0]
        errors = []
        if rep.outputs["out"] != self.data:
            errors.append("stream: output differs from input (identity)")
        if rep.bus_cycles != 2 * self.NBYTES // 4:
            errors.append(f"stream: {rep.bus_cycles} bus data cycles, expected "
                          f"{2 * self.NBYTES // 4}")
        if not _wire_rate_ok(rep):
            errors.append("stream: bus moved data above the 132 MB/s wire rate")
        if world.device.controller.pauses:
            errors.append("stream: configuration port paused on an idle controller")
        errors += _check_sim("stream", rep, REFERENCE.get(self.name))
        return errors


class Reconfig1MB:
    """1 MiB partial reconfiguration on a 130x128x64 device, then readback."""

    name = "reconfig_1mb"
    JOBS = 2
    GEOMETRY = bits.DeviceGeometry(columns=130, frames_per_column=128, bytes_per_frame=64,
                                   fixed_first=128)
    COLUMNS = 128   # 128 columns x 8 KiB = 1 MiB payload

    def __init__(self, seed: int, workdir: Path) -> None:
        g = self.GEOMETRY
        self.flash = bits.encode(g, bits.BitstreamKind.FULL, 0, 0,
                                 _rng(seed, "flash").randbytes(g.total_bytes))
        self.payload = _rng(seed, "payload").randbytes(self.COLUMNS * g.column_bytes)
        # An unbound kernel id leaves the region inert: kernels stay idle.
        self.image = bits.encode(g, bits.BitstreamKind.PARTIAL, 0x5A, 0, self.payload)

    def inputs(self) -> list[bytes]:
        return [self.flash, self.image]

    def setup(self):
        world = World(BoardConfig(geometry=self.GEOMETRY))
        _boot(world, self.flash)
        cfg_base = _stage(world, self.image)
        _rid, rb_base = world.host.map_shared_region(len(self.image))
        return world, cfg_base, rb_base

    def run(self, state) -> Rep:
        world, cfg_base, rb_base = state
        dev, sim, bus = world.device, world.sim, world.bus
        ev0, t0, busy0, cyc0 = sim.executed, sim.now, bus.busy_ticks, bus.total_data_cycles
        start = perf_counter()
        _reconfigure(world, cfg_base, len(self.image))
        config = dev.last_config
        mid = perf_counter()
        dev.host_reg_write(REG_CFG_BASE, rb_base)
        dev.host_reg_write(REG_CFG_LEN, (self.COLUMNS << 16) | 0)
        dev.host_reg_write(REG_CONTROL, CTRL_START_READBACK)
        _wait(world, IrqCause.READBACK_DONE, "readback")
        image = world.host.read(rb_base, len(self.image))
        end = perf_counter()
        return Rep(start=start, end=end, events=sim.executed - ev0, sim_ps=sim.now - t0,
                   words=2 * len(self.image) // 4,
                   jobs=[("reconfig", start, mid), ("readback", mid, end)],
                   attempted=self.JOBS,
                   bus_busy_ps=bus.busy_ticks - busy0,
                   bus_cycles=bus.total_data_cycles - cyc0,
                   outputs={"config": config, "readback": dev.last_readback,
                            "image": image, "pauses": dev.controller.pauses})

    def check(self, state, rep: Rep) -> list[str]:
        errors = []
        analytic = len(self.payload) * CFG_PERIOD
        config, readback = rep.outputs["config"], rep.outputs["readback"]
        if (config.duration, config.pauses, config.bytes) != (analytic, 0, len(self.payload)):
            errors.append(f"reconfig: {config}, expected {analytic} ps, 0 pauses")
        problem = check_image(rep.outputs["image"], 0, self.COLUMNS, self.payload)
        if problem is None and (readback.duration, rep.outputs["pauses"]) != (analytic, 0):
            problem = f"{readback} with {rep.outputs['pauses']} pauses, expected {analytic} ps"
        if problem:
            errors.append(f"readback: {problem}")
        if not _wire_rate_ok(rep):
            errors.append("reconfig: bus moved data above the 132 MB/s wire rate")
        errors += _check_sim("reconfig", rep, REFERENCE.get(self.name))
        return errors


class TimedRunner(ScenarioRunner):
    """Scenario runner that records host time and simulated results per command."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.cmd_s: dict[str, float] = {}
        self.jobs: list[tuple[str, float, float]] = []
        self.job_sim: list[list] = []

    def _dispatch(self, cmd) -> None:
        kind = type(cmd).__name__.removesuffix("Cmd").lower()
        start = perf_counter()
        super()._dispatch(cmd)
        end = perf_counter()
        self.cmd_s[kind] = self.cmd_s.get(kind, 0.0) + end - start
        dev = self.world.device if self.world is not None else None
        if isinstance(cmd, ReconfigCmd):
            c = dev.last_config
            self.job_sim.append(["reconfig", c.duration, c.pauses, c.bytes])
        elif isinstance(cmd, ReadbackCmd):
            r = dev.last_readback
            self.job_sim.append(["readback", r.duration, dev.controller.pauses, r.bytes])
        elif isinstance(cmd, StreamCmd):
            windows = [e.finished_at - e.started_at for e in
                       (dev.engines[TargetId.DOWNSTREAM], dev.engines[TargetId.UPSTREAM])]
            self.job_sim.append(["stream", *windows])
        else:
            return
        self.jobs.append((kind, start, end))


class ScenarioMix:
    """Rounds of 8 KB reconfig, 16 KB stream, 8 KB readback through the
    scenario runner, with a short-burst bus and periodic PCI stalls."""

    name = "scenario_mix"
    ROUNDS = 40     # 120 jobs: enough for ten beyond p90
    JOBS = 3 * ROUNDS
    STALL_PERIOD_US = 40
    STALL_US = 10
    STALL_HORIZON_US = 32_000   # the run ends near 30.7 ms of simulated time
    STREAM_WORDS = 4096

    def __init__(self, seed: int, workdir: Path) -> None:
        self.workdir = workdir
        g = bits.DESK_GEOMETRY
        rng = _rng(seed, "scenario")
        self.files = {"boot.pbit": bits.encode(g, bits.BitstreamKind.FULL, 0, 0,
                                               rng.randbytes(g.total_bytes))}
        self.kernel_payload = []
        self.stream_in = []
        lines = [
            "# generated by perfbench: reconfig / stream / readback rounds",
            f"geometry cols={g.columns} frames={g.frames_per_column} "
            f"fbytes={g.bytes_per_frame} fixed={g.fixed_first}..{g.columns - 1}",
            "bus grant=8 burst=64",
        ]
        lines += [f"stall at={t}us for={self.STALL_US}us"
                  for t in range(self.STALL_PERIOD_US, self.STALL_HORIZON_US,
                                 self.STALL_PERIOD_US)]
        lines += ["boot flash=boot.pbit",
                  f"bind id={IDENTITY_ID:#x} kernel=identity",
                  f"bind id={FIR4_ID:#x} kernel=fir4"]
        for r in range(self.ROUNDS):
            kid = FIR4_ID if r % 2 else IDENTITY_ID
            payload = rng.randbytes(4 * g.column_bytes)
            data = rng.randbytes(self.STREAM_WORDS * 4)
            self.kernel_payload.append(payload)
            self.stream_in.append(data)
            self.files[f"k{r}.pbit"] = bits.encode(g, bits.BitstreamKind.PARTIAL, kid, 0,
                                                   payload)
            self.files[f"d{r}.bin"] = data
            lines += [f"reconfig file=k{r}.pbit",
                      f"expect reconfig_duration_ps >= {len(payload) * CFG_PERIOD}",
                      f"stream in=d{r}.bin out=s{r}.bin words={self.STREAM_WORDS}",
                      f"readback cols=0..3 out=r{r}.pbit",
                      f"expect readback_duration_ps >= {len(payload) * CFG_PERIOD}"]
        lines.append(f"expect upstream_bytes == {self.ROUNDS * self.STREAM_WORDS * 4}")
        self.text = "\n".join(lines) + "\n"

    def inputs(self) -> list[bytes]:
        return [self.text.encode()] + [self.files[k] for k in sorted(self.files)]

    def setup(self):
        shutil.rmtree(self.workdir, ignore_errors=True)   # no stale outputs to check
        self.workdir.mkdir(parents=True)
        for name, data in self.files.items():
            (self.workdir / name).write_bytes(data)
        (self.workdir / "mix.pscn").write_text(self.text)
        return self.workdir

    def run(self, state) -> Rep:
        work = state
        timings = {}
        start = perf_counter()
        scenario = parse_scenario((work / "mix.pscn").read_text(), base_dir=work)
        timings["parse_s"] = perf_counter() - start
        runner = TimedRunner(scenario, work, seed=0, tracing=True)
        result = runner.run()
        t = perf_counter()
        emit_metrics(result.metrics, work / "metrics.txt")
        emit_trace(result.trace_records, work / "trace.csv")
        end = perf_counter()
        timings["emit_s"] = end - t
        world = runner.world
        return Rep(start=start, end=end, events=world.sim.executed if world else 0,
                   sim_ps=world.sim.now if world else 0,
                   words=self.ROUNDS * (2 * len(self.kernel_payload[0]) + 4 * self.STREAM_WORDS)
                   // 4,
                   jobs=runner.jobs, attempted=self.JOBS,
                   bus_busy_ps=world.bus.busy_ticks if world else 0,
                   bus_cycles=world.bus.total_data_cycles if world else 0,
                   outputs={"result": result, "timings": timings, "job_sim": runner.job_sim,
                            "cmd_s": runner.cmd_s, "trace_records": len(result.trace_records)})

    def check(self, state, rep: Rep) -> list[str]:
        work = state
        ref = REFERENCE.get(self.name)
        if ref is None:
            return ["no seed-commit reference recorded"]
        result = rep.outputs["result"]
        job_sim = rep.outputs["job_sim"]
        errors = []
        if result.fault:
            errors.append(f"scenario fault: {result.fault}")
        errors += [f"scenario expect failed: {f}" for f in result.expect_failures]
        for r in range(self.ROUNDS):
            payload = self.kernel_payload[r]
            data = self.stream_in[r]
            want = fir4_oracle(data) if r % 2 else data
            out = work / f"s{r}.bin"
            if not out.exists() or out.read_bytes() != want:
                errors.append(f"round {r}: stream output differs from the "
                              f"{'fir4' if r % 2 else 'identity'} oracle")
            image = work / f"r{r}.pbit"
            problem = (check_image(image.read_bytes(), 0, 4, payload) if image.exists()
                       else "no readback file")
            if problem:
                errors.append(f"round {r}: {problem}")
        analytic = len(self.kernel_payload[0]) * CFG_PERIOD
        for kind, duration, pauses, *_ in (j for j in job_sim if j[0] != "stream"):
            if duration < analytic or (pauses == 0 and duration != analytic):
                errors.append(f"{kind}: {duration} ps with {pauses} pauses breaks the "
                              f"{analytic} ps oracle")
        if [" ".join(map(str, j)) for j in job_sim] != ref["job_sim"]:
            errors.append("per-job simulated results differ from the seed-commit reference")
        metrics = dict(line.split("=", 1) for line in
                       (work / "metrics.txt").read_text().splitlines())
        for key, value in ref["metrics"].items():
            if metrics.get(key) != value:
                errors.append(f"metrics {key}={metrics.get(key)}, reference {value}")
        trace_sha = hashlib.sha256((work / "trace.csv").read_bytes()).hexdigest()
        if trace_sha != ref["trace_sha256"]:
            errors.append("trace bytes differ from the seed-commit reference")
        errors += _check_sim("scenario", rep, ref)
        if not _wire_rate_ok(rep):
            errors.append("scenario: bus moved data above the 132 MB/s wire rate")
        return errors


WORKLOADS = {w.name: w for w in (Stream1MB, Reconfig1MB, ScenarioMix)}
