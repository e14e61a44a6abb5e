"""Per-layer attribution for a traced run, measured from outside the program.

``Tracer.install()`` replaces public functions and methods of
``proteus_sim`` with timing wrappers, at the place where callers look them
up (``on_fill_status``, ``arbitrate`` and ``busmaster_resume`` are patched
on ``proteus_sim.board``, which imported them by name).  ``uninstall()``
puts the originals back.  The program's own code is never edited.

Each wrapper records a span: calls, inclusive time, and self time (the span
minus the time of the spans it called), plus the parent span that called
it.  Every scheduled event is wrapped as well, so each executed event is
counted once and timed under the layer that owns it: the module that
defined the action, or for clock-domain edges the domain (``pci``, ``cfg``
for SelectMap, ``user`` for kernels).  Spans are aggregated in memory and
written out once, at the end of the run.
"""

from __future__ import annotations

from collections import defaultdict
from time import perf_counter

import proteus_sim.bitstream as bitstream
import proteus_sim.board as board
import proteus_sim.fixed_part as fixed_part
import proteus_sim.kernels as kernels
import proteus_sim.pci as pci
import proteus_sim.selectmap as selectmap
import proteus_sim.sim as sim
import proteus_sim.trace as trace

EVENT_OWNERS = ("pci", "selectmap", "kernels", "other")
MODULE_OWNER = {"proteus_sim.pci": "pci", "proteus_sim.selectmap": "selectmap",
                "proteus_sim.kernels": "kernels"}
DOMAIN_OWNER = {"pci": "pci", "cfg": "selectmap", "user": "kernels"}

# (object, attribute, span name); the layer is the span name's first part.
SPANS = (
    (sim.Simulator, "run_until", "sim.loop"),
    (sim.Simulator, "run_until_idle", "sim.loop"),
    (board.World, "run_until_cause", "sim.loop"),
    (pci.PciBus, "poke", "pci.poke"),
    (pci.PciBus, "begin_burst", "pci.begin_burst"),
    (pci.PciBus, "stalled_at", "pci.stall"),
    (pci.PciBus, "stall_clear_time", "pci.stall"),
    (pci.HostMemory, "locate", "pci.locate"),
    (fixed_part.StreamBuffer, "push", "fixed_part.buffer"),
    (fixed_part.StreamBuffer, "pop", "fixed_part.buffer"),
    (board.Device, "evaluate", "fixed_part.evaluate"),
    (board, "on_fill_status", "fixed_part.fill_status"),
    (board, "arbitrate", "fixed_part.arbitrate"),
    (board, "busmaster_resume", "fixed_part.resume"),
    (selectmap.SelectMapController, "start_configure", "selectmap.start"),
    (selectmap.SelectMapController, "start_readback", "selectmap.start"),
    (bitstream, "parse", "bitstream.parse"),
    (bitstream, "encode", "bitstream.encode"),
    (bitstream.ConfigurationMemory, "apply", "bitstream.mem"),
    (bitstream.ConfigurationMemory, "readback", "bitstream.mem"),
    (trace.TraceRecorder, "record", "trace.record"),
) + tuple((cls, "step", "kernels.step") for cls in kernels.BUILTIN_KERNELS.values())

# Commands a scenario may hold; each gets a runner.cmd_s.<command> metric.
COMMANDS = ("geometry", "bus", "stall", "boot", "bind", "reconfig", "stream",
            "readback", "expect")


def _event_owner(action) -> str:
    fn = getattr(action, "__func__", action)
    module = getattr(fn, "__module__", "")
    if module == "proteus_sim.sim":
        for cell in getattr(fn, "__closure__", None) or ():
            contents = cell.cell_contents
            if isinstance(contents, sim.ClockDomain):
                return DOMAIN_OWNER.get(contents.name, "other")
        return "other"
    return MODULE_OWNER.get(module, "other")


class Tracer:
    def __init__(self) -> None:
        names = {name for _obj, _attr, name in SPANS}
        names.update(f"event.{owner}" for owner in EVENT_OWNERS)
        self.spans = {name: [0, 0.0, 0.0] for name in names}   # calls, total_s, self_s
        self.edges: dict = defaultdict(lambda: [0, 0.0])        # (parent, child) -> calls, s
        self.counts: dict = defaultdict(int)
        self._stack = [["top", 0.0]]
        self._saved: list = []
        self._pause_seen: dict = {}   # id(controller) -> (controller, windows counted)

    # -- span bookkeeping ------------------------------------------------------

    def _timed(self, name: str, fn, after=None):
        stats = self.spans[name]
        stack = self._stack
        edges = self.edges

        def timed(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - start
                stack.pop()
                parent = stack[-1]
                parent[1] += dt
                stats[0] += 1
                stats[1] += dt
                stats[2] += dt - frame[1]
                edge = edges[(parent[0], name)]
                edge[0] += 1
                edge[1] += dt
            if after is not None:
                after(args, kwargs, result)
            return result

        return timed

    def reset(self) -> None:
        """Zero every span and counter; pauses already seen are not recounted."""
        for stats in self.spans.values():
            stats[:] = [0, 0.0, 0.0]
        self.edges.clear()
        self.counts.clear()
        for key, (ctl, _n) in self._pause_seen.items():
            self._pause_seen[key] = (ctl, len(ctl.pause_windows))

    # -- install / uninstall -----------------------------------------------------

    def install(self) -> None:
        assert not self._saved, "tracer already installed"
        after = {
            "fixed_part.fill_status": self._after_fill_status,
            "kernels.step": self._after_kernel_step,
        }
        for obj, attr, name in SPANS:
            original = getattr(obj, attr)
            self._saved.append((obj, attr, original))
            if name == "selectmap.start":
                wrapped = self._timed(name, self._selectmap_start(original))
            else:
                wrapped = self._timed(name, original, after.get(name))
            setattr(obj, attr, wrapped)

        schedule_at = sim.Simulator.schedule_at
        crc32 = bitstream.crc32
        self._saved += [(sim.Simulator, "schedule_at", schedule_at),
                        (bitstream, "crc32", crc32)]
        wrap_event = self._wrap_event
        counts = self.counts

        def traced_schedule_at(simulator, time, action):
            return schedule_at(simulator, time, wrap_event(action))

        def counted_crc32(data):
            counts["bitstream.crc_bytes"] += len(data)
            return crc32(data)

        sim.Simulator.schedule_at = traced_schedule_at
        bitstream.crc32 = counted_crc32

    def uninstall(self) -> None:
        for obj, attr, original in reversed(self._saved):
            setattr(obj, attr, original)
        self._saved.clear()

    def _wrap_event(self, action):
        return self._timed(f"event.{_event_owner(action)}", action)

    def _after_fill_status(self, _args, _kwargs, request) -> None:
        if request is not None:
            self.counts["fixed_part.fill_requests"] += 1

    def _after_kernel_step(self, args, _kwargs, _result) -> None:
        io = args[1]
        self.counts["kernels.steps"] += 1
        if io.consumed or io.produced:
            self.counts["kernels.useful_steps"] += 1

    def _selectmap_start(self, original):
        """Count image bytes and collect the previous job's pause windows,
        which starting a job clears."""
        def start(ctl, *args, **kwargs):
            self.harvest_pauses(ctl)
            total = original(ctl, *args, **kwargs)
            self._pause_seen[id(ctl)] = (ctl, 0)
            self.counts["selectmap.bytes"] += args[0] if total is None else total
            return total
        return start

    def harvest_pauses(self, ctl=None) -> None:
        """Add not yet counted pause windows of one (or every known) controller."""
        ctls = [ctl] if ctl is not None else [c for c, _n in self._pause_seen.values()]
        for c in ctls:
            _c, seen = self._pause_seen.get(id(c), (c, 0))
            for begin, end in c.pause_windows[seen:]:
                self.counts["selectmap.pauses"] += 1
                self.counts["selectmap.pause_ps"] += end - begin
            self._pause_seen[id(c)] = (c, len(c.pause_windows))

    # -- results -------------------------------------------------------------------

    def self_s(self, *names: str) -> float:
        return sum(self.spans[n][2] for n in names)

    def layer_self_s(self, layer: str) -> float:
        return sum(s[2] for n, s in self.spans.items() if n.split(".")[0] == layer)

    def snapshot(self) -> dict:
        """Spans, parent->child edges and counters, for the JSON trace file."""
        return {
            "spans": {n: {"calls": c, "total_s": t, "self_s": s}
                      for n, (c, t, s) in sorted(self.spans.items())},
            "edges": {f"{p}>{c}": {"calls": n, "total_s": t}
                      for (p, c), (n, t) in sorted(self.edges.items())},
            "counters": dict(sorted(self.counts.items())),
        }

    def per_layer(self, rep) -> dict:
        """Per-layer metrics of one traced timed phase (host times are traced)."""
        sp, c = self.spans, self.counts
        timings = rep.outputs.get("timings", {})
        cmd_s = rep.outputs.get("cmd_s", {})
        ratio = lambda a, b: a / b if b else 0.0   # noqa: E731
        m = {f"sim.events.{o}": sp[f"event.{o}"][0] for o in EVENT_OWNERS}
        events = sum(m.values())
        m["sim.events_per_word"] = ratio(events, rep.words)
        m["sim.loop_s"] = self.self_s("sim.loop")

        pci_busy = self.self_s("event.pci") + self.layer_self_s("pci")
        m["pci.busy_s"] = pci_busy
        m["pci.words"] = rep.bus_cycles
        m["pci.ns_per_word"] = ratio(pci_busy * 1e9, rep.bus_cycles)
        m["pci.bursts"] = sp["pci.begin_burst"][0]
        m["pci.words_per_burst"] = ratio(rep.bus_cycles, sp["pci.begin_burst"][0])
        m["pci.preempts"] = sp["fixed_part.resume"][0]
        m["pci.stall_s"] = self.self_s("pci.stall")
        m["pci.locate_calls"] = sp["pci.locate"][0]
        m["pci.locate_s"] = self.self_s("pci.locate")
        m["pci.utilization"] = ratio(rep.bus_busy_ps, rep.sim_ps)

        m["fixed_part.busy_s"] = self.layer_self_s("fixed_part")
        m["fixed_part.buffer_ops"] = sp["fixed_part.buffer"][0]
        m["fixed_part.buffer_s"] = self.self_s("fixed_part.buffer")
        checks = sp["fixed_part.fill_status"][0]
        m["fixed_part.fill_checks"] = checks
        m["fixed_part.fill_yield"] = ratio(c["fixed_part.fill_requests"], checks)
        m["fixed_part.grants"] = sp["fixed_part.arbitrate"][0]
        m["fixed_part.arbitrate_s"] = self.self_s("fixed_part.arbitrate")

        sm_busy = self.self_s("event.selectmap") + self.layer_self_s("selectmap")
        m["selectmap.busy_s"] = sm_busy
        m["selectmap.bytes"] = c["selectmap.bytes"]
        m["selectmap.ns_per_byte"] = ratio(sm_busy * 1e9, c["selectmap.bytes"])
        m["selectmap.pauses"] = c["selectmap.pauses"]
        m["selectmap.pause_ps"] = c["selectmap.pause_ps"]

        k_busy = self.self_s("event.kernels") + self.layer_self_s("kernels")
        m["kernels.steps"] = c["kernels.steps"]
        m["kernels.busy_s"] = k_busy
        m["kernels.ns_per_step"] = ratio(k_busy * 1e9, c["kernels.steps"])
        m["kernels.useful_frac"] = ratio(c["kernels.useful_steps"], c["kernels.steps"])

        m["bitstream.parse_s"] = self.self_s("bitstream.parse")
        m["bitstream.encode_s"] = self.self_s("bitstream.encode")
        m["bitstream.crc_bytes"] = c["bitstream.crc_bytes"]
        m["bitstream.mem_s"] = self.self_s("bitstream.mem")

        m["scenario.parse_s"] = timings.get("parse_s", 0.0)
        for cmd in COMMANDS:
            m[f"runner.cmd_s.{cmd}"] = cmd_s.get(cmd, 0.0)
        m["trace.records"] = rep.outputs.get("trace_records", 0)
        m["trace.record_s"] = self.self_s("trace.record")
        m["trace.emit_s"] = timings.get("emit_s", 0.0)
        return m
