"""Timestamped trace records, emitted in simulation order."""

from __future__ import annotations

import csv
from itertools import islice
from typing import NamedTuple


class TraceRecord(NamedTuple):
    time: int
    component: str
    event: str
    detail: str = ""


class TraceRecorder:
    def __init__(self, sim) -> None:
        self.sim = sim
        self.records: list[TraceRecord] = []

    def record(self, component: str, event: str, detail: str = "") -> None:
        self.records.append(TraceRecord(self.sim.now, component, event, detail))


ROWS_PER_WRITE = 1024


def emit_trace(records, path) -> None:
    """CSV with a fixed header; details are quoted only when needed.

    Rows go out ``ROWS_PER_WRITE`` at a time.  If no field of a chunk holds
    a comma, a quote, a line break or a NUL, ``csv.writer`` would write each
    of its rows as the fields joined by commas, so the chunk is written so;
    any other chunk is left to ``csv.writer``."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["time_ps", "component", "event", "detail"])
        rows = iter(records)
        while chunk := list(islice(rows, ROWS_PER_WRITE)):
            text = "".join([f"{t},{c},{e},{d}\n" for t, c, e, d in chunk])
            if (text.count(",") == 3 * len(chunk) and text.count("\n") == len(chunk)
                    and '"' not in text and "\r" not in text and "\0" not in text):
                fh.write(text)
            else:
                writer.writerows(chunk)
