"""Spans recorded from outside the program, around calls into its layers.

A span is (name, start, end, parent).  Spans stay in memory and are
written out once, when the benchmark ends.  Each span also records how
far the process's peak resident set (``VmHWM``) rose while it was open:
that attributes memory to the layer that first needed it, but only new
high-water marks show, so a call that reuses memory freed by an earlier
one reads zero.

``NullTracer`` is the untraced twin: the same interface, no recording,
so the timed rounds run the same code with tracing on or off.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager


def proc_status_kb(pid: int | str = "self", field: str = "VmHWM") -> int:
    """One ``kB`` field of ``/proc/<pid>/status`` (0 when unreadable)."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith(field + ":"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def proc_cpu_s(pid: int) -> float:
    """User plus system CPU seconds of another process, from ``/proc``."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
    except OSError:
        return 0.0
    # fields[0] is the state (field 3); utime and stime are fields 14, 15
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


class NullTracer:
    @contextmanager
    def span(self, name: str):
        yield


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        rec = {
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "start": 0.0,
            "end": 0.0,
            "hwm_growth_kb": 0,
        }
        self.spans.append(rec)
        self._stack.append(idx)
        hwm0 = proc_status_kb()
        rec["start"] = time.perf_counter()
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            rec["hwm_growth_kb"] = proc_status_kb() - hwm0
            self._stack.pop()

    def self_times(self, lo: int, hi: int) -> dict[str, float]:
        """Per name, the summed self time of spans ``lo`` to ``hi`` (one
        round): each span's duration minus the time its children cover."""
        child_s = [0.0] * hi
        for rec in self.spans[lo:hi]:
            if rec["parent"] is not None and rec["parent"] >= lo:
                child_s[rec["parent"]] += rec["end"] - rec["start"]
        out: dict[str, float] = {}
        for i in range(lo, hi):
            rec = self.spans[i]
            dur = rec["end"] - rec["start"] - child_s[i]
            out[rec["name"]] = out.get(rec["name"], 0.0) + dur
        return out

    def hwm_growth_mb(self, last: int) -> dict[str, float]:
        """Per name, the summed VmHWM growth of spans before index ``last``."""
        out: dict[str, float] = {}
        for rec in self.spans[:last]:
            out[rec["name"]] = out.get(rec["name"], 0.0) + rec["hwm_growth_kb"] / 1024
        return out
