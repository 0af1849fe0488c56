"""Spans at the program's layer boundaries, recorded from the benchmark side.

A traced run rebinds module attributes of the program (for example
``sqfactor.engine.ceil_sqrt`` or ``sqfactor.bench.generate_in_window``)
to wrappers that record one span per call: name, start, end, parent
span and operation id.  Each call the benchmark makes into the program
is one operation; the spans beneath it share its id.  Nothing in the program is
edited, and an untraced run never installs the wrappers.

Spans stay in memory until the phase that made them ends; ``fold`` then
adds each span's duration and self time (duration minus the time its
child spans cover) to per-(phase, name) totals.  The first spans of the
run are kept whole and written out when the run ends.
"""

from __future__ import annotations

import json
import time
from array import array
from pathlib import Path
from typing import NamedTuple


def _walked(args, out):
    return out.iterations


def _resumed(args, out):
    return out.iterations - args[0].iterations


def _is_prime(args, out):
    return int(out)


# (module, attribute, span name, count taken from the call and its result)
TARGETS = (
    ("engine", "fermat_factor", "engine.fermat_factor", _walked),
    ("engine", "xscan_factor", "engine.xscan_factor", _walked),
    ("engine", "resume_fermat", "engine.resume_fermat", _resumed),
    ("engine", "resume_xscan", "engine.resume_xscan", _resumed),
    ("engine", "checkpoint_line", "engine.checkpoint_line", None),
    ("engine", "parse_checkpoint", "engine.parse_checkpoint", None),
    ("engine", "ceil_sqrt", "numeric.ceil_sqrt", None),
    ("semiprimes", "is_probable_prime", "numeric.is_probable_prime", _is_prime),
    ("bench", "fermat_factor", "engine.fermat_factor", _walked),
    ("bench", "ceil_sqrt", "numeric.ceil_sqrt", None),
    ("bench", "generate_in_window", "semiprimes.generate_in_window", None),
    ("bench", "measure", "bench.measure", None),
    ("bench", "record_to_json", "bench.record_to_json", None),
    ("bench", "run_study", "bench.run_study", None),
    ("bench", "scaling_summary", "bench.scaling_summary", None),
)

KEEP_SPANS = 20_000


class Total(NamedTuple):
    calls: int
    ns: int  # summed span durations
    self_ns: int  # the same minus the time covered by child spans
    count: int  # summed per-call counts (candidates walked, primes found)


class Tracer:
    def __init__(self, sq):
        self.sq = sq
        self.phase = ""
        self.op_id = 0
        self._stack = []
        self._clear()
        self.totals = {}  # (phase, name) -> [calls, ns, self_ns, count]
        self.kept = []  # (name, start_ns, end_ns, parent index, op id, phase)
        self._originals = []

    def _clear(self):
        self.names = []
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.op = array("q")
        self.count = array("q")

    def wrap(self, name, fn, count):
        clock = time.perf_counter_ns
        stack = self._stack

        def traced(*args, **kwargs):
            idx = len(self.names)
            if stack:
                self.parent.append(stack[-1])
            else:  # a call from the benchmark itself opens a new operation
                self.parent.append(-1)
                self.op_id += 1
            self.names.append(name)
            self.op.append(self.op_id)
            self.start.append(0)
            self.end.append(0)
            self.count.append(0)
            stack.append(idx)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
            if count is not None:
                self.count[idx] = count(args, out)
            return out

        return traced

    def install(self):
        for module, attr, name, count in TARGETS:
            mod = getattr(self.sq, module)
            original = getattr(mod, attr)
            self._originals.append((mod, attr, original))
            setattr(mod, attr, self.wrap(name, original, count))

    def uninstall(self):
        for mod, attr, original in reversed(self._originals):
            setattr(mod, attr, original)
        self._originals.clear()

    def fold(self):
        """Add the spans recorded since the last fold to the totals."""
        n = len(self.names)
        start, end = self.start, self.end
        child = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        for i in range(n):
            dur = end[i] - start[i]
            t = self.totals.setdefault((self.phase, self.names[i]), [0, 0, 0, 0])
            t[0] += 1
            t[1] += dur
            t[2] += dur - child[i]
            t[3] += self.count[i]
        if len(self.kept) + n <= KEEP_SPANS:
            base = len(self.kept)
            for i in range(n):
                p = self.parent[i]
                self.kept.append(
                    (self.names[i], start[i], end[i], p + base if p >= 0 else -1,
                     self.op[i], self.phase)
                )
        self._clear()

    def total(self, phase: str, name: str) -> Total:
        return Total(*self.totals.get((phase, name), (0, 0, 0, 0)))

    def write(self, path: Path):
        with path.open("w", encoding="utf-8") as fh:
            for name, start, end, parent, op, phase in self.kept:
                fh.write(json.dumps({"name": name, "start_ns": start, "end_ns": end,
                                     "parent": parent, "op": op, "phase": phase},
                                    separators=(",", ":")) + "\n")
