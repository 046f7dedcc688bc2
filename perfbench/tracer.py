"""Spans around the public functions of qpp, recorded from outside the package.

The tracer replaces every public function of the layer modules with a
wrapper that records one span per call: name, start, end, parent span and
operation id.  Names re-bound by ``from .x import f`` in other qpp modules
are replaced as well, so that calls made inside the package nest under
their callers.  Spans live in compact in-memory columns and are written
out only when a run ends.  Nothing is patched unless :meth:`Tracer.install`
is called, and :meth:`Tracer.uninstall` restores every original.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array
from collections import Counter, defaultdict

LAYERS = ("scenario", "prepost", "hilbert", "nchv", "constructions", "optimizer", "cli")

# Search axes per optimizer entry point, used to turn the reported number of
# evaluations into refinement passes: evaluations = grid**d + passes * 9**d.
_SEARCH_AXES = {"optimizer.maximize_hardy": 2, "optimizer.maximize_cabello_family": 1}


def _count_enumeration(tracer: "Tracer", report) -> None:
    tracer.count("nchv.assignments_examined", report.assignments_examined)
    tracer.count("nchv.witnesses_materialized", len(report.witnesses))


def _count_search(name: str):
    axes = _SEARCH_AXES[name]

    def record(tracer: "Tracer", result) -> None:
        tracer.count("optimizer.evaluations", result.evaluations)
        passes = (result.evaluations - result.grid_resolution**axes) / 9**axes
        tracer.count("optimizer.refine_passes", passes)

    return record


# Counts read from the public return value of a traced call.
_EXTRACTORS = {
    "nchv.enumerate_assignments": _count_enumeration,
    "optimizer.maximize_hardy": _count_search("optimizer.maximize_hardy"),
    "optimizer.maximize_cabello_family": _count_search("optimizer.maximize_cabello_family"),
}


class Tracer:
    """In-memory span recorder for one process and one thread."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.op = array("i")
        self.raised = array("b")
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self.op_id = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def open(self, name: str) -> int:
        """Start a span by hand; it nests under the innermost open span."""
        idx = len(self.name)
        self.name.append(self.name_id(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.raised.append(0)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    def add(self, name: str, start: int, end: int, parent: int, raised: int = 0) -> int:
        """Append a finished span, such as one read back from a child process."""
        idx = len(self.name)
        self.name.append(self.name_id(name))
        self.start.append(start)
        self.end.append(end)
        self.parent.append(parent)
        self.op.append(self.op_id)
        self.raised.append(raised)
        return idx

    def count(self, name: str, value) -> None:
        self.counts[self.op_id][name] += value

    def _wrap(self, fn, name: str):
        nid = self.name_id(name)
        extract = _EXTRACTORS.get(name)
        names, starts, ends, parents, ops, raised = (
            self.name, self.start, self.end, self.parent, self.op, self.raised
        )
        stack = self._stack
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ops.append(tracer.op_id)
            raised.append(0)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                ends[idx] = clock()
                raised[idx] = 1
                stack.pop()
                raise
            ends[idx] = clock()
            stack.pop()
            if extract is not None:
                extract(tracer, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every public function of the layer modules, wherever it is bound."""
        if self._patched:
            return
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"qpp.{layer}")
            for attr in module.__all__:
                fn = getattr(module, attr)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    wrappers[fn] = self._wrap(fn, f"{layer}.{attr}")
        for modname, module in list(sys.modules.items()):
            if modname != "qpp" and not modname.startswith("qpp."):
                continue
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrappers[value])

    def uninstall(self) -> None:
        for module, attr, original in self._patched:
            setattr(module, attr, original)
        self._patched.clear()

    def write(self, path) -> None:
        """Write every span as a tab-separated line, then the counts."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart_ns\tend_ns\tparent\top\traised\n")
            for i in range(len(self.name)):
                fh.write(
                    f"{self.names[self.name[i]]}\t{self.start[i]}\t{self.end[i]}\t"
                    f"{self.parent[i]}\t{self.op[i]}\t{self.raised[i]}\n"
                )
            for op_id, counter in sorted(self.counts.items()):
                for key, value in sorted(counter.items()):
                    fh.write(f"#count\t{key}\t{value}\t{op_id}\n")

    def absorb(self, path, root: int) -> None:
        """Read spans written by a child process and nest them under span ``root``."""
        base = len(self.name)
        with open(path, encoding="utf-8") as fh:
            next(fh)
            for line in fh:
                fields = line.rstrip("\n").split("\t")
                if fields[0] == "#count":
                    value = fields[2]
                    self.count(fields[1], float(value) if "." in value else int(value))
                    continue
                name, start, end, parent, _op, raised = fields
                parent = int(parent)
                self.add(name, int(start), int(end), root if parent < 0 else base + parent, int(raised))

    def self_times(self) -> list[int]:
        """Per span: its duration minus the durations of its direct children."""
        own = [e - s for s, e in zip(self.start, self.end)]
        for i, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= self.end[i] - self.start[i]
        return own
