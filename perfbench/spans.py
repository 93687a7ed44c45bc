"""Span tracing for the traced benchmark run, installed from outside ckbundle.

`Tracer.install` wraps every function named in each layer module's
`__all__`, at every module attribute that binds it (so `intmat.det` and
`cli.det` both record), and `uninstall` puts the originals back. Spans
(id, parent, op, name, start, end, extra) stay in memory until `write`.
The per-layer table is computed from the written span file.

Run as a script, this file is a traced stand-in for `python -m ckbundle.cli`:

    python3 perfbench/spans.py SPAN_FILE OP_ID CLI_ARGS...
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import subprocess
import sys
import time
from collections import defaultdict

LAYERS = ("intmat", "abelian", "ck", "sft", "bundle", "cli")


def _max_bits(decomposition) -> int:
    return max(
        abs(x).bit_length()
        for m in (decomposition.u, decomposition.v)
        for row in m.entries
        for x in row
    )


# Extra value stored on a span: SNF records the largest U/V entry in bits.
EXTRAS = {"intmat.smith_normal_form": _max_bits}


class Tracer:
    def __init__(self, path: str):
        self.path = path
        self.spans: list[tuple] = []
        self.stack = [0]
        self.op: int | None = None
        self._op_start = (0, 0)
        self._next_id = 1
        self._undo: list[tuple] = []

    def _new_id(self) -> int:
        sid = self._next_id
        self._next_id += 1
        return sid

    # --- wrappers ---------------------------------------------------------

    def _wrap(self, fn, name):
        tracer, extra = self, EXTRAS.get(name)
        clock = time.perf_counter_ns

        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                gen = fn(*args, **kwargs)
                return gen if tracer.op is None else tracer._pieces(gen, name)

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            sid, parent = tracer._new_id(), tracer.stack[-1]
            tracer.stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.stack.pop()
                tracer.spans.append((sid, parent, tracer.op, name, start, clock(), 0))
                raise
            end = clock()
            tracer.stack.pop()
            tracer.spans.append((sid, parent, tracer.op, name, start, end, extra(result) if extra else 0))
            return result

        return wrapper

    def _pieces(self, gen, name):
        """Re-yield a generator, one span per resumption; extra is 1 for a
        resumption that yielded a value, so the extras sum to items yielded."""
        clock = time.perf_counter_ns
        try:
            while True:
                sid, parent = self._new_id(), self.stack[-1]
                self.stack.append(sid)
                start = clock()
                try:
                    item = next(gen)
                except StopIteration:
                    self.stack.pop()
                    self.spans.append((sid, parent, self.op, name, start, clock(), 0))
                    return
                except BaseException:
                    self.stack.pop()
                    self.spans.append((sid, parent, self.op, name, start, clock(), 0))
                    raise
                end = clock()
                self.stack.pop()
                self.spans.append((sid, parent, self.op, name, start, end, 1))
                yield item
        finally:
            gen.close()

    def install(self) -> None:
        modules = [importlib.import_module("ckbundle")] + [
            importlib.import_module(f"ckbundle.{layer}") for layer in LAYERS
        ]
        wrapped = {}
        for layer, module in zip(LAYERS, modules[1:]):
            for name in module.__all__:
                fn = getattr(module, name)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    wrapped[id(fn)] = (fn, self._wrap(fn, f"{layer}.{name}"))
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in wrapped and wrapped[id(value)][0] is value:
                    setattr(module, attr, wrapped[id(value)][1])
                    self._undo.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._undo):
            setattr(module, attr, value)
        self._undo.clear()

    # --- ops ---------------------------------------------------------------

    def begin_op(self, op: int) -> None:
        self.op = op
        sid = self._new_id()
        self.stack.append(sid)
        self._op_start = (sid, time.perf_counter_ns())

    def end_op(self) -> None:
        sid, start = self._op_start
        self.stack.pop()
        self.spans.append((sid, 0, self.op, "op", start, time.perf_counter_ns(), 0))
        self.op = None

    def run_child(self, argv: list[str], stdin: str, env: dict) -> subprocess.CompletedProcess:
        """Run one traced CLI process and adopt its spans under the current op
        span. perf_counter_ns reads CLOCK_MONOTONIC, shared by both processes."""
        path = os.path.join(os.path.dirname(self.path), f"child-{os.getpid()}.tsv")
        cmd = [sys.executable, os.path.abspath(__file__), path, str(self.op), *argv]
        proc = subprocess.run(cmd, input=stdin, capture_output=True, text=True, env=env)
        offset, root = self._next_id, self.stack[-1]
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                sid, parent, op, name, start, end, extra = line.split("\t")
                sid, parent = int(sid) + offset, int(parent)
                parent = root if parent == 0 else parent + offset
                self.spans.append((sid, parent, self.op, name, int(start), int(end), int(extra)))
                self._next_id = max(self._next_id, sid + 1)
        os.remove(path)
        return proc

    def write(self) -> None:
        with open(self.path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write("\t".join(map(str, span)) + "\n")


def layer_table(path: str) -> dict[str, dict]:
    """Aggregate a span file by name: calls, self time (span time minus the
    time of the spans it directly contains), and the max and sum of extras."""
    spans = []
    child_ns = defaultdict(int)
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            sid, parent, _op, name, start, end, extra = line.split("\t")
            duration = int(end) - int(start)
            spans.append((int(sid), name, duration, int(extra)))
            child_ns[int(parent)] += duration
    table = defaultdict(lambda: {"calls": 0, "self_ns": 0, "max_extra": 0, "sum_extra": 0})
    for sid, name, duration, extra in spans:
        row = table[name]
        row["calls"] += 1
        row["self_ns"] += duration - child_ns[sid]
        row["max_extra"] = max(row["max_extra"], extra)
        row["sum_extra"] += extra
    return dict(table)


def _child_main(argv: list[str]) -> int:
    span_path, op = argv[0], int(argv[1])
    tracer = Tracer(span_path)
    tracer.install()
    cli = importlib.import_module("ckbundle.cli")
    tracer.op = op
    try:
        return cli.main(argv[2:])
    finally:
        tracer.op = None
        tracer.write()


if __name__ == "__main__":
    sys.exit(_child_main(sys.argv[1:]))
