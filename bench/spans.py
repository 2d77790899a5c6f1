"""Per-layer self times for the benchmark's traced run.

The tracer wraps public functions and methods of the six ``murec`` modules
from outside the package and rebinds every ``murec`` module name that refers
to them, so calls between modules go through a span.  A span's self time is
its duration minus the time of the spans it called.  The op itself is the
root span; whatever the root does outside any ``murec`` span is reported as
unaccounted, so the layers plus the remainder add up to the traced wall time.

Spans are aggregated in memory by name (self seconds and calls); a recursive
call to the function already on top of the stack runs inside the outer span.
"""
from __future__ import annotations

import functools
import sys
import time

from murec import circuit, cli, compiler, engine, expr, gadgets

LAYERS = {
    "expr": expr,
    "gadgets": gadgets,
    "compiler": compiler,
    "circuit": circuit,
    "engine": engine,
    "cli": cli,
}

# Wrapped names per layer.  Per-event and per-node methods (Engine.step,
# CircuitBuilder.add_*) stay unwrapped to keep tracing cheap: their time is
# their caller's self time (the event loop, the lowering).
SPANS = {
    "expr": ("parse_program", "check_arity", "arity", "eval_oracle", "to_sexpr"),
    "gadgets": ("build_constant", "build_successor", "build_projection", "build_trigger_cell"),
    "compiler": (
        "compile_program", "bind_args", "run_program", "run_diff",
        "CompiledProgram.to_document", "CompiledProgram.serialize",
        "CompiledProgram.from_document", "CompiledProgram.deserialize",
    ),
    "circuit": (
        "parse_json_document", "circuit_from_document", "Circuit.validate",
        "Circuit.serialize", "Circuit.deserialize", "CircuitBuilder.build",
    ),
    "engine": ("simulate", "port_spikes", "raster_csv", "raster_jsonl", "Engine.__init__", "Engine.run"),
    "cli": ("main",),
}

ROOT = "op"


class Tracer:
    """Installs the spans on ``__enter__`` and restores the originals on ``__exit__``."""

    def __init__(self) -> None:
        self.self_s = {f"{layer}.{name}": 0.0 for layer, names in SPANS.items() for name in names}
        self.calls = dict.fromkeys(self.self_s, 0)
        self.ops = 0
        self.wall_s = 0.0
        self.unaccounted_s = 0.0
        self.run_spikes = 0  # spikes returned by Engine.run inside spans
        self._stack = [[ROOT, 0.0]]
        self._restore: list[tuple[object, str, object]] = []

    # -- installing ----------------------------------------------------------

    def __enter__(self) -> "Tracer":
        modules = [m for name, m in sys.modules.items() if name == "murec" or name.startswith("murec.")]
        for layer, names in SPANS.items():
            module = LAYERS[layer]
            for name in names:
                key = f"{layer}.{name}"
                if "." in name:
                    cls_name, attr = name.split(".")
                    cls = getattr(module, cls_name)
                    raw = cls.__dict__[attr]
                    if isinstance(raw, classmethod):
                        wrapped = classmethod(self._wrap(key, raw.__func__))
                    else:
                        wrapped = self._wrap(key, raw)
                    self._rebind(cls, attr, wrapped)
                    continue
                original = getattr(module, name)
                wrapped = self._wrap(key, original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            self._rebind(m, attr, wrapped)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _rebind(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _wrap(self, key: str, fn):
        stack, self_s, calls = self._stack, self.self_s, self.calls
        perf = time.perf_counter
        counts_spikes = key == "engine.Engine.run"

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if stack[-1][0] == key:
                return fn(*args, **kwargs)
            frame = [key, 0.0]
            stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf() - start
                stack.pop()
                stack[-1][1] += elapsed
                self_s[key] += elapsed - frame[1]
                calls[key] += 1
            if counts_spikes:
                self.run_spikes += len(result.raster)
            return result

        return span

    # -- timing ops ------------------------------------------------------------

    def op(self, fn):
        """Call ``fn()`` as a root span and return its result and duration."""
        root = self._stack[0]
        before = root[1]
        start = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - start
        self.ops += 1
        self.wall_s += elapsed
        self.unaccounted_s += elapsed - (root[1] - before)
        return result, elapsed

    def layer_self_s(self, layer: str) -> float:
        return sum(v for k, v in self.self_s.items() if k.startswith(layer + "."))
