"""The murec benchmark: one workload, one closed-loop client, one process.

Usage, from the repository root::

    python3 bench/run.py --workload run_loops --seed 1 --seconds 25 --trace 0

The workloads are ``run_loops``, ``fuzz_diff`` and ``compile_large`` (see
``workloads.py``); ``BENCHMARK.json`` lists the metrics.  The harness's own
tests run with ``python -m pytest -q bench``.

Each op issues ``murec`` command lines through ``murec.cli.main`` in this
process, the next op only after the previous one returned, and every op's
output is checked against ground truth.  A run

1. sets the workload up several times (writing the seeded inputs, compiling
   where the workload needs circuits first) and reports the median time;
2. runs the count pass: every program and case once, in process, with the
   delivery trace on, outside any timed window;
3. issues a few warm-up ops, then measures ops for ``--seconds``, timing a
   fixed calibration job before each op.

Every timing is reported in calibrated seconds (see ``CALIBRATION_S``): the
host's speed swings cancel out, while a change to ``murec`` shows in full.
Throughputs are medians over equal slices of the window.

With ``--trace 0`` the last line of standard output holds the end-to-end
metrics; with ``--trace 1`` the window is split into an untraced and a traced
half and the last line holds the per-layer metrics instead (see
``spans.py``).  The line before it records the Python version, core count,
platform, commit and seed, and the raw (uncalibrated) headline figures.
The exit code is 0 whenever a result is printed,
also when a check failed; ``correct`` and ``failed`` say so.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import heapq
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_REPS = 3
WARMUP_OPS = 8
SEGMENTS = 5  # throughput is the median over this many equal slices of the window
# Calibrated time: every timing is scaled by CALIBRATION_S over the median time
# of a fixed pure-Python job run beside the measured work, so that the host's
# speed swings (the same op takes 10 ms or 19 ms on a shared 2-vCPU host,
# for tens of seconds at a time) cancel out.  The raw figures are recorded in
# the context line.
CALIBRATION_S = 0.001
CALIBRATION_REPS = 5
# The tail is the 90th percentile: the highest that leaves at least 10 ops
# beyond it on every workload (the slowest hold about 300 ops a run), so it
# means the same on every run.  A run with fewer ops falls back to the median.
TAIL_PERCENTILES = (90.0, 50.0)
MIN_TAIL_BEYOND = 10

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "sim_spikes_per_s": "1/s",
    "sim_steps_per_s": "1/s",
    "sim_steps": "count",
    "sim_spikes": "count",
    "circuit_nodes": "count",
    "circuit_bytes": "B",
    "peak_rss_mb": "MB",
}

LAYERS = ("expr", "gadgets", "compiler", "circuit", "engine", "cli")

# Times are calibrated self seconds per op in the traced window; counts are
# totals over one pass of the workload's ops (the count pass) unless the unit
# says per op.
PER_LAYER = {
    **{f"{layer}.self_s": "s/op" for layer in LAYERS},
    "unaccounted_s": "s/op",
    "trace.wall_s": "s/op",
    "trace.ops_per_s": "1/s",
    "trace.untraced_ops_per_s": "1/s",
    "trace.overhead_pct": "%",
    "engine.run_s": "s/op",
    "engine.spikes_per_s": "1/s",
    "engine.raster_csv_s": "s/op",
    "engine.setup_s": "s/op",
    "engine.port_spikes_s": "s/op",
    "engine.spikes.neuron": "count",
    "engine.spikes.const_emit": "count",
    "engine.spikes.join": "count",
    "engine.deliveries": "count",
    "engine.deliveries_per_spike": "ratio",
    "circuit.validate_s": "s/op",
    "circuit.validate_calls": "count/op",
    "circuit.serialize_s": "s/op",
    "circuit.deserialize_s": "s/op",
    "compiler.compile_s": "s/op",
    "compiler.run_program_s": "s/op",
    "compiler.run_diff_s": "s/op",
    "compiler.loop_rounds": "count",
    "compiler.steps_per_round": "ratio",
    "gadgets.trigger_cells": "count",
    "gadgets.joins": "count",
    "gadgets.const_emits": "count",
    "gadgets.relay_share": "ratio",
    "expr.parse_s": "s/op",
    "expr.oracle_s": "s/op",
    "expr.oracle_calls": "count/op",
}

# Span names whose self times make up the serialization metrics, whichever
# module does the work.
SERIALIZE_SPANS = ("circuit.Circuit.serialize", "compiler.CompiledProgram.serialize",
                   "compiler.CompiledProgram.to_document")
DESERIALIZE_SPANS = ("circuit.parse_json_document", "circuit.circuit_from_document",
                     "circuit.Circuit.deserialize", "compiler.CompiledProgram.from_document",
                     "compiler.CompiledProgram.deserialize")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="Run one murec benchmark workload.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="minimal inputs, for the self-test")
    return parser.parse_args(argv)


def calibration_job() -> float:
    """Time one fixed job in the interpreter's common paths: heap, dict,
    tuple and string work and a JSON dump.  About 1 ms on the reference host."""
    start = time.perf_counter()
    heap: list = []
    state: dict = {}
    rows = []
    for t in range(600):
        heapq.heappush(heap, ((t * 7919) % 1013, t))
        state[t % 97] = state.get(t % 97, 0) + t
        rows.append((t, t % 13, str(t)))
    while heap:
        heapq.heappop(heap)
    json.dumps(rows)
    return time.perf_counter() - start


class Window:
    """The ops one measuring window completed: (slice of the window the op
    started in, latency, simulated steps, spikes), and the calibration job's
    times in each slice."""

    def __init__(self) -> None:
        self.records: list[tuple[int, float, int, int]] = []
        self.calibration: dict[int, list[float]] = {}

    def scale(self, segment: int | None = None) -> float:
        """Calibrated seconds per raw second, in one slice or the whole window."""
        if segment is None:
            times = [t for slice_times in self.calibration.values() for t in slice_times]
        else:
            times = self.calibration[segment]
        return CALIBRATION_S / statistics.median(times)

    def latencies(self, calibrated: bool = True) -> list[float]:
        return [seconds * (self.scale(seg) if calibrated else 1.0) for seg, seconds, _, _ in self.records]

    def rate(self, field: int, calibrated: bool = True) -> float:
        """Median over the slices of (ops, steps or spikes) per busy second."""
        rates = []
        for segment in sorted({r[0] for r in self.records}):
            rows = [r for r in self.records if r[0] == segment]
            busy = sum(r[1] for r in rows) * (self.scale(segment) if calibrated else 1.0)
            rates.append((len(rows) if field == 0 else sum(r[field] for r in rows)) / busy)
        return statistics.median(rates)

    def ops_per_s(self, calibrated: bool = True) -> float:
        return self.rate(0, calibrated)


class Run:
    def __init__(self, workload, ops: list) -> None:
        from murec import cli

        self.cli = cli
        self.workload = workload
        self.ops = ops
        self.attempted = 0
        self.failures: list[str] = []
        self.last_error = ""  # standard error of the last failed command

    def issue(self, argv: list[str]) -> tuple[int, str]:
        """Issue one ``murec`` command line; return its exit code and standard output."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.cli.main(argv)
        if code:
            self.last_error = err.getvalue().strip()
        return code, out.getvalue()

    def attempt(self, op, timer) -> float | None:
        """Issue one op and check it; return its latency, or None if it failed."""
        self.attempted += 1
        self.last_error = ""
        try:
            results, elapsed = timer(lambda: [self.issue(argv) for argv in op.calls])
            problem = self.workload.check(op, results)
        except Exception as exc:  # a crashing op is a failed op; the run goes on
            problem = f"{type(exc).__name__}: {exc}"
        if problem:
            self.failures.append(f"{op.label}: {problem} {self.last_error}".rstrip())
            return None
        return elapsed

    def window(self, seconds: float, timer, start: int = 0) -> Window:
        window = Window()
        begin = time.perf_counter()
        i = start
        while not window.records or time.perf_counter() - begin < seconds:
            segment = min(int((time.perf_counter() - begin) / seconds * SEGMENTS), SEGMENTS - 1)
            window.calibration.setdefault(segment, []).append(calibration_job())
            op = self.ops[i % len(self.ops)]
            i += 1
            elapsed = self.attempt(op, timer)
            if elapsed is not None:
                window.records.append((segment, elapsed, op.steps, op.spikes))
            elif self.attempted > 2 * len(self.ops) and len(self.failures) == self.attempted:
                raise SystemExit(f"no op succeeded; first failures: {self.failures[:3]}")
        return window


def plain_timer(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def tail(latencies: list[float]) -> tuple[float, float]:
    """Highest ladder percentile with enough ops beyond it (nearest rank)."""
    ordered = sorted(latencies)
    n = len(ordered)
    for p in TAIL_PERCENTILES:
        rank = max(1, math.ceil(p / 100 * n))
        if n - rank >= MIN_TAIL_BEYOND:
            return p, ordered[rank - 1]
    return 100.0, ordered[-1]


def commit() -> str:
    """The checked-out commit, read from ``.git`` when the checkout has one."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def end_to_end(setup_times, counts, window: Window, peak_rss_mb: float) -> dict:
    _, tail_s = tail(window.latencies())
    return {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": window.ops_per_s(),
        "op_p50_ms": statistics.median(window.latencies()) * 1000,
        "op_tail_ms": tail_s * 1000,
        "sim_spikes_per_s": window.rate(3),
        "sim_steps_per_s": window.rate(2),
        "sim_steps": counts.steps,
        "sim_spikes": counts.spikes,
        "circuit_nodes": counts.circuit_nodes,
        "circuit_bytes": counts.circuit_bytes,
        "peak_rss_mb": peak_rss_mb,
    }


def per_layer(tracer, counts, untraced: Window, traced: Window) -> dict:
    ops = tracer.ops
    scale = traced.scale()

    def per_op(*spans: str) -> float:
        return sum(tracer.self_s[name] for name in spans) * scale / ops

    spikes = sum(counts.spikes_by_kind.values())
    run_s = tracer.self_s["engine.Engine.run"]
    metrics = {f"{layer}.self_s": tracer.layer_self_s(layer) * scale / ops for layer in LAYERS}
    metrics.update({
        "unaccounted_s": tracer.unaccounted_s * scale / ops,
        "trace.wall_s": tracer.wall_s * scale / ops,
        "trace.ops_per_s": traced.ops_per_s(),
        "trace.untraced_ops_per_s": untraced.ops_per_s(),
        "trace.overhead_pct": (untraced.ops_per_s() / traced.ops_per_s() - 1) * 100,
        "engine.run_s": per_op("engine.Engine.run"),
        "engine.spikes_per_s": tracer.run_spikes / (run_s * scale) if run_s else 0.0,
        "engine.raster_csv_s": per_op("engine.raster_csv"),
        "engine.setup_s": per_op("engine.Engine.__init__"),
        "engine.port_spikes_s": per_op("engine.port_spikes"),
        "engine.spikes.neuron": counts.spikes_by_kind["neuron"],
        "engine.spikes.const_emit": counts.spikes_by_kind["const_emit"],
        "engine.spikes.join": counts.spikes_by_kind["join"],
        "engine.deliveries": counts.deliveries,
        "engine.deliveries_per_spike": counts.deliveries / spikes if spikes else 0.0,
        "circuit.validate_s": per_op("circuit.Circuit.validate"),
        "circuit.validate_calls": tracer.calls["circuit.Circuit.validate"] / ops,
        "circuit.serialize_s": per_op(*SERIALIZE_SPANS),
        "circuit.deserialize_s": per_op(*DESERIALIZE_SPANS),
        "compiler.compile_s": per_op("compiler.compile_program"),
        "compiler.run_program_s": per_op("compiler.run_program"),
        "compiler.run_diff_s": per_op("compiler.run_diff"),
        "compiler.loop_rounds": counts.loop_rounds,
        "compiler.steps_per_round": counts.steps / counts.loop_rounds if counts.loop_rounds else 0.0,
        "gadgets.trigger_cells": counts.trigger_cells,
        "gadgets.joins": counts.joins,
        "gadgets.const_emits": counts.const_emits,
        "gadgets.relay_share": counts.relays / counts.neurons if counts.neurons else 0.0,
        "expr.parse_s": per_op("expr.parse_program"),
        "expr.oracle_s": per_op("expr.eval_oracle"),
        "expr.oracle_calls": tracer.calls["expr.eval_oracle"] / ops,
    })
    return metrics


def run(args: argparse.Namespace) -> tuple[dict, dict]:
    """Run one workload; return the context record and the result record."""
    from murec import cli

    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    size = "smoke" if args.smoke else "full"
    workload = workloads.WORKLOADS[args.workload](args.seed, size)
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"

    def quiet_main(argv):
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    try:
        setup_times, raw_setup_times = [], []
        for rep in range(SETUP_REPS):
            directory = work / f"setup{rep}"
            directory.mkdir(parents=True)
            job = statistics.median(calibration_job() for _ in range(CALIBRATION_REPS))
            start = time.perf_counter()
            ops = workload.setup(directory, quiet_main)
            raw_setup_times.append(time.perf_counter() - start)
            setup_times.append(raw_setup_times[-1] * CALIBRATION_S / job)

        counts = workload.count(ops)
        runner = Run(workload, ops)
        for op in ops[:WARMUP_OPS]:
            runner.attempt(op, plain_timer)

        if args.trace:
            untraced = runner.window(args.seconds / 2, plain_timer)
            with spans.Tracer() as tracer:
                traced = runner.window(args.seconds / 2, tracer.op, start=len(untraced.records))
            window = traced
        else:
            window = runner.window(args.seconds, plain_timer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    problems = list(counts.problems)
    if args.trace:
        metrics = per_layer(tracer, counts, untraced, traced)
        layered = sum(metrics[f"{layer}.self_s"] for layer in LAYERS) + metrics["unaccounted_s"]
        if not math.isclose(layered, metrics["trace.wall_s"], rel_tol=1e-9):
            problems.append(f"layer self times sum to {layered}, traced wall time is {metrics['trace.wall_s']}")
        units = PER_LAYER
    else:
        metrics = end_to_end(setup_times, counts, window, peak_rss_mb)
        units = END_TO_END
    tail_p, _ = tail(window.latencies())
    digest = hashlib.sha256(json.dumps(counts.digest_items()).encode()).hexdigest()[:16]
    context = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": size,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "commit": commit(),
        "ops": len(window.records),
        "tail_percentile": tail_p,
        "calibration_job_ms": CALIBRATION_S / window.scale() * 1000,
        "raw": {
            "setup_s": statistics.median(raw_setup_times),
            "ops_per_s": window.ops_per_s(calibrated=False),
            "op_p50_ms": statistics.median(window.latencies(calibrated=False)) * 1000,
        },
        "fail_rate": len(runner.failures) / runner.attempted,
        "counts_digest": digest,
        "problems": problems[:10],
        "failures": runner.failures[:10],
    }
    result = {
        "correct": not problems and not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    return context, result


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "murec" / "__init__.py").is_file():
        print(f"error: no murec sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    context, result = run(args)
    print(json.dumps({"context": context}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
