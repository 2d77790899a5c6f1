"""Seeded workloads of the murec benchmark.

A workload turns a seed into input files under a work directory and into a
list of ops.  An op is one or more ``murec`` command lines, issued in process
through ``murec.cli.main``, together with what their output must be.  The
inputs are chosen so that a run's total work hardly depends on the seed,
which keeps a run's figures steady across seeds.

The count pass re-runs every op's program and cases in process with
``SimConfig(trace=True)``, outside the timed window, and derives every count
from what the program already returns: the raster, the delivery trace, the
compiled ``meta`` block and the serialized text.
"""
from __future__ import annotations

import random
import re
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from murec.circuit import ConstEmit, Join
from murec.compiler import CompiledProgram, bind_args, compile_program, run_program
from murec.expr import Value, check_arity, eval_oracle, parse_program

ADD_REC = "(prec (proj 1 1) (compose (succ) ((proj 2 3))))"
MUL_REC = f"(prec (const 0 1) (compose {ADD_REC} ((proj 2 3) (proj 3 3))))"
PRED_REC = "(prec (const 0 1) (proj 1 3))"
MONUS_REC = f"(prec (proj 1 1) (compose {PRED_REC} ((proj 2 3) (proj 1 3))))"
MU_MONUS_REC = f"(mu {MONUS_REC})"

# Closed forms of the run_loops programs; each op's y= must equal both this
# and the interpreter.  MONUS takes (z, x) and gives x - z truncated at 0.
CLOSED_FORMS = {
    "add": lambda i, x: i + x,
    "mul": lambda a, b: a * b,
    "monus": lambda z, x: max(x - z, 0),
    "mu_monus": lambda x: max(x, 1),
}
SOURCES = {"add": ADD_REC, "mul": MUL_REC, "monus": MONUS_REC, "mu_monus": MU_MONUS_REC}

# run_loops inputs.  Within a function every candidate simulates about the
# same number of steps (ADD's cost does not depend on x; the MUL and MONUS
# pairs run the same number of inner loop rounds), so the seed changes the
# values computed but hardly the work.  MU_MONUS's cost depends on its only
# argument, so that input is fixed.  Full size: about 5k steps an op.
LOOP_INPUTS = {
    "full": {
        "add": [(200, None)],  # None: x is drawn from the seed
        "mul": [(3, 70), (5, 21), (6, 14), (7, 10)],
        "monus": [(3, 71), (4, 54), (5, 44), (7, 33)],
        "mu_monus": [(8,)],
    },
    "smoke": {
        "add": [(5, None)],
        "mul": [(2, 3), (3, 1)],
        "monus": [(2, 4), (3, 3)],
        "mu_monus": [(2,)],
    },
}


@dataclass
class Op:
    """One closed-loop operation: ``calls`` are issued in order, then checked."""

    label: str
    calls: list[list[str]]
    source: str  # program text the op compiles or runs
    cases: list[tuple[int, ...]]
    expect: dict = field(default_factory=dict)
    # Filled by the count pass.
    steps: int = 0
    spikes: int = 0
    clocks: list[int] = field(default_factory=list)


@dataclass
class Counts:
    """Deterministic totals over one pass of a workload's ops."""

    steps: int = 0
    spikes: int = 0
    deliveries: int = 0
    spikes_by_kind: dict = field(default_factory=lambda: {"neuron": 0, "const_emit": 0, "join": 0})
    loop_rounds: int = 0
    circuit_nodes: int = 0
    circuit_bytes: int = 0
    neurons: int = 0
    relays: int = 0
    trigger_cells: int = 0
    joins: int = 0
    const_emits: int = 0
    problems: list = field(default_factory=list)

    def digest_items(self) -> list:
        return [
            self.steps, self.spikes, self.deliveries, sorted(self.spikes_by_kind.items()),
            self.loop_rounds, self.circuit_nodes, self.circuit_bytes, self.trigger_cells,
            self.joins, self.const_emits, self.relays,
        ]


def _stdout_value(out: str, key: str) -> str | None:
    match = re.search(rf"^{key}=(\S+)", out, re.MULTILINE)
    return match.group(1) if match else None


def _raster_rows(path: Path) -> int:
    with path.open() as fh:
        return sum(1 for _ in fh) - 1  # minus the header


class Workload:
    name = ""

    def __init__(self, seed: int, size: str) -> None:
        self.seed = seed
        self.size = size

    def setup(self, work: Path, main) -> list[Op]:
        raise NotImplementedError

    def program(self, op: Op) -> CompiledProgram:
        """The compiled program the op's circuit runs, built outside the timed window."""
        return compile_program(parse_program(op.source))

    def check(self, op: Op, results: list[tuple[int, str]]) -> str | None:
        """Return why the op's outputs are wrong, or None when they are right."""
        raise NotImplementedError

    def check_program(self, op: Op, program: CompiledProgram) -> str | None:
        return None

    def count(self, ops: list[Op]) -> Counts:
        """Run every op's program and cases once with the delivery trace on."""
        counts = Counts()
        seen: set[str] = set()
        for op in ops:
            try:
                self._count_op(op, counts, seen)
            except Exception as exc:  # the op's own checks then fail too
                counts.problems.append(f"{op.label}: count pass raised {type(exc).__name__}: {exc}")
        return counts

    def _count_op(self, op: Op, counts: Counts, seen: set[str]) -> None:
        program = self.program(op)
        problem = self.check_program(op, program)
        if problem:
            counts.problems.append(f"{op.label}: {problem}")
        if op.source not in seen:
            seen.add(op.source)
            _add_circuit_stats(counts, program)
        circuit = program.circuit
        kind = {g.id: ("const_emit" if isinstance(g, ConstEmit) else "join") for g in circuit.gadgets}
        fan_out = Counter(s.pre for s in circuit.synapses)
        markers = {m[key] for m in program.meta["instances"] for key in ("check", "probe") if key in m}
        op.steps = op.spikes = 0
        op.clocks = []
        for case in op.cases:
            outcome = run_program(program, list(case), trace=True).outcome
            if outcome.status != "quiescent":
                counts.problems.append(f"{op.label} {case}: run ended {outcome.status}")
            # Every spike delivers along each out-synapse, a join flush along
            # one line; injections deliver once each.
            expected = len(circuit.injections) + len(bind_args(program, list(case)))
            for event in outcome.raster:
                node_kind = kind.get(event.neuron, "neuron")
                counts.spikes_by_kind[node_kind] += 1
                expected += 1 if node_kind == "join" else fan_out[event.neuron]
            if len(outcome.trace) != expected:
                counts.problems.append(
                    f"{op.label} {case}: {len(outcome.trace)} deliveries, spikes account for {expected}"
                )
            op.clocks.append(outcome.final_clock)
            op.steps += outcome.final_clock
            op.spikes += len(outcome.raster)
            counts.deliveries += len(outcome.trace)
            counts.loop_rounds += sum(1 for e in outcome.raster if e.neuron in markers)
        counts.steps += op.steps
        counts.spikes += op.spikes


def _add_circuit_stats(counts: Counts, program: CompiledProgram) -> None:
    circuit = program.circuit
    counts.circuit_nodes += len(circuit.neurons) + len(circuit.gadgets)
    counts.circuit_bytes += len(program.serialize().encode())
    counts.neurons += len(circuit.neurons)
    counts.relays += sum(1 for n in circuit.neurons if n.threshold == 0 and n.leak == 0)
    counts.trigger_cells += program.meta["stats"]["trigger_cells"]
    counts.joins += sum(1 for g in circuit.gadgets if isinstance(g, Join))
    counts.const_emits += sum(1 for g in circuit.gadgets if isinstance(g, ConstEmit))


class RunLoops(Workload):
    """``murec run`` on compiled ADD, MUL, MONUS and MU_MONUS, raster CSV written.

    Nested trigger-cell loops make the event loop dominate each op; the raster
    export is the rest.  Two ops per function, in a seeded order.
    """

    name = "run_loops"

    def setup(self, work: Path, main) -> list[Op]:
        rng = random.Random(self.seed)
        circuits = {}
        for fn, source in SOURCES.items():
            rec = work / f"{fn}.rec"
            rec.write_text(source + "\n")
            circuits[fn] = work / f"{fn}.circuit.json"
            if main(["compile", str(rec), "-o", str(circuits[fn])]) != 0:
                raise RuntimeError(f"murec compile failed on {rec}")
        ops = []
        for fn, candidates in LOOP_INPUTS[self.size].items():
            for _ in range(2):
                args = rng.choice(candidates)
                if args[-1] is None:
                    args = (*args[:-1], rng.randrange(1_000_000))
                ports = ["x1"] if fn == "mu_monus" else ["i", "x1"]
                argv = ["run", str(circuits[fn])]
                for port, value in zip(ports, args):
                    argv += ["--in", f"{port}={value}"]
                raster = work / f"{fn}-{len(ops)}.raster.csv"
                argv += ["--raster", str(raster)]
                ops.append(Op(
                    label=f"{fn}{args}",
                    calls=[argv],
                    source=str(circuits[fn]),
                    cases=[args],
                    expect={"fn": fn, "y": CLOSED_FORMS[fn](*args), "raster": raster},
                ))
        rng.shuffle(ops)
        return ops

    def program(self, op: Op) -> CompiledProgram:
        return CompiledProgram.deserialize(Path(op.source).read_text())

    def check_program(self, op: Op, program: CompiledProgram) -> str | None:
        oracle = eval_oracle(parse_program(SOURCES[op.expect["fn"]]), list(op.cases[0]))
        if oracle != Value(op.expect["y"]):
            return f"interpreter gives {oracle}, closed form {op.expect['y']}"
        return None

    def check(self, op: Op, results: list[tuple[int, str]]) -> str | None:
        (code, out), = results
        if code != 0:
            return f"exit code {code}"
        if _stdout_value(out, "y") != str(op.expect["y"]):
            return f"y={_stdout_value(out, 'y')}, expected {op.expect['y']}"
        return _check_clock_and_raster(op, out)


def _check_clock_and_raster(op: Op, out: str) -> str | None:
    if f"status=quiescent clock={op.clocks[0]}" not in out:
        return f"printed clock differs from the count pass's {op.clocks[0]}"
    rows = _raster_rows(op.expect["raster"])
    if rows != op.spikes:
        return f"raster has {rows} rows, count pass has {op.spikes} spikes"
    return None


# -- fuzz_diff -----------------------------------------------------------------

# Arguments of each fuzzed program: every arity gets 4 cases (2 at smoke size).
FUZZ_RANGES = {
    "full": {1: "0..3", 2: "0..1,0..1", 3: "0..1,0..1,2"},
    "smoke": {1: "0..1", 2: "0..1,0", 3: "0..1,0,0"},
}


def _leaf(rng: random.Random, n: int) -> tuple:
    kinds = ["const", "proj"] if n >= 1 else ["const"]
    if n == 1:
        kinds.append("succ")
    kind = rng.choice(kinds)
    if kind == "const":
        return ("const", rng.randint(0, 9), n)
    if kind == "proj":
        return ("proj", rng.randint(1, n), n)
    return ("succ",)


def gen_program(rng: random.Random, n: int, depth: int, precs: int = 0) -> tuple:
    """Random program tree of arity ``n`` with exactly ``precs`` ``prec`` nodes.

    Compose trees over const/succ/proj; a ``prec`` node's base and step hold
    no further ``prec``.  No ``mu``: a random minimization can diverge and
    spend the whole step budget.  ``depth`` must leave room for the quota:
    one level per ``prec`` and one per composition that splits the quota.
    Trees are tuples, rendered to source text by :func:`render`.
    """
    if precs == 0:
        if n == 0 or depth <= 0 or rng.random() < 0.25:
            return _leaf(rng, n)
    elif precs == 1 and (depth == 1 or rng.random() < 0.35):
        return ("prec", gen_program(rng, n - 1, depth - 1), gen_program(rng, n + 1, depth - 1))
    k = rng.randint(max(1, precs - 1), 3)
    while True:  # spread the quota over the k + 1 operands, each within its depth
        quotas = [0] * (k + 1)
        for _ in range(precs):
            quotas[rng.randrange(k + 1)] += 1
        if all(q <= 1 or depth - 1 >= 2 for q in quotas):
            break
    outer = gen_program(rng, k, depth - 1, quotas[0])
    return ("compose", outer, tuple(gen_program(rng, n, depth - 1, q) for q in quotas[1:]))


def render(tree: tuple) -> str:
    kind = tree[0]
    if kind == "compose":
        return f"(compose {render(tree[1])} ({' '.join(render(g) for g in tree[2])}))"
    if kind == "prec":
        return f"(prec {render(tree[1])} {render(tree[2])})"
    return "(" + " ".join(str(part) for part in tree) + ")"


def forms(tree: tuple) -> int:
    if tree[0] == "compose":
        return 1 + forms(tree[1]) + sum(forms(g) for g in tree[2])
    if tree[0] == "prec":
        return 1 + forms(tree[1]) + forms(tree[2])
    return 1


def step_estimate(tree: tuple, cases: list[tuple[int, ...]]) -> int:
    """The benchmark's own rough estimate of the simulated steps over all cases.

    A critical-path latency: operands of a composition run side by side, a
    ``prec`` runs its rounds one after another.  The weights were fitted once
    against measured clocks; the estimate only steers which random programs
    are kept, so it never depends on the compiler under test.
    """

    def walk(t, args):  # -> (value, latency)
        kind = t[0]
        if kind == "const":
            return t[1], 1
        if kind == "succ":
            return args[0] + 1, 1
        if kind == "proj":
            return args[t[1] - 1], 1
        if kind == "compose":
            operands = [walk(g, args) for g in t[2]]
            value, latency = walk(t[1], tuple(v for v, _ in operands))
            return value, 10 + max(lat for _, lat in operands) + latency
        i, rest = args[0], args[1:]
        acc, latency = walk(t[1], rest)
        latency += 10
        for k in range(i):
            acc, step = walk(t[2], (k, acc) + rest)
            latency += 18 + step
        return acc, latency

    return sum(walk(tree, case)[1] for case in cases)


class FuzzDiff(Workload):
    """``murec diff <file> --args <ranges>`` on seeded random programs.

    Programs come from one size class: two ``prec`` nodes, a band of form
    counts and of estimated steps over the cases, and equal shares of
    arities 1, 2 and 3.  A candidate is kept only if the running totals of
    forms and estimated steps stay near their targets, so that the op set's
    total work hardly depends on the seed.  The selection uses only the
    benchmark's own tree measures, never the compiler, so that a change to
    the program cannot change this workload's inputs.
    """

    name = "fuzz_diff"
    programs = {"full": 192, "smoke": 4}
    depth = 3
    precs = 2
    # (low, target mean, high, allowed drift of the running total)
    forms_band = {"full": (18, 28, 38, 4), "smoke": (0, 20, 100, 100)}
    steps_band = {"full": (350, 550, 880, 60), "smoke": (0, 100, 10_000, 10_000)}

    def setup(self, work: Path, main) -> list[Op]:
        rng = random.Random(self.seed)
        ranges = FUZZ_RANGES[self.size]
        bands = (self.forms_band[self.size], self.steps_band[self.size])
        totals = [0, 0]
        ops = []
        while len(ops) < self.programs[self.size]:
            n = 1 + len(ops) % 3
            tree = gen_program(rng, n, self.depth, self.precs)
            cases = _cases(ranges[n])
            sizes = (forms(tree), step_estimate(tree, cases))
            if not all(
                low <= size <= high and abs(total + size - target * (len(ops) + 1)) <= drift
                for (low, target, high, drift), size, total in zip(bands, sizes, totals)
            ):
                continue
            totals = [total + size for total, size in zip(totals, sizes)]
            source = render(tree)
            rec = work / f"prog{len(ops)}.rec"
            rec.write_text(source + "\n")
            ops.append(Op(
                label=rec.name,
                calls=[["diff", str(rec), "--args", ranges[n]]],
                source=source,
                cases=cases,
            ))
        return ops

    def check(self, op: Op, results: list[tuple[int, str]]) -> str | None:
        (code, out), = results
        expected = f"cases={len(op.cases)} mismatches=0 timeouts=0 seed=none"
        if code != 0 or out.splitlines()[:1] != [expected]:
            return f"exit code {code}, output {out.splitlines()[:1]}"
        return None


def _cases(ranges: str) -> list[tuple[int, ...]]:
    axes = []
    for part in ranges.split(","):
        lo, _, hi = part.partition("..")
        axes.append(range(int(lo), int(hi or lo) + 1))
    cases = [()]
    for axis in axes:
        cases = [c + (v,) for c in cases for v in axis]
    return cases


# -- compile_large -----------------------------------------------------------------

# Heads of the nested composition Compose(H, (e, Proj(k, 2))).  Every program
# uses the same multiset of heads in a seeded order, with seeded projections,
# so all programs have the same circuit size (about 1.1k nodes at full size).
LARGE_HEADS = {
    "full": ["mul", "mul", "mul", "mul", "monus", "add"],
    "smoke": ["add", "monus"],
}
LARGE_SOURCES = {"add": ADD_REC, "mul": MUL_REC, "monus": MONUS_REC}


class CompileLarge(Workload):
    """``murec compile`` then ``murec run`` at all-zero inputs on large nested
    compositions: parse, lowering, validate, serialization and engine set-up
    dominate, while the event loop barely runs."""

    name = "compile_large"
    programs = {"full": 6, "smoke": 2}

    def setup(self, work: Path, main) -> list[Op]:
        rng = random.Random(self.seed)
        ops = []
        for p in range(self.programs[self.size]):
            heads = list(LARGE_HEADS[self.size])
            rng.shuffle(heads)
            source = f"(proj {rng.randint(1, 2)} 2)"
            for head in heads:
                source = f"(compose {LARGE_SOURCES[head]} ({source} (proj {rng.randint(1, 2)} 2)))"
            rec = work / f"large{p}.rec"
            rec.write_text(source + "\n")
            check_arity(parse_program(source))
            circuit = work / f"large{p}.circuit.json"
            raster = work / f"large{p}.raster.csv"
            ops.append(Op(
                label=rec.name,
                calls=[
                    ["compile", str(rec), "-o", str(circuit)],
                    ["run", str(circuit), "--in", "x1=0", "--in", "x2=0", "--raster", str(raster)],
                ],
                source=source,
                cases=[(0, 0)],
                expect={"circuit": circuit, "raster": raster},
            ))
        return ops

    def check_program(self, op: Op, program: CompiledProgram) -> str | None:
        text = program.serialize()
        op.expect["text"] = text
        loaded = CompiledProgram.deserialize(text)
        if loaded.serialize() != text:
            return "re-serializing the deserialized circuit changes its text"
        if loaded.circuit.validate():
            return f"validate() reports {loaded.circuit.validate()}"
        oracle = eval_oracle(parse_program(op.source), [0, 0])
        if oracle != Value(0):
            return f"interpreter gives {oracle}, expected 0"
        return None

    def check(self, op: Op, results: list[tuple[int, str]]) -> str | None:
        (compiled, _), (code, out) = results
        if compiled != 0 or code != 0:
            return f"exit codes {compiled}, {code}"
        if op.expect["circuit"].read_text() != op.expect["text"]:
            return "written circuit differs from the checked reference text"
        if _stdout_value(out, "y") != "0":
            return f"y={_stdout_value(out, 'y')}, expected 0"
        return _check_clock_and_raster(op, out)


WORKLOADS = {w.name: w for w in (RunLoops, FuzzDiff, CompileLarge)}
