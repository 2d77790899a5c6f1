"""Command-line front end: compile, run, eval, and diff.

Exit codes: 0 success; 1 parse/arity errors; 2 configuration or strict-mode
errors; 3 timeout (or interpreter fuel exhaustion); 4 engine fault; 5
differential mismatches; 64 unknown or unbound input port.
"""
from __future__ import annotations

import argparse
import functools
import gc
import itertools
import random
import sys
from pathlib import Path

from .compiler import (
    CompiledProgram,
    DiffReport,
    LoweringConfig,
    compile_program,
    run_diff,
    run_program,
)
from .engine import SimConfig, raster_csv, raster_jsonl, trace_csv
from .errors import (
    ArityError,
    ConfigError,
    InvalidCircuit,
    ParseError,
    StrictModeViolation,
    UnboundPort,
    UnknownPort,
)
from .expr import DEFAULT_FUEL, Value, check_arity, eval_oracle, gen_expr, parse_program


def _latency_str(latency: int | None) -> str:
    return "dynamic" if latency is None else f"static({latency})"


def _natural(text: str | int, what: str) -> int:
    try:
        value = int(text)
    except ValueError as exc:
        raise ConfigError(f"{what} must be an integer, got {text!r}") from exc
    if value < 0:
        raise ConfigError(f"{what} must be a natural, got {value}")
    return value


def _read(path: str) -> str:
    """The file's text; a file that is not UTF-8 is as bad an input as one that does not parse."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8 text: {exc.reason} at byte {exc.start}") from None


# -- compile -----------------------------------------------------------------


def _default_compile_out(program_path: Path) -> Path:
    if program_path.suffix == ".rec":
        return program_path.with_suffix(".circuit.json")
    return Path(str(program_path) + ".circuit.json")


def cmd_compile(ns: argparse.Namespace) -> int:
    expr = parse_program(_read(ns.program))
    program = compile_program(expr, LoweringConfig(big_m=ns.big_m, strict_primitive=ns.strict_primitive))
    out = Path(ns.output) if ns.output else _default_compile_out(Path(ns.program))
    out.write_text(program.serialize(), encoding="utf-8")
    circuit = program.circuit
    print(f"wrote {out}")
    print(
        f"neurons={len(circuit.neurons)} synapses={len(circuit.synapses)} "
        f"native_gadgets={len(circuit.gadgets)} trigger_cells={program.meta['stats']['trigger_cells']}"
    )
    print(f"latency={_latency_str(program.meta['latency'])} big_m={program.meta['big_m']}")
    return 0


# -- run ---------------------------------------------------------------------


def _parse_bindings(pairs: list[str]) -> dict[str, int]:
    binding: dict[str, int] = {}
    for pair in pairs:
        name, sep, raw = pair.partition("=")
        if not sep or not name:
            raise ConfigError(f"--in expects name=value, got {pair!r}")
        if name in binding:
            raise ConfigError(f"input {name} is bound more than once")
        binding[name] = _natural(raw, f"input {name}")
    return binding


def _default_raster_out(circuit_path: Path, fmt: str) -> Path:
    base = str(circuit_path)
    if base.endswith(".circuit.json"):
        base = base[: -len(".circuit.json")]
    elif circuit_path.suffix:
        base = str(circuit_path.with_suffix(""))
    return Path(f"{base}.raster.{'jsonl' if fmt == 'jsonl' else 'csv'}")


def cmd_run(ns: argparse.Namespace) -> int:
    _natural(ns.max_steps, "--max-steps")
    program = CompiledProgram.deserialize(_read(ns.circuit))
    binding = _parse_bindings(ns.inputs or [])
    run = run_program(program, binding, max_steps=ns.max_steps)

    raster_path = Path(ns.raster) if ns.raster else _default_raster_out(Path(ns.circuit), ns.format)
    render = raster_jsonl if ns.format == "jsonl" else raster_csv
    raster_path.write_bytes(render(program.circuit, run.outcome))
    if ns.trace is not None:
        Path(ns.trace).write_bytes(trace_csv(run.outcome))

    outcome = run.outcome
    if run.status == "fault":
        fault = outcome.fault
        print(f"status=fault kind={fault.kind} node={fault.node} time={fault.time}")
        return 4
    if run.status == "timeout":
        print(f"status=timeout clock={outcome.final_clock}")
        return 3
    print(f"y={run.value if run.status == 'ok' else 'none'}")
    print(f"status={outcome.status} clock={outcome.final_clock}")
    return 0


# -- eval --------------------------------------------------------------------


def cmd_eval(ns: argparse.Namespace) -> int:
    _natural(ns.fuel, "--fuel")
    expr = parse_program(_read(ns.program))
    args = []
    for raw in ns.args:
        try:
            value = int(raw)
        except ValueError as exc:
            raise ArityError(f"arguments must be naturals, got {raw!r}") from exc
        if value < 0:
            raise ArityError(f"arguments must be naturals, got {value}")
        args.append(value)
    result = eval_oracle(expr, args, fuel=ns.fuel)
    if isinstance(result, Value):
        print(result.value)
        return 0
    print("fuel-exhausted")
    return 3


# -- diff --------------------------------------------------------------------


def _parse_ranges(text: str, n_args: int) -> list[tuple[int, ...]]:
    parts = text.split(",") if text else []
    if len(parts) != n_args:
        raise ArityError(f"--args lists {len(parts)} ranges but the program takes {n_args}")
    axes: list[list[int]] = []
    for part in parts:
        lo, sep, hi = part.partition("..")
        if sep:
            start, stop = _natural(lo, "--args bound"), _natural(hi, "--args bound")
            if stop < start:
                raise ConfigError(f"empty range {part!r} in --args")
            axes.append(list(range(start, stop + 1)))
        else:
            axes.append([_natural(part, "--args value")])
    return [tuple(case) for case in itertools.product(*axes)]


def _print_report(report: DiffReport, seed: int | None) -> None:
    print(
        f"cases={report.cases} mismatches={len(report.mismatches)} "
        f"timeouts={report.timeouts} seed={'none' if seed is None else seed}"
    )
    for m in report.mismatches:
        print(
            f"MISMATCH expr={m['expr']} args={m['args']} "
            f"oracle={m['oracle']} circuit={m['circuit']}"
        )


# The options of random mode, with their defaults and help; a program path with --args takes none of them.
_RANDOM_ONLY = {
    "--depth": (3, "nesting depth of generated expressions"),
    "--seed": (0, "seed of the generator"),
    "--arity": (None, "fix the arity of generated expressions"),
    "--samples": (5, "argument tuples per expression"),
    "--max-value": (50, "largest sampled argument"),
}


def cmd_diff(ns: argparse.Namespace) -> int:
    for option, (default, _) in _RANDOM_ONLY.items():
        name = option[2:].replace("-", "_")
        if getattr(ns, name) is None:
            setattr(ns, name, default)
        elif ns.program is not None and ns.random is None:
            raise ConfigError(f"{option} applies only to --random N, not to a program file")
    for option in ("--depth", "--arity", "--max-value", "--fuel", "--max-steps"):
        _natural(getattr(ns, option[2:].replace("-", "_")) or 0, option)  # --arity may be None
    if ns.samples < 1:
        raise ConfigError(f"--samples must be at least 1, got {ns.samples}")
    if ns.arity == 0:  # gen_expr needs at least one argument
        raise ConfigError("--arity must be at least 1, got 0")
    if ns.random is not None and ns.random < 1:
        raise ConfigError(f"--random must be at least 1, got {ns.random}")
    cfg = LoweringConfig(big_m=ns.big_m)
    if ns.random is not None:
        if ns.program is not None or ns.args is not None:
            raise ConfigError("diff takes a program file with --args or --random N, not both")
        rng = random.Random(ns.seed)

        def draw():  # a program, then its cases; lazily, so a job's error comes before the next draw
            n_args = ns.arity if ns.arity else rng.randint(1, 3)
            expr = gen_expr(rng, n_args, ns.depth)
            return expr, [tuple(rng.randint(0, ns.max_value) for _ in range(n_args)) for _ in range(ns.samples)]

        jobs = (draw() for _ in range(ns.random))
    else:
        if not ns.program or ns.args is None:
            raise ConfigError("diff needs either a program file with --args or --random N")
        expr = parse_program(_read(ns.program))
        jobs = [(expr, _parse_ranges(ns.args, check_arity(expr)))]
    report = DiffReport(0, [], 0)
    for expr, cases in jobs:
        part = run_diff(expr, compile_program(expr, cfg), cases, fuel=ns.fuel, max_steps=ns.max_steps)
        report.cases += part.cases
        report.mismatches += part.mismatches
        report.timeouts += part.timeouts
    _print_report(report, None if ns.random is None else ns.seed)
    return 5 if report.mismatches else 0


# -- argument parsing ----------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="murec",
        description="Compile recursive function expressions to spiking circuits and run them.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compile", help="lower a .rec program to a circuit file")
    p.add_argument("program", help="path to the .rec source")
    p.add_argument("-o", "--output", help="circuit file to write (default <stem>.circuit.json)")
    p.add_argument("--big-m", type=int, default=LoweringConfig.big_m, help="separation constant")
    p.add_argument(
        "--strict-primitive",
        action="store_true",
        help="reject a program whose built circuit holds a native gadget",
    )
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("run", help="simulate a compiled circuit on bound inputs")
    p.add_argument("circuit", help="path to a compiled .circuit.json file")
    p.add_argument(
        "--in",
        dest="inputs",
        action="append",
        metavar="NAME=VALUE",
        help="bind an input port (repeatable)",
    )
    p.add_argument("--max-steps", type=int, default=SimConfig.max_steps)
    p.add_argument("--raster", help="raster file to write (default <stem>.raster.<fmt>)")
    p.add_argument("--format", choices=["csv", "jsonl"], default="csv")
    p.add_argument("--trace", help="also write every delivery to this CSV file")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("eval", help="evaluate a .rec program with the fueled interpreter")
    p.add_argument("program", help="path to the .rec source")
    p.add_argument("args", nargs="*", help="natural-number arguments")
    p.add_argument("--fuel", type=int, default=DEFAULT_FUEL)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("diff", help="differential-test circuits against the interpreter")
    p.add_argument("program", nargs="?", help="path to the .rec source (with --args)")
    p.add_argument("--args", help="per-argument ranges, e.g. 0..10,0..10")
    p.add_argument("--random", type=int, metavar="N", help="generate N random expressions")
    for option, (default, text) in _RANDOM_ONLY.items():
        p.add_argument(option, type=int, help=text if default is None else f"{text} (default {default})")
    p.add_argument("--fuel", type=int, default=DEFAULT_FUEL)
    p.add_argument("--max-steps", type=int, default=SimConfig.max_steps)
    p.add_argument("--big-m", type=int, default=LoweringConfig.big_m)
    p.set_defaults(func=cmd_diff)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser: a parse leaves it as it was, so every ``main`` call shares it."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    # A command makes no reference cycles, so the cyclic collector's passes
    # over its thousands of live records only cost time.  The collector's
    # state is process-wide: restore it on every exit.
    enabled = gc.isenabled()
    gc.disable()
    try:
        ns = _parser().parse_args(argv)
        return ns.func(ns)
    except (ParseError, ArityError, InvalidCircuit, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ConfigError, StrictModeViolation) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (UnknownPort, UnboundPort) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 64
    except RecursionError:  # a walk over a parsed program, from a caller whose stack was already deep
        print("error: program nested too deeply", file=sys.stderr)
        return 1
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
