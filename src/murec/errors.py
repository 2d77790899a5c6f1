"""Exception types shared across the package."""
from __future__ import annotations


class MurecError(Exception):
    """Base class for every error raised by this package."""


class ParseError(MurecError):
    """Malformed program or circuit text.

    ``line`` and ``column`` are 1-based when known, ``None`` otherwise.
    """

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)


class ArityError(MurecError):
    """An expression violates the arity rules of the IR."""


class ConfigError(MurecError):
    """Invalid configuration, e.g. a big-M value too small for the inputs."""


class StrictModeViolation(MurecError):
    """The program needs native gadgets but strict primitive mode is on."""


class CircuitError(MurecError):
    """Structurally invalid circuit construction."""


class UnknownNeuron(CircuitError):
    """A referenced node id does not exist."""


class InvalidCircuit(CircuitError):
    """A circuit failed validation; carries the violation list."""

    def __init__(self, violations: list[str]):
        self.violations = violations
        super().__init__("invalid circuit: " + "; ".join(violations))


class EmptyQueue(MurecError):
    """step() was called with no pending deliveries."""


class UnknownPort(MurecError):
    """A named port does not exist on the circuit."""


class UnboundPort(MurecError):
    """A required input port was not supplied a value."""
