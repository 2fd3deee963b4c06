"""Exception types shared across the package."""


class DercoordError(Exception):
    """Base class for all package errors."""


class DimensionMismatchError(DercoordError):
    """An array has the wrong length (an int) or shape (a tuple) for the given problem instance."""

    def __init__(self, what: str, expected, actual):
        self.expected = expected
        self.actual = actual
        kind = "shape" if isinstance(expected, tuple) else "length"
        super().__init__(f"{what}: expected {kind} {expected}, got {actual}")


class InvalidInstanceError(DercoordError):
    """A problem instance violates a structural invariant."""


class InvalidCostError(DercoordError):
    """A cost model is not strongly convex or otherwise unusable."""


class InfeasibleInstanceError(InvalidInstanceError):
    """The balance constraint cannot be met within the capacity box.

    Carries a human-readable description of the violated inequality.
    """


class InvalidGraphError(DercoordError):
    """A communication graph violates a structural invariant."""


class DivergenceError(DercoordError):
    """An iterate became NaN/Inf; usually means the stepsize is too large."""

    def __init__(self, step: int, detail: str = ""):
        self.step = step
        msg = f"non-finite iterate at step {step}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class InternalInvariantError(DercoordError):
    """A quantity that is provably positive/finite failed to be so."""

    def __init__(self, step: int, detail: str):
        self.step = step
        super().__init__(f"internal invariant violated at step {step}: {detail}")


class ConfigError(DercoordError):
    """An experiment configuration is invalid (CLI exit code 2)."""


class ModeMismatchError(ConfigError):
    """An algorithm does not fit its inputs: an unknown id, a graph of the wrong kind or size,
    a start of another algorithm's state type, or a horizon past the schedule's."""


class GeneratorSpecError(ConfigError):
    """A random-instance generator kept producing infeasible instances."""


class CaseParseError(ConfigError):
    """A case or graph file is malformed; carries the 1-based line number."""

    def __init__(self, line: int, detail: str):
        self.line = line
        super().__init__(f"line {line}: {detail}")


class FitWindowError(DercoordError):
    """A rate fit window contains no usable (positive, above-floor) values."""

    def __init__(self, detail: str, suggested_start: int | None = None):
        self.suggested_start = suggested_start
        if suggested_start is not None:
            detail += f"; try a window starting at k={suggested_start}"
        super().__init__(detail)
