"""Error taxonomy shared across the laboratory.

The CLI maps these onto process exit codes: PreconditionError,
PrecisionError and ScaleError are rejected inputs (exit 2), InvariantError
is a failed internal check (exit 3), BoundaryError is a runtime inability
to certify a result (exit 1).  Everything derives from LabError so callers
can catch the whole family at once.
"""


class LabError(Exception):
    pass


class PreconditionError(LabError, ValueError):
    """Arguments outside the documented domain of an operation."""


class PrecisionError(LabError):
    """A computation would exceed the working precision cap."""


class ScaleError(LabError):
    """Integer part beyond representable range ("scale too large")."""


class BoundaryError(LabError):
    """A floor/ceiling sits too close to an integer to certify."""


class InvariantError(LabError):
    """A structural self-check failed; results must not be trusted."""
