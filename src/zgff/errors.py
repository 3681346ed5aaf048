"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: ConfigError and StructureError -> 2;
InfeasibleError, InvalidConstraintError, DegenerateInputError and
CoverageError -> 3; ResourceLimitError -> 4; BuildError -> 5.
"""


class ZgffError(Exception):
    """Base class for package errors."""


class ConfigError(ZgffError):
    """Malformed configuration, unknown pattern name, missing key."""


class StructureError(ZgffError):
    """Ill-formed domain object (missing boundary value, bad field shape)."""


class InvalidConstraintError(ZgffError):
    """Contradictory constraints, e.g. floor above ceiling."""


class InfeasibleError(ZgffError):
    """Requested event/bridge/level is infeasible for the given inputs."""


class DegenerateInputError(ZgffError):
    """Input too degenerate for the requested statistic."""


class CoverageError(ZgffError):
    """A loop misses the entire measurement interval."""


class ResourceLimitError(ZgffError):
    """Stated enumeration or simulation budget exceeded."""


class BuildError(ZgffError):
    """The compiled sweep routine could not be built (no or a failing C
    compiler)."""
