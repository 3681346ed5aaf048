"""Exception hierarchy shared across the package.

Each class carries the CLI exit code and the stderr prefix it maps to; this
is the one written map of them: ConfigError and StructureError -> 2 (config
error); InfeasibleError, InvalidConstraintError, DegenerateInputError and
CoverageError -> 3 (infeasible); ResourceLimitError -> 4 (resource limit);
BuildError -> 5 (build error). A run that succeeds exits 0.
"""


class ZgffError(Exception):
    """Base class for package errors; only its subclasses are raised."""
    exit_code, prefix = 1, "error"


class ConfigError(ZgffError):
    """Malformed configuration, unknown pattern name, missing key."""
    exit_code, prefix = 2, "config error"


class StructureError(ZgffError):
    """Ill-formed domain object (missing boundary value, bad field shape)."""
    exit_code, prefix = 2, "config error"


class InvalidConstraintError(ZgffError):
    """Contradictory constraints, e.g. floor above ceiling."""
    exit_code, prefix = 3, "infeasible"


class InfeasibleError(ZgffError):
    """Requested event/bridge/level is infeasible for the given inputs."""
    exit_code, prefix = 3, "infeasible"


class DegenerateInputError(ZgffError):
    """Input too degenerate for the requested statistic."""
    exit_code, prefix = 3, "infeasible"


class CoverageError(ZgffError):
    """A loop misses the entire measurement interval."""
    exit_code, prefix = 3, "infeasible"


class ResourceLimitError(ZgffError):
    """Stated enumeration or simulation budget exceeded."""
    exit_code, prefix = 4, "resource limit"


class BuildError(ZgffError):
    """The compiled sweep routine could not be built (no or a failing C
    compiler)."""
    exit_code, prefix = 5, "build error"
