"""Exception types shared across the library.

The CLI maps these onto exit codes: validation/configuration problems
exit with 2, numerical failures with 3.
"""


class StgcnError(Exception):
    """Base class for all library errors."""


class DimensionError(StgcnError):
    """Tensor or adjacency shapes are incompatible."""


class ValidationError(StgcnError):
    """Input data violates a documented invariant."""


class ConfigurationError(ValidationError):
    """Model or run configuration is inconsistent, or a JSON document is malformed."""


class ContractError(StgcnError):
    """An API contract was violated (e.g. backward called twice)."""


class NumericalError(StgcnError):
    """A non-finite value appeared or a numerical check failed."""
