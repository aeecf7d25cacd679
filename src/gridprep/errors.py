"""Exception hierarchy shared by all gridprep modules.

Exit-code mapping used by the CLI:
    ValidationError / StructuralError -> 2
    PipelineError (and subclasses)    -> 3
    ResourceError                     -> 4
"""


class GridprepError(Exception):
    """Base class for all gridprep errors."""


class ValidationError(GridprepError):
    """Invalid values, malformed configs, non-unitary matrices, bad norms."""


class StructuralError(ValidationError):
    """Register/layout violations: bad indices, width mismatches, overlap."""


class ResourceError(GridprepError):
    """A configured cap (qubit count, density-matrix size) was exceeded."""


class PipelineError(GridprepError):
    """A preparation pipeline failed in a way the driver can act on."""


class DegeneracyError(PipelineError):
    """Phase-estimation windows collide; identification is impossible."""


class RetryBudgetError(PipelineError):
    """The repeat-until-success loop exhausted its retry budget."""


class ImpossibleOutcomeError(GridprepError):
    """Requested a measurement outcome carrying zero probability."""
