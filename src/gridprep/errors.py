"""Exception hierarchy shared by all gridprep modules.

Exit-code mapping used by the CLI:
    ValidationError                 -> 2
    PipelineError (and subclasses)  -> 3
    ResourceError                   -> 4
    anything else, StructuralError included: an internal fault, raised
    with its traceback (exit code 1)
"""


class GridprepError(Exception):
    """Base class for all gridprep errors."""


class ValidationError(GridprepError):
    """Invalid values, malformed configs, non-unitary matrices, bad norms."""


class StructuralError(GridprepError):
    """Register/layout violations: bad indices, width mismatches, overlap."""


class ResourceError(GridprepError):
    """A configured cap (qubit count, density-matrix size) was exceeded."""


class PipelineError(GridprepError):
    """A preparation pipeline failed in a way the driver can act on."""


class DegeneracyError(PipelineError):
    """Phase-estimation readouts cannot tell orbitals apart."""


class RetryBudgetError(PipelineError):
    """The repeat-until-success loop exhausted its retry budget."""


class ImpossibleOutcomeError(GridprepError):
    """Requested a measurement outcome carrying zero probability."""
