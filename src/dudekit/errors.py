"""Exception hierarchy for the toolkit.

Two broad families matter to callers: DataError for malformed or
inconsistent inputs, and NumericalError for computations that cannot
proceed (singular matrices and the like). The CLI maps these onto
distinct exit codes.
"""


class DenoiserError(Exception):
    """Base class for all toolkit errors."""


class DataError(DenoiserError):
    """Bad or inconsistent input data (files, sequences, dimensions)."""


class NumericalError(DenoiserError):
    """A numerical procedure failed (singularity, non-convergence)."""


class SequenceTooShort(DataError):
    """Sequence shorter than the context window requires."""


class LengthMismatch(DataError):
    """Paired sequences or grids disagree in length."""


class DimensionMismatch(DataError):
    """Array or network dimensions are incompatible with the task."""


class CapExceeded(DataError):
    """A rule table would exceed its size cap."""


class InvalidChannel(DataError):
    """Channel or loss specification is malformed (shape, stochasticity)."""


class MalformedHeader(DataError):
    """File header does not follow the expected format."""


class TruncatedPayload(DataError):
    """File body ends before the declared amount of data."""


class InvalidSymbol(DataError):
    """A symbol outside the declared alphabet was encountered."""


class EmptyFile(DataError):
    """A file contains no usable records."""


class CheckpointMismatch(DataError):
    """A saved model does not match the requested configuration."""


class SingularChannel(NumericalError):
    """Channel transition matrix is not invertible."""
