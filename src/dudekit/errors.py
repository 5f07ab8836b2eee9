"""Exception hierarchy for the toolkit: one class per CLI exit code.

DataError (exit 2) covers malformed or inconsistent inputs: files,
sequences, specs, dimensions, caps and checkpoints. NumericalError
(exit 3) covers computations that cannot proceed, such as a singular
channel. Both derive from DenoiserError; the message, not the class,
says which check failed.
"""


class DenoiserError(Exception):
    """Base class for all toolkit errors."""


class DataError(DenoiserError):
    """Bad or inconsistent input data; the CLI exits 2."""


class NumericalError(DenoiserError):
    """A numerical procedure failed; the CLI exits 3."""
