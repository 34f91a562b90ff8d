"""Exception hierarchy shared by all quivalg modules."""


class QuivalgError(Exception):
    """Base class for every error raised by this package."""


class FormatError(QuivalgError):
    """Malformed input text, or input over a size budget (CLI exit code 2)."""


class DimensionMismatch(QuivalgError):
    """Vectors, matrices or subspaces with incompatible shapes."""


class ValidationError(QuivalgError):
    """A structural invariant failed; carries a human-readable witness."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class CyclicInput(ValidationError):
    """An operation that needs acyclicity was given a cyclic object."""


class NotBasicError(ValidationError):
    """An operation restricted to basic algebras was given a non-basic one."""


class NotSplitOverQQ(ValidationError):
    """The semisimple quotient does not split into copies of Q.

    The basic-algebra test is inconclusive for such inputs; they are
    rejected rather than silently mishandled.
    """


class InadmissibleIdeal(ValidationError):
    """A relation set whose ideal fails the admissibility sandwich."""
