"""Exception types shared across the package."""


class DgquotError(Exception):
    """Base class for all errors raised by dgquot."""


class StructureError(DgquotError):
    """Mixed generator tables, missing derivation images, bad constructions."""


class NotClassicalError(StructureError):
    """A point fails the classical-point test; carries the failing equation."""

    def __init__(self, what: str, witness):
        super().__init__(f"{what} requires a classical point; failing equation: {witness}")
        self.witness = witness


class DimensionError(DgquotError):
    """Matrix or point dimensions inconsistent with the ambient presentation."""


class SingularMatrixError(DgquotError):
    """A matrix that must be invertible is singular."""


class ParseError(DgquotError):
    """Polynomial or manifest syntax error, with a source position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position
