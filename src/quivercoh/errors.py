class QuivercohError(Exception):
    """Base class for all package errors."""


class DomainError(QuivercohError):
    """A mathematically invalid request (weight outside D_1, relation
    violation where validity is required, wrong support shape, ...)."""


class ParseError(QuivercohError):
    """Malformed textual or JSON input."""

    def __init__(self, message, position=None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class InternalCheckError(QuivercohError):
    """A structural guarantee failed (a built differential with nonzero
    square, a chamber vertex with nontrivial cohomology, ...).  Signals a
    bug, not bad input."""
