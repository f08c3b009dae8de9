"""Exceptions shared across the package."""


class DomainError(Exception):
    """A map was applied at a point outside its domain."""


class AlternatingPoint(DomainError):
    """The sequence is one of the two purely alternating points, so it has
    no adjacent equal pair of digits."""


class MaxPoint(DomainError):
    """The point is maximal in its comparability class; the successor is
    undefined unless the extension flag is set."""


class MinPoint(DomainError):
    """The point is minimal in its comparability class; the predecessor is
    undefined unless the extension flag is set."""


class BoundExceeded(Exception):
    """Not raised by this package: orbit classification is a closed form
    with no step budget.  Defined so that code catching it still imports."""


class AmbiguousWindow(ValueError):
    """A window admits more than one two-block parsing (or none of its
    blocks lie fully inside it)."""
