"""Exception hierarchy shared by all polyface modules."""

from __future__ import annotations


class PolyfaceError(Exception):
    """Base class for all errors raised by this package."""


class InvalidPairError(PolyfaceError):
    """A coordinate pair (i, j) violates 1 <= i < j <= m."""


class InvalidParameterError(PolyfaceError):
    """A size or family parameter is out of its admissible range."""


class InvalidPermutationError(PolyfaceError):
    """A sequence does not list each of 1..m exactly once."""


class InvalidVertexError(PolyfaceError):
    """A 0/1 vector is not a vertex of the polytope it was offered to."""


class DimensionMismatchError(PolyfaceError):
    """Two objects with incompatible coordinate dimensions were combined."""


class CapacityError(PolyfaceError):
    """An enumeration would exceed its configured budget."""


class NotSupportingError(PolyfaceError):
    """An equality is not the boundary of any valid inequality over a vertex set.

    Carries the offending form and, as ``witness``, the first vertex that
    violates its ``>=`` relaxation; the message names the first violating
    vertex of each direction.
    """

    def __init__(self, message: str, form=None, witness=None):
        super().__init__(message)
        self.form = form
        self.witness = witness


class ParseError(PolyfaceError):
    """Malformed textual input (files, sequences, selectors)."""
