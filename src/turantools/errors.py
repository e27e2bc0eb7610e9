"""Exception types shared across the package."""

from __future__ import annotations


class TuranToolsError(Exception):
    """Base class for package-specific failures."""


class ParseError(TuranToolsError):
    """Malformed textual input (graph6 string, forbidden-graph spec, part list).

    ``offset`` is the byte offset inside the offending token, or None.
    ``message`` is the text without the position, for a caller that
    re-raises with more context.
    """

    def __init__(self, message: str, *, offset: int | None = None):
        self.message = message
        self.offset = offset
        super().__init__(message if offset is None else f"{message} (byte {offset})")


class SizeCapError(TuranToolsError):
    """An operation was asked to exceed its documented size cap."""


class NonConvergenceError(TuranToolsError):
    """Power iteration hit its sweep cap; carries the best estimate."""

    def __init__(self, message: str, best: float, iterations: int):
        self.best = best
        self.iterations = iterations
        super().__init__(message)
