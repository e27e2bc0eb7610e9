"""Exception types shared across the package."""

from __future__ import annotations


class TuranToolsError(Exception):
    """Base class for package-specific failures."""


class ParseError(TuranToolsError):
    """Malformed textual input (graph6 string, forbidden-graph spec, file).

    ``offset`` is the byte offset inside the offending token, ``line``
    the 1-based line number when reading a file; either may be None.
    ``message`` is the text without the position, for a caller that
    re-raises with more context.
    """

    def __init__(self, message: str, *, offset: int | None = None, line: int | None = None):
        self.message = message
        self.offset = offset
        self.line = line
        where = []
        if line is not None:
            where.append(f"line {line}")
        if offset is not None:
            where.append(f"byte {offset}")
        if where:
            message = f"{message} ({', '.join(where)})"
        super().__init__(message)


class SizeCapError(TuranToolsError):
    """An operation was asked to exceed its documented size cap."""


class NonConvergenceError(TuranToolsError):
    """Power iteration hit its sweep cap; carries the best estimate."""

    def __init__(self, message: str, best: float, iterations: int):
        self.best = best
        self.iterations = iterations
        super().__init__(message)
