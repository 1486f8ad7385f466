"""Exception types shared across the package.

Every error the package raises is a `CodesError`, and the CLI exits 2 on
each.  Callers tell four kinds apart: bad or unsupported input
(`InvalidArgument`, a `ValueError` too), a malformed or unreadable matrix
file (`ParseError`, printed with its own `parse error:` prefix), a resource
guard (`GuardExceeded`), and an internal fault (`SelfCheckFailed`).
"""


class CodesError(Exception):
    """Base class for all package-specific errors."""


class InvalidArgument(CodesError, ValueError):
    """An argument is bad or outside the supported domain: a field other
    than GF(2) or GF(3), a rank-deficient generator, a code that is not
    projective, repeated weights, ..."""


class SelfCheckFailed(CodesError):
    """A computed result failed an internal consistency check."""


class GuardExceeded(CodesError):
    """Input is past a hard resource guard."""


class ParseError(CodesError):
    """Malformed generator-matrix file; line is None when the error is about
    the whole file rather than one of its lines."""

    def __init__(self, line: int | None, reason: str):
        super().__init__(reason if line is None else f"line {line}: {reason}")
        self.line = line
        self.reason = reason
