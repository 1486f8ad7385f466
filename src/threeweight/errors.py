"""Exception types shared across the package."""


class CodesError(Exception):
    """Base class for all package-specific errors."""


class UnsupportedParameters(CodesError):
    """Requested object is outside the supported parameter range."""


class FieldMismatch(CodesError):
    """Operation requires a different (or a common) base field."""


class InvalidArgument(CodesError, ValueError):
    """An argument is outside the domain of the requested computation."""


class SelfCheckFailed(CodesError):
    """A computed result failed an internal consistency check."""


class GuardExceeded(CodesError):
    """Input is past a hard resource guard."""


class SizeExceeded(GuardExceeded):
    """Codeword enumeration would be too large."""


class NotProjective(CodesError):
    """Operation is only defined for projective codes."""


class ComplementNotSpanning(CodesError):
    """Anticode undefined: the complementary point set does not span."""


class DegenerateWeights(CodesError):
    """Weights were required to be pairwise distinct."""


class ZeroInOmega(CodesError):
    """Triple-sum sets must not contain the zero vector."""


class RankDeficient(CodesError):
    """Generator matrix does not have full row rank."""


class ParseError(CodesError):
    """Malformed generator-matrix file; line is None when the error is about
    the whole file rather than one of its lines."""

    def __init__(self, line: int | None, reason: str):
        super().__init__(reason if line is None else f"line {line}: {reason}")
        self.line = line
        self.reason = reason
