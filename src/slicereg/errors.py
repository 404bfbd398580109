"""Exception types shared across the package.

Every error that CLI input can cause (parse, limit, domain) derives from
SliceRegError, so callers can catch the package's own failures without
swallowing genuine bugs; misuse of the library API (a negative degree
bound, an unknown series kind) raises TypeError or ValueError instead.
"""


class SliceRegError(Exception):
    """Base class for all errors raised by this package."""


class ZeroDivisorError(SliceRegError, ArithmeticError):
    """Inversion of a nonzero element whose norm vanishes.

    In the complexified quaternions these are exactly the non-invertible
    nonzero elements (the null cone of the norm form).
    """


class ZeroInverseError(SliceRegError, ZeroDivisionError):
    """Inversion of zero itself.  Kept distinct from ZeroDivisorError
    because the null cone is meaningful in its own right."""


class NotInWError(SliceRegError, ValueError):
    """The bilinear form B is only defined on the trace-free part W."""


class PolyDivisionByZeroError(SliceRegError, ZeroDivisionError):
    """Polynomial division with a zero divisor polynomial."""


class BothZeroError(SliceRegError, ValueError):
    """gcd(0, 0) is undefined."""


class ZeroPolynomialError(SliceRegError, ValueError):
    """Vanishing order of the zero polynomial is undefined (infinite)."""


class SlicePreservingError(SliceRegError, ValueError):
    """The central divisor is undefined for slice preserving functions,
    just as the divisor of the identically-zero holomorphic function is."""


class ZeroFunctionError(SliceRegError, ValueError):
    """Operation undefined for the identically-zero stem function."""


class ZeroInputError(SliceRegError, ValueError):
    """Orbit comparison requires nonzero algebra elements."""


class ZeroAlphaError(SliceRegError, ValueError):
    """A conjugator candidate must be nonzero."""


class NearSingularSampleError(SliceRegError, ArithmeticError):
    """Numeric conjugation check hit a sample where the conjugator's norm
    is too close to zero, against its squared size, to invert it."""


class LimitExceededError(SliceRegError, ValueError):
    """An input whose cost would exceed one of the package's fixed limits
    (nesting depth, exponent, degree, intertwiner unknowns).  The message
    names the limit."""


class ParseError(SliceRegError, ValueError):
    """Malformed expression text.  `position` is a 0-based offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnitNotAllowedError(ParseError):
    """Unit E denotes the commuting complex unit and is only meaningful
    for points of the complexified algebra, never in stem expressions."""


class VariableInPointError(ParseError):
    """Point expressions must be constant."""
