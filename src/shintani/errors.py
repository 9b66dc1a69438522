"""Exception hierarchy shared by all modules."""


class ShintaniError(Exception):
    """Base class for all errors raised by this package."""


class ZeroPolynomial(ShintaniError):
    """Leading term requested for the zero polynomial."""


class SingularMatrix(ShintaniError):
    """A matrix that must be invertible is singular."""


class ZeroVector(ShintaniError):
    """An evaluation point must be nonzero."""


class UnsupportedDimension(ShintaniError):
    """Cone decomposition is only implemented for ambient dimension <= 3."""


class ZeroForm(ShintaniError):
    """A linear form that must be nonzero vanishes identically."""


class NotDivisible(ShintaniError):
    """A quotient series has a genuine pole along the offending form."""

    def __init__(self, message, form=None):
        super().__init__(message)
        self.form = form


class ConstantAgainstNonVanishing(ShintaniError):
    """A combo with a constant term was paired against a test function
    that does not vanish near zero."""


class TruncationTooSmall(ShintaniError):
    """The requested coefficient lies beyond the tracked truncation degree."""


class NotSquareFree(ShintaniError):
    """The discriminant parameter of a real quadratic field must be
    square-free and greater than one."""


class NarrowClassNumberNotOne(ShintaniError):
    """The single-cone L-value pipeline needs narrow class number one."""


class SchemaError(ShintaniError):
    """A CLI job document does not match the expected schema."""


class BudgetExceeded(SchemaError):
    """A job asks for more work than its stated bound, with the schema's
    exit code: the CLI refuses it before any of the work starts, and a
    coefficient ring as soon as its zeta table passes its entry bound."""
