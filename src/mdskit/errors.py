"""Exception taxonomy shared by all mdskit modules."""


class MdskitError(Exception):
    """Base class for all mdskit errors."""


class NotPrimeError(MdskitError):
    """Requested field characteristic is not prime."""


class ReduciblePolynomialError(MdskitError):
    """A supplied minimal polynomial failed the irreducibility test."""


class DegreeMismatchError(MdskitError):
    """Polynomial degree, length, or monicity does not match the request."""


class FieldMismatchError(MdskitError):
    """Operands belong to different fields."""


class DivisionByZeroError(MdskitError, ZeroDivisionError):
    """Multiplicative inverse of zero requested."""


class NotSquareError(MdskitError):
    """Determinant of a non-square matrix requested."""


class DimensionMismatchError(MdskitError):
    """Matrix or vector dimensions are inconsistent."""


class SizeConstraintError(MdskitError):
    """A set tuple, erasure pattern or size parameter is out of range."""


class CharacteristicMismatchError(MdskitError):
    """Polynomials with different characteristics were combined."""


class ArityMismatchError(MdskitError):
    """Polynomials with different variable counts were combined."""


class DegreeTooHighError(MdskitError):
    """An expression exceeds the supported degree in a designated variable."""


class EvenCharacteristicError(MdskitError):
    """The certificate requires odd characteristic (it divides by 2)."""


class BudgetExceededError(MdskitError):
    """A configured work or memory budget was exceeded."""


class WrongKindError(MdskitError):
    """Operation requires a different code kind."""


class InfeasibleProfileError(MdskitError):
    """No set tuple can match the requested size profile."""


class RankLossError(MdskitError):
    """Puncturing dropped the code rank below k."""


class NotMDSError(MdskitError):
    """Operation requires an MDS code and the normalization degenerated."""


class SidonSetNotFoundError(MdskitError):
    """Greedy Sidon-set construction failed at the given field size."""
