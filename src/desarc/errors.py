"""Typed errors raised by the geometry engine.

Every degenerate situation an input can reach maps to its own exception
class; one no input can reach gets none, so it surfaces as a bug.
"""


class GeometryError(Exception):
    """Base class for all errors raised by this package."""


# field construction and arithmetic

class InvalidField(GeometryError):
    """Field parameters are inconsistent (p not prime, bad modulus, ...)."""


class DivisionByZero(GeometryError, ZeroDivisionError):
    """Inversion or division by the zero element."""


# projective linear algebra

class ZeroVector(GeometryError):
    """An all-zero coordinate vector where a projective point was expected."""


class NotNormalized(GeometryError):
    """Point coordinates whose first nonzero entry is not 1."""


class AmbientMismatch(GeometryError):
    """Objects live in different ambient spaces or over different fields."""


# simplexes and arcs

class WrongCount(GeometryError):
    """Wrong number of points for the requested construction."""


class TooFew(GeometryError):
    """Fewer points than the minimum the definition allows."""


class NotASimplex(GeometryError):
    """The given points do not span the space."""


class NotAnArc(GeometryError):
    """A point set violates the arc property (some subset is degenerate)."""


class FieldTooSmall(GeometryError):
    """The construction needs a field of order greater than 2."""


class DimensionTooSmall(GeometryError):
    """The construction needs a larger projective dimension."""


# sections and perspectivity

class PointOnHyperplane(GeometryError):
    """An arc point lies on the sectioning hyperplane."""


class DegenerateSection(GeometryError):
    """Two labels of a configuration table carry the same point."""


class BadSymbols(GeometryError):
    """Symbol labels are out of range, equal, or not in the table."""


class SharedPoint(GeometryError):
    """The two simplexes share a point."""


class SharedFace(GeometryError):
    """The two simplexes share a face, or the vertex lies on a face."""


class EdgesDisjoint(GeometryError):
    """A pair of corresponding edges is skew or coincident."""


class NoCommonVertex(GeometryError):
    """The lines through corresponding points are not concurrent."""


class WInH(GeometryError):
    """The projection centre must lie off the designated hyperplane."""


# configurations

class TooFewSymbols(GeometryError):
    """A symbol table needs at least 3 symbols to replicate."""


class DegenerateConfiguration(GeometryError):
    """A labeled table violates the incidence structure it should carry."""


# enumeration

# The node budget of a search when the caller names none.  It lives here,
# beside the budget errors, so the CLI reads it without loading the kernel.
DEFAULT_BUDGET = 10 ** 9


class BudgetExceeded(GeometryError):
    """The search walked more nodes than the configured budget."""


class NegativeBudget(GeometryError):
    """A search needs a node budget of at least 0."""
