"""Exception types shared across the package."""


class OneCylError(Exception):
    """Base class for all package errors."""


class MalformedText(OneCylError):
    """Permutation text does not have exactly two rows."""


class EmptyRow(OneCylError):
    """A permutation row contains no cells."""


class LetterCountError(OneCylError):
    """Some letter does not appear exactly twice."""


class NotRestrictable(OneCylError):
    """Rows do not begin with a shared once-per-row letter."""


class BadPattern(OneCylError):
    """Singularity orders violate k >= -1 or sum != 0 mod 4."""


class BadParameters(OneCylError):
    """Invalid parameters for a representative family, an orbit walk or a search."""


class UnknownName(OneCylError):
    """Unknown representative name."""


class Infeasible(OneCylError):
    """No strictly positive admissible vector exists."""


class BoundTooSmall(OneCylError):
    """Could not balance an admissible vector within the bound."""


class TraceBudgetExceeded(OneCylError):
    """A separatrix trace ran past its crossing budget (internal fault)."""


class NotSimple(OneCylError):
    """The requested cylinder is not simple."""


class NotSingleCylinder(OneCylError):
    """The vertical foliation has more than one cylinder."""


class NoSimpleCylinderForm(OneCylError):
    """No rotation exposes a shared head letter with a simple cylinder."""


class NotFoundWithinBudget(OneCylError):
    """Search-based construction exhausted its budget."""


class SizeLimit(OneCylError):
    """A request exceeds a size guard: an enumeration's, or a cover's square count."""
