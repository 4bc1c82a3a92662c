"""Exception types shared across the toolkit.

Every predictable failure mode raises one of these, so callers (and the CLI)
can tell a usage error from a genuine verification mismatch.
"""


class ToolkitError(Exception):
    """Base class for all toolkit errors."""


class NotPrimeError(ToolkitError):
    """The characteristic is not a prime number."""


class NotPrimitivePolynomialError(ToolkitError):
    """The supplied modulus is not primitive over GF(p)."""


class SizeLimitError(ToolkitError):
    """A requested object exceeds the configured size/work budget."""


class LogOfZeroError(ToolkitError):
    """Discrete log of the zero element requested."""


class ZeroInputError(ToolkitError):
    """Zero passed where a nonzero element is required."""


class ElementNotInGroupError(ToolkitError):
    """Set element or shift value lies outside the ambient group."""


class EmptySetError(ToolkitError):
    """An operation that needs a nonempty set got an empty one."""


class EvenCharacteristicError(ToolkitError):
    """Construction requires odd characteristic."""


class EvenDegreeError(ToolkitError):
    """Construction requires odd extension degree."""


class NotTwoToOneError(ToolkitError):
    """The map was expected to be two-to-one but is not."""


class UnknownKindError(ToolkitError):
    """Unrecognized family/kind keyword."""


class NotQuadraticFormError(ToolkitError):
    """Function terms are not all of the shape c*x^(p^i + p^j)."""


class PreconditionFailedError(ToolkitError):
    """A closed-form prediction was requested outside its hypotheses."""

    def __init__(self, clause: str, detail: str = ""):
        super().__init__(f"{clause}: {detail}" if detail else clause)
        self.clause = clause
        self.detail = detail


class ZeroDimensionalError(ToolkitError):
    """The code has no nonzero codewords."""


class InvariantError(ToolkitError):
    """An internal consistency check failed; this is a bug, not bad input."""
