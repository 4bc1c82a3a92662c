"""Exception types shared across the toolkit, one class per meaning.

A refused input raises ToolkitError itself, and its message says which
check refused it.  The subclasses mark the refusals a reader must tell
apart: a budget (SizeLimitError), a claim's hypotheses
(PreconditionFailedError) and a bug (InvariantError).  A CLI command that
raises one exits 1, and verify-paper reports it as a failed case; a claim
that fails its check exits 2 without raising.
"""


class ToolkitError(Exception):
    """An input the toolkit refuses."""


class SizeLimitError(ToolkitError):
    """A requested object exceeds the configured size/work budget."""


class PreconditionFailedError(ToolkitError):
    """A closed-form prediction was requested outside its hypotheses."""


class InvariantError(ToolkitError):
    """An internal consistency check failed; this is a bug, not bad input."""
