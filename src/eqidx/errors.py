"""Exception hierarchy shared by every module of the package.

Two branches matter to callers.  ``InputError`` covers text and JSON that
cannot be understood at all; ``PreconditionError`` covers well-formed input
whose mathematical hypotheses fail.  The command line maps the former to exit
code 2 and the latter to exit code 3, reporting ``kind`` as the machine
readable error name.
"""

from __future__ import annotations


class EqidxError(Exception):
    """Base class for every error raised by this package."""

    kind = "Error"


class InputError(EqidxError):
    """Input that cannot be parsed or does not match the expected shape."""

    kind = "Input"


class ParseError(InputError):
    """Syntax error in a polynomial expression.

    ``position`` is the zero-based offset into the source text at which the
    error was detected.
    """

    kind = "Parse"

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class PreconditionError(EqidxError):
    """A mathematical hypothesis of the requested operation fails."""

    kind = "Precondition"


class GroupMismatchError(PreconditionError):
    """Operands live over different groups."""

    kind = "GroupMismatch"


class DimensionMismatchError(PreconditionError):
    """Operands live in ambient spaces of different dimensions."""

    kind = "DimensionMismatch"


class NotInvariantError(PreconditionError):
    """The 1-form is not invariant under the given action."""

    kind = "NotInvariant"


class NonZeroDimensionalError(PreconditionError):
    """The leading ideal misses a pure power of some variable."""

    kind = "NonZeroDimensional"

    def __init__(self, message: str, variable: int | None = None):
        super().__init__(message)
        self.variable = variable


class NonIsolatedError(PreconditionError):
    """The zero of the form at the base point is not algebraically isolated."""

    kind = "NonIsolated"


class RestrictedNonIsolatedError(NonIsolatedError):
    """A restriction to a fixed subspace fails to have an isolated zero.

    ``index_report`` cannot raise it (see ``equiv_index._stratum_table``).
    """

    kind = "RestrictedNonIsolated"


class GloballyNonZeroDimensionalError(PreconditionError):
    """The affine zero set of the deformed form is not finite."""

    kind = "GloballyNonZeroDimensional"


class NotEquivariantMapError(PreconditionError):
    """A substitution map does not commute with the group action."""

    kind = "NotEquivariantMap"


class SingularLinearPartError(PreconditionError):
    """The linear part of a substitution map is not invertible."""

    kind = "SingularLinearPart"


class DimensionGuardFailedError(PreconditionError):
    """Global and local quotient dimensions disagree in a conservation check."""

    kind = "DimensionGuardFailed"
