"""Exception types with stable machine-readable codes.

Every error raised by this package derives from :class:`GPMultError` and
carries a short ``code`` string suitable for JSON reports, plus arbitrary
keyword context (offending indices, deviations, ...) in ``context``.
"""

from __future__ import annotations


class GPMultError(Exception):
    code = "error"

    def __init__(self, message: str = "", **context):
        super().__init__(message)
        self.context = context

    def __str__(self):
        base = super().__str__()
        if self.context:
            extras = ", ".join(f"{k}={v!r}" for k, v in self.context.items())
            return f"{base} [{extras}]" if base else f"[{extras}]"
        return base


# --- graphs and groups ---

class LoopEdgeError(GPMultError):
    code = "loop_edge"


class UnknownVertexError(GPMultError):
    code = "unknown_vertex"


class NotLatinSquareError(GPMultError):
    code = "not_latin_square"


class NotAssociativeError(GPMultError):
    code = "not_associative"


class BadIdentityError(GPMultError):
    code = "bad_identity"


class BadInverseError(GPMultError):
    code = "bad_inverse"


class TooLargeError(GPMultError):
    code = "too_large"


# --- words ---

class ElementOutOfRangeError(GPMultError):
    code = "element_out_of_range"


class ContextMismatchError(GPMultError):
    code = "context_mismatch"


class BudgetExceededError(GPMultError):
    code = "budget_exceeded"


class NoV0LetterError(GPMultError):
    code = "no_v0_letter"


# --- algebra ---

class StructureMismatchError(GPMultError):
    code = "structure_mismatch"


class NotHermitianError(GPMultError):
    code = "not_hermitian"


class NotPositiveError(GPMultError):
    code = "not_positive"


class NotFiniteError(GPMultError):
    code = "not_finite"


# --- actions ---

class NotHomomorphismError(GPMultError):
    code = "not_homomorphism"


class EdgeViolationError(GPMultError):
    code = "edge_violation"


# --- multipliers ---

class NotUnitalError(GPMultError):
    code = "not_unital"


class NormTooLargeError(GPMultError):
    code = "norm_too_large"


class BadIdentityValueError(GPMultError):
    code = "bad_identity_value"


class HypothesisViolatedError(GPMultError):
    code = "hypothesis_violated"


# --- modules and cocycles ---

class SupportEscapeError(GPMultError):
    code = "support_escape"


# --- configuration ---

class ConfigError(GPMultError):
    """Configuration error with a JSON-pointer path to the offending entry."""

    code = "config_error"

    def __init__(self, pointer: str, message: str, code: str | None = None):
        super().__init__(message, pointer=pointer)
        self.pointer = pointer
        if code is not None:
            self.code = code
