"""Exception types shared across the package.

Exit-code mapping used by the command line interface:
ConfigInvalid -> 1, BoundViolated -> 2, any other failure -> 3.
"""


class RegimecltError(Exception):
    """Base class for all package-specific errors."""


class NotErgodic(RegimecltError):
    """The transition matrix is not irreducible and aperiodic."""


class InvalidModel(RegimecltError):
    """Chain and emission specification are inconsistent or malformed."""


class ZeroLikelihood(RegimecltError):
    """An observation prefix has zero density under every regime."""


class EmptyConditioningEvent(RegimecltError):
    """The conditioning event has probability zero."""


class TooManyEventsForExact(RegimecltError):
    """Exact joint evaluation was requested for more events than supported."""


class GapExceedsBlock(RegimecltError):
    """Requested inter-block gap does not fit inside the block length."""


class ConfigInvalid(RegimecltError):
    """Scenario configuration is malformed or semantically invalid (exit 1)."""


class BoundViolated(RegimecltError):
    """An empirical quantity exceeded its theoretical bound (exit 2)."""
