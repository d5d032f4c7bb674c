"""Exception types shared across the package."""


class MorreyCircleError(ValueError):
    """Base class for all validation errors raised by this package."""


# --- step function construction ---

class LengthMismatch(MorreyCircleError):
    pass


class UnsortedBreakpoints(MorreyCircleError):
    pass


class AngleOutOfRange(MorreyCircleError):
    pass


class NonFiniteNumber(MorreyCircleError):
    """A breakpoint, value or length that is not a finite number."""


# --- arcs and ratios ---

class ZeroMeasureArc(MorreyCircleError):
    pass


# --- parameter bundles ---

class POutOfRange(MorreyCircleError):
    pass


class LambdaOutOfRange(MorreyCircleError):
    pass


class EpsOutOfRange(MorreyCircleError):
    pass


class TolOutOfRange(MorreyCircleError):
    pass


# --- counterexample construction ---

class NTooSmall(MorreyCircleError):
    pass


class OverlapDetected(MorreyCircleError):
    pass


class TOutOfRange(MorreyCircleError):
    pass


class YOutOfRange(MorreyCircleError):
    pass


class ArcOutsideDomain(MorreyCircleError):
    pass


class IndexOutOfRange(MorreyCircleError):
    pass


class ToleranceUnreachable(MorreyCircleError):
    pass


class RefinementOutOfRange(MorreyCircleError):
    pass
