"""Exception types shared across the package."""

from __future__ import annotations


class GraphhomError(Exception):
    """Base class for all errors raised by this package."""


class InvalidDiagram(GraphhomError):
    """A diagram failed structural validation.

    Carries the full list of violations so callers can report
    every problem at once instead of the first one found.
    """

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class TagMismatch(GraphhomError):
    """Arithmetic attempted between polynomials over different variables."""


class PatternMismatch(GraphhomError):
    """A move site does not match the local pattern it claims to rewrite."""


class CapExceeded(GraphhomError):
    """A size or memory guard tripped before the computation started.

    ``detail`` holds whatever partial information is cheap to report
    (assignment counts, generator estimates) so the caller can decide
    whether to retry with a larger cap.
    """

    def __init__(self, message, detail=None):
        self.detail = detail
        super().__init__(message)


class RoutingFailure(GraphhomError):
    """A link diagram gave no braid, hence no grid or Conway polynomial.

    Either braid extraction through the Seifert circles failed, or the
    extracted braid closure has a different oriented Jones or Alexander
    polynomial from the piece it came from.  Validation refuses
    non-planar input before this point, so the error marks a fault in
    the conversion, not bad input or a size problem.
    """


class DeconvolutionError(GraphhomError):
    """Exact division of a Poincare polynomial failed.

    The stabilization count says the quotient must exist with
    nonnegative coefficients, so a failure here is a hard error,
    never something to smooth over.
    """
