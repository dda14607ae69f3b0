"""Exception types shared across the package.

Every raisable condition gets its own class so callers (and the CLI) can
map failures onto exit codes without string matching.  Two broad families:

* invalid input / parameter domain  -> ``CoxlabInputError`` subclasses
* numerical failure at runtime      -> ``CoxlabNumericalError`` subclasses
"""

from __future__ import annotations

import math
import numbers


class CoxlabError(Exception):
    """Base class for all package-specific errors."""


class CoxlabInputError(CoxlabError, ValueError):
    """Invalid input: bad parameter ranges, malformed configuration."""


class CoxlabNumericalError(CoxlabError, ArithmeticError):
    """A numerical procedure failed to meet its accuracy contract."""


# --- input-side conditions -------------------------------------------------

class DomainError(CoxlabInputError):
    """Coordinate lies outside the chart where the expression is defined."""


class InvalidEta(CoxlabInputError):
    """Structure parameter eta = Gamma*B out of the admissible range |eta| < 1."""


class ParameterError(CoxlabInputError):
    """Parameter combination outside the validity of the requested formula."""


class ConfigError(CoxlabInputError):
    """Malformed or contradictory run configuration."""


def require_finite(**named: float) -> None:
    """Raise ParameterError naming the first value that is not finite."""
    for name, value in named.items():
        if not math.isfinite(value):
            raise ParameterError(f"{name} must be finite, got {value}")


def require_int(name: str, value) -> None:
    """Raise ParameterError unless value is an integer (numpy integers count)."""
    if type(value) is not int and not isinstance(value, numbers.Integral):
        raise ParameterError(f"{name} must be an integer, got {value!r}")


# --- numerical-side conditions ---------------------------------------------

class SingularLambda(CoxlabNumericalError):
    """The dressed mass matrix is (numerically) non-invertible."""


class PoleError(CoxlabNumericalError):
    """Evaluation at (or too near) a pole of the underlying function."""


class NonConvergence(CoxlabNumericalError):
    """A series or iteration failed to converge within its term budget."""


class GridTooCoarse(CoxlabNumericalError):
    """Richardson check between successive grids exceeds the tolerance."""


class CutoffTooSmall(CoxlabNumericalError):
    """Eigenfunction mass at the domain cutoff exceeds the confinement bound."""


class StepFailure(CoxlabNumericalError):
    """Local error estimate of an integration step exceeded the tolerance."""
