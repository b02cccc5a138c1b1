"""Exception hierarchy shared by every subsystem, and the argument checks
that raise it."""

from fractions import Fraction

from mpmath import mp, mpf


class CartanGammaError(Exception):
    """Base class for all errors raised by this package."""


class InvalidRank(CartanGammaError):
    """Rank outside the admissible range for the requested family."""


class NotARoot(CartanGammaError):
    """Coefficient vector is not a root of the given system."""


class PoleError(CartanGammaError):
    """Gamma evaluated at a nonpositive integer."""


class DomainError(CartanGammaError):
    """Argument outside the contractual domain of an operation."""


class NotAUnit(CartanGammaError):
    """Residue is not invertible modulo the word's modulus."""


class NotInC(CartanGammaError):
    """Word fails the integrality/unit-invariance membership test."""


class SearchExhausted(CartanGammaError):
    """Prime-site search hit its cap without finding a match."""


class NoConvergence(CartanGammaError):
    """Iteration failed to converge within the configured budget."""


class QuadratureNotConverged(CartanGammaError):
    """Successive quadrature refinements disagree beyond tolerance."""


def require_int(value, what: str, error: type = DomainError,
                minimum: int | None = None) -> None:
    """Raise ``error`` unless value is an int (a bool is not one) of at
    least ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise error(f"{what} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise error(f"{what} must be >= {minimum}, got {value}")


def require_rational(value) -> Fraction:
    """value as a Fraction; DomainError unless it is an int (a bool is not
    one) or a Fraction."""
    if isinstance(value, bool) or not isinstance(value, (int, Fraction)):
        raise DomainError(f"expected a rational (int or Fraction), got {value!r}")
    return Fraction(value)


def require_finite(value, what: str, convert=mpf):
    """convert(value) at the current precision; DomainError unless it is a
    finite number."""
    try:
        x = convert(value)
    except (TypeError, ValueError):
        raise DomainError(f"{what} must be a finite number, got {value!r}") from None
    if not mp.isfinite(x):
        raise DomainError(f"{what} must be a finite number, got the non-finite value {x}")
    return x


def require_tolerance(value):
    """A tol as an mpf at the current precision; DomainError unless it is a
    finite positive number."""
    try:
        tol = mpf(value)
    except (TypeError, ValueError):
        tol = mp.nan
    if not (mp.isfinite(tol) and tol > 0):
        raise DomainError(f"tol must be finite and positive, got {value!r}")
    return tol
