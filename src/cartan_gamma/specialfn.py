"""Arbitrary-precision numeric engine: Gamma, rational powers, and a suite
of exact trigonometric identities used as evaluator oracles.

All functions take an explicit :class:`PrecisionContext`.  Internally they
run mpmath at the requested precision plus a fixed number of guard digits,
so each primitive is accurate to far better than the context's guaranteed
bound of ``10**(10 - digits)`` relative error.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from mpmath import mp, mpf

from .errors import DomainError, PoleError, require_finite, require_int, require_rational, show_int
from .reports import VerificationReport

GUARD_DIGITS = 15
# One Gamma vector already takes minutes at this precision on mpmath's
# python backend, and far above it mpmath cannot allocate its numbers.
MAX_DIGITS = 10_000

Rational = Fraction | int


@dataclass(frozen=True)
class PrecisionContext:
    """Working precision in decimal digits (default 50, from 20 to MAX_DIGITS)."""

    digits: int = 50

    def __post_init__(self) -> None:
        require_int(self.digits, "precision")
        if not 20 <= self.digits <= MAX_DIGITS:
            raise DomainError(f"precision must be 20 to {MAX_DIGITS} digits, "
                              f"got {show_int(self.digits)}")

    @property
    def tolerance(self):
        """Guaranteed relative error bound of each primitive."""
        with self.working():
            return mpf(10) ** (10 - self.digits)

    def working(self):
        """Context manager running mpmath at digits + guard digits."""
        return mp.workdps(self.digits + GUARD_DIGITS)

    def to_mpf(self, x: Rational | str | float):
        with self.working():
            if isinstance(x, Fraction):
                return mpf(x.numerator) / x.denominator
            return mpf(x)


def gamma(x: Rational, ctx: PrecisionContext):
    """Gamma(x) for rational x in (0, 2)."""
    q = require_rational(x)
    if q.denominator == 1 and q <= 0:
        raise PoleError(f"gamma has a pole at {show_int(q)}")
    if not 0 < q < 2:
        raise DomainError(f"gamma argument must lie in (0, 2), got {show_int(q)}")
    with ctx.working():
        return mp.gamma(ctx.to_mpf(q))


def pow_rat(base, exponent: Rational, ctx: PrecisionContext):
    """Principal real power base**(p/q) for a finite base > 0."""
    e = require_rational(exponent)
    with ctx.working():
        if isinstance(base, (Fraction, int)):
            b = ctx.to_mpf(base)
        else:
            b = require_finite(base, "pow_rat base")
        if b <= 0:
            raise DomainError(f"pow_rat base must be positive, got {b}")
        return mp.exp(ctx.to_mpf(e) * mp.log(b))


def _sqrt(n: int):
    return mp.sqrt(mpf(n))


def _identity_suite() -> Sequence[tuple[str, Callable]]:
    """Each entry returns (lhs - rhs) for one exact trigonometric identity.

    Evaluated inside an active mpmath working context.
    """
    Q = Fraction

    def sp(q):
        return mp.sinpi(mpf(q.numerator) / q.denominator)

    def cp(q):
        return mp.cospi(mpf(q.numerator) / q.denominator)

    def triple_angle(q):
        # sin(3x) = sin(x)(4cos^2 x - 1) = sin(x)(3 - 4sin^2 x)
        a = sp(3 * q) - sp(q) * (4 * cp(q) ** 2 - 1)
        b = sp(3 * q) - sp(q) * (3 - 4 * sp(q) ** 2)
        return max(abs(a), abs(b))

    return (
        ("triple_angle_sin", lambda: max(triple_angle(q) for q in (Q(1, 30), Q(1, 9), Q(1, 7), Q(2, 15)))),
        ("cos_fifth", lambda: abs(cp(Q(1, 5)) - (1 + _sqrt(5)) / 4)),
        ("sec_fifth", lambda: abs(1 / cp(Q(1, 5)) - (_sqrt(5) - 1))),
        ("cos_two_fifths", lambda: abs(cp(Q(2, 5)) - (-1 + _sqrt(5)) / 4)),
        ("sin_fifth_squared", lambda: abs(sp(Q(1, 5)) ** 2 - (5 - _sqrt(5)) / 8)),
        ("sin_fifth_product", lambda: abs(sp(Q(1, 5)) * sp(Q(2, 5)) - _sqrt(5) / 4)),
        ("sin_two_fifths_ratio", lambda: abs(sp(Q(2, 5)) - (_sqrt(5) + 1) / 2 * sp(Q(1, 5)))),
        ("sin_tenths_ratio", lambda: abs(sp(Q(3, 10)) / sp(Q(1, 10)) - 4 * cp(Q(1, 5)) ** 2)),
        ("sin_fifteenths_product", lambda: abs(sp(Q(1, 15)) * sp(Q(4, 15)) - (_sqrt(5) - 1) / 8)),
        ("sin_2_15", lambda: abs(sp(Q(2, 15)) - (-sp(Q(1, 5)) / 2 + (1 + _sqrt(5)) / 4 * _sqrt(3) / 2))),
        ("sin_4_15", lambda: abs(sp(Q(4, 15)) - ((1 + _sqrt(5)) / 4 * sp(Q(1, 5)) + (-1 + _sqrt(5)) / 4 * _sqrt(3) / 2))),
        ("sin_8_15", lambda: abs(sp(Q(8, 15)) - (sp(Q(1, 5)) / 2 + (1 + _sqrt(5)) / 4 * _sqrt(3) / 2))),
        ("sin_1_15", lambda: abs(sp(Q(1, 15)) - ((1 + _sqrt(5)) / 4 * sp(Q(1, 5)) - (-1 + _sqrt(5)) / 4 * _sqrt(3) / 2))),
        ("sin_1_15_4_15_product", lambda: abs(sp(Q(1, 15)) * sp(Q(4, 15)) - (-1 + _sqrt(5)) / 8)),
        ("sin_2_15_8_15_product", lambda: abs(sp(Q(2, 15)) * sp(Q(8, 15)) - (1 + _sqrt(5)) / 8)),
        ("sin_7_30", lambda: abs(sp(Q(7, 30)) - ((1 - _sqrt(5)) / 8 + (1 + _sqrt(5)) * _sqrt(3) / 4 * sp(Q(1, 5))))),
        ("sin_11_30", lambda: abs(sp(Q(11, 30)) - ((1 + _sqrt(5)) / 8 + _sqrt(3) / 2 * sp(Q(1, 5))))),
        ("sin_7_30_13_30_product", lambda: max(
            abs(sp(Q(7, 30)) * sp(Q(13, 30)) - (3 + _sqrt(5)) / 8),
            abs(sp(Q(7, 30)) * sp(Q(13, 30)) - sp(Q(3, 10)) ** 2))),
        ("sin_15ths_30ths_crossproduct", lambda: abs(sp(Q(4, 15)) * sp(Q(8, 15)) - sp(Q(3, 10)) * sp(Q(11, 30)))),
        ("sin_ninths_product", lambda: abs(sp(Q(1, 9)) * sp(Q(2, 9)) * sp(Q(4, 9)) - _sqrt(3) / 8)),
    )


def trig_identities_suite(ctx: PrecisionContext) -> VerificationReport:
    """Evaluate both sides of every exact sine/cosine identity in the suite.

    These closed forms feed the root-system fixtures; the suite doubles as a
    cross-check of the trigonometric primitives at working precision.
    """
    labels = []
    residuals = []
    with ctx.working():
        for name, fn in _identity_suite():
            labels.append(name)
            residuals.append(fn())
    return VerificationReport(
        theorem="identities",
        system="trig",
        residuals=tuple(residuals),
        tolerance=ctx.tolerance,
        labels=tuple(labels),
    )
