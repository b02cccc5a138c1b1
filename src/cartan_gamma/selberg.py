"""Beta-type n-dimensional integrals: closed product forms and quadrature
oracles for cross-validation.

The real closed form is a Gamma product valid for all n; the desk-scale
quadrature oracle covers n in {1, 2} using tensor Gauss-Jacobi nodes whose
weights absorb every endpoint singularity (the square is folded onto the
triangle below the diagonal and rescaled, so the |x - y| factor also lands
on a Gauss-Jacobi endpoint).  The complex variant replaces each Gamma by
the reflection ratio Gamma(x)/Gamma(1-x) and carries a factor pi per
dimension; its oracle at n = 1 is one radial integral, the angular part
being a 2F1 in closed form.  No Gamma function enters either oracle.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from mpmath import mp, mpf
from scipy.special import roots_jacobi

from .errors import DomainError, QuadratureNotConverged
from .specialfn import PrecisionContext

Rational = Fraction | int


@dataclass(frozen=True)
class SelbergParams:
    """Exponent parameters (alpha, beta, rho) and dimension n.

    Real case requires alpha > 0, beta > 0, rho >= 0; the complex case at
    n = 1 additionally needs alpha, beta in (0,1) with alpha + beta < 1 so
    the integral converges at 0, 1 and infinity.
    """

    alpha: Rational
    beta: Rational
    rho: Rational
    n: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise DomainError(f"dimension must be >= 1, got {self.n}")

    def require_real_domain(self) -> None:
        if not (self.alpha > 0 and self.beta > 0 and self.rho >= 0):
            raise DomainError(f"outside the real convergence domain: {self}")

    def require_complex_domain(self) -> None:
        a, b = Fraction(self.alpha), Fraction(self.beta)
        if not (0 < a < 1 and 0 < b < 1 and a + b < 1):
            raise DomainError(f"outside the complex integrability domain: {self}")


def selberg_real_closed(params: SelbergParams, ctx: PrecisionContext):
    """Gamma-product closed form of the real integral, any n."""
    params.require_real_domain()
    a, b, r, n = (Fraction(params.alpha), Fraction(params.beta),
                  Fraction(params.rho), params.n)
    with ctx.working():
        total = mpf(0)
        for j in range(n):
            for arg, sign in (
                (1 + r + j * r, 1), (a + j * r, 1), (b + j * r, 1),
                (1 + r, -1), (a + b + (n + j - 1) * r, -1),
            ):
                total += sign * mp.loggamma(ctx.to_mpf(arg))
        return mp.exp(total)


def _jacobi_rule(m: int, exp_at_1: float, exp_at_0: float):
    """Nodes/weights on [0,1] for weight x**exp_at_0 * (1-x)**exp_at_1."""
    t, w = roots_jacobi(m, exp_at_1, exp_at_0)
    return (1 + t) / 2, w * 2.0 ** (-exp_at_0 - exp_at_1 - 1)


def _real_quadrature_value(a: float, b: float, r: float, n: int, m_outer: int) -> float:
    if n == 1:
        x, w = _jacobi_rule(max(m_outer, 4), b - 1, a - 1)
        return float(w.sum())
    # Fold [0,1]^2 onto {x < y}, substitute x = y*u: the u-rule absorbs
    # u**(a-1) (1-u)**(2r), the y-rule absorbs y**(2a+2r-1) (1-y)**(b-1),
    # and only the smooth factor (1 - y*u)**(b-1) is sampled.
    m_inner = max(240, 6 * m_outer)
    u, wu = _jacobi_rule(m_inner, 2 * r, a - 1)
    y, wy = _jacobi_rule(m_outer, b - 1, 2 * a + 2 * r - 1)
    inner = ((1 - np.outer(y, u)) ** (b - 1) * wu).sum(axis=1)
    return float(2 * (wy * inner).sum())


def selberg_real_quadrature(params: SelbergParams, ctx: PrecisionContext,
                            nodes: int = 160):
    """Quadrature oracle for n in {1, 2}; raises QuadratureNotConverged when
    doubling the node count moves the value by more than 1e-6 relatively."""
    params.require_real_domain()
    if params.n not in (1, 2):
        raise DomainError(f"quadrature oracle covers n in {{1, 2}}, got n={params.n}")
    a, b, r = (float(Fraction(v)) for v in (params.alpha, params.beta, params.rho))
    coarse = _real_quadrature_value(a, b, r, params.n, nodes)
    fine = _real_quadrature_value(a, b, r, params.n, 2 * nodes)
    if abs(fine - coarse) > 1e-6 * abs(fine):
        raise QuadratureNotConverged(
            f"node doubling moved the value by {abs(fine - coarse):.3e}")
    with ctx.working():
        return mpf(fine)


def _ratio_factors(params: SelbergParams) -> Counter:
    """Multiset of (argument, exponent) for the ratio product, with the
    repeated 1+rho factor cancelled exactly before evaluation."""
    a, b, r, n = (Fraction(params.alpha), Fraction(params.beta),
                  Fraction(params.rho), params.n)
    factors: Counter = Counter()
    for j in range(n):
        factors[1 + r + j * r] += 1
        factors[a + j * r] += 1
        factors[b + j * r] += 1
        factors[1 + r] -= 1
        factors[a + b + (n + j - 1) * r] -= 1
    return Counter({arg: e for arg, e in factors.items() if e})


def selberg_complex_closed(params: SelbergParams, ctx: PrecisionContext):
    """pi**n times the reflection-ratio product, any n.

    Each factor Gamma(x)/Gamma(1-x) is computed as Gamma(x)**2 sin(pi x)/pi,
    which is valid for every non-integer x of either sign.  Arguments at
    nonpositive integers are rejected (Gamma pole); at positive integers the
    ratio vanishes, which zeroes the product or, in a denominator, is
    rejected as well.
    """
    factors = _ratio_factors(params)
    vanishes = False
    for arg, e in factors.items():
        q = Fraction(arg)
        if q.denominator == 1:
            if q <= 0:
                raise DomainError(f"ratio factor has a pole at argument {q}")
            if e < 0:
                raise DomainError(f"ratio factor vanishes at argument {q} "
                                  "in the denominator")
            vanishes = True
    with ctx.working():
        if vanishes:
            return mpf(0)
        total = mp.pi ** params.n
        for arg, e in sorted(factors.items()):
            x = ctx.to_mpf(Fraction(arg))
            total *= (mp.gamma(x) ** 2 * mp.sinpi(x) / mp.pi) ** e
        return total


def selberg_complex_quadrature(params: SelbergParams, ctx: PrecisionContext):
    """Planar quadrature oracle at n = 1, as one radial integral.

    For r < 1 the angular integral of |1 - r e^{it}|^{2(beta-1)} over
    [0, 2 pi] is 2 pi 2F1(1-beta, 1-beta; 1; r**2), Parseval's identity on
    the binomial series of (1 - r e^{it})**(beta-1).  The fold z -> 1/z maps
    r > 1 onto s = 1/r with alpha replaced by 1 - alpha - beta, leaving
    2 pi int_0^1 (s^{2 alpha-1} + s^{1-2 alpha-2 beta}) 2F1(...; s**2) ds.
    No Gamma function enters, so the oracle is independent of the closed
    form.  Raises QuadratureNotConverged when the error estimate exceeds
    1e-5 of the value.
    """
    if params.n != 1:
        raise DomainError(f"complex quadrature oracle covers n = 1, got n={params.n}")
    params.require_complex_domain()
    with ctx.working():
        a = ctx.to_mpf(Fraction(params.alpha))
        b = ctx.to_mpf(Fraction(params.beta))
        head, tail = 2 * a - 1, 1 - 2 * a - 2 * b

        def radial(s):
            return (s ** head + s ** tail) * mp.hyp2f1(1 - b, 1 - b, 1, s * s)

        value, err = mp.quad(radial, [0, mpf(1) / 2, 1], error=True)
        if err > mpf("1e-5") * abs(value):
            raise QuadratureNotConverged(
                f"estimated quadrature error {2 * mp.pi * err} too large")
        return 2 * mp.pi * value


def real_parameter_grid() -> tuple[SelbergParams, ...]:
    """Default cross-validation grid for the real oracle (n <= 2)."""
    Q = Fraction
    return (
        SelbergParams(1, 1, 0, 1),
        SelbergParams(Q(1, 2), Q(1, 2), 0, 1),
        SelbergParams(Q(3, 4), Q(5, 2), 0, 1),
        SelbergParams(1, 1, 1, 2),
        SelbergParams(Q(1, 2), Q(1, 2), Q(1, 2), 2),
        SelbergParams(2, 3, 1, 2),
        SelbergParams(Q(3, 4), Q(1, 2), Q(3, 2), 2),
        SelbergParams(Q(3, 2), Q(5, 2), Q(1, 2), 2),
        SelbergParams(Q(1, 2), Q(3, 2), 2, 2),
        SelbergParams(1, Q(3, 4), Q(1, 4), 2),
    )


def complex_parameter_grid() -> tuple[SelbergParams, ...]:
    """Default cross-validation grid for the complex oracle (n = 1)."""
    Q = Fraction
    return (
        SelbergParams(Q(1, 3), Q(1, 3), 0, 1),
        SelbergParams(Q(1, 4), Q(1, 2), 0, 1),
        SelbergParams(Q(1, 2), Q(1, 4), 0, 1),
        SelbergParams(Q(1, 5), Q(3, 10), 0, 1),
        SelbergParams(Q(2, 5), Q(2, 5), 0, 1),
    )
