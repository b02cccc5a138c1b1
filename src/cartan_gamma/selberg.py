"""Beta-type n-dimensional integrals: closed product forms and quadrature
oracles for cross-validation.

The real closed form is a Gamma product valid for all n; the complex
variant replaces each Gamma by the reflection ratio Gamma(x)/Gamma(1-x) and
carries a factor pi per dimension.  Both oracles take Beta-weighted
integrals by substituting x = u**(1/p) near 0 and 1 - x = v**(1/q) near 1,
which absorbs the endpoint powers.  The real one at n = 2 folds the square
onto x < y, with Euler's integral for 2F1 inside; the planar one at n = 1
takes the angular part as a 2F1, and Euler's transformation makes the
radial part Beta-weighted; its two integrals share one table of 2F1
values.  Neither oracle evaluates the closed form's Gamma product;
mpmath's 2F1 uses its own connection formulas near 1.  cross_validate
runs a grid's oracles on one pool of forked processes, one per CPU, with
the same bits as a serial loop, and leaving the pool ends the processes.
"""

from __future__ import annotations

import os
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from mpmath import mp, mpf

from .errors import DomainError, QuadratureNotConverged, require_int, require_rational, show_int
from .specialfn import PrecisionContext, Rational


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
        for x in (self.alpha, self.beta, self.rho):
            require_rational(x)  # a float's binary value is not the rational meant
        require_int(self.n, "dimension", minimum=1)

    def require_real_domain(self) -> None:
        if not (self.alpha > 0 and self.beta > 0 and self.rho >= 0):
            raise DomainError(f"outside the real convergence domain: {show_int(self, repr)}")

    def require_complex_domain(self) -> None:
        a, b = Fraction(self.alpha), Fraction(self.beta)
        if not (0 < a < 1 and 0 < b < 1 and a + b < 1):
            raise DomainError(f"outside the complex integrability domain: {show_int(self, repr)}")


def _gamma_factors(params: SelbergParams):
    """(argument, +-1) of each Gamma factor of the closed forms, j-major."""
    a, b, r, n = (Fraction(params.alpha), Fraction(params.beta),
                  Fraction(params.rho), params.n)
    for j in range(n):
        yield 1 + r + j * r, 1
        yield a + j * r, 1
        yield b + j * r, 1
        yield 1 + r, -1
        yield a + b + (n + j - 1) * r, -1


def selberg_real_closed(params: SelbergParams, ctx: PrecisionContext):
    """Gamma-product closed form of the real integral, any n."""
    params.require_real_domain()
    with ctx.working():
        total = mpf(0)
        for arg, sign in _gamma_factors(params):
            total += sign * mp.loggamma(ctx.to_mpf(arg))
        return mp.exp(total)


def _jacobi_weighted(p, q, g=lambda x: 1):
    """int_0^1 x**(p-1) (1-x)**(q-1) g(x) dx and its error estimate: x = u**(1/p)
    on [0, 1/2] and 1 - x = v**(1/q) on [1/2, 1] absorb both endpoint powers.
    1/p, q-1 and p-1 stay inside the integrands: mp.quad raises the working
    precision while it evaluates them."""
    def head_integrand(u):
        x = u ** (1 / p)
        return (1 - x) ** (q - 1) * g(x)

    def tail_integrand(v):
        y = v ** (1 / q)
        # 1 - y exactly: once y falls below the working epsilon, a rounded
        # complement would drop g's branch term (1-x)**s at x = 1.
        with mp.extraprec(max(0, -mp.mag(y)) + 10):
            c = 1 - y
        return c ** (p - 1) * g(c)

    head, e_head = mp.quad(head_integrand, [0, 2 ** -p], error=True)
    tail, e_tail = mp.quad(tail_integrand, [0, 2 ** -q], error=True)
    return head / p + tail / q, e_head / p + e_tail / q


def _converged(value, err, ctx: PrecisionContext):
    """The value, unless the error estimate exceeds ctx.tolerance of it."""
    if err > ctx.tolerance * abs(value):
        raise QuadratureNotConverged(f"estimated quadrature error {err} too large")
    return value


def selberg_real_quadrature(params: SelbergParams, ctx: PrecisionContext):
    """Quadrature oracle for n in {1, 2}, both Beta-weighted integrals taken
    by _jacobi_weighted's endpoint substitutions.  n = 1 is B(a, b).  At
    n = 2 the square folds onto x = y*u < y and Euler's integral does the
    u-integral: 2 B(a, 2r+1) int_0^1 y**(2a+2r-1) (1-y)**(b-1)
    2F1(1-b, a; a+2r+1; y) dy.  Raises QuadratureNotConverged when the
    propagated error estimate exceeds ctx.tolerance of the value."""
    params.require_real_domain()
    if params.n not in (1, 2):
        raise DomainError(f"quadrature oracle covers n in {{1, 2}}, got n={show_int(params.n)}")
    with ctx.working():
        a, b, r = (ctx.to_mpf(Fraction(v)) for v in (params.alpha, params.beta, params.rho))
        if params.n == 1:
            value, err = _jacobi_weighted(a, b)
        else:
            beta, e_beta = _jacobi_weighted(a, 2 * r + 1)
            outer, e_outer = _jacobi_weighted(
                2 * a + 2 * r, b, lambda y: mp.hyp2f1(1 - b, a, a + 2 * r + 1, y))
            value, err = 2 * beta * outer, 2 * (e_beta * abs(outer) + e_outer * abs(beta))
        return _converged(value, err, ctx)


def _ratio_factors(params: SelbergParams) -> Counter:
    """Multiset of (argument, exponent) for the ratio product, with the
    repeated 1+rho factor cancelled exactly before evaluation."""
    factors: Counter = Counter()
    for arg, sign in _gamma_factors(params):
        factors[arg] += sign
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
                raise DomainError(f"ratio factor has a pole at argument {show_int(q)}")
            if e < 0:
                raise DomainError(f"ratio factor vanishes at argument {show_int(q)} "
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
    """Planar quadrature oracle at n = 1, as two Beta-weighted integrals.

    For r < 1 the angular integral of |1 - r e^{it}|^{2(beta-1)} over
    [0, 2 pi] is 2 pi 2F1(1-beta, 1-beta; 1; r**2), Parseval's identity on
    the binomial series of (1 - r e^{it})**(beta-1).  The fold z -> 1/z maps
    r > 1 onto r < 1 with alpha replaced by 1 - alpha - beta, and t = r**2
    leaves pi int_0^1 (t^{alpha-1} + t^{-alpha-beta}) 2F1(...; t) dt.
    Euler's transformation 2F1(1-beta, 1-beta; 1; t) =
    (1-t)**(2 beta-1) 2F1(beta, beta; 1; t) (DLMF 15.8.1) makes each term a
    Beta-weighted integral.  Both integrals take their tails over the same
    nodes, so they share one table of 2F1 values, keyed on the node and the
    working precision mp.quad sets.  Raises QuadratureNotConverged when the
    error estimate exceeds ctx.tolerance of the value.
    """
    if params.n != 1:
        raise DomainError(f"complex quadrature oracle covers n = 1, got n={show_int(params.n)}")
    params.require_complex_domain()
    with ctx.working():
        a = ctx.to_mpf(Fraction(params.alpha))
        b = ctx.to_mpf(Fraction(params.beta))
        table = {}

        def hyp(t):
            key = (t, mp.prec)
            if key not in table:
                table[key] = mp.hyp2f1(b, b, 1, t)
            return table[key]

        (head, e_head), (tail, e_tail) = (_jacobi_weighted(p, 2 * b, hyp)
                                          for p in (a, 1 - a - b))
        return mp.pi * _converged(head + tail, e_head + e_tail, ctx)


def cross_validate(real_grid, complex_grid, ctx: PrecisionContext):
    """Quadrature oracle values of the real and of the complex grid, each
    list in grid order.  The points are independent, so they run on a pool
    of forked processes, one per usable CPU; with one CPU, or without
    ``fork``, they run in this process.  The complex points are queued
    first, as each costs two to four real ones.  Pickling keeps every mpf
    bit for bit, and an oracle's CartanGammaError is raised again here.
    The workers ignore SIGINT, so Ctrl-C is answered here alone: leaving
    the pool, with the results or any exception, terminates it."""
    import multiprocessing
    import signal

    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    workers = min(len(real_grid) + len(complex_grid), cpus)
    if workers <= 1 or "fork" not in multiprocessing.get_all_start_methods():
        complex_values = [selberg_complex_quadrature(p, ctx) for p in complex_grid]
        return [selberg_real_quadrature(p, ctx) for p in real_grid], complex_values
    with multiprocessing.get_context("fork").Pool(
            workers, signal.signal, (signal.SIGINT, signal.SIG_IGN)) as pool:
        complex_values = pool.starmap_async(
            selberg_complex_quadrature, [(p, ctx) for p in complex_grid], chunksize=1)
        real_values = pool.starmap_async(
            selberg_real_quadrature, [(p, ctx) for p in real_grid], chunksize=1)
        return real_values.get(), complex_values.get()


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
