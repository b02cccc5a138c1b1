"""Beta-type integrals: product closed forms against quadrature.

The n-dimensional real integral has a Gamma-product closed form; replacing
each Gamma by the ratio Gamma(x)/Gamma(1-x) and the interval by the plane
gives the complex variant with a factor pi per dimension.  Both are
cross-checked here by independent quadrature.
"""

from fractions import Fraction as Q

from mpmath import mp

from cartan_gamma import (PrecisionContext, SelbergParams, selberg_complex_closed,
                          selberg_complex_quadrature, selberg_real_closed,
                          selberg_real_quadrature)

ctx = PrecisionContext(50)

print("real case, n = 2 (folded onto x < y, inner integral a 2F1 in closed form):")
with ctx.working():
    for params in (SelbergParams(1, 1, 1, 2),
                   SelbergParams(Q(1, 2), Q(1, 2), Q(1, 2), 2),
                   SelbergParams(2, 3, 1, 2)):
        closed = selberg_real_closed(params, ctx)
        quadrature = selberg_real_quadrature(params, ctx)
        rel = abs(quadrature - closed) / closed
        print(f"   alpha={params.alpha} beta={params.beta} rho={params.rho}: "
              f"closed {mp.nstr(closed, 12)}, rel error {mp.nstr(rel, 3)}")
    print("   (the first one is the elementary double integral of (x-y)^2: 1/6)")

print()
print("complex case, n = 1 (angular part a 2F1, radial part Euler-transformed):")
with ctx.working():
    for params in (SelbergParams(Q(1, 3), Q(1, 3), 0, 1),
                   SelbergParams(Q(1, 4), Q(1, 2), 0, 1)):
        closed = selberg_complex_closed(params, ctx)
        quadrature = selberg_complex_quadrature(params, ctx)
        rel = abs(quadrature - closed) / closed
        print(f"   alpha={params.alpha} beta={params.beta}: "
              f"closed {mp.nstr(closed, 12)}, rel error {mp.nstr(rel, 3)}")
