"""Finite-field shadows of the Gamma products.

At a prime p = 1 (mod h), each exponent word turns into a product of
character sums.  For the words coming from root systems the normalized
value has unit modulus, does not depend on the additive character, and is
an actual root of unity zeta_2h^m in the h-th cyclotomic field: m comes
from integers mod p by Stickelberger's congruence, its coordinates over
the power basis are exact integers, and the numeric value confirms both
to every digit of the working precision.

A site is PrimeSite(N, p); its primitive root is derived from p.  The
character sums are returned as plain complex numbers.
"""

from mpmath import mp

from cartan_gamma import (PrecisionContext, PrimeSite, RootSystemLabel,
                          build_root_system, find_site, gauss_sum, hecke_value,
                          root_of_unity_coordinates, word_at_site, word_of_root_system)

ctx = PrecisionContext(50)
e6 = build_root_system(RootSystemLabel.parse("E6"))
site = find_site(e6.h)
print(f"site: N = {site.modulus}, p = {site.p}, primitive root {site.generator}")

with ctx.working():
    print("single character sums have magnitude sqrt(p):")
    for j in (1, 5, 7):
        g = gauss_sum(j, site, ctx)
        print(f"   |g({j}/12)|^2 - 13 = {mp.nstr(abs(g)**2 - 13, 3)}")
    other = PrimeSite(12, 73)
    g = gauss_sum(1, other, ctx)
    print(f"   at p = 73 (primitive root {other.generator}): "
          f"|g(1/12)|^2 - 73 = {mp.nstr(abs(g)**2 - 73, 3)}")

    print()
    print("normalized word sums at the words of E6:")
    for i in range(1, 7):
        w = word_of_root_system(e6, i)
        j, psi, m, order = word_at_site(w, site, ctx)
        coeffs = root_of_unity_coordinates(m, 12)
        print(f"   f(E6,{i}): |J| = {mp.nstr(abs(j), 10)} (= 1/p), "
              f"psi = {mp.nstr(psi, 8)}")
        print(f"      root of unity zeta_24^{m} of order {order}; "
              f"coordinates over the power basis: {list(coeffs)}")

    print()
    w = word_of_root_system(e6, 4)
    a = hecke_value(w, site, ctx)
    b = hecke_value(w, site, ctx, additive_scale=3)
    print(f"changing the additive character moves psi by {mp.nstr(abs(a - b), 3)}")
