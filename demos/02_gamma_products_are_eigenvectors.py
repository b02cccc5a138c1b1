"""Three routes to one positive vector.

The vector of Gamma products attached to a root system, the closed-form
mass vector, and power iteration on the inverse Cartan matrix (every entry
of which is positive) all give the same positive eigenvector with
eigenvalue 4 sin^2(pi/2h).
"""

from mpmath import mp

from cartan_gamma import (PrecisionContext, RootSystemLabel, build_root_system,
                          gamma_vector, lambda_min, mass_vector_closed_form,
                          pf_power_iteration)

ctx = PrecisionContext(50)

for text in ("A5", "B4", "E8", "G2"):
    rs = build_root_system(RootSystemLabel.parse(text))
    with ctx.working():
        g = gamma_vector(rs, ctx)
        masses = mass_vector_closed_form(rs, ctx)
        result = pf_power_iteration(rs.cartan, ctx)
        lam = lambda_min(rs, ctx)

        print(f"{rs.label}:  lambda_min = {mp.nstr(lam, 20)}")
        print(f"   power iteration found it in {result.iterations} steps, "
              f"eigenvalue error {mp.nstr(abs(result.eigenvalue - lam), 3)}")
        spread = max(abs(g[i] / masses[i] - g[-1] / masses[-1])
                     for i in range(rs.rank))
        print(f"   Gamma vector is collinear with the masses: "
              f"ratio spread {mp.nstr(spread, 3)}")
        iteration_dev = max(abs(v - m / masses[-1])
                            for v, m in zip(result.vector, masses))
        print(f"   iteration vector matches the closed form to "
              f"{mp.nstr(iteration_dev, 3)}")
        print(f"   masses: {[mp.nstr(m, 10) for m in masses]}")
    print()
