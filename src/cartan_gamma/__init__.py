"""Exact root-system combinatorics, arbitrary-precision Gamma products,
and machine verification of their eigenvector, mass, algebraicity,
character-sum, and integral-formula properties."""

from .errors import (CartanGammaError, DomainError, InvalidRank, NoConvergence,
                     NotARoot, NotAUnit, NotInC, PoleError, QuadratureNotConverged,
                     SearchExhausted)
from .gammawords import (GammaWord, MembershipVerdict, classify, evaluate,
                         evaluate_gamma_ratio, evaluate_sine_product, n_of,
                         pairing_height_sum, tilde, u_act, units,
                         word_of_root_system)
from .jacobi import (PrimeSite, find_site, gauss_sum, hecke_value, jacobi_sum,
                     psi_exponent, psi_order, recognize_cyclotomic,
                     recognize_root_of_unity, word_at_site)
from .reports import VerificationReport, decimal_string
from .rootkit import (RootSystem, RootSystemLabel, affine_cartan_matrix,
                      build_root_system, coroot_pairing, height,
                      simple_coroot_pairing)
from .selberg import (SelbergParams, complex_parameter_grid, cross_validate,
                      real_parameter_grid, selberg_complex_closed,
                      selberg_complex_quadrature, selberg_real_closed,
                      selberg_real_quadrature)
from .specialfn import (PrecisionContext, gamma, gamma_tilde, pow_rat,
                        trig_identities_suite)
from .spectra import (EigenResult, affine_gamma_vector, gamma_ratio_profile,
                      gamma_vector, lambda_min, mark_power_product,
                      mass_vector_closed_form, pf_power_iteration,
                      verify_affine_masses, verify_membership, verify_pairing_sums,
                      verify_pf_eigenvector)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
