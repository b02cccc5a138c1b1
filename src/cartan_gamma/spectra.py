"""Perron-Frobenius machinery and the main verifiers.

Three independent routes to the same positive vector are cross-checked:

* power iteration on the exact, entrywise-positive inverse Cartan matrix,
* the classical closed-form mass vectors: closed forms on A, D and E,
  folded types through ``rootkit.cover``,
* the Gamma-product vector evaluated from the exponent words.

The affine verifier compares the reflection-ratio vector against the
comarks rescaled by the mark-power product k(R)**(-1/h).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction as Q
from functools import lru_cache

from mpmath import mp, mpf

from .errors import DomainError, NoConvergence, require_tolerance, show_int
from .gammawords import (classify, evaluate, evaluate_gamma_ratio,
                         evaluate_sine_product, pairing_height_sum, tilde,
                         word_of_root_system)
from .reports import VerificationReport
from .rootkit import RootSystem, RootSystemLabel, build_root_system, cover
from .specialfn import PrecisionContext, pow_rat

MAX_ITERATIONS = 200_000  # pf_power_iteration's steps before NoConvergence


def lambda_min(rs: RootSystem, ctx: PrecisionContext):
    """Smallest Cartan eigenvalue, 4*sin(pi/2h)**2."""
    with ctx.working():
        return 4 * mp.sinpi(mpf(1) / (2 * rs.h)) ** 2


@dataclass(frozen=True)
class EigenResult:
    """Positive eigen-pair of a Cartan matrix, last coordinate scaled to 1."""

    eigenvalue: object
    vector: tuple
    iterations: int
    residual: object


def _positive_inverse(cartan) -> list[list[Q]]:
    """Exact inverse of a Cartan matrix by fraction-free Gauss-Jordan
    elimination (Bareiss, Math. Comp. 22, 1968) of the integer matrix [A | I].

    Every division by the previous pivot is exact, and [A | I] ends as
    [d I | d A^-1], d = +-det A.  Input that is not a nonempty square int
    matrix, a singular A, or a non-positive inverse raises DomainError.
    """
    n = len(cartan) if isinstance(cartan, Sequence) else 0
    if not n or not all(isinstance(row, Sequence) and len(row) == n
                        and all(isinstance(a, int) for a in row) for row in cartan):
        raise DomainError(f"{show_int(cartan)} is not a nonempty square integer matrix")
    m = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(cartan)]
    d = 1
    for k in range(n):
        pivot = next((i for i in range(k, n) if m[i][k]), None)
        if pivot is None:
            raise DomainError(f"Cartan matrix {show_int(cartan)} is singular")
        m[k], m[pivot] = m[pivot], m[k]
        top = m[k]
        m = [row if i == k else [(top[k] * a - row[k] * b) // d for a, b in zip(row, top)]
             for i, row in enumerate(m)]
        d = top[k]
    inverse = [[Q(a, d) for a in row[n:]] for row in m]
    if not all(q > 0 for row in inverse for q in row):
        raise DomainError(f"inverse of {show_int(cartan)} is not entrywise positive, "
                          f"so it is not the Cartan matrix of a finite "
                          f"irreducible type")
    return inverse


def pf_power_iteration(cartan, ctx: PrecisionContext, tol=None) -> EigenResult:
    """Strictly positive eigenvector of an irreducible finite-type Cartan
    matrix, for its smallest eigenvalue.

    Iterates the exact inverse A^-1 from the all-ones vector.  For a finite
    irreducible type every entry of A^-1 is a positive rational (Lusztig and
    Tits, "The inverse of a Cartan matrix", 1992), and that is checked
    exactly before any floating point.  By Perron's theorem a positive
    matrix has a simple dominant eigenvalue, here 1/lambda_min, with a
    positive eigenvector unique up to scale and no other eigenvalue of equal
    modulus; so the iteration converges to that vector, at the rate
    lambda_min/lambda_2, and the check certifies its uniqueness.  The
    paper's A' = I - A/2 is not iterated: its Dynkin diagram is a tree, so
    D A' D = -A' for D = +-1 on the two colour classes, and -lambda_max(A')
    is an eigenvalue of A' too, which power iteration on A' never separates.
    Non-integer, singular, reducible and indefinite matrices raise
    DomainError, as does a tol that is not a finite positive number.  After
    the successive-iterate test passes, iteration continues until the
    geometric error estimate drops below tol, so the returned vector is
    accurate to tol, not merely Cauchy at tol.
    """
    inverse = _positive_inverse(cartan)
    with ctx.working():
        tol = mpf(10) ** (5 - ctx.digits) if tol is None else require_tolerance(tol)
        inverse = [[mpf(q.numerator) / q.denominator for q in row] for row in inverse]
        v = [mpf(1)] * len(cartan)
        diff = mpf(1)
        for iterations in range(1, MAX_ITERATIONS + 1):
            # fdot rounds each exact dot product once, so mirror-image rows
            # give bit-identical coordinates.
            w = [mp.fdot(row, v) for row in inverse]
            w = [wi / w[-1] for wi in w]
            prev_diff, diff = diff, max(abs(a - b) for a, b in zip(w, v))
            v = w
            # Error behind the Cauchy increment is ~ diff * ratio/(1-ratio),
            # ratio = diff/prev_diff; multiplied out, a ratio >= 1 never stops.
            if diff < tol and diff ** 2 < (prev_diff - diff) * tol / 2:
                break
        else:
            raise NoConvergence(f"power iteration did not reach {tol} "
                                f"in {MAX_ITERATIONS} iterations")

        av = [mp.fdot(row, v) for row in cartan]
        lam = av[-1]
        residual = max(abs(ai - lam * vi) for ai, vi in zip(av, v))
        return EigenResult(eigenvalue=lam, vector=tuple(v),
                           iterations=iterations, residual=residual)


@lru_cache(maxsize=None)
def _closed_forms(label: RootSystemLabel, ctx: PrecisionContext) -> tuple:
    """Masses, constant c and profile, with pi * (Gamma vector) = c * profile:
    the closed forms of the cover, read on the type's nodes."""
    (fam, n), nodes = cover(label)
    with ctx.working():
        def sp(num, den):
            return mp.sinpi(mpf(num) / den)

        def cp(num, den):
            return mp.cospi(mpf(num) / den)

        s3 = mp.sqrt(3)
        if label.family == "G":  # D4's rows differ from G2's in the last bit at some digits
            return (mpf(1), s3), pow_rat(2, Q(-2, 3), ctx), (mpf(1), s3)
        if fam == "A":
            v, c = [sp(a, n + 1) for a in range(1, n + 1)], mpf(1)
        elif fam == "D":
            v = [2 * sp(a, 2 * n - 2) for a in range(1, n - 1)] + [mpf(1), mpf(1)]
            c = pow_rat(2, Q(1, n - 1), ctx)
        elif n == 6:  # E6
            v = [mpf(1), mp.sqrt(2), (s3 + 1) / mp.sqrt(2), s3 + 1,
                 (s3 + 1) / mp.sqrt(2), mpf(1)]
            c = (pow_rat(2, Q(-5, 4), ctx) * pow_rat(3, Q(1, 8), ctx)
                 * pow_rat(s3 - 1, Q(1, 2), ctx))
        elif n == 7:  # E7
            v = [2 * cp(5, 18), 2 * cp(1, 9), 4 * cp(1, 18) * cp(5, 18),
                 4 * cp(1, 18) * cp(1, 9), 4 * cp(1, 9) * cp(2, 9),
                 2 * cp(1, 18), mpf(1)]
            c = pow_rat(2, Q(1, 9), ctx) * pow_rat(3, Q(-1, 6), ctx) * sp(1, 9)
        else:  # E8
            v = [2 * cp(1, 5), 4 * cp(1, 5) * cp(7, 30), 4 * cp(1, 5) * cp(1, 30),
                 8 * cp(1, 5) ** 2 * cp(2, 15), 8 * cp(1, 5) ** 2 * cp(7, 30),
                 4 * cp(1, 5) * cp(2, 15), 2 * cp(1, 30), mpf(1)]
            # No standalone closed form is quoted for E8's constant; derive it
            # from the square identity Gamma(f)^2 = (sine product) * (ratio
            # product) with the exact ratio value 2**(2/15) 3**(-2/5) 5**(-1/6)
            # at the terminal node.  Both factors are algebraic, so c is too.
            f_last = word_of_root_system(build_root_system(RootSystemLabel("E", 8)), 8)
            ratio = (pow_rat(2, Q(2, 15), ctx) * pow_rat(3, Q(-2, 5), ctx)
                     * pow_rat(5, Q(-1, 6), ctx))
            c = mp.sqrt(mp.pi ** 2 * evaluate_sine_product(f_last, ctx) * ratio)
        masses = tuple(v[k] for k in nodes)
        return masses, c, tuple(m / 2 for m in masses) if fam == "D" else masses


def mass_vector_closed_form(rs: RootSystem, ctx: PrecisionContext) -> tuple:
    """Classical closed-form positive eigenvector, in plate node order; B and
    D carry a factor 2 on the sine coordinates and 1 on the terminal node(s)."""
    return _closed_forms(rs.label, ctx)[0]


def gamma_ratio_profile(rs: RootSystem, ctx: PrecisionContext):
    """Exact algebraic constant c and profile with pi * (Gamma vector) =
    c * profile.  B and D halve the masses, so c is twice pi*Gamma_i/mass_i."""
    return _closed_forms(rs.label, ctx)[1:]


@lru_cache(maxsize=None)
def gamma_vector(rs: RootSystem, ctx: PrecisionContext) -> tuple:
    """Gamma-product value of every simple index's exponent word."""
    return tuple(evaluate(word_of_root_system(rs, i), ctx)
                 for i in range(1, rs.rank + 1))


def mark_power_product(rs: RootSystem) -> int:
    """k(R): product over finite nodes of comark**mark, an exact integer."""
    out = 1
    for mark, comark in zip(rs.marks[1:], rs.comarks[1:]):
        out *= comark ** mark
    return out


def affine_gamma_vector(rs: RootSystem, ctx: PrecisionContext) -> tuple:
    """Reflection-ratio vector over all r+1 affine nodes.

    Finite entries are ratio products of the exponent words; the affine
    entry is the product of the finite entries raised to minus the marks
    (the affine root is minus the mark-weighted sum of the simple ones).
    """
    with ctx.working():
        finite = [evaluate_gamma_ratio(word_of_root_system(rs, i), ctx)
                  for i in range(1, rs.rank + 1)]
        log0 = -sum(rs.marks[i] * mp.log(v) for i, v in enumerate(finite, start=1))
        return (mp.exp(log0),) + tuple(finite)


def verify_pf_eigenvector(rs: RootSystem, ctx: PrecisionContext, tol) -> VerificationReport:
    """Check that the Gamma vector is the positive Cartan eigenvector.

    Residuals: (a) row-wise eigen-equation at the closed-form eigenvalue,
    (b) ratio spread against the closed-form masses, (c) the exact
    algebraic constant in pi * Gamma_i = c * profile_i.
    """
    with ctx.working():
        tol = require_tolerance(tol)
        g = gamma_vector(rs, ctx)
        lam = lambda_min(rs, ctx)
        labels = []
        residuals = []
        for i, row in enumerate(rs.cartan):
            av = sum(mpf(c) * g[j] for j, c in enumerate(row) if c)
            labels.append(f"eigen_row_{i + 1}")
            residuals.append(abs(av - lam * g[i]))
        masses, constant, profile = _closed_forms(rs.label, ctx)
        base = g[-1] / masses[-1]
        for i in range(rs.rank - 1):
            labels.append(f"ratio_node_{i + 1}")
            residuals.append(abs(g[i] / masses[i] - base))
        for i in range(rs.rank):
            labels.append(f"constant_node_{i + 1}")
            residuals.append(abs(mp.pi * g[i] - constant * profile[i]))
    return VerificationReport(theorem="1.1", system=str(rs.label),
                              residuals=tuple(residuals), tolerance=tol,
                              labels=tuple(labels))


def affine_theorem(label: RootSystemLabel) -> str:
    """Theorem that covers the affine masses of a type: 1.2 for a simply
    laced type, which is its own cover, 1.3 for the others."""
    return "1.2" if cover(label)[0] == (label.family, label.rank) else "1.3"


def verify_affine_masses(rs: RootSystem, ctx: PrecisionContext, tol) -> VerificationReport:
    """Check the affine ratio vector against k(R)**(-1/h) times the comarks."""
    with ctx.working():
        tol = require_tolerance(tol)
        vec = affine_gamma_vector(rs, ctx)
        scale = pow_rat(mark_power_product(rs), Q(-1, rs.h), ctx)
        residuals = tuple(abs(v - scale * c) for v, c in zip(vec, rs.comarks))
        labels = tuple(f"node_{i}" for i in range(rs.rank + 1))
    return VerificationReport(theorem=affine_theorem(rs.label), system=str(rs.label),
                              residuals=residuals, tolerance=tol, labels=labels)


def verify_membership(rs: RootSystem, tol) -> VerificationReport:
    """Exact check that every exponent word lands in the k = -1 class and
    every antisymmetrization in the k = 0 class.

    Residuals are 0 on success and 1 on failure; this check involves no
    floating point at all.
    """
    tol = require_tolerance(tol)
    labels = []
    residuals = []
    for i in range(1, rs.rank + 1):
        w = word_of_root_system(rs, i)
        v = classify(w)
        vt = classify(tilde(w))
        labels.append(f"word_{i}")
        residuals.append(mpf(0) if (v.in_C and v.k == -1) else mpf(1))
        labels.append(f"tilde_{i}")
        residuals.append(mpf(0) if (vt.in_C and vt.k == 0) else mpf(1))
    return VerificationReport(theorem="4.2", system=str(rs.label),
                              residuals=tuple(residuals), tolerance=tol,
                              labels=tuple(labels))


def verify_pairing_sums(rs: RootSystem, tol) -> VerificationReport:
    """Exact check that the height-weighted coroot-pairing sum equals the
    Coxeter number at every simple index."""
    tol = require_tolerance(tol)
    labels = tuple(f"index_{i}" for i in range(1, rs.rank + 1))
    residuals = tuple(mpf(abs(pairing_height_sum(rs, i) - rs.h))
                      for i in range(1, rs.rank + 1))
    return VerificationReport(theorem="4.4", system=str(rs.label),
                              residuals=residuals, tolerance=tol,
                              labels=labels)
