"""Acceptance suite: every exit criterion at its stated tolerance.

Each test appends (and prints) one pass/fail line; tolerances are pinned
here and never derived from the code under test.
"""

import random
import time
from fractions import Fraction as Q

from mpmath import mp, mpf

import cartan_gamma as cg
import conftest
from cartan_gamma.cli import default_battery

CTX = cg.PrecisionContext(50)
BATTERY = default_battery()

TOL_EIGEN = mpf(10) ** -30
TOL_IDENTITY = mpf(10) ** -40
TOL_CHARACTER = mpf(10) ** -38
TOL_RECOGNITION = mpf(10) ** -20
TOL_REAL_QUAD = mpf(10) ** -8
TOL_COMPLEX_QUAD = mpf(10) ** -6
PF_TOL = mpf(10) ** -45


def _emit(number: int, ok: bool, detail: str) -> None:
    line = f"criterion {number}: {'PASS' if ok else 'FAIL'} - {detail}"
    conftest.ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, line


def test_criterion_1_eigenvector_residuals_and_collinearity():
    started = time.monotonic()
    worst = mpf(0)
    with CTX.working():
        for label in BATTERY:
            system = cg.build_root_system(label)
            g = cg.gamma_vector(system, CTX)
            lam = cg.lambda_min(system, CTX)
            for i, row in enumerate(system.cartan):
                lhs = sum(mpf(c) * g[j] for j, c in enumerate(row) if c)
                worst = max(worst, abs(lhs - lam * g[i]))
            masses = cg.mass_vector_closed_form(system, CTX)
            base = g[-1] / masses[-1]
            for gi, mi in zip(g, masses):
                worst = max(worst, abs(gi / mi - base))
    elapsed = time.monotonic() - started
    ok = worst < TOL_EIGEN and elapsed < 300
    _emit(1, ok, f"eigen/collinearity worst residual {mp.nstr(worst, 5)} "
                 f"over {len(BATTERY)} types in {elapsed:.1f}s")


def test_criterion_2_closed_form_constants():
    worst = mpf(0)
    with CTX.working():
        for label in BATTERY:
            if label.family == "E" and label.rank == 8:
                continue  # no standalone constant is quoted for this type
            system = cg.build_root_system(label)
            n = system.rank
            s3 = mp.sqrt(3)
            if label.family == "A":
                constant = mpf(1)
            elif label.family == "B":
                constant = cg.pow_rat(2, Q(1, n), CTX)
            elif label.family == "C":
                constant = mpf(1)
            elif label.family == "D":
                constant = cg.pow_rat(2, Q(1, n - 1), CTX)
            elif label.family == "G":
                constant = cg.pow_rat(2, Q(-2, 3), CTX)
            elif label.family == "F":
                constant = (cg.pow_rat(2, Q(-5, 4), CTX) * cg.pow_rat(3, Q(1, 8), CTX)
                            * cg.pow_rat(s3 - 1, Q(1, 2), CTX))
            elif label.rank == 6:
                # terminal value shared with the fourth node of the 24-root
                # system; the square-root exponent is 1/2 for both
                constant = (cg.pow_rat(2, Q(-5, 4), CTX) * cg.pow_rat(3, Q(1, 8), CTX)
                            * cg.pow_rat(s3 - 1, Q(1, 2), CTX))
            else:  # E7
                constant = (cg.pow_rat(2, Q(1, 9), CTX) * cg.pow_rat(3, Q(-1, 6), CTX)
                            * mp.sinpi(mpf(1) / 9))
            g = cg.gamma_vector(system, CTX)
            _, profile = cg.gamma_ratio_profile(system, CTX)
            worst = max(worst, abs(mp.pi * g[-1] - constant * profile[-1]))
            # the same constant must hold at every node, not only the last
            for gi, pi_coord in zip(g, profile):
                worst = max(worst, abs(mp.pi * gi - constant * pi_coord))
    ok = worst < TOL_EIGEN
    _emit(2, ok, f"closed-form constants worst residual {mp.nstr(worst, 5)}")


def test_criterion_3_affine_mass_formula():
    worst = mpf(0)
    with CTX.working():
        for label in BATTERY:
            system = cg.build_root_system(label)
            vec = cg.affine_gamma_vector(system, CTX)
            scale = cg.pow_rat(cg.mark_power_product(system), Q(-1, system.h), CTX)
            for value, comark in zip(vec, system.comarks):
                worst = max(worst, abs(value - scale * comark))
        # exact power form of the rank-8 exceptional entries
        e8 = cg.build_root_system(cg.RootSystemLabel("E", 8))
        vec = cg.affine_gamma_vector(e8, CTX)
        unit = (cg.pow_rat(2, Q(-13, 15), CTX) * cg.pow_rat(3, Q(-2, 5), CTX)
                * cg.pow_rat(5, Q(-1, 6), CTX))
        for value, c in zip(vec, (1, 2, 3, 4, 6, 5, 4, 3, 2)):
            worst = max(worst, abs(value - unit * c))
    ok = worst < TOL_EIGEN
    _emit(3, ok, f"affine mass worst residual {mp.nstr(worst, 5)}")


def test_criterion_4_exact_combinatorics():
    failures = []
    for label in BATTERY:
        system = cg.build_root_system(label)
        r, h = system.rank, system.h
        if len(system.positive_roots) * 2 != r * h:
            failures.append(f"{label}: root count")
        if sum(system.marks) != h:
            failures.append(f"{label}: marks sum")
        if sum(system.comarks) != system.h_dual:
            failures.append(f"{label}: comarks sum")
        affine = cg.affine_cartan_matrix(system)
        if any(sum(a * m for a, m in zip(row, system.marks)) != 0 for row in affine):
            failures.append(f"{label}: affine kernel")
        for i in range(1, r + 1):
            if cg.pairing_height_sum(system, i) != h:
                failures.append(f"{label}: pairing sum at {i}")
    e6 = cg.build_root_system(cg.RootSystemLabel("E", 6))
    expected = {
        1: "-[1]+[3]-[6]-[8]",
        2: "-[1]+[2]+[3]-[4]-[5]-[6]+[10]-[11]",
        3: "-[4]-[5]+[6]-[9]",
        4: "[1]-[2]-2[3]+[4]+[5]-[6]-[7]+[9]-[10]",
        5: "-[4]-[5]+[6]-[9]",
        6: "-[1]+[3]-[6]-[8]",
    }
    for i, text in expected.items():
        if str(cg.word_of_root_system(e6, i)) != text:
            failures.append(f"word {i} mismatch")
    if cg.word_of_root_system(e6, 1) != cg.word_of_root_system(e6, 6):
        failures.append("word 1 != word 6")
    if cg.word_of_root_system(e6, 3) != cg.word_of_root_system(e6, 5):
        failures.append("word 3 != word 5")
    _emit(4, not failures, f"exact combinatorics over {len(BATTERY)} types"
                           + (f"; failures: {failures[:3]}" if failures else ""))


def test_criterion_5_membership_classes():
    failures = []
    for label in BATTERY:
        system = cg.build_root_system(label)
        for i in range(1, system.rank + 1):
            word = cg.word_of_root_system(system, i)
            verdict = cg.classify(word)
            if not (verdict.in_C and verdict.k == -1):
                failures.append(f"{label} word {i}")
            verdict_t = cg.classify(cg.tilde(word))
            if not (verdict_t.in_C and verdict_t.k == 0):
                failures.append(f"{label} tilde {i}")
    _emit(5, not failures, f"membership verdicts exact over {len(BATTERY)} types"
                           + (f"; failures: {failures[:3]}" if failures else ""))


def test_criterion_6_special_function_identities():
    rng = random.Random(918273645)
    worst = mpf(0)
    with CTX.working():
        for _ in range(1000):
            den = rng.randint(2, 360)
            x = Q(rng.randint(1, den - 1), den)
            res = abs(cg.gamma(x, CTX) * cg.gamma(1 - x, CTX)
                      * mp.sinpi(CTX.to_mpf(x)) / mp.pi - 1)
            worst = max(worst, res)
        for n in (2, 3, 5):
            for _ in range(334):
                den = rng.randint(2, 360)
                x = Q(rng.randint(1, den - 1), den) / n
                lhs = mpf(1)
                for i in range(n):
                    lhs *= cg.gamma(x + Q(i, n), CTX)
                rhs = ((2 * mp.pi) ** (mpf(n - 1) / 2)
                       * mp.exp((-n * CTX.to_mpf(x) + mpf(1) / 2) * mp.log(n))
                       * cg.gamma(n * x, CTX))
                worst = max(worst, abs(lhs / rhs - 1))
        report = cg.trig_identities_suite(CTX)
        worst = max(worst, report.max_residual)
    ok = worst < TOL_IDENTITY
    _emit(6, ok, f"special-function identity worst residual {mp.nstr(worst, 5)}")


def _types_with_coxeter_number(n):
    return [label for label in BATTERY
            if cg.build_root_system(label).h == n]


def test_criterion_7_character_sums():
    started = time.monotonic()
    worst = mpf(0)
    recognition_ok = True
    with CTX.working():
        for modulus, prime in ((12, 13), (18, 19), (30, 31), (12, 37)):
            site = cg.find_site(modulus, p_min=prime)
            assert site.p == prime
            for j in range(1, modulus):
                g = cg.gauss_sum(j, site, CTX)
                worst = max(worst, abs(abs(g) ** 2 - prime))
            for label in _types_with_coxeter_number(modulus):
                system = cg.build_root_system(label)
                for i in range(1, system.rank + 1):
                    word = cg.word_of_root_system(system, i)
                    psi = cg.hecke_value(word, site, CTX)
                    worst = max(worst, abs(abs(psi) - 1))
            # additive-character independence, first type's words
            system = cg.build_root_system(_types_with_coxeter_number(modulus)[0])
            for i in range(1, system.rank + 1):
                word = cg.word_of_root_system(system, i)
                base = cg.hecke_value(word, site, CTX)
                other = cg.hecke_value(word, site, CTX, additive_scale=2)
                worst = max(worst, abs(base - other))
            # classical two-character sums are cyclotomic integers
            word = cg.GammaWord.from_coeffs(modulus, {1: 1, 2: 1, 3: -1})
            value = cg.jacobi_sum(word, site, CTX)
            coeffs = cg.recognize_cyclotomic(value, modulus, max_coeff=20,
                                             tol=TOL_RECOGNITION, ctx=CTX)
            if coeffs is None:
                recognition_ok = False
            else:
                zetas = [mp.expjpi(mpf(2 * k) / modulus) for k in range(len(coeffs))]
                res = abs(value - sum(c * z for c, z in zip(coeffs, zetas)))
                recognition_ok &= res < TOL_RECOGNITION
    elapsed = time.monotonic() - started
    ok = worst < TOL_CHARACTER and recognition_ok and elapsed < 60
    _emit(7, ok, f"character sums worst residual {mp.nstr(worst, 5)}, "
                 f"recognition {'ok' if recognition_ok else 'failed'}, {elapsed:.1f}s")


def test_criterion_8_integral_cross_validation():
    real_grid, complex_grid = cg.real_parameter_grid(), cg.complex_parameter_grid()
    real_oracle, complex_oracle = cg.cross_validate(real_grid, complex_grid, CTX)
    worst_real = mpf(0)
    worst_complex = mpf(0)
    with CTX.working():
        for params, quadrature in zip(real_grid, real_oracle):
            closed = cg.selberg_real_closed(params, CTX)
            worst_real = max(worst_real, abs(quadrature - closed) / abs(closed))
        for params, quadrature in zip(complex_grid, complex_oracle):
            closed = cg.selberg_complex_closed(params, CTX)
            worst_complex = max(worst_complex, abs(quadrature - closed) / abs(closed))
    ok = worst_real < TOL_REAL_QUAD and worst_complex < TOL_COMPLEX_QUAD
    _emit(8, ok, f"integral oracles: real {mp.nstr(worst_real, 5)}, "
                 f"complex {mp.nstr(worst_complex, 5)}")


def test_criterion_9_power_iteration_agrees_with_closed_forms():
    worst = mpf(0)
    with CTX.working():
        for label in BATTERY:
            system = cg.build_root_system(label)
            result = cg.pf_power_iteration(system.cartan, CTX, tol=PF_TOL)
            masses = cg.mass_vector_closed_form(system, CTX)
            for value, mass in zip(result.vector, masses):
                worst = max(worst, abs(value - mass / masses[-1]))
            worst = max(worst, abs(result.eigenvalue - cg.lambda_min(system, CTX)))
    ok = worst < 10 * PF_TOL
    _emit(9, ok, f"power iteration vs closed masses worst deviation {mp.nstr(worst, 5)}")
