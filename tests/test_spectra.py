from fractions import Fraction as Q

import pytest
from mpmath import mp, mpf

from cartan_gamma import (DomainError, NoConvergence, affine_cartan_matrix,
                          affine_gamma_vector, build_root_system,
                          gamma_ratio_profile, gamma_vector, lambda_min,
                          mark_power_product, mass_vector_closed_form,
                          pf_power_iteration, pow_rat, verify_affine_masses,
                          verify_membership, verify_pairing_sums,
                          verify_pf_eigenvector)
from cartan_gamma.spectra import _positive_inverse
from conftest import rational_nullspace, rs


def test_lambda_min_values(ctx):
    with ctx.working():
        assert abs(lambda_min(rs("A1"), ctx) - 2) < ctx.tolerance
        e8 = lambda_min(rs("E8"), ctx)
        assert abs(e8 - 4 * mp.sinpi(mpf(1) / 60) ** 2) == 0
        # double-angle consistency
        for text in ("A5", "B4", "G2", "E7"):
            system = rs(text)
            lam = lambda_min(system, ctx)
            assert abs(lam - (2 - 2 * mp.cospi(mpf(1) / system.h))) < ctx.tolerance


def test_power_iteration_small_cases(ctx):
    with ctx.working():
        res = pf_power_iteration(rs("A2").cartan, ctx)
        assert abs(res.eigenvalue - 1) < mpf(10) ** -44
        assert max(abs(v - 1) for v in res.vector) < mpf(10) ** -44

        res3 = pf_power_iteration(rs("A3").cartan, ctx)
        assert abs(res3.eigenvalue - (2 - mp.sqrt(2))) < mpf(10) ** -44
        assert abs(res3.vector[1] - mp.sqrt(2)) < mpf(10) ** -44
        assert res3.vector[0] == res3.vector[2]

        one = pf_power_iteration(rs("A1").cartan, ctx)
        assert one.eigenvalue == 2 and one.vector == (mpf(1),)


def test_power_iteration_e8_matches_published_decimals(ctx):
    res = pf_power_iteration(rs("E8").cartan, ctx)
    approx = (1.62, 2.40, 3.22, 4.78, 3.89, 2.96, 1.99, 1.0)
    for value, target in zip(res.vector, approx):
        assert abs(float(value) - target) < 5e-3
    assert all(v > 0 for v in res.vector)
    assert res.vector[-1] == 1


def test_power_iteration_contract(ctx, battery):
    with ctx.working():
        tol = mpf(10) ** (5 - ctx.digits)
        for label in battery[::6]:
            system = build_root_system(label)
            res = pf_power_iteration(system.cartan, ctx)
            assert res.residual < 10 * tol
            lam = lambda_min(system, ctx)
            assert abs(res.eigenvalue - lam) < 10 * tol


def test_inverse_cartan_matrix_is_positive(battery):
    # Lusztig-Tits: the Perron certificate of pf_power_iteration.  Column j
    # of the inverse is x_j in the kernel vector (x_j, e_j) of [A | -I].
    for label in battery:
        cartan = build_root_system(label).cartan
        n = len(cartan)
        kernel = rational_nullspace([list(row) + [-int(i == j) for j in range(n)]
                                     for i, row in enumerate(cartan)])
        columns = [x[:n] for x in kernel]
        assert all(sum(a * c for a, c in zip(row, col)) == (i == j)
                   for i, row in enumerate(cartan)
                   for j, col in enumerate(columns)), label
        assert all(q > 0 for col in columns for q in col), label
        assert _positive_inverse(cartan) == [list(row) for row in zip(*columns)], label


def test_inverse_swaps_rows_past_a_zero_pivot():
    cartan = ((0, 2, -1), (2, -3, 1), (-1, 1, 0))
    assert _positive_inverse(cartan) == [[1, 1, 1], [1, 1, 2], [1, 2, 4]]


def test_power_iteration_takes_few_steps(ctx, battery):
    for label in battery:
        assert pf_power_iteration(build_root_system(label).cartan, ctx).iterations <= 100


@pytest.mark.parametrize("cartan", [
    affine_cartan_matrix(rs("A2")),  # singular
    ((0,),),                         # singular; its kernel alone looks positive
    ((2, 0), (0, 2)),                # reducible
    ((2, -3), (-3, 2)),              # indefinite
    (),                              # empty
    ((2, -1), (-1,)),                # jagged
    ((2, -1),),                      # not square
    ((2.0, -1.0), (-1.0, 2.0)),      # not integers
    5,                               # not a matrix
    [1, 2],                          # rows that are not sequences
], ids=["affine-A2", "zero", "reducible", "indefinite", "empty", "jagged", "non-square",
        "float", "int", "flat-list"])
def test_power_iteration_rejects_non_finite_types(ctx, cartan):
    with pytest.raises(DomainError):
        pf_power_iteration(cartan, ctx)


@pytest.mark.parametrize("kwargs", [
    {"tol": -1}, {"tol": 0}, {"tol": "abc"}, {"tol": float("nan")}, {"tol": mp.inf},
    {"max_iterations": 1.5}, {"max_iterations": "3"}, {"max_iterations": 0},
    {"max_iterations": -1},
], ids=["negative-tol", "zero-tol", "str-tol", "nan-tol", "inf-tol", "float-iterations",
        "str-iterations", "zero-iterations", "negative-iterations"])
def test_power_iteration_rejects_bad_tol_and_budget(ctx, kwargs):
    # A tol <= 0 can never be met: the loop would spend its whole budget.
    # A budget below one step is refused, not reported as non-convergence.
    with pytest.raises(DomainError):
        pf_power_iteration(rs("A2").cartan, ctx, **kwargs)


@pytest.mark.parametrize("verify", [
    lambda system, ctx, tol: verify_pf_eigenvector(system, ctx, tol),
    lambda system, ctx, tol: verify_affine_masses(system, ctx, tol),
    lambda system, ctx, tol: verify_membership(system, tol),
    lambda system, ctx, tol: verify_pairing_sums(system, tol),
], ids=["eigen", "affine", "membership", "pairing"])
@pytest.mark.parametrize("tol", ["abc", -1, 0, float("nan"), mp.inf, None],
                         ids=["str", "negative", "zero", "nan", "inf", "none"])
def test_verifiers_reject_bad_tolerance(ctx, verify, tol):
    # A tolerance that is not a finite positive number makes "passed" meaningless.
    with pytest.raises(DomainError, match="tol must be finite and positive"):
        verify(rs("A2"), ctx, tol)


def test_power_iteration_no_convergence(ctx):
    with pytest.raises(NoConvergence):
        pf_power_iteration(rs("E8").cartan, ctx, max_iterations=3)


def test_mass_closed_forms(ctx):
    with ctx.working():
        c2 = mass_vector_closed_form(rs("C2"), ctx)
        assert abs(c2[0] - mp.sqrt(2) / 2) < ctx.tolerance
        assert c2[1] == 1
        g2 = mass_vector_closed_form(rs("G2"), ctx)
        assert g2[0] == 1 and abs(g2[1] - mp.sqrt(3)) < ctx.tolerance
        e6 = mass_vector_closed_form(rs("E6"), ctx)
        assert abs(e6[3] - (mp.sqrt(3) + 1)) < ctx.tolerance
        assert abs(e6[2] - (mp.sqrt(3) + 1) / mp.sqrt(2)) < ctx.tolerance
        b5 = mass_vector_closed_form(rs("B5"), ctx)
        assert abs(b5[1] - 2 * mp.sinpi(mpf(2) / 10)) < ctx.tolerance


def test_masses_are_eigenvectors(ctx, battery):
    with ctx.working():
        for label in battery:
            system = build_root_system(label)
            masses = mass_vector_closed_form(system, ctx)
            lam = lambda_min(system, ctx)
            for i, row in enumerate(system.cartan):
                lhs = sum(c * masses[j] for j, c in enumerate(row) if c)
                assert abs(lhs - lam * masses[i]) < mpf(10) ** -45


def test_gamma_vector_values(ctx):
    with ctx.working():
        a2 = gamma_vector(rs("A2"), ctx)
        assert abs(a2[0] - mp.sinpi(mpf(1) / 3) / mp.pi) < ctx.tolerance
        assert abs(a2[1] - a2[0]) < ctx.tolerance
        # terminal-node values of the two fork families carry the 1/2 profile
        b3 = gamma_vector(rs("B3"), ctx)
        assert abs(mp.pi * b3[2] - pow_rat(2, Q(1, 3), ctx) / 2) < ctx.tolerance
        d5 = gamma_vector(rs("D5"), ctx)
        assert abs(mp.pi * d5[4] - pow_rat(2, Q(1, 4), ctx) / 2) < ctx.tolerance


def test_profile_constants(ctx):
    with ctx.working():
        for text, expected in (
            ("A4", mpf(1)),
            ("C5", mpf(1)),
            ("B4", pow_rat(2, Q(1, 4), ctx)),
            ("D6", pow_rat(2, Q(1, 5), ctx)),
            ("G2", pow_rat(2, Q(-2, 3), ctx)),
            ("E7", pow_rat(2, Q(1, 9), ctx) * pow_rat(3, Q(-1, 6), ctx)
             * mp.sinpi(mpf(1) / 9)),
            ("F4", pow_rat(2, Q(-5, 4), ctx) * pow_rat(3, Q(1, 8), ctx)
             * pow_rat(mp.sqrt(3) - 1, Q(1, 2), ctx)),
        ):
            constant, profile = gamma_ratio_profile(rs(text), ctx)
            assert abs(constant - expected) < ctx.tolerance
            g = gamma_vector(rs(text), ctx)
            worst = max(abs(mp.pi * gi - constant * pi_)
                        for gi, pi_ in zip(g, profile))
            assert worst < mpf(10) ** -45


def test_terminal_values_agree_between_folded_pairs(ctx):
    with ctx.working():
        tol = mpf(10) ** -45
        f4 = gamma_vector(rs("F4"), ctx)
        e6 = gamma_vector(rs("E6"), ctx)
        assert abs(f4[0] - e6[1]) < tol
        assert abs(f4[1] - e6[3]) < tol
        assert abs(f4[2] - e6[2]) < tol
        assert abs(f4[3] - e6[0]) < tol
        g2 = gamma_vector(rs("G2"), ctx)
        d4 = gamma_vector(rs("D4"), ctx)
        assert abs(g2[0] - d4[0]) < tol
        assert abs(g2[1] - d4[1]) < tol


def test_mark_power_product():
    assert mark_power_product(rs("A1")) == 1
    assert mark_power_product(rs("G2")) == 4  # comarks (1,2) with marks (3,2)
    assert mark_power_product(rs("E8")) == 2 ** 26 * 3 ** 12 * 5 ** 5


def test_affine_gamma_vector(ctx):
    with ctx.working():
        a1 = affine_gamma_vector(rs("A1"), ctx)
        assert len(a1) == 2
        assert abs(a1[0] - 1) < ctx.tolerance and abs(a1[1] - 1) < ctx.tolerance

        e8 = affine_gamma_vector(rs("E8"), ctx)
        scale = (pow_rat(2, Q(-13, 15), ctx) * pow_rat(3, Q(-2, 5), ctx)
                 * pow_rat(5, Q(-1, 6), ctx))
        targets = (1, 2, 3, 4, 6, 5, 4, 3, 2)
        for value, t in zip(e8, targets):
            assert abs(value - scale * t) < mpf(10) ** -45

        # affine entry equals the scale factor itself for simply laced types
        for text in ("A3", "D4", "E6", "E7"):
            system = rs(text)
            vec = affine_gamma_vector(system, ctx)
            k = mark_power_product(system)
            assert abs(vec[0] - pow_rat(k, Q(-1, system.h), ctx)) < mpf(10) ** -45


def test_verifier_reports(ctx):
    for text in ("A2", "B6", "E8", "G2"):
        system = rs(text)
        for report in (verify_pf_eigenvector(system, ctx, "1e-30"),
                       verify_affine_masses(system, ctx, "1e-30"),
                       verify_membership(system, "1e-30"),
                       verify_pairing_sums(system, "1e-30")):
            assert report.passed, (text, report.theorem, report.worst())
            data = report.to_json_dict()
            assert set(data) == {"theorem", "type", "residuals", "tolerance", "pass"}
            assert data["type"] == text


def test_verifier_catches_wrong_tolerance(ctx):
    report = verify_pf_eigenvector(rs("E6"), ctx, "1e-80")
    assert not report.passed
