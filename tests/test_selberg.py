from fractions import Fraction as Q

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

from cartan_gamma import (DomainError, PrecisionContext, QuadratureNotConverged,
                          SelbergParams, complex_parameter_grid, cross_validate, gamma,
                          real_parameter_grid, selberg_complex_closed,
                          selberg_complex_quadrature, selberg_real_closed,
                          selberg_real_quadrature)
from cartan_gamma.selberg import _jacobi_weighted


def test_params_validation():
    with pytest.raises(DomainError):
        SelbergParams(1, 1, 0, 0)
    for n in (1.5, 2.0, True):
        with pytest.raises(DomainError, match="must be an integer"):
            SelbergParams(1, 1, 0, n)
    # Fraction(0.1) is 0.1000000000000000055...: the closed form came out
    # 1e-16 away from Beta(1/10, 1) = 10 instead of being refused.
    for exponents in ((0.1, 1, 0), (1, "1", 0), (1, 1, True)):
        with pytest.raises(DomainError, match="expected a rational"):
            SelbergParams(*exponents, 1)
    with pytest.raises(DomainError):
        selberg_real_closed(SelbergParams(-1, 1, 0, 1), None)
    with pytest.raises(DomainError):
        selberg_real_quadrature(SelbergParams(1, 1, 1, 3), None)
    with pytest.raises(DomainError):
        selberg_complex_quadrature(SelbergParams(Q(1, 2), Q(3, 4), 0, 1), None)


def test_real_closed_is_beta_at_n1(ctx):
    with ctx.working():
        for a, b in ((Q(1, 2), Q(1, 2)), (Q(3, 4), Q(3, 4)), (Q(1, 3), Q(1, 2))):
            value = selberg_real_closed(SelbergParams(a, b, 0, 1), ctx)
            beta = gamma(a, ctx) * gamma(b, ctx) / gamma(a + b, ctx)
            assert abs(value - beta) < ctx.tolerance * abs(beta)
        # independent of rho at n = 1
        v0 = selberg_real_closed(SelbergParams(Q(1, 3), Q(2, 3), 0, 1), ctx)
        v2 = selberg_real_closed(SelbergParams(Q(1, 3), Q(2, 3), 2, 1), ctx)
        assert abs(v0 - v2) < ctx.tolerance


def test_real_closed_elementary_double_integral(ctx):
    with ctx.working():
        value = selberg_real_closed(SelbergParams(1, 1, 1, 2), ctx)
        assert abs(value - mpf(1) / 6) < ctx.tolerance


@pytest.mark.parametrize("params", [
    SelbergParams(Q(1, 50), Q(1, 50), Q(1, 50), 2),
    SelbergParams(Q(1, 10), Q(1, 20), Q(1, 30), 2),
], ids=["1/50,1/50,1/50", "1/10,1/20,1/30"])
def test_real_quadrature_with_a_weak_branch_at_1(ctx, params):
    # 2F1(1-b, a; a+2r+1; x) has a (1-x)**(2r+b) term at x = 1; with 2r+b
    # small it is still large at tail nodes where x = 1 - v**(1/b) rounds to 1.
    with ctx.working():
        closed = selberg_real_closed(params, ctx)
        quadrature = selberg_real_quadrature(params, ctx)
        assert abs(quadrature - closed) < mpf(10) ** -20 * abs(closed)


def rationals(hi):
    """n/d strictly between 0 and hi, with d <= 60."""
    return st.integers(2, 60).flatmap(
        lambda d: st.integers(1, hi * d - 1).map(lambda n: Q(n, d)))


@st.composite
def oracle_points(draw):
    case = draw(st.sampled_from(["real", "complex"]))
    if case == "complex":
        alpha, beta = draw(rationals(1)), draw(rationals(1))
        assume(alpha + beta < 1)
        return case, SelbergParams(alpha, beta, 0, 1)
    rho = draw(st.just(0) | rationals(3))
    return case, SelbergParams(draw(rationals(3)), draw(rationals(3)), rho,
                               draw(st.sampled_from([1, 2])))


@settings(max_examples=20, deadline=None)
@given(point=oracle_points(), digits=st.integers(20, 25))
@example(point=("real", SelbergParams(Q(1, 50), Q(1, 50), Q(1, 50), 2)), digits=20)
def test_oracles_agree_with_closed_forms_or_raise(point, digits):
    case, params = point
    ctx = PrecisionContext(digits)
    oracle, closed_form = {
        "real": (selberg_real_quadrature, selberg_real_closed),
        "complex": (selberg_complex_quadrature, selberg_complex_closed),
    }[case]
    try:
        quadrature = oracle(params, ctx)
    except QuadratureNotConverged:
        return
    with ctx.working():
        closed = closed_form(params, ctx)
        assert abs(quadrature - closed) < mpf(10) ** -8 * abs(closed)


@pytest.mark.parametrize("oracle,params", [
    (selberg_real_quadrature, SelbergParams(Q(1, 2), Q(1, 2), 0, 1)),
    (selberg_real_quadrature, SelbergParams(Q(1, 2), Q(1, 2), Q(1, 2), 2)),
    (selberg_complex_quadrature, SelbergParams(Q(1, 3), Q(1, 3), 0, 1)),
], ids=["real-n1", "real-n2", "complex"])
def test_quadrature_convergence_guard(ctx, monkeypatch, oracle, params):
    # an error estimate as large as the value must not pass as converged
    monkeypatch.setattr(mp, "quad", lambda *args, **kwargs: (mpf(1), mpf(1)))
    with pytest.raises(QuadratureNotConverged):
        oracle(params, ctx)


@pytest.mark.parametrize("digits", [20, 50, 80])
@pytest.mark.parametrize("oracle,params", [
    (selberg_real_quadrature, SelbergParams(Q(1, 2), Q(3, 2), 0, 1)),
    (selberg_complex_quadrature, SelbergParams(Q(1, 3), Q(1, 4), 0, 1)),
], ids=["real", "complex"])
def test_quadrature_guard_follows_the_working_precision(monkeypatch, oracle, params, digits):
    # Each rule returns 1 with error estimate e, so the oracle's propagated
    # estimate is e times its value: it passes up to ctx.tolerance, not beyond.
    ctx = PrecisionContext(digits)
    for factor, converges in ((1 - mpf(10) ** -10, True), (1 + mpf(10) ** -10, False)):
        with ctx.working():
            err = ctx.tolerance * factor
        monkeypatch.setattr(mp, "quad", lambda *args, **kwargs: (mpf(1), err))
        if converges:
            oracle(params, ctx)
        else:
            with pytest.raises(QuadratureNotConverged):
                oracle(params, ctx)


def test_complex_closed_n1(ctx):
    with ctx.working():
        p = SelbergParams(Q(1, 4), Q(1, 4), 0, 1)
        value = selberg_complex_closed(p, ctx)
        ratio = {x: gamma(x, ctx) / gamma(1 - x, ctx) for x in (Q(1, 4), Q(1, 2))}
        direct = mp.pi * ratio[Q(1, 4)] ** 2 / ratio[Q(1, 2)]
        assert abs(value - direct) < ctx.tolerance * abs(value)
        # swap symmetry
        v1 = selberg_complex_closed(SelbergParams(Q(1, 4), Q(1, 2), 0, 1), ctx)
        v2 = selberg_complex_closed(SelbergParams(Q(1, 2), Q(1, 4), 0, 1), ctx)
        assert abs(v1 - v2) < ctx.tolerance
        # rho cancels at n = 1
        v3 = selberg_complex_closed(SelbergParams(Q(1, 4), Q(1, 2), Q(1, 3), 1), ctx)
        assert abs(v1 - v3) < ctx.tolerance * abs(v1)


def test_complex_closed_integer_degenerations(ctx):
    with pytest.raises(DomainError):
        selberg_complex_closed(SelbergParams(-1, Q(1, 2), 0, 1), ctx)
    # a vanishing numerator factor zeroes the product
    assert selberg_complex_closed(SelbergParams(1, Q(1, 2), 0, 1), ctx) == 0


def test_complex_quadrature_two_points(ctx):
    with ctx.working():
        for params in complex_parameter_grid()[:2]:
            closed = selberg_complex_closed(params, ctx)
            quadrature = selberg_complex_quadrature(params, ctx)
            assert abs(quadrature - closed) < mpf(10) ** -6 * abs(closed)
        # swap symmetry of the numeric route
        qa = selberg_complex_quadrature(SelbergParams(Q(1, 4), Q(1, 2), 0, 1), ctx)
        qb = selberg_complex_quadrature(SelbergParams(Q(1, 2), Q(1, 4), 0, 1), ctx)
        assert abs(qa - qb) < 2 * mpf(10) ** -6 * abs(qa)


@pytest.mark.parametrize("radius", ["0.3", "0.9", "1.7"])
@pytest.mark.parametrize("b", [Q(1, 3), Q(1, 2)])
def test_angular_integral_closed_form(ctx, radius, b):
    # The complex oracle replaces the angular integral of |1 - r e^{it}|^{2(b-1)}
    # by 2 pi 2F1(1-b, 1-b; 1; r^2) and folds r > 1 onto 1/r; the direct
    # angular quadrature is the reference.
    with ctx.working():
        r, bv = mpf(radius), ctx.to_mpf(b)
        direct = 2 * mp.quad(
            lambda t: ((1 - r) ** 2 + 4 * r * mp.sin(t / 2) ** 2) ** (bv - 1), [0, mp.pi])
        s = min(r, 1 / r)
        closed = (r ** (2 * bv - 2) if r > 1 else 1) * 2 * mp.pi * mp.hyp2f1(
            1 - bv, 1 - bv, 1, s ** 2)
        assert abs(direct - closed) < mpf(10) ** -30 * abs(closed)


# The complex grid is held to 10**(5 - digits) at 50 digits and more by
# test_complex_quadrature_tracks_working_precision.
@pytest.mark.parametrize("grid,closed_form,oracle", [
    (real_parameter_grid, selberg_real_closed, selberg_real_quadrature),
], ids=["real"])
def test_quadrature_matches_closed_on_grid(ctx, grid, closed_form, oracle):
    with ctx.working():
        for params in grid():
            closed = closed_form(params, ctx)
            quadrature = oracle(params, ctx)
            assert abs(quadrature - closed) < mpf(10) ** -20 * abs(closed), params


@pytest.mark.parametrize("digits", [20, 50, 80])
def test_complex_quadrature_tracks_working_precision(digits):
    # Euler's transformation leaves a Beta-weighted integrand whose endpoint
    # powers the substitutions absorb, so the oracle keeps all but a few of
    # the working digits.
    ctx = PrecisionContext(digits)
    grid = complex_parameter_grid()
    _, oracle = cross_validate((), grid, ctx)
    with ctx.working():
        for params, quadrature in zip(grid, oracle):
            closed = selberg_complex_closed(params, ctx)
            assert abs(quadrature - closed) < mpf(10) ** (5 - digits) * abs(closed), params


def test_shared_2f1_table_changes_no_bit():
    # The planar oracle's two integrals share one memo of 2F1 values; each
    # grid point must equal, bit for bit, two calls that evaluate 2F1 afresh.
    ctx = PrecisionContext(25)
    for params in complex_parameter_grid():
        with ctx.working():
            a, b = (ctx.to_mpf(Q(v)) for v in (params.alpha, params.beta))
            (head, _), (tail, _) = (
                _jacobi_weighted(p, 2 * b, lambda t: mp.hyp2f1(b, b, 1, t))
                for p in (a, 1 - a - b))
            assert selberg_complex_quadrature(params, ctx) == mp.pi * (head + tail), params


def test_complex_quadrature_evaluates_2f1_once_per_node(ctx, monkeypatch):
    # At (1/4, 1/2), 1 - alpha - beta = alpha, so the second integral runs over
    # the first one's nodes and every 2F1 value is read from the table.
    calls, evaluations = [], [0]
    hyp2f1, quad = mp.hyp2f1, mp.quad

    def counted_hyp2f1(*args):
        calls.append((args[3], mp.prec))
        return hyp2f1(*args)

    def counted_quad(f, *args, **kwargs):
        def integrand(x):
            evaluations[0] += 1
            return f(x)
        return quad(integrand, *args, **kwargs)

    monkeypatch.setattr(mp, "hyp2f1", counted_hyp2f1)
    monkeypatch.setattr(mp, "quad", counted_quad)
    selberg_complex_quadrature(SelbergParams(Q(1, 4), Q(1, 2), 0, 1), ctx)
    assert len(calls) == len(set(calls))
    assert 0 < 2 * len(calls) <= evaluations[0]


@pytest.mark.parametrize("alpha,beta", [
    (Q(1, 100), Q(49, 100)), (Q(1, 50), Q(1, 50)), (Q(1, 2), Q(12, 25)),
    (Q(47, 100), Q(1, 100)), (Q(3, 10), Q(2, 3)), (Q(1, 10), Q(4, 5)),
], ids=["alpha-small", "alpha-beta-small", "sum-near-1", "beta-small",
        "beta-2/3", "beta-4/5"])
def test_complex_quadrature_near_the_domain_edges(ctx, alpha, beta):
    # alpha, beta or 1 - alpha - beta close to 0, or beta close to 1
    params = SelbergParams(alpha, beta, 0, 1)
    with ctx.working():
        closed = selberg_complex_closed(params, ctx)
        quadrature = selberg_complex_quadrature(params, ctx)
        assert abs(quadrature - closed) < mpf(10) ** -20 * abs(closed)


def test_closed_form_log_derivative_consistency(ctx):
    # central differences at two spacings agree: smoothness sanity only
    with ctx.working():
        def logv(a):
            return mp.log(selberg_real_closed(SelbergParams(a, Q(3, 4), Q(1, 2), 2), ctx))

        for h1, h2 in ((Q(1, 256), Q(1, 512)),):
            d1 = (logv(Q(1, 2) + h1) - logv(Q(1, 2) - h1)) / (2 * ctx.to_mpf(h1))
            d2 = (logv(Q(1, 2) + h2) - logv(Q(1, 2) - h2)) / (2 * ctx.to_mpf(h2))
            assert abs(d1 - d2) < mpf(10) ** -4
