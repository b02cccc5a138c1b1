import random
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

from cartan_gamma import (DomainError, PoleError, PrecisionContext, gamma,
                          gamma_tilde, pow_rat, trig_identities_suite)
from cartan_gamma.specialfn import MAX_DIGITS


def test_context_validation():
    with pytest.raises(DomainError):
        PrecisionContext(10)
    with pytest.raises(DomainError):
        PrecisionContext(MAX_DIGITS + 1)
    for digits in (20.5, 50.0, "50", True):
        with pytest.raises(DomainError, match="must be an integer"):
            PrecisionContext(digits)
    assert PrecisionContext().digits == 50
    assert PrecisionContext(MAX_DIGITS).digits == MAX_DIGITS


def test_gamma_classics(ctx):
    with ctx.working():
        assert abs(gamma(Q(1, 2), ctx) - mp.sqrt(mp.pi)) < ctx.tolerance
        lhs = gamma(Q(1, 3), ctx) * gamma(Q(2, 3), ctx)
        assert abs(lhs - 2 * mp.pi / mp.sqrt(3)) < ctx.tolerance
        assert abs(gamma(1, ctx) - 1) < ctx.tolerance


def test_gamma_domain(ctx):
    with pytest.raises(PoleError):
        gamma(0, ctx)
    with pytest.raises(PoleError):
        gamma(-3, ctx)
    with pytest.raises(DomainError):
        gamma(Q(5, 2), ctx)
    with pytest.raises(DomainError):
        gamma_tilde(Q(3, 2), ctx)
    with pytest.raises(DomainError, match="must be positive"):
        pow_rat(mpf(-2), Q(1, 2), ctx)
    for bad in (mp.nan, mp.inf, -mp.inf):
        with pytest.raises(DomainError, match="non-finite"):
            pow_rat(bad, 1, ctx)
    for bad in ("x", mp.mpc(1, 1), None):
        with pytest.raises(DomainError, match="must be a finite number"):
            pow_rat(bad, 1, ctx)
    with pytest.raises(DomainError):
        gamma(0.25, ctx)  # floats are not exact rationals


def _random_fractions(count, seed, max_den=360):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        den = rng.randint(2, max_den)
        num = rng.randint(1, den - 1)
        out.append(Q(num, den))
    return out


def test_reflection_identity(ctx):
    with ctx.working():
        for x in _random_fractions(500, seed=20260810):
            res = abs(gamma(x, ctx) * gamma(1 - x, ctx) * mp.sinpi(ctx.to_mpf(x)) / mp.pi - 1)
            assert res < mpf(10) ** -40


@pytest.mark.parametrize("n", [2, 3, 5])
def test_multiplication_identity(ctx, n):
    with ctx.working():
        for x in _random_fractions(120, seed=100 + n):
            x = x / n  # keep every shifted argument inside (0, 2)
            lhs = mpf(1)
            for i in range(n):
                lhs *= gamma(x + Q(i, n), ctx)
            rhs = ((2 * mp.pi) ** (mpf(n - 1) / 2)
                   * mp.exp((-n * ctx.to_mpf(x) + mpf(1) / 2) * mp.log(n))
                   * gamma(n * x, ctx))
            assert abs(lhs / rhs - 1) < mpf(10) ** -40


def test_gamma_tilde_symmetry(ctx):
    with ctx.working():
        for x in _random_fractions(100, seed=7):
            assert abs(gamma_tilde(x, ctx) * gamma_tilde(1 - x, ctx) - 1) < ctx.tolerance
            s_factor = mp.pi / mp.sinpi(ctx.to_mpf(x))
            assert abs(s_factor - mp.pi / mp.sinpi(ctx.to_mpf(1 - x))) < ctx.tolerance
            square = gamma(x, ctx) ** 2
            assert abs(square - gamma_tilde(x, ctx) * s_factor) < ctx.tolerance * square
        assert abs(gamma_tilde(Q(1, 2), ctx) - 1) < ctx.tolerance


def test_s_factor_values(ctx):
    # The sine factor pi/sin(pi x) at exact arguments.
    with ctx.working():
        assert abs(mp.pi / mp.sinpi(ctx.to_mpf(Q(1, 2))) - mp.pi) < ctx.tolerance
        assert abs(mp.pi / mp.sinpi(ctx.to_mpf(Q(1, 4))) - mp.sqrt(2) * mp.pi) < ctx.tolerance
        ratio = (mp.pi / mp.sinpi(ctx.to_mpf(Q(1, 12)))) / (mp.pi / mp.sinpi(ctx.to_mpf(Q(5, 12))))
        assert abs(ratio - (mp.sqrt(3) + 1) ** 2 / 2) < ctx.tolerance


def test_pow_rat(ctx):
    with ctx.working():
        assert abs(pow_rat(mpf(4), Q(1, 2), ctx) - 2) < ctx.tolerance
        v = pow_rat(2, Q(2, 15), ctx) * pow_rat(3, Q(-2, 5), ctx) * pow_rat(5, Q(-1, 6), ctx)
        # same number assembled through a single power product
        w = pow_rat(mpf(2) ** 4 * mpf(3) ** -12 * mpf(5) ** -5, Q(1, 30), ctx)
        assert abs(v - w) < ctx.tolerance


def test_monotonic_precision():
    low, high = PrecisionContext(20), PrecisionContext(40)
    xs = _random_fractions(50, seed=3)

    def worst(ctx):
        with ctx.working():
            return max(abs(gamma(x, ctx) * gamma(1 - x, ctx)
                           * mp.sinpi(ctx.to_mpf(x)) / mp.pi - 1) for x in xs)

    with PrecisionContext(40).working():
        w_low, w_high = worst(low), worst(high)
        assert w_low < low.tolerance
        assert w_high < high.tolerance
        # doubling digits must improve residuals by at least 10**(digits-15)
        assert w_high <= w_low * mpf(10) ** -(low.digits - 15)


def test_trig_identity_suite(ctx):
    report = trig_identities_suite(ctx)
    assert report.passed
    with ctx.working():
        assert report.max_residual < mpf(10) ** -40
    assert "sin_ninths_product" in report.labels
    assert len(report.labels) == len(report.residuals) == 20
    data = report.to_json_dict()
    assert set(data) == {"theorem", "type", "residuals", "tolerance", "pass"}
    assert data["pass"] is True


@settings(max_examples=60, deadline=None)
@given(num=st.integers(min_value=1, max_value=359), den=st.integers(min_value=2, max_value=360))
def test_reflection_property(num, den):
    ctx = PrecisionContext(30)
    x = Q(num % den, den)
    if x == 0:
        return
    with ctx.working():
        res = abs(gamma(x, ctx) * gamma(1 - x, ctx) * mp.sinpi(ctx.to_mpf(x)) / mp.pi - 1)
        assert res < ctx.tolerance
