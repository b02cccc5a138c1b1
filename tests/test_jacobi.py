import dataclasses
from fractions import Fraction as Q
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf
from mpmath.libmp import from_man_exp, mpc_mul, mpf_add

from cartan_gamma import jacobi
from cartan_gamma import (DomainError, GammaWord, NotInC, PrecisionContext, PrimeSite,
                          RootSystemLabel, SearchExhausted, build_root_system, find_site,
                          gauss_sum, hecke_value, jacobi_sum, psi_exponent, psi_order,
                          recognize_cyclotomic, recognize_root_of_unity, tilde,
                          word_at_site, word_of_root_system)
from cartan_gamma.cli import default_battery
from conftest import rs


def test_find_site_examples():
    assert find_site(12).p == 13
    assert find_site(12).generator == 2
    assert find_site(30).p == 31
    assert find_site(2, p_min=4).p == 5
    assert find_site(12, p_min=14).p == 37
    with pytest.raises(SearchExhausted):
        find_site(9973, p_min=2, cap=10_000)


def test_site_validation():
    with pytest.raises(DomainError):
        PrimeSite(12, 14)  # not 1 mod 12 (and not prime)
    with pytest.raises(DomainError):
        PrimeSite(12, 25)  # 25 = 1 mod 12 but composite
    site = PrimeSite(12, 13)
    assert site.p == 13
    # The generator is derived from p, never passed in: the least primitive
    # root, which is not 2 at p = 73 (2 has order 9 there).
    assert PrimeSite(12, 13).generator == 2
    assert PrimeSite(12, 73).generator == 5
    assert [f.name for f in dataclasses.fields(PrimeSite)] == ["modulus", "p"]
    with pytest.raises(TypeError):
        PrimeSite(12, 13, 3)


@pytest.mark.parametrize("kwargs", [{"modulus": 12.0}, {"modulus": 12, "p_min": 13.5},
                                    {"modulus": 12, "cap": 1e3}],
                         ids=["float-modulus", "float-p-min", "float-cap"])
def test_find_site_rejects_non_integers(kwargs):
    with pytest.raises(DomainError, match="must be an integer"):
        find_site(**kwargs)


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 60), st.integers(-5, 3000), st.booleans())
def test_prime_site_is_valid_or_refused(modulus, p, snap):
    if snap and p > modulus:
        p -= (p - 1) % modulus  # p = 1 (mod N): about a quarter of these are sites
    try:
        site = PrimeSite(modulus, p)
    except DomainError:
        assert p < 2 or (p - 1) % modulus or any(p % d == 0 for d in range(2, p))
        return
    assert all(p % d for d in range(2, p))
    assert (site.p - 1) % site.modulus == 0
    g = site.generator
    assert next(k for k in range(1, p) if pow(g, k, p) == 1) == p - 1
    if p < 200:
        ctx = PrecisionContext(30)
        with ctx.working():
            assert abs(abs(gauss_sum(1, site, ctx)) ** 2 - p) < mpf(10) ** -25


@pytest.mark.parametrize("modulus,p", [(0, 7), (1, 7), (12, 17), (12, 15), (12, 2),
                                       (12.0, 13), (12, 13.0), (12, True), (True, 3),
                                       ("12", 13)],
                         ids=["modulus-zero", "modulus-one", "not-1-mod-N", "composite",
                              "prime-two", "float-modulus", "float-prime", "bool-prime",
                              "bool-modulus", "str-modulus"])
def test_site_for_prime_rejects(modulus, p):
    with pytest.raises(DomainError):
        PrimeSite(modulus, p)


def test_site_for_prime_stops_at_max_prime():
    assert jacobi.MAX_PRIME == 10_000_000
    # 9,999,973 and 10,000,141 are the primes = 1 mod 12 on either side of the
    # bound, and 10**24 + 177 is one too; the range is checked before any
    # primality test.
    assert PrimeSite(12, 9_999_973) == find_site(12, p_min=9_999_973)
    with pytest.raises(SearchExhausted):
        find_site(12, p_min=9_999_974)
    for p in (10_000_141, 10**24 + 177):
        with pytest.raises(DomainError, match="largest supported prime"):
            PrimeSite(12, p)
        with pytest.raises(DomainError, match="largest supported prime"):
            find_site(12, p_min=p, cap=p)


def test_gauss_sum_magnitudes(ctx):
    # 73 is a site whose least primitive root is 5, not 2.
    site = find_site(12)
    with ctx.working():
        for at in (site, PrimeSite(12, 73)):
            for j in range(1, 12):
                g = gauss_sum(j, at, ctx)
                assert abs(abs(g) ** 2 - at.p) < mpf(10) ** -38
                assert abs(g * mp.conj(g) - at.p) < mpf(10) ** -38
    with pytest.raises(DomainError):
        gauss_sum(0, site, ctx)
    with pytest.raises(DomainError):
        gauss_sum(12, site, ctx)


@pytest.mark.parametrize("residue,scale", [
    (1.5, 1), ("3", 1), (True, 1), (None, 1), (1, 1.5), (1, True), (1, "2"), (Q(1, 12), 1),
], ids=["float-residue", "str-residue", "bool-residue", "none-residue", "float-scale",
        "bool-scale", "str-scale", "fraction-residue"])
def test_gauss_sum_rejects_non_integer_residues_and_scales(residue, scale, ctx):
    # int(1.5) would truncate to the residue 1/12, and a scale of 1.5 is no
    # additive character.  The residue is the int j, not the fraction j/N.
    with pytest.raises(DomainError, match="must be an integer"):
        gauss_sum(residue, find_site(12), ctx, additive_scale=scale)


def test_quadratic_gauss_sum(ctx):
    site = find_site(2, p_min=4)
    with ctx.working():
        g = gauss_sum(1, site, ctx)
        assert abs(g ** 2 - 5) < mpf(10) ** -38
        assert abs(g.imag) < mpf(10) ** -38


def _one_residue_gauss_sum(j, site, ctx, scale):
    """Negated sum of chi_j(x) e(c x / p) for one residue j alone, summed
    over x = g**m in the order of m."""
    n, p, g = site.modulus, site.p, site.generator
    with ctx.working():
        zeta_n = [mp.expjpi(mpf(2 * k) / n) for k in range(n)]
        total = mp.mpc(0)
        x = 1
        for m in range(p - 1):
            total += zeta_n[(j * m) % n] * mp.expjpi(mpf(2 * ((scale * x) % p)) / p)
            x = (x * g) % p
        return -total


@pytest.mark.parametrize("digits", [20, 50])
@pytest.mark.parametrize("modulus,p", [(2, 5), (12, 37), (18, 19)])
def test_one_sweep_gauss_sums_equal_one_residue_sums_bitwise(modulus, p, digits):
    # Every residue's sum shares one sweep over the field; each must keep the
    # terms, order and precision of its own sum, so no bit may change.
    jacobi._gauss_values.cache_clear()
    site, ctx = PrimeSite(modulus, p), PrecisionContext(digits)
    for scale in (1, 5):
        if scale % p == 0:
            with pytest.raises(DomainError):
                gauss_sum(1, site, ctx, additive_scale=scale)
            continue
        for j in range(1, modulus):
            assert gauss_sum(j, site, ctx, additive_scale=scale) == \
                _one_residue_gauss_sum(j, site, ctx, scale)


@settings(max_examples=8, deadline=None)
@given(st.integers(2, 40), st.integers(2, 399), st.integers(20, 60), st.data())
def test_one_sweep_gauss_sums_equal_one_residue_sums_at_drawn_sites(modulus, bound, digits,
                                                                    data):
    # The least admissible prime above the bound, and the scale 1 or a unit.
    site, ctx = find_site(modulus, p_min=bound), PrecisionContext(digits)
    scale = data.draw(st.one_of(st.just(1), st.integers(2, site.p - 1)), label="scale")
    for j in range(1, modulus):
        assert gauss_sum(j, site, ctx, additive_scale=scale) == \
            _one_residue_gauss_sum(j, site, ctx, scale)


@pytest.mark.parametrize("modulus,p", [(12, 1993), (30, 1201)])
def test_one_sweep_gauss_sums_equal_one_residue_sums_at_large_primes(modulus, p):
    # Sweep-sized sites: E6 near p = 2000 and E8 at p = 1201.
    site, ctx = PrimeSite(modulus, p), PrecisionContext(50)
    for j in range(1, modulus):
        assert gauss_sum(j, site, ctx) == _one_residue_gauss_sum(j, site, ctx, 1)


def test_one_sweep_evaluates_each_additive_character_once(monkeypatch):
    # E6 words cover every nonzero residue mod 12; one residue at a time
    # would take (N - 1)(p - 1) = 396 root evaluations here.
    jacobi._gauss_values.cache_clear()
    site, ctx = PrimeSite(12, 37), PrecisionContext(30)
    calls = [0]
    cos_sin_pi = jacobi.mpf_cos_sin_pi

    def counted_cos_sin_pi(*args):
        calls[0] += 1
        return cos_sin_pi(*args)

    monkeypatch.setattr(jacobi, "mpf_cos_sin_pi", counted_cos_sin_pi)
    system = rs("E6")
    for i in range(1, system.rank + 1):
        hecke_value(word_of_root_system(system, i), site, ctx)
    assert 0 < calls[0] <= (site.p - 1) + site.modulus


def _working_bits(digits):
    with PrecisionContext(digits).working():
        return mp.prec


def _fit(man, prec):
    """The top prec bits of a drawn mantissa, sign kept."""
    return man >> max(0, man.bit_length() - prec) if man >= 0 else -_fit(-man, prec)


MANTISSAS = st.integers(-(1 << 330), 1 << 330)
EXPONENTS = st.integers(-400, 400)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from((20, 50, 80)), st.sampled_from(("any", "tie", "cancel", "far", "zero")),
       MANTISSAS, EXPONENTS, MANTISSAS, EXPONENTS)
@example(20, "tie", 1 << 200, 0, 1, 0)
@example(50, "tie", -(1 << 300) - 3, 7, -1, 0)
@example(80, "cancel", -5, -9, 0, 0)
@example(50, "far", 3 ** 150, 0, -(5 ** 90), 0)
@example(20, "zero", -(3 ** 80), -40, 0, 0)
def test_add_rounds_as_mpf_add(digits, kind, a, e, b, f):
    # Operands of at most prec bits, as the sweep's totals and terms are.
    # "tie" gives the first operand prec bits and puts the second on its
    # half unit; "cancel" makes the sum exactly 0; "far" puts the second
    # operand's exponent more than 100 below, where mpf_add takes its
    # shortcut once the operand also lies more than prec + 4 bits below.
    prec = _working_bits(digits)
    a, b = _fit(a, prec), _fit(b, prec)
    if kind == "tie":
        top = 1 << prec - 1
        a = -(-a | top) if a < 0 else a | top
        b, f = (1 if b >= 0 else -1), e - 1
    y = {"any": (b, f), "tie": (b, f), "cancel": (-a, e), "zero": (0, f),
         "far": (b, e - 101 - abs(f))}[kind]
    expected = mpf_add(from_man_exp(a, e), from_man_exp(*y), prec, "n")
    assert from_man_exp(*jacobi._add((a, e), y, prec)) == expected
    assert from_man_exp(*jacobi._add(y, (a, e), prec)) == expected


@settings(max_examples=300, deadline=None)
@given(st.sampled_from((20, 50, 80)), st.sampled_from(("any", "zero part", "far")),
       st.lists(st.tuples(MANTISSAS, EXPONENTS), min_size=4, max_size=4),
       st.integers(0, 3))
@example(50, "zero part", [(3, 0), (5, 0), (7, 0), (3 ** 150, 0)], 0)
@example(20, "any", [(3 ** 65, 0), (7 ** 36, -122), (5 ** 51, 0), (11 ** 34, 0)], 0)
def test_mul_rounds_as_mpc_mul(digits, kind, parts, which):
    # The parts are mpf values of at most prec bits, as mpmath stores them.
    # "zero part" zeroes one, so two partial products are exactly 0 and the
    # other two, of up to 2 prec bits, must still be rounded.  "far" moves
    # one part at least prec + 5 bits down, toward mpf_add's shortcut for
    # the exact partial products.  Where the shortcut applies and the two
    # products still overlap, as in the second example, mpc_mul is not
    # correctly rounded, and _mul must round as it does.
    prec = _working_bits(digits)
    raw = [from_man_exp(_fit(man, prec), exp) for man, exp in parts]
    if kind == "zero part":
        raw[which] = from_man_exp(0, 0)
    elif kind == "far":
        man, exp = jacobi._pair(raw[which])
        raw[which] = from_man_exp(man, exp - prec - 5 - abs(exp) % prec)
    z, w = (raw[0], raw[1]), (raw[2], raw[3])
    product = jacobi._mul(tuple(map(jacobi._pair, z)), tuple(map(jacobi._pair, w)), prec)
    assert tuple(from_man_exp(*part) for part in product) == mpc_mul(z, w, prec, "n")


def test_jacobi_sum_values(ctx):
    site = find_site(12)
    empty = GammaWord.from_coeffs(12, {})
    with ctx.working():
        assert jacobi_sum(empty, site, ctx) == 1
        f = word_of_root_system(rs("E6"), 1)
        j = jacobi_sum(f, site, ctx)
        assert abs(abs(j) - mpf(1) / 13) < mpf(10) ** -38
        # multiplicativity over word addition
        g = GammaWord.from_coeffs(12, {2: 1, 9: -2})
        lhs = jacobi_sum(f + g, site, ctx)
        rhs = jacobi_sum(f, site, ctx) * jacobi_sum(g, site, ctx)
        assert abs(lhs - rhs) < mpf(10) ** -36 * abs(rhs)
    with pytest.raises(DomainError):
        jacobi_sum(GammaWord.from_coeffs(10, {1: 1}), site, ctx)
    with pytest.raises(DomainError, match="must be an integer"):
        jacobi_sum(f, site, ctx, additive_scale=1.5)


def test_classical_two_character_sum_against_direct_double_sum(ctx):
    # Independent oracle: the full double sum over the prime field.  The
    # packaged value carries one minus sign per character-sum factor, so the
    # word [a]+[b]-[a+b] evaluates to minus the textbook two-character sum.
    site = find_site(12)
    p, g, n = site.p, site.generator, site.modulus
    index = {pow(g, m, p): m for m in range(p - 1)}
    with ctx.working():
        def chi(a, x):
            return mp.expjpi(mpf(2 * a * index[x]) / n)

        for a, b in ((1, 1), (2, 3), (5, 4)):
            direct = sum(chi(a, x) * chi(b, (1 - x) % p) for x in range(2, p))
            coeffs: dict[int, int] = {}
            for key, step in ((a, 1), (b, 1), ((a + b) % n, -1)):
                coeffs[key] = coeffs.get(key, 0) + step
            word = GammaWord.from_coeffs(n, coeffs)
            packaged = jacobi_sum(word, site, ctx)
            assert abs(packaged + direct) < mpf(10) ** -38


def test_hecke_values(ctx):
    site = find_site(12)
    system = rs("E6")
    with ctx.working():
        for i in range(1, 7):
            f = word_of_root_system(system, i)
            psi = hecke_value(f, site, ctx)
            assert abs(abs(psi) - 1) < mpf(10) ** -38
            t = tilde(f)
            if t.coeffs:
                psi_t = hecke_value(t, site, ctx)
                assert abs(abs(psi_t) - 1) < mpf(10) ** -38
                assert abs(psi_t - jacobi_sum(t, site, ctx)) < mpf(10) ** -38
    with pytest.raises(NotInC):
        hecke_value(GammaWord.from_coeffs(12, {1: 1}), site, ctx)


def test_additive_character_independence(ctx):
    site = find_site(12)
    f = word_of_root_system(rs("E6"), 4)
    with ctx.working():
        base = hecke_value(f, site, ctx)
        for c in (2, 5, 12):
            other = hecke_value(f, site, ctx, additive_scale=c)
            assert abs(base - other) < mpf(10) ** -38
        # a non-member word does feel the additive character
        non_member = GammaWord.from_coeffs(12, {1: 1})
        j1 = jacobi_sum(non_member, site, ctx)
        j2 = jacobi_sum(non_member, site, ctx, additive_scale=2)
        assert abs(j1 - j2) > mpf("0.1")


def test_psi_is_root_of_unity(ctx):
    site = find_site(12)
    f = word_of_root_system(rs("E6"), 1)
    order = psi_order(f, site, ctx)
    assert order is not None and order <= 4 * 12 * 12
    with ctx.working():
        psi = hecke_value(f, site, ctx)
        assert abs(psi ** order - 1) < mpf(10) ** -30


def test_psi_order_at_twenty_digits_matches_fifty():
    system = rs("E7")
    site = PrimeSite(system.h, 19)
    for i in range(1, system.rank + 1):
        f = word_of_root_system(system, i)
        assert psi_order(f, site, PrecisionContext(20)) == psi_order(f, site, PrecisionContext(50))


# Labels whose Coxeter numbers run over every modulus up to 40: the battery
# (moduli 2 to 30) and A13 to A39.
SITE_LABELS = (*default_battery(), *(RootSystemLabel("A", r) for r in range(13, 40)))


@settings(max_examples=10, deadline=None)
@given(st.sampled_from(SITE_LABELS), st.integers(2, 399))
def test_psi_exponent_names_the_numeric_root_at_drawn_sites(label, bound):
    # The least admissible prime above the bound; every word and its tilde.
    system = build_root_system(label)
    n = system.h
    site, ctx, coarse = find_site(n, p_min=bound), PrecisionContext(50), PrecisionContext(20)
    for i in range(1, system.rank + 1):
        word = word_of_root_system(system, i)
        for f in (word, tilde(word)):
            m = psi_exponent(f, site)
            assert 0 <= m < 2 * n and (n % 2 or m % 2 == 0)
            with ctx.working():
                assert abs(hecke_value(f, site, ctx) - mp.expjpi(mpf(m) / n)) < ctx.tolerance
            order = psi_order(f, site, ctx)
            assert order == 2 * n // gcd(m, 2 * n) == psi_order(f, site, coarse)
            # One evaluation gives each of these, bit for bit.
            j, psi, m_site, order_site = word_at_site(f, site, ctx)
            assert (j._mpc_, psi._mpc_, m_site, order_site) == (
                jacobi_sum(f, site, ctx)._mpc_, hecke_value(f, site, ctx)._mpc_, m, order)


def test_psi_exponent_refuses_non_members_and_foreign_sites():
    site = find_site(12)
    with pytest.raises(NotInC):
        psi_exponent(GammaWord.from_coeffs(12, {1: 1}), site)
    with pytest.raises(DomainError, match="site modulus"):
        psi_exponent(word_of_root_system(rs("E6"), 1), find_site(18))


def test_psi_order_is_none_off_the_exponent(monkeypatch, ctx):
    # A numeric psi that is not the root the congruence names has no order.
    site = find_site(12)
    f = word_of_root_system(rs("E6"), 1)
    m = psi_exponent(f, site)
    monkeypatch.setattr(jacobi, "_stickelberger_exponent", lambda f, site, k: (m + 2) % 24)
    assert psi_order(f, site, ctx) is None


def test_root_of_unity_coordinates_match_pslq():
    # Every root of unity zeta_2N**m of Q(zeta_N), N <= 40: the integer
    # reduction mod Phi_N recombines to it, and at Coxeter numbers of the
    # battery it is what recognize_cyclotomic returns, None included: odd N
    # with odd m (3, 7), E6 and F4 (12), the largest phi, 12 (A12 at 13), E7
    # (18) and E8 (30).  PSLQ over all battery moduli takes about 2 s, and
    # at some larger moduli minutes each (N = 31: 133 s).
    ctx = PrecisionContext(50)
    with ctx.working():
        for n in range(2, 41):
            zetas = [mp.expjpi(mpf(2 * j) / n) for j in range(n)]
            for m in range(0, 2 * n, 2 - n % 2):
                z = mp.expjpi(mpf(m) / n)
                coords = recognize_root_of_unity(z, m, n, ctx)
                assert coords is not None
                assert abs(sum(c * w for c, w in zip(coords, zetas)) - z) < mpf(10) ** -45
                if n in (3, 7, 12, 13, 18, 30):
                    assert coords == recognize_cyclotomic(z, n, max_coeff=4, ctx=ctx)


def test_recognize_root_of_unity_keeps_the_null_rules(ctx, monkeypatch):
    with ctx.working():
        zeta = mp.expjpi(mpf(1) / 6)  # zeta_12 = zeta_24**2
        assert recognize_root_of_unity(zeta, 2, 12, ctx) == (0, 1, 0, 0)
        # A value off the named root, and one near it but not within 1e-20.
        assert recognize_root_of_unity(zeta, 4, 12, ctx) is None
        near = zeta + mpf(10) ** -15
        assert recognize_root_of_unity(near, 2, 12, ctx) is None
        # Odd m for odd N: zeta_6**3 = -1 over (1, zeta_3), zeta_2 = -1 over (1,).
        assert recognize_root_of_unity(-1, 3, 3, ctx) == (-1, 0)
        assert recognize_root_of_unity(-1, 1, 1, ctx) == (-1,)
        with pytest.raises(DomainError, match="not in"):
            recognize_root_of_unity(zeta, 1, 12, ctx)
        with pytest.raises(DomainError, match="must be an integer"):
            recognize_root_of_unity(zeta, 2.0, 12, ctx)
        # A target that is not a finite number is refused, not left unrecognized.
        with pytest.raises(DomainError, match="must be a finite number"):
            recognize_root_of_unity("abc", 2, 12, ctx)
        for bad in (mp.nan, mp.inf, mp.mpc(1, mp.nan)):
            with pytest.raises(DomainError, match="non-finite"):
                recognize_root_of_unity(bad, 2, 12, ctx)
        # No bound on the coordinates: zeta_935**912 reduces mod Phi_935 to
        # exact coordinates that include a 5.
        coeffs = recognize_root_of_unity(mp.expjpi(mpf(1824) / 935), 1824, 935, ctx)
        assert max(map(abs, coeffs)) == 5
        # The rule reads its constant: a looser tolerance accepts the near value.
        monkeypatch.setattr(jacobi, "_ROOT_TOL", mpf(10) ** -10)
        assert recognize_root_of_unity(near, 2, 12, ctx) == (0, 1, 0, 0)


def test_recognize_cyclotomic(ctx):
    with ctx.working():
        z = 1 + mp.expjpi(mpf(2) / 12)
        assert recognize_cyclotomic(z, 12, max_coeff=10, ctx=ctx) == (1, 1, 0, 0)

        site = find_site(12)
        word = GammaWord.from_coeffs(12, {2: 1, 3: 1, 5: -1})
        j = jacobi_sum(word, site, ctx)
        coeffs = recognize_cyclotomic(j, 12, max_coeff=40, tol=mpf(10) ** -20, ctx=ctx)
        assert coeffs is not None
        zetas = [mp.expjpi(mpf(2 * k) / 12) for k in range(4)]
        recombined = sum(c * zeta for c, zeta in zip(coeffs, zetas))
        assert abs(recombined - j) < mpf(10) ** -20

        assert recognize_cyclotomic(mp.pi, 12, max_coeff=1000,
                                    tol=mpf(10) ** -20, ctx=ctx) is None
        assert recognize_cyclotomic(mp.mpf(3) / 7, 12, max_coeff=1000,
                                    tol=mpf(10) ** -20, ctx=ctx) is None

        # N = 1: the cyclotomic integers are the rational integers
        assert recognize_cyclotomic(mpf(1), 1, ctx=ctx) == (1,)
        for modulus in (0, -4):
            with pytest.raises(DomainError):
                recognize_cyclotomic(mpf(1), modulus, ctx=ctx)
        # non-finite targets are refused, not handed to PSLQ
        for bad in (mp.nan, mp.inf, -mp.inf, mp.mpc(1, mp.nan), mp.mpc(mp.inf, 1)):
            with pytest.raises(DomainError, match="non-finite"):
                recognize_cyclotomic(bad, 12, ctx=ctx)
        with pytest.raises(DomainError, match="must be a finite number"):
            recognize_cyclotomic("abc", 12, ctx=ctx)


@pytest.mark.parametrize("modulus,max_coeff", [(12.0, 1000), (12, 1.5)],
                         ids=["float-modulus", "float-max-coeff"])
def test_recognize_cyclotomic_refuses_non_integers(modulus, max_coeff, ctx):
    with pytest.raises(DomainError, match="must be an integer"):
        recognize_cyclotomic(1, modulus, max_coeff=max_coeff, ctx=ctx)


@pytest.mark.parametrize("kwargs", [
    {"tol": "abc"}, {"tol": -1}, {"tol": 0}, {"tol": mp.nan}, {"max_coeff": -5},
], ids=["str-tol", "negative-tol", "zero-tol", "nan-tol", "negative-max-coeff"])
def test_recognize_cyclotomic_refuses_bad_tolerance_and_budget(kwargs, ctx):
    # Each of these used to return None for the cyclotomic integer 2, or to
    # end in mpmath's ValueError.
    assert recognize_cyclotomic(mpf(2), 12, ctx=ctx) == (2, 0, 0, 0)
    with pytest.raises(DomainError, match="must be"):
        recognize_cyclotomic(mpf(2), 12, ctx=ctx, **kwargs)


def _poly_divmod(num: list[int], den: list[int]) -> tuple[list[int], list[int]]:
    """Quotient and remainder of integer polynomials (constant term first)
    by a monic den; the remainder has len(den) - 1 coefficients."""
    num, quotient = list(num), []
    for i in range(len(num) - len(den), -1, -1):
        lead = num[i + len(den) - 1]
        quotient.append(lead)
        for j, d in enumerate(den):
            num[i + j] -= lead * d
    return quotient[::-1], (num + [0] * len(den))[:len(den) - 1]


def _cyclotomic_polynomial(n: int) -> list[int]:
    """Phi_n: x^n - 1 divided by Phi_d for every proper divisor d of n."""
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            poly, rest = _poly_divmod(poly, _cyclotomic_polynomial(d))
            assert not any(rest)
    return poly


@pytest.mark.parametrize("digits", [20, 50, 80])
@pytest.mark.parametrize("modulus", [1, 2, 3, 4, 5, 7, 9, 12, 18, 30])
def test_recognize_roots_of_unity(modulus, digits):
    ctx = PrecisionContext(digits)
    phi_n = _cyclotomic_polynomial(modulus)
    zero = (0,) * (len(phi_n) - 1)
    with ctx.working():
        for k in range(modulus):
            coords = _poly_divmod([0] * k + [1], phi_n)[1]
            zeta = mp.expjpi(mpf(2 * k) / modulus)
            for sign in (1, -1):
                assert recognize_cyclotomic(sign * zeta, modulus, ctx=ctx) == \
                    tuple(sign * c for c in coords)
        assert recognize_cyclotomic(mpf(0), modulus, ctx=ctx) == zero
        assert recognize_cyclotomic(mpf(10) ** -30, modulus, ctx=ctx) == zero
        # re + pi im vanishes here; it is no cyclotomic integer
        assert recognize_cyclotomic(mp.mpc(-mp.pi, 1), modulus, ctx=ctx) is None


@pytest.mark.parametrize("digits", [20, 50, 80])
def test_recognize_cyclotomic_bounds_every_coordinate(digits):
    ctx = PrecisionContext(digits)
    with ctx.working():
        zeta = mp.expjpi(mpf(2) / 12)
        z = 4 * (1 + zeta + zeta ** 2 + zeta ** 3)
        assert recognize_cyclotomic(z, 12, max_coeff=4, ctx=ctx) == (4, 4, 4, 4)
        assert recognize_cyclotomic(z, 12, max_coeff=3, ctx=ctx) is None


def test_recognize_jacobi_sums_at_modulus_thirty(ctx):
    # PSLQ takes more than mpmath's default 100 steps on these.
    site = find_site(30)
    with ctx.working():
        zetas = [mp.expjpi(mpf(2 * k) / 30) for k in range(8)]
        for a, b in ((1, 4), (1, 5), (2, 9), (3, 7)):
            j = jacobi_sum(GammaWord.from_coeffs(30, {a: 1, b: 1, a + b: -1}), site, ctx)
            coeffs = recognize_cyclotomic(j, 30, max_coeff=20, ctx=ctx)
            assert coeffs is not None
            assert abs(sum(c * z for c, z in zip(coeffs, zetas)) - j) < mpf(10) ** -20
