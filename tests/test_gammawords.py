import json
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

from cartan_gamma import (DomainError, GammaWord, NotAUnit, classify, evaluate,
                          evaluate_gamma_ratio, evaluate_sine_product, n_of,
                          pairing_height_sum, pow_rat, tilde, u_act, units,
                          word_of_root_system)
from conftest import rs

EXAMPLE_WORDS_E6 = {
    1: "-[1]+[3]-[6]-[8]",
    2: "-[1]+[2]+[3]-[4]-[5]-[6]+[10]-[11]",
    3: "-[4]-[5]+[6]-[9]",
    4: "[1]-[2]-2[3]+[4]+[5]-[6]-[7]+[9]-[10]",
    5: "-[4]-[5]+[6]-[9]",
    6: "-[1]+[3]-[6]-[8]",
}


def w(text, i):
    return word_of_root_system(rs(text), i)


def test_e6_words_verbatim():
    for i, expected in EXAMPLE_WORDS_E6.items():
        assert str(w("E6", i)) == expected
    assert w("E6", 1) == w("E6", 6)
    assert w("E6", 3) == w("E6", 5)
    assert w("E6", 1) != w("E6", 2)


def test_word_fixtures_from_closed_form_products():
    # Words read off the per-node Gamma quotients of the 18- and 30-fold systems.
    assert str(w("E7", 1)) == "-[1]+[3]+[5]-[6]-[8]-[10]+[16]-[17]"
    assert str(w("E7", 7)) == "-[1]+[4]-[9]-[12]"
    assert str(w("E8", 1)) == "-[1]+[3]+[5]-[8]-[10]-[12]+[16]-[23]"
    assert str(w("A1", 1)) == "-2[1]"
    assert w("A1", 1).modulus == 2


def test_folding_word_equalities():
    assert w("G2", 1) == w("D4", 1)
    assert w("G2", 2) == w("D4", 2)
    assert w("F4", 1) == w("E6", 2)
    assert w("F4", 2) == w("E6", 4)
    assert w("F4", 3) == w("E6", 3)
    assert w("F4", 4) == w("E6", 1)


def test_word_construction_validation():
    with pytest.raises(DomainError):
        GammaWord(1, ())
    with pytest.raises(DomainError):
        GammaWord(6, ((0, 1),))
    with pytest.raises(DomainError):
        GammaWord(6, ((1, 0),))
    with pytest.raises(DomainError):
        GammaWord(6, ((2, 1), (1, 1)))
    # Coefficients that are not (residue, exponent) pairs, or not a mapping.
    with pytest.raises(DomainError, match="pairs"):
        GammaWord(12, 5)
    with pytest.raises(DomainError, match="pairs"):
        GammaWord(12, ((1, 2, 3),))
    with pytest.raises(DomainError, match="map residues"):
        GammaWord.from_coeffs(12, [(1, 2)])
    assert GammaWord.from_coeffs(6, {1: 1, 2: 0}).coeffs == ((1, 1),)


@pytest.mark.parametrize("build", [
    lambda: GammaWord(12, ((1, 1.5),)),
    lambda: GammaWord(12, ((1.0, 1),)),
    lambda: GammaWord(12, ((1, True),)),
    lambda: GammaWord(12.0, ((1, 1),)),
    lambda: GammaWord.from_coeffs(12, {1: 1.5}),
    lambda: GammaWord.from_coeffs(12, {1: 0.0}),
    lambda: GammaWord.from_coeffs(12, {1.0: 1}),
    lambda: GammaWord.from_coeffs(12, {True: 1}),
    lambda: GammaWord.from_coeffs(12, {1: "2"}),
    lambda: units(12.0),
    lambda: u_act(1.5, w("E6", 1)),
    lambda: u_act(True, w("E6", 1)),
], ids=["float-exponent", "float-residue", "bool-exponent", "float-modulus",
        "from-coeffs-float-exponent", "from-coeffs-float-zero", "from-coeffs-float-residue",
        "from-coeffs-bool-residue", "from-coeffs-str-exponent", "units-float-modulus",
        "u-act-float-unit", "u-act-bool-unit"])
def test_word_refuses_non_integer_data(build):
    # int() would truncate {1: 1.5} to the exponent 1, and True would act as
    # the unit 1.
    with pytest.raises(DomainError, match="must be an integer"):
        build()


def test_word_algebra():
    f = GammaWord.from_coeffs(6, {1: 2, 5: -1})
    g = GammaWord.from_coeffs(6, {1: -2, 3: 4})
    assert (f + g).coeffs == ((3, 4), (5, -1))
    assert (-f).coeffs == ((1, -2), (5, 1))
    with pytest.raises(DomainError):
        f + GammaWord.from_coeffs(5, {1: 1})


def test_json_roundtrip():
    f = w("E6", 4)
    data = json.loads(json.dumps(f.to_json_dict()))
    assert data["N"] == 12
    assert data["coeffs"]["3"] == -2
    assert GammaWord.from_coeffs(data["N"], {int(j): c for j, c in data["coeffs"].items()}) == f


def test_tilde():
    assert tilde(w("A1", 1)).coeffs == ()
    f = w("E6", 1)
    t = tilde(f)
    for j in range(1, 12):
        assert t.coeff(j) == f.coeff(j) - f.coeff(12 - j)
        assert t.coeff(j) + t.coeff(12 - j) == 0


def test_n_of_values():
    assert n_of(w("A1", 1)) == -1
    assert n_of(w("E6", 2)) == -1
    for i in range(1, 7):
        assert n_of(tilde(w("E6", i))) == 0
    assert n_of(GammaWord.from_coeffs(3, {1: 1})) == Q(1, 3)


def test_u_act():
    f = w("E6", 1)
    assert u_act(1, f) == f
    assert units(12) == (1, 5, 7, 11)
    for u in units(12):
        assert n_of(u_act(u, f)) == -1
    with pytest.raises(NotAUnit):
        u_act(4, f)


@pytest.mark.parametrize("modulus", [1, 0, -5])
def test_units_refuses_moduli_below_two(modulus):
    # range(1, modulus) is empty there, which read as "no units".
    with pytest.raises(DomainError, match="modulus must be >= 2"):
        units(modulus)


@st.composite
def words(draw):
    n = draw(st.integers(min_value=2, max_value=40))
    coeffs = draw(st.dictionaries(st.integers(min_value=1, max_value=n - 1),
                                  st.integers(min_value=-4, max_value=4), max_size=8))
    return GammaWord.from_coeffs(n, coeffs)


@settings(max_examples=60, deadline=None)
@given(words(), st.data())
def test_action_and_tilde_properties(f, data):
    n = f.modulus
    unit_group = units(n)
    u = data.draw(st.sampled_from(unit_group))
    v = data.draw(st.sampled_from(unit_group))
    g, t = u_act(u, f), tilde(f)
    for j in range(1, n):
        assert g.coeff(j) == f.coeff(u * j % n)
        assert t.coeff(j) == f.coeff(j) - f.coeff(n - j)
    assert u_act(u, u_act(v, f)) == u_act(u * v % n, f)


def test_classify():
    for i in range(1, 7):
        v = classify(w("E6", i))
        assert v.in_C and v.k == -1
        vt = classify(tilde(w("E6", i)))
        assert vt.in_C and vt.k == 0
    bad = classify(GammaWord.from_coeffs(3, {1: 1}))
    assert not bad.in_C and bad.witness == Q(1, 3)
    # integer weighted sum but not invariant under the unit action
    skew = classify(GammaWord.from_coeffs(5, {1: 2, 3: 1}))
    assert not skew.in_C and skew.witness in units(5)


def test_evaluate_fixtures(ctx):
    with ctx.working():
        tol = mpf(10) ** -45
        assert abs(evaluate(w("A1", 1), ctx) - 1 / mp.pi) < tol
        assert abs(evaluate(w("G2", 1), ctx) - pow_rat(2, Q(-2, 3), ctx) / mp.pi) < tol
        target = (pow_rat(2, Q(-13, 15), ctx) * pow_rat(3, Q(-2, 5), ctx)
                  * pow_rat(5, Q(5, 6), ctx))
        assert abs(evaluate(tilde(w("E8", 5)), ctx) - target) < tol
        # the 30-fold ratio product quoted for the first node
        first = (pow_rat(2, Q(2, 15), ctx) * pow_rat(3, Q(-2, 5), ctx)
                 * pow_rat(5, Q(-1, 6), ctx))
        assert abs(evaluate_gamma_ratio(w("E8", 1), ctx) - first) < tol


def test_evaluate_is_log_additive(ctx):
    f = GammaWord.from_coeffs(12, {1: 2, 5: -1, 7: 3})
    g = GammaWord.from_coeffs(12, {2: 1, 5: 1, 11: -2})
    with ctx.working():
        lhs = evaluate(f + g, ctx)
        rhs = evaluate(f, ctx) * evaluate(g, ctx)
        assert abs(lhs - rhs) < mpf(10) ** -38 * abs(rhs)


def test_gamma_ratio_equals_tilde_evaluation(ctx):
    with ctx.working():
        for i in (1, 2, 4):
            f = w("E6", i)
            a = evaluate_gamma_ratio(f, ctx)
            b = evaluate(tilde(f), ctx)
            assert abs(a - b) < mpf(10) ** -45


def test_square_identity_per_word(ctx):
    with ctx.working():
        for text, i in (("E6", 1), ("B3", 3), ("G2", 2)):
            f = w(text, i)
            square = evaluate(f, ctx) ** 2
            product = evaluate_sine_product(f, ctx) * evaluate_gamma_ratio(f, ctx)
            assert abs(square - product) < mpf(10) ** -45 * abs(square)


def test_pairing_height_sum(battery):
    from cartan_gamma import build_root_system
    for label in battery:
        system = build_root_system(label)
        for i in range(1, system.rank + 1):
            assert pairing_height_sum(system, i) == system.h
