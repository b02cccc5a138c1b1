import itertools
from fractions import Fraction as Q

import pytest

from cartan_gamma import (DomainError, InvalidRank, NotARoot, RootSystemLabel,
                          affine_cartan_matrix, build_root_system,
                          coroot_pairing, height, pairing_height_sum,
                          simple_coroot_pairing, word_of_root_system)
from conftest import rational_nullspace, rs


@pytest.mark.parametrize("bad", ["A0", "B1", "C1", "D2", "E5", "E9", "F3", "F5", "G3", "H4", "E", "8",
                                 "A\u00b2", "E\u2078", "", 5, None, b"E8",
                                 pytest.param((["A"], 6), id="list-family")])
def test_label_validation(bad):
    # A tuple row is a (family, rank) pair for the constructor; the rest are
    # texts to parse.
    with pytest.raises(InvalidRank):
        RootSystemLabel(*bad) if isinstance(bad, tuple) else RootSystemLabel.parse(bad)


@pytest.mark.parametrize("rank", ["3", 1.0, 3.5, True, None], ids=["str", "float-one",
                                                                  "float", "bool", "none"])
def test_label_refuses_non_integer_rank(rank):
    with pytest.raises(InvalidRank, match="must be an integer"):
        RootSystemLabel("A", rank)


def test_label_roundtrip():
    label = RootSystemLabel.parse("e8")
    assert (label.family, label.rank) == ("E", 8)
    assert str(label) == "E8"
    # decimal digits of any script parse; superscripts are not decimal
    assert RootSystemLabel.parse("A\u0663") == RootSystemLabel("A", 3)


@pytest.mark.parametrize("text,h,npos", [
    ("A1", 2, 1), ("A3", 4, 6), ("B2", 4, 4), ("C3", 6, 9), ("D4", 6, 12),
    ("E6", 12, 36), ("E7", 18, 63), ("E8", 30, 120), ("F4", 12, 24), ("G2", 6, 6),
])
def test_counts_and_coxeter_numbers(text, h, npos):
    system = rs(text)
    assert system.h == h
    assert len(system.positive_roots) == npos == system.rank * h // 2


def test_battery_invariants(battery):
    for label in battery:
        system = build_root_system(label)
        r, h = system.rank, system.h
        assert len(system.positive_roots) == r * h // 2
        assert sum(system.marks) == h
        assert sum(system.comarks) == system.h_dual
        heights = [sum(alpha) for alpha in system.positive_roots]
        assert all(1 <= ht <= h - 1 for ht in heights)
        assert heights.count(1) == r
        assert heights.count(h - 1) == 1
        assert system.positive_roots[-1] == system.highest_root
        for i in range(r):
            assert system.cartan[i][i] == 2
            for j in range(r):
                if i != j:
                    assert system.cartan[i][j] in (0, -1, -2, -3)
        if label.family in "ADE":
            assert system.cartan == tuple(zip(*system.cartan))
            assert system.marks == system.comarks


def test_gram_positive_definite(small_labels):
    for label in small_labels:
        g = build_root_system(label).gram
        n = len(g)
        for k in range(1, n + 1):
            assert _det([row[:k] for row in g[:k]]) > 0


def _det(m):
    n = len(m)
    m = [list(row) for row in m]
    out = Q(1)
    for c in range(n):
        pivot = next((r for r in range(c, n) if m[r][c]), None)
        if pivot is None:
            return Q(0)
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            out = -out
        out *= m[c][c]
        for r in range(c + 1, n):
            f = m[r][c] / m[c][c]
            m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return out


def test_long_roots_have_norm_two(battery):
    for label in battery:
        system = build_root_system(label)
        norms = {system.norm(alpha) for alpha in system.positive_roots}
        assert max(norms) == 2
        assert len(norms) <= 2
        assert system.norm(system.highest_root) == 2


def test_inner_refuses_vectors_of_the_wrong_length():
    # zip would cut (1,) against the first simple root of E6 and return 2.
    e6 = rs("E6")
    for v, w in [((1,), (1,)), ((1,) * 7, (1,) * 7), (e6.simple_root(1), (1,))]:
        with pytest.raises(DomainError, match="length 6"):
            e6.inner(v, w)
    with pytest.raises(DomainError, match="length 6"):
        e6.norm((1,))


def test_coroot_pairing_examples():
    a2 = rs("A2")
    assert coroot_pairing(a2, a2.simple_root(1), 2) == -1
    b2 = rs("B2")
    short = (1, 1)  # short root of norm 1
    assert b2.norm(short) == 1
    assert coroot_pairing(b2, short, 1) == 2
    g2 = rs("G2")
    total = sum(coroot_pairing(g2, alpha, 1) * sum(alpha) for alpha in g2.positive_roots)
    assert total == g2.h == 6


def test_simple_coroot_pairing_matches_cartan(small_labels):
    for label in small_labels:
        system = build_root_system(label)
        for i in range(1, system.rank + 1):
            for j in range(1, system.rank + 1):
                assert (simple_coroot_pairing(system, system.simple_root(i), j)
                        == system.cartan[i - 1][j - 1])


def test_pairing_table_matches_fraction_reference(battery):
    # Reference from the rational Gram matrix, computed with fractions:
    # 2(alpha|a_i)/(alpha|alpha) and 2(alpha|a_i)/(a_i|a_i).
    for label in battery:
        system = build_root_system(label)
        g, r = system.gram, system.rank
        for positive in system.positive_roots:
            negative = tuple(-c for c in positive)
            g_root = [sum(g[i][j] * positive[j] for j in range(r)) for i in range(r)]
            norm = sum(c * x for c, x in zip(positive, g_root))
            for i in range(1, r + 1):
                # -alpha has the same norm and the negated products.
                coroot = 2 * g_root[i - 1] / norm
                simple = 2 * g_root[i - 1] / g[i - 1][i - 1]
                assert coroot_pairing(system, positive, i) == coroot
                assert coroot_pairing(system, negative, i) == -coroot
                assert simple_coroot_pairing(system, positive, i) == simple
                assert simple_coroot_pairing(system, negative, i) == -simple


def test_roots_are_closed_under_simple_reflections(battery):
    # s_k(alpha) = alpha - <alpha, a_k^vee> a_k permutes the roots, and
    # <alpha^vee, alpha> = sum_k alpha_k <alpha^vee, a_k> = 2.
    for label in battery:
        system = build_root_system(label)
        positives = set(system.positive_roots)
        roots = positives | {tuple(-c for c in alpha) for alpha in positives}
        for alpha in roots:
            for k in range(system.rank):
                c = simple_coroot_pairing(system, alpha, k + 1)
                assert alpha[:k] + (alpha[k] - c,) + alpha[k + 1:] in roots
        for alpha in positives:
            assert sum(a * coroot_pairing(system, alpha, k)
                       for k, a in enumerate(alpha, start=1)) == 2


def test_root_system_compares_by_label():
    assert rs("E6") == build_root_system(RootSystemLabel("E", 6))
    assert hash(rs("E6")) == hash(RootSystemLabel("E", 6))
    assert rs("B3") != rs("C3")


def test_height():
    assert height(rs("A5"), rs("A5").simple_root(3)) == 1
    assert height(rs("E8"), rs("E8").highest_root) == 29
    assert height(rs("E6"), rs("E6").highest_root) == 11
    with pytest.raises(NotARoot):
        height(rs("A2"), (1, -1))
    with pytest.raises(NotARoot):
        coroot_pairing(rs("A2"), (2, 2), 1)
    with pytest.raises(NotARoot):
        simple_coroot_pairing(rs("A2"), (2, 2), 1)


@pytest.mark.parametrize("call", [
    lambda a2: a2.simple_root(1.5),
    lambda a2: a2.simple_root(True),
    lambda a2: word_of_root_system(a2, True),
    lambda a2: word_of_root_system(a2, 1.5),
    lambda a2: coroot_pairing(a2, (1, 0), 1.0),
    lambda a2: pairing_height_sum(a2, 2.5),
], ids=["simple-root-float", "simple-root-bool", "word-bool", "word-float",
        "coroot-pairing-float", "pairing-height-sum-float"])
def test_simple_root_index_must_be_an_integer(call):
    # 1.5 indexes no simple root, and True must not stand for the index 1.
    with pytest.raises(NotARoot, match="must be an integer"):
        call(rs("A2"))


def test_affine_matrix_small_cases():
    assert affine_cartan_matrix(rs("A1")) == ((2, -2), (-2, 2))
    g2 = affine_cartan_matrix(rs("G2"))
    assert _matvec(g2, (1, 3, 2)) == [0, 0, 0]


def _matvec(m, v):
    return [sum(a * b for a, b in zip(row, v)) for row in m]


def test_affine_kernel_is_marks(battery):
    for label in battery:
        system = build_root_system(label)
        affine = affine_cartan_matrix(system)
        assert _matvec(affine, system.marks) == [0] * (system.rank + 1)
        assert _matvec(tuple(zip(*affine)), system.comarks) == [0] * (system.rank + 1)


def test_affine_kernel_is_one_dimensional():
    for text in ("A3", "B4", "C4", "D5", "E6", "F4", "G2"):
        system = rs(text)
        affine = affine_cartan_matrix(system)
        # The marks span the kernel, and the comarks that of the transpose.
        for matrix, vector in ((affine, system.marks), (tuple(zip(*affine)), system.comarks)):
            basis = rational_nullspace(matrix)
            assert len(basis) == 1
            vec = basis[0]
            scale = vector[0] / vec[0]
            assert tuple(scale * x for x in vec) == tuple(map(Q, vector))


# Independent construction oracle: explicit coordinate models of the
# classical families, compared against the closure-generated sets.

def _epsilon_simple_roots(family, n):
    def e(i, dim):
        return tuple(Q(1) if k == i else Q(0) for k in range(dim))

    if family == "A":
        dim = n + 1
        return [tuple(a - b for a, b in zip(e(i, dim), e(i + 1, dim))) for i in range(n)], dim
    if family == "B":
        simples = [tuple(a - b for a, b in zip(e(i, n), e(i + 1, n))) for i in range(n - 1)]
        simples.append(e(n - 1, n))
        return simples, n
    if family == "C":
        simples = [tuple(a - b for a, b in zip(e(i, n), e(i + 1, n))) for i in range(n - 1)]
        simples.append(tuple(2 * x for x in e(n - 1, n)))
        return simples, n
    if family == "D":
        simples = [tuple(a - b for a, b in zip(e(i, n), e(i + 1, n))) for i in range(n - 1)]
        simples.append(tuple(a + b for a, b in zip(e(n - 2, n), e(n - 1, n))))
        return simples, n
    raise AssertionError(family)


def _epsilon_positive_set(family, n):
    def e(i):
        return tuple(Q(1) if k == i else Q(0) for k in range(n if family != "A" else n + 1))

    def plus(u, v):
        return tuple(a + b for a, b in zip(u, v))

    def minus(u, v):
        return tuple(a - b for a, b in zip(u, v))

    out = set()
    if family == "A":
        for i in range(n + 1):
            for j in range(i + 1, n + 1):
                out.add(minus(e(i), e(j)))
    elif family == "B":
        for i in range(n):
            out.add(e(i))
            for j in range(i + 1, n):
                out.add(minus(e(i), e(j)))
                out.add(plus(e(i), e(j)))
    elif family == "C":
        for i in range(n):
            out.add(tuple(2 * x for x in e(i)))
            for j in range(i + 1, n):
                out.add(minus(e(i), e(j)))
                out.add(plus(e(i), e(j)))
    elif family == "D":
        for i in range(n):
            for j in range(i + 1, n):
                out.add(minus(e(i), e(j)))
                out.add(plus(e(i), e(j)))
    return out


@pytest.mark.parametrize("family,n", [("A", 4), ("B", 4), ("C", 4), ("D", 5), ("B", 6), ("C", 6)])
def test_closure_matches_explicit_coordinates(family, n):
    system = build_root_system(RootSystemLabel(family, n))
    simples, _ = _epsilon_simple_roots(family, n)
    generated = set()
    for alpha in system.positive_roots:
        vec = None
        for coeff, simple in zip(alpha, simples):
            term = tuple(coeff * x for x in simple)
            vec = term if vec is None else tuple(a + b for a, b in zip(vec, term))
        generated.add(vec)
    assert generated == _epsilon_positive_set(family, n)


# Norm-shell oracle: inside these root lattices the vectors of root norm
# are exactly the roots.  (The C family with rank a multiple of 4 gains
# extra norm-2 lattice vectors, so C4 is checked by the coordinate oracle
# above instead.)
@pytest.mark.parametrize("text", ["A1", "A2", "A3", "A4", "B2", "B3", "B4",
                                  "C2", "C3", "D3", "D4", "F4", "G2"])
def test_norm_shell_equals_roots(text):
    system = rs(text)
    r = system.rank
    norms = {system.norm(alpha) for alpha in system.positive_roots}
    bound = max(max(abs(c) for c in alpha) for alpha in system.positive_roots)
    shell = set()
    for coeffs in itertools.product(range(-bound, bound + 1), repeat=r):
        if any(coeffs) and system.norm(coeffs) in norms:
            shell.add(coeffs)
    full = set(system.positive_roots) | {tuple(-c for c in alpha)
                                         for alpha in system.positive_roots}
    assert shell == full
