"""Exact construction of finite irreducible root systems.

Roots are integer coefficient vectors over the simple-root basis.  A type
is fixed by its integer Cartan matrix ``A`` and the squared lengths ``e_j``
in {1, 2, 3} of the simple roots (short roots have 1); ``B_ij = A_ij e_j``
is the symmetric integer form.  The positive roots come from the simple
ones by simple reflections: a positive root alpha with
``c = <alpha, a_i^vee> = sum_j alpha_j A[j][i] < 0`` is raised to
``s_i alpha = alpha - c a_i``, and every positive root of height > 1 arises
so (Humphreys, Lie algebras, 10.2-10.3).  Each root carries its coroot
pairings ``row[k] = <alpha^vee, a_k>``: a_i starts with the column
``A[k][i]``, and ``(s_i alpha)^vee = s_i(alpha^vee)`` gives s_i alpha the
row ``row[k] - A[k][i] row[i]``, all in integers.  Only the rational view
``gram``/``inner``/``norm`` (long roots of norm 2) uses fractions.

Numbering of simple roots follows the standard plates (for the exceptional
types: node 2 is the branch vertex attached to node 4 in the E series;
F4 has the two long roots first; G2 starts with the short root).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction as Q
from functools import lru_cache
from typing import Mapping, Sequence

from .errors import DomainError, InvalidRank, NotARoot, require_int, show_int

Root = tuple[int, ...]
IntMatrix = tuple[tuple[int, ...], ...]

# Largest classical rank.  The root closure grows about as rank**4: on a
# 2-core machine ``roots --type C50``, the slowest family here, takes 0.64 s,
# D80 5.0 s and D100 8.6 s.
MAX_RANK = 50

_RANK_RANGE = {
    "A": (1, MAX_RANK),
    "B": (2, MAX_RANK),
    "C": (2, MAX_RANK),
    "D": (3, MAX_RANK),
    "E": (6, 8),
    "F": (4, 4),
    "G": (2, 2),
}


@dataclass(frozen=True, order=True)
class RootSystemLabel:
    """Family letter plus rank, e.g. E8 or B6."""

    family: str
    rank: int

    def __post_init__(self) -> None:
        if not isinstance(self.family, str) or self.family not in _RANK_RANGE:
            raise InvalidRank(f"unknown family {show_int(self.family, repr)}")
        require_int(self.rank, "rank", InvalidRank)
        lo, hi = _RANK_RANGE[self.family]
        if not lo <= self.rank <= hi:
            # Below its range a classical family names only its lower bound:
            # A0 gives "rank must be >= 1".
            bound = f">= {lo}" if hi == MAX_RANK and self.rank < lo else f"in {lo}..{hi}"
            raise InvalidRank(f"{self.family}{show_int(self.rank)}: rank must be {bound}")

    @classmethod
    def parse(cls, text: str) -> "RootSystemLabel":
        if not isinstance(text, str):
            raise InvalidRank(f"cannot parse root-system label {show_int(text, repr)}")
        text = text.strip()
        if len(text) < 2 or text[0].upper() not in _RANK_RANGE or not text[1:].isdecimal():
            raise InvalidRank(f"cannot parse root-system label {show_int(text, repr)}")
        family, digits = text[0].upper(), text[1:].lstrip("0") or "0"
        if len(digits) > len(str(MAX_RANK)):  # above every range, maybe beyond int()
            lo, hi = _RANK_RANGE[family]
            raise InvalidRank(f"{family}{digits}: rank must be in {lo}..{hi}")
        return cls(family, int(digits))

    def __str__(self) -> str:
        return f"{self.family}{self.rank}"


def _diagram(label: RootSystemLabel) -> tuple[list[tuple[int, int]], list[int]]:
    """Bonds (1-based node pairs) and squared lengths of the simple roots.

    B ends in a short root and C in a long one; E is the chain 1-3-4-...-n
    with the branch node 2 attached to node 4.
    """
    fam, n = label.family, label.rank
    chain = [(k, k + 1) for k in range(1, n)]
    bonds = {"D": chain[:-1] + [(n - 2, n)], "E": [(1, 3), (2, 4)] + chain[2:]}
    lengths = {"B": [2] * (n - 1) + [1], "C": [1] * (n - 1) + [2],
               "F": [2, 2, 1, 1], "G": [1, 3]}
    return bonds.get(fam, chain), lengths.get(fam, [1] * n)


def cover(label: RootSystemLabel) -> tuple[tuple[str, int], tuple[int, ...]]:
    """Simply laced (family, rank) whose diagram folds onto this type, and
    the 0-based cover node of each node here; A, D and E cover themselves.
    Folding fixes the cover's Perron-Frobenius vector, and its values on these
    nodes form this type's (Olive and Turok, Nucl. Phys. B 215, 1983).  The
    rank may exceed MAX_RANK: C50 folds A99."""
    fam, n = label.family, label.rank
    covers = {"B": ("D", n + 1), "C": ("A", 2 * n - 1), "F": ("E", 6), "G": ("D", 4)}
    nodes = {"F": (1, 3, 2, 0), "G": (0, 1)}.get(fam, tuple(range(n)))
    return covers.get(fam, (fam, n)), nodes


def _exact(num: int, den: int, what: str) -> int:
    quotient, remainder = divmod(num, den)
    if remainder:
        raise AssertionError(f"{what} {num}/{den} is not an integer")
    return quotient


@dataclass(frozen=True, eq=False)
class RootSystem:
    """Immutable exact model of one finite irreducible root system.

    ``cartan[i][j]`` is the pairing of simple root i against simple coroot
    j, i.e. 2(a_i|a_j)/(a_j|a_j); ``lengths[j]`` is (a_j|a_j) over the
    short-root norm.  ``positive_roots`` is sorted by (height, coefficients)
    and ``coroots`` maps each to its pairings <alpha^vee, a_i> for
    i = 1..rank.  ``marks`` and ``comarks`` have length rank+1 and start
    with the affine entry 1.  A system is a pure function of its label and
    hashes and compares by it.
    """

    label: RootSystemLabel
    cartan: IntMatrix
    lengths: tuple[int, ...]
    positive_roots: tuple[Root, ...]
    coroots: Mapping[Root, tuple[int, ...]] = field(repr=False)
    h: int
    h_dual: int
    marks: tuple[int, ...]
    comarks: tuple[int, ...]
    highest_root: Root

    def __eq__(self, other: object) -> bool:
        return isinstance(other, RootSystem) and other.label == self.label

    def __hash__(self) -> int:
        return hash(self.label)

    @property
    def rank(self) -> int:
        return self.label.rank

    @property
    def gram(self) -> tuple[tuple[Q, ...], ...]:
        """Rational Gram matrix B / max(lengths): long roots have norm 2."""
        long = max(self.lengths)
        return tuple(tuple(Q(a * e, long) for a, e in zip(row, self.lengths))
                     for row in self.cartan)

    def simple_root(self, i: int) -> Root:
        """Coefficient vector of the i-th simple root (1-based)."""
        self._check_index(i)
        return tuple(1 if j == i - 1 else 0 for j in range(self.rank))

    def inner(self, v: Sequence[int], w: Sequence[int]) -> Q:
        """Exact invariant product (B v).w / max(lengths) of coefficient vectors."""
        if not len(v) == len(w) == self.rank:
            raise DomainError(f"{self.label} needs coefficient vectors of length "
                              f"{self.rank}, got {show_int(tuple(v))} and {show_int(tuple(w))}")
        b_v = _simple_pairings(self.cartan, v)
        return Q(sum(e * b * x for e, b, x in zip(self.lengths, b_v, w)), max(self.lengths))

    def norm(self, alpha: Sequence[int]) -> Q:
        return self.inner(alpha, alpha)

    def coroot_column(self, i: int) -> tuple[int, ...]:
        """<alpha^vee, a_i> for every positive root alpha, in root order."""
        self._check_index(i)
        return tuple(row[i - 1] for row in self.coroots.values())

    def _check_index(self, i: int) -> None:
        require_int(i, "simple-root index", NotARoot)
        if not 1 <= i <= self.rank:
            raise NotARoot(f"simple-root index {show_int(i)} out of range 1..{self.rank}")


def _simple_pairings(cartan: IntMatrix, alpha: Sequence[int]) -> list[int]:
    """<alpha, a_i^vee> = sum_j alpha_j A[j][i] for every simple index i."""
    return [sum(a * row[i] for a, row in zip(alpha, cartan)) for i in range(len(cartan))]


def _closure(cartan: IntMatrix) -> dict[Root, tuple[int, ...]]:
    """Every positive root with its coroot pairings <alpha^vee, a_k>,
    sorted by (height, coefficients); see the module docstring."""
    n = len(cartan)
    rows = {tuple(int(j == i) for j in range(n)): tuple(a[i] for a in cartan)
            for i in range(n)}
    stack = list(rows)
    while stack:
        alpha = stack.pop()
        row = rows[alpha]
        for i, c in enumerate(_simple_pairings(cartan, alpha)):
            beta = alpha[:i] + (alpha[i] - c,) + alpha[i + 1:]
            if c < 0 and beta not in rows:
                rows[beta] = tuple(r - a[i] * row[i] for r, a in zip(row, cartan))
                stack.append(beta)
    return {alpha: rows[alpha] for alpha in sorted(rows, key=lambda v: (sum(v), v))}


@lru_cache(maxsize=None)
def build_root_system(label: RootSystemLabel) -> RootSystem:
    """Construct the full exact data set for one label.

    Raises InvalidRank for out-of-range labels (via RootSystemLabel).
    """
    bonds, lengths = _diagram(label)
    n = label.rank
    form = [[2 * e if i == j else 0 for j in range(n)] for i, e in enumerate(lengths)]
    # On a bond, A_ij is -1 unless a_j is the shorter root, and then
    # -e_i/e_j; either way B_ij = A_ij e_j = -max(e_i, e_j).
    for a, b in bonds:
        form[a - 1][b - 1] = form[b - 1][a - 1] = -max(lengths[a - 1], lengths[b - 1])
    cartan = tuple(tuple(_exact(form[i][j], lengths[j], "Cartan entry") for j in range(n))
                   for i in range(n))
    coroots = _closure(cartan)
    positives = tuple(coroots)

    theta = positives[-1]
    h = sum(theta) + 1
    if len(positives) * 2 != n * h:
        raise AssertionError(f"{label}: root count {len(positives)} != rank*h/2")

    long = max(lengths)
    comarks = (1,) + tuple(_exact(m * e, long, "comark") for m, e in zip(theta, lengths))

    return RootSystem(
        label=label,
        cartan=cartan,
        lengths=tuple(lengths),
        positive_roots=positives,
        coroots=coroots,
        h=h,
        h_dual=sum(comarks),
        marks=(1,) + theta,
        comarks=comarks,
        highest_root=theta,
    )


def height(rs: RootSystem, alpha: Sequence[int]) -> int:
    """Coefficient sum of a positive root; equals its pairing with the
    half-sum of positive coroots under the long-norm-2 normalization."""
    t = tuple(alpha)
    if t not in rs.coroots:
        raise NotARoot(f"{show_int(t)} is not a positive root of {rs.label}")
    return sum(t)


def _signed_row(rs: RootSystem, alpha: Sequence[int]) -> tuple[int, ...]:
    """Coroot pairings <alpha^vee, a_i> of a root of either sign."""
    t = tuple(alpha)
    sign = 1 if t in rs.coroots else -1
    row = rs.coroots.get(tuple(sign * c for c in t))
    if row is None:
        raise NotARoot(f"{show_int(t)} is not a root of {rs.label}")
    return tuple(sign * c for c in row)


def coroot_pairing(rs: RootSystem, alpha: Sequence[int], i: int) -> int:
    """(alpha-coroot | a_i) = 2(alpha|a_i)/(alpha|alpha), an exact integer."""
    row = _signed_row(rs, alpha)
    rs._check_index(i)
    return row[i - 1]


def simple_coroot_pairing(rs: RootSystem, alpha: Sequence[int], i: int) -> int:
    """(alpha | a_i-coroot) = 2(alpha|a_i)/(a_i|a_i), an exact integer."""
    t = tuple(alpha)
    _signed_row(rs, t)
    rs._check_index(i)
    return sum(a * row[i - 1] for a, row in zip(t, rs.cartan))


def affine_cartan_matrix(rs: RootSystem) -> tuple[tuple[int, ...], ...]:
    """(r+1)x(r+1) generalized Cartan matrix of the untwisted affine extension.

    Index 0 corresponds to the negated highest root.  Rows are oriented so
    that the marks vector spans the kernel; the comarks vector spans the
    kernel of the transpose.
    """
    basis = ([tuple(-c for c in rs.highest_root)]
             + [rs.simple_root(i) for i in range(1, rs.rank + 1)])
    pairings = [_signed_row(rs, u) for u in basis]
    return tuple(tuple(sum(p * c for p, c in zip(row, v)) for v in basis) for row in pairings)
