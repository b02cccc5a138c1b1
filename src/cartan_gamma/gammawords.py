"""Integer exponent words on nonzero residues mod N and their evaluation.

A word assigns an integer exponent to each residue j/N, 0 < j < N; it
encodes a product of Gamma values Gamma(j/N)**f(j).  The distinguished
words attached to a root system collect, height by height, the coroot
pairings against one simple root; their Gamma products are exactly the
positive numbers whose vector forms the Perron-Frobenius eigenvector of
the Cartan matrix.

A unit u mod N acts by permuting the residues, (u.f)(j) = f(u*j mod N),
and :func:`tilde`, f(j) - f(N - j), is f minus its image under the unit -1.
The membership test implemented by :func:`classify` (weighted sum an
integer k, and unchanged by every unit) is the Koblitz-Ogus criterion for
``pi**(-k) * product`` being algebraic (appendix to Deligne, "Valeurs de
fonctions L et periodes d'integrales", 1979).
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from mpmath import mp

from .errors import DomainError, NotAUnit, require_int
from .rootkit import RootSystem
from .specialfn import PrecisionContext


@dataclass(frozen=True)
class GammaWord:
    """Finitely supported integer-valued function on residues 1..N-1.

    ``coeffs`` stores only nonzero exponents, sorted by residue.
    """

    modulus: int
    coeffs: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        require_int(self.modulus, "modulus", minimum=2)
        if not (isinstance(self.coeffs, tuple)
                and all(isinstance(t, tuple) and len(t) == 2 for t in self.coeffs)):
            raise DomainError(f"coefficients must be a tuple of (residue, exponent) "
                              f"pairs, got {self.coeffs!r}")
        for j, c in self.coeffs:
            require_int(j, "residue")
            require_int(c, "exponent")
            if not 0 < j < self.modulus:
                raise DomainError(f"residue {j} outside 1..{self.modulus - 1}")
            if c == 0:
                raise DomainError("zero coefficients must be dropped")
        if [j for j, _ in self.coeffs] != sorted({j for j, _ in self.coeffs}):
            raise DomainError("coefficients must be sorted and free of duplicates")

    @classmethod
    def from_coeffs(cls, modulus: int, coeffs: Mapping[int, int]) -> "GammaWord":
        if not isinstance(coeffs, Mapping):
            raise DomainError(f"coefficients must map residues to exponents, got {coeffs!r}")
        for j, c in coeffs.items():  # zero exponents too, before they are dropped
            require_int(j, "residue")
            require_int(c, "exponent")
        return cls(modulus, tuple(sorted((j, c) for j, c in coeffs.items() if c)))

    def coeff(self, j: int) -> int:
        return dict(self.coeffs).get(j % self.modulus, 0)

    def __add__(self, other: "GammaWord") -> "GammaWord":
        if self.modulus != other.modulus:
            raise DomainError("cannot add words with different moduli")
        merged = dict(self.coeffs)
        for j, c in other.coeffs:
            merged[j] = merged.get(j, 0) + c
        return GammaWord.from_coeffs(self.modulus, merged)

    def __neg__(self) -> "GammaWord":
        return GammaWord(self.modulus, tuple((j, -c) for j, c in self.coeffs))

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for j, c in self.coeffs:
            mult = "" if abs(c) == 1 else str(abs(c))
            parts.append(f"{'-' if c < 0 else '+'}{mult}[{j}]")
        text = "".join(parts)
        return text[1:] if text.startswith("+") else text

    def to_json_dict(self) -> dict:
        return {"N": self.modulus, "coeffs": {str(j): c for j, c in self.coeffs}}


@dataclass(frozen=True)
class MembershipVerdict:
    """Result of the integrality/unit-invariance test.

    When ``in_C`` holds, ``k`` is the common weighted sum; otherwise
    ``witness`` carries either the non-integer weighted sum or the unit
    whose action changes it.
    """

    in_C: bool
    k: int | None = None
    witness: object = None


def word_of_root_system(rs: RootSystem, i: int) -> GammaWord:
    """Exponent word of simple index i: minus the sum of coroot pairings
    against root i, grouped by root height, over modulus h."""
    f: dict[int, int] = {}
    for alpha, pairing in zip(rs.positive_roots, rs.coroot_column(i)):
        ht = sum(alpha)
        f[ht] = f.get(ht, 0) - pairing
    return GammaWord.from_coeffs(rs.h, f)


def tilde(f: GammaWord) -> GammaWord:
    """Antisymmetrized word g(j) = f(j) - f(N-j): f minus its image under -1."""
    return f + -u_act(f.modulus - 1, f)


def n_of(f: GammaWord) -> Fraction:
    """Exact weighted sum of the exponents: sum of (j/N) * f(j)."""
    return Fraction(sum(j * c for j, c in f.coeffs), f.modulus)


def units(modulus: int) -> tuple[int, ...]:
    require_int(modulus, "modulus", minimum=2)
    return tuple(u for u in range(1, modulus) if gcd(u, modulus) == 1)


def u_act(u: int, f: GammaWord) -> GammaWord:
    """Pullback along multiplication by the unit u: (u.f)(j) = f(u*j mod N).

    u permutes the nonzero residues, so the exponent at i moves to u^-1 * i."""
    require_int(u, "unit")
    n = f.modulus
    if gcd(u, n) != 1:
        raise NotAUnit(f"{u} is not a unit mod {n}")
    inverse = pow(u, -1, n)
    return GammaWord.from_coeffs(n, {inverse * j % n: c for j, c in f.coeffs})


def classify(f: GammaWord) -> MembershipVerdict:
    """Exact membership verdict: weighted sum integral and constant on the
    orbit of the unit-group action."""
    k = n_of(f)
    if k.denominator != 1:
        return MembershipVerdict(in_C=False, witness=k)
    for u in units(f.modulus):
        if n_of(u_act(u, f)) != k:
            return MembershipVerdict(in_C=False, witness=u)
    return MembershipVerdict(in_C=True, k=int(k))


def _log_linear(f: GammaWord, term, ctx: PrecisionContext):
    # Accumulate sum f(j) * term(j/N) in log space, then exponentiate.
    with ctx.working():
        n = f.modulus
        total = mp.mpf(0)
        for j, c in f.coeffs:
            total += c * term(mp.mpf(j) / n)
        return mp.exp(total)


def evaluate(f: GammaWord, ctx: PrecisionContext):
    """Product of Gamma(j/N)**f(j), via log accumulation to avoid overflow."""
    return _log_linear(f, mp.loggamma, ctx)


def evaluate_gamma_ratio(f: GammaWord, ctx: PrecisionContext):
    """Product of [Gamma(j/N)/Gamma(1-j/N)]**f(j).

    Equals evaluate(tilde(f), ctx): antisymmetrizing the exponents turns the
    Gamma product into the reflection-ratio product.
    """
    return _log_linear(f, lambda x: mp.loggamma(x) - mp.loggamma(1 - x), ctx)


def evaluate_sine_product(f: GammaWord, ctx: PrecisionContext):
    """Product of [pi/sin(pi j/N)]**f(j).

    Multiplied against the reflection-ratio product this gives the square of
    the Gamma product, coefficient by coefficient.
    """
    return _log_linear(f, lambda x: mp.log(mp.pi) - mp.log(mp.sinpi(x)), ctx)


def pairing_height_sum(rs: RootSystem, i: int) -> int:
    """Sum over positive roots of (coroot pairing with a_i) * height.

    Equals the Coxeter number for every simple index; exposed so the CLI and
    tests can assert it exactly.
    """
    return sum(pairing * sum(alpha)
               for alpha, pairing in zip(rs.positive_roots, rs.coroot_column(i)))
