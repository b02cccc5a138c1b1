"""Finite-field character sums, the exact root of unity behind a word's
normalized sum, and cyclotomic recognition.

Sites are degree-one primes p = 1 (mod N), so the residue field is the
prime field and the trace is the identity.  A site is just (N, p): the
character attached to a residue j/N sends g**((p-1)/N), for g the least
primitive root mod p, to exp(2 pi i / N); any other choice is a conjugate
and is covered by the unit-group action on exponent words.  Character
sums are returned as plain mpmath complex numbers.

For a member word the normalized sum psi is a root of unity zeta_2N**m,
and :func:`psi_exponent` finds m from integers mod p alone, by
Stickelberger's congruence (Washington, Introduction to Cyclotomic
Fields, 6.2; Gross and Koblitz, Ann. of Math. 109, 1979).  Its order and
its integer coordinates over the power basis (zeta_N**m reduced mod the
cyclotomic polynomial) follow from m; the numeric psi is kept as the
check that the word sum really is that root.

Other values in the ring of integers of the N-th cyclotomic field are
recognized by one PSLQ integer-relation search over the real numbers
re w + pi im w, for w the target and the power basis (Ferguson, Bailey
and Arno, Math. Comp. 68, 1999); pi, being transcendental, keeps the
real and imaginary parts of a relation apart.
Every candidate is accepted only after high-precision re-evaluation
against the stated tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd, prod

from mpmath import mp, mpf
from mpmath.libmp import from_int, from_man_exp, mpf_cos_sin_pi, mpf_div

from .errors import (DomainError, NotInC, SearchExhausted, require_finite, require_int,
                     require_tolerance)
from .gammawords import GammaWord, classify
from .specialfn import PrecisionContext

# Largest prime a site may use, and find_site's default search cap.
MAX_PRIME = 10_000_000

# The jacobi command prints a word's cyclotomic coordinates as null when
# their recombination lies _ROOT_TOL or farther from the numeric psi, the
# default tol of recognize_cyclotomic.
_ROOT_TOL = mpf(10) ** -20


def _is_prime(n: int) -> bool:
    """Trial division; DomainError above MAX_PRIME, where it could stall."""
    if n > MAX_PRIME:
        raise DomainError(f"{n} exceeds the largest supported prime {MAX_PRIME}")
    return _prime_factors(n) == [n]


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


def _least_primitive_root(p: int) -> int:
    factors = _prime_factors(p - 1)
    g = 1  # generates the units mod 2; for odd p it never qualifies
    while g < p:
        if all(pow(g, (p - 1) // q, p) != 1 for q in factors):
            return g
        g += 1
    raise AssertionError(f"no primitive root found mod {p}")


@dataclass(frozen=True)
class PrimeSite:
    """Degree-one prime for modulus N: a prime p = 1 (mod N), p <= MAX_PRIME."""

    modulus: int
    p: int

    def __post_init__(self) -> None:
        require_int(self.modulus, "modulus", minimum=2)
        require_int(self.p, "prime")
        if not _is_prime(self.p):
            raise DomainError(f"{self.p} is not prime")
        if (self.p - 1) % self.modulus != 0:
            raise DomainError(f"{self.p} is not 1 mod {self.modulus}")

    @property
    def generator(self) -> int:
        """The least primitive root mod p."""
        return _least_primitive_root(self.p)


def find_site(modulus: int, p_min: int = 2, cap: int = MAX_PRIME) -> PrimeSite:
    """Smallest admissible prime site with p >= p_min."""
    require_int(modulus, "modulus", minimum=2)
    require_int(p_min, "p_min")
    require_int(cap, "cap")
    start = max(p_min, 2)
    for p in range(start + (1 - start) % modulus, cap + 1, modulus):
        if _is_prime(p):
            return PrimeSite(modulus, p)
    raise SearchExhausted(f"no prime = 1 mod {modulus} in [{p_min}, {cap}]")


def gauss_sum(j: int, site: PrimeSite, ctx: PrecisionContext,
              additive_scale: int = 1):
    """Negated full character sum for the residue j/N at the site; j is an
    int, taken mod N.

    ``additive_scale`` replaces the standard additive character x -> e(x/p)
    by x -> e(c x / p); used to check that normalized word sums do not
    depend on this choice.

    The first call at a site, context and scale computes all N - 1 sums in
    one sweep over the field: p - 1 root evaluations e(c x / p),
    (N - 1)(p - 1) complex additions, and at each step m at most one rounded
    product per distinct j m mod N.  The sums and products run on integer
    mantissas, rounded as mpmath rounds them, so each sum has the bits of
    its own mpc loop.  Later calls read the memo.
    """
    require_int(j, "residue")
    j %= site.modulus
    if j == 0:
        raise DomainError("residue must be nonzero")
    require_int(additive_scale, "additive character scale")
    if additive_scale % site.p == 0:
        raise DomainError("additive character scale must be nonzero mod p")
    return _gauss_values(site, ctx, additive_scale % site.p)[j]


@lru_cache(maxsize=None)
def _gauss_values(site: PrimeSite, ctx: PrecisionContext, scale: int) -> tuple:
    # x = g**m visits each nonzero residue once, and the root e(c x / p) is
    # computed once, by the call mp.expjpi(mpf(2 (c x mod p)) / p) makes.
    # Residue j adds zeta_N**(j m) e(c x / p) to its total in the order of m,
    # as the one-residue loop does with mpc objects, here on signed integer
    # (mantissa, exponent) pairs.  The product depends on j only through
    # j m mod N, so _mul rounds it once per value, as mpc_mul does; for
    # zeta_N**(j m) = 1, i, -1 or -i, mpc_mul's exact products leave a swap
    # of the root's parts and signs, taken directly.  _add rounds each part
    # of each total as mpf_add does.  Each sum thus sees the terms, order and
    # roundings of its own loop, bit for bit.  Index j holds the sum for j/N;
    # index 0 is unused.
    n, p, g = site.modulus, site.p, site.generator
    with ctx.working():
        prec = mp.prec
        zeta_n = [tuple(map(_pair, z._mpc_)) for z in _zeta_powers(n, ctx.digits)]
        quarter = {((1, 0), (0, 0)): 0, ((0, 0), (1, 0)): 1,
                   ((-1, 0), (0, 0)): 2, ((0, 0), (-1, 0)): 3}
        # plans[m % N] lists zeta_N**(t m), with its quarter turn when it is
        # one, for t = 1 .. period = N / gcd(m, N); repeated N / period times,
        # its entry j - 1 is zeta_N**(j m).
        plans = []
        for step in range(n):
            period = n // gcd(step, n)
            plans.append([(quarter.get(zeta_n[k]), zeta_n[k])
                          for k in (t * step % n for t in range(1, period + 1))])
        p_mpf = from_int(p)
        re, im = [(0, 0)] * (n - 1), [(0, 0)] * (n - 1)
        x = 1
        for m in range(p - 1):
            root = c, s = tuple(map(_pair, mpf_cos_sin_pi(
                mpf_div(from_int(2 * ((scale * x) % p)), p_mpf, prec, "n"), prec, "n")))
            nc, ns = (-c[0], c[1]), (-s[0], s[1])
            turns = root, (ns, c), (nc, ns), (s, nc)
            plan = plans[m % n]
            terms = [_mul(zeta, root, prec) if turn is None else turns[turn]
                     for turn, zeta in plan] * (n // len(plan))
            re = [_add(total, a, prec) for total, (a, _) in zip(re, terms)]
            im = [_add(total, b, prec) for total, (_, b) in zip(im, terms)]
            x = (x * g) % p
        return (None, *(-mp.make_mpc((from_man_exp(*a), from_man_exp(*b)))
                        for a, b in zip(re, im)))


def _pair(value: tuple) -> tuple[int, int]:
    """The signed (mantissa, exponent) pair of a finite raw mpf."""
    sign, man, exp, _ = value
    return -man if sign else man, exp


def _add(x: tuple[int, int], y: tuple[int, int], prec: int) -> tuple[int, int]:
    """x + y for (mantissa, exponent) pairs, rounded to prec bits as mpf_add
    rounds it: nearest, ties to even, from the exact sum, or, when one
    operand lies more than prec + 4 bits and 100 exponents below the other,
    from the larger one nudged by one unit toward it.  Either is correctly
    rounded for operands of at most prec bits; wider ones, such as _mul's
    exact products, must have odd mantissas, as mpmath stores them."""
    (a, e), (b, f) = x, y
    if e < f:
        (a, e), (b, f) = (b, f), (a, e)
    if e - f > 100 and a and b and a.bit_length() - b.bit_length() + e - f > prec + 4:
        man, f = (a << prec + 4) + (1 if b > 0 else -1), e - prec - 4
    else:
        man = (a << e - f) + b
    drop = man.bit_length() - prec
    if drop <= 0:
        return man, f
    kept = man >> (drop - 1)  # the kept bits and the half bit, floored
    if kept & 1 and (kept & 2 or man & ((1 << (drop - 1)) - 1)):
        return (kept >> 1) + 1, f + drop
    return kept >> 1, f + drop


def _mul(z: tuple, w: tuple, prec: int) -> tuple:
    """z w for complex numbers as pairs of (mantissa, exponent) pairs: each
    part's two products exact, then one rounding by _add, as mpc_mul."""
    ((a, e), (b, f)), ((c, g), (d, h)) = z, w
    return (_add((a * c, e + g), (-b * d, f + h), prec),
            _add((a * d, e + h), (b * c, f + g), prec))


def jacobi_sum(f: GammaWord, site: PrimeSite, ctx: PrecisionContext,
               additive_scale: int = 1):
    """Product over the word's support of gauss sums raised to the exponents."""
    if f.modulus != site.modulus:
        raise DomainError(f"word modulus {f.modulus} != site modulus {site.modulus}")
    with ctx.working():
        total = mp.mpc(1)
        for j, c in f.coeffs:
            total *= gauss_sum(j, site, ctx, additive_scale=additive_scale) ** c
        return total


def word_at_site(f: GammaWord, site: PrimeSite, ctx: PrecisionContext,
                 additive_scale: int = 1) -> tuple:
    """(J, psi, m, order) of a member word from one classification and one
    jacobi_sum: psi = p**(-k) J, m its psi_exponent, and order 2N / gcd(m, 2N),
    or None when psi lies the context tolerance or farther from zeta_2N**m.
    Raises NotInC for a non-member and DomainError for a foreign site."""
    k = _weight(f)
    j = jacobi_sum(f, site, ctx, additive_scale)
    m = _stickelberger_exponent(f, site, k)
    n2 = 2 * site.modulus
    with ctx.working():
        psi = mpf(site.p) ** (-k) * j
        off = abs(psi - mp.expjpi(mpf(2 * m) / n2)) >= ctx.tolerance
    return j, psi, m, None if off else n2 // gcd(m, n2)


def hecke_value(f: GammaWord, site: PrimeSite, ctx: PrecisionContext,
                additive_scale: int = 1):
    """word_at_site's psi = p**(-k) J, of unit modulus; NotInC for a non-member."""
    return word_at_site(f, site, ctx, additive_scale)[1]


def _weight(f: GammaWord) -> int:
    """The word's weight k; NotInC when the word fails membership."""
    verdict = classify(f)
    if not verdict.in_C:
        raise NotInC(f"word {f} fails membership (witness {verdict.witness})")
    return verdict.k


def psi_exponent(f: GammaWord, site: PrimeSite) -> int:
    """The m in [0, 2N) with hecke_value(f, site) = zeta_2N**m, from
    integers mod p.  Raises NotInC when the word fails membership and
    DomainError when its modulus is not the site's.

    Let pi = zeta_p - 1 and a_j = (N - j)(p - 1)/N.  In the prime above p
    where zeta_N = g**((p-1)/N), the character of j/N is omega**(-a_j),
    omega the Teichmueller character, and Stickelberger's congruence reads
    sum_x omega**(-a)(x) zeta_p**x = -pi**a / a!  mod pi**(a+1); gauss_sum
    negates that sum, so G(j) = pi**(a_j) / a_j!  mod pi**(a_j+1).  From
    p = prod_x (1 - zeta_p**x) and (1 - zeta_p**x)/(1 - zeta_p) = x mod pi,
    p = (p - 1)! pi**(p-1) = -pi**(p-1) times a unit = 1 mod pi.
    Membership makes sum_j c_j a_j = k (p - 1), so for every weight k

        psi = p**(-k) prod_j G(j)**c_j = (-1)**k prod_j (a_j!)**(-c_j)  mod pi,

    which is also (-1)**(sum c_j + k), since sum_j c_j = 2k for a member
    word.  Such a psi is a unit whose conjugates all have modulus 1, hence
    a root of unity in Q(zeta_N); those reduce injectively mod p, so the
    residue fixes m.
    """
    return _stickelberger_exponent(f, site, _weight(f))


def _stickelberger_exponent(f: GammaWord, site: PrimeSite, k: int) -> int:
    """psi_exponent of a member word already classified, of weight k."""
    if f.modulus != site.modulus:
        raise DomainError(f"word modulus {f.modulus} != site modulus {site.modulus}")
    p = site.p
    factorials, exponents = _stickelberger_table(site)
    residue = p - 1 if k % 2 else 1
    for j, c in f.coeffs:
        residue = residue * pow(factorials[j], -c, p) % p
    return exponents[residue]


@lru_cache(maxsize=None)
def _stickelberger_table(site: PrimeSite) -> tuple[tuple, dict]:
    # factorials[j] = a_j! mod p, from one pass over 1 .. (N-1)(p-1)/N that
    # keeps only those N - 1 values; index 0 is unused.  exponents maps the
    # residue of each root of unity zeta_2N**m of Q(zeta_N) to m: zeta_N
    # reduces to g**((p-1)/N), so zeta_2N**m reduces to g**(m (p-1)/2N),
    # an integer power because m is even when N is.
    n, p = site.modulus, site.p
    step = (p - 1) // n
    factorials, acc = [None] * n, 1
    for i in range(1, n):
        for a in range((i - 1) * step + 1, i * step + 1):
            acc = acc * a % p
        factorials[n - i] = acc
    g = site.generator
    exponents = {pow(g, m * (p - 1) // (2 * n), p): m for m in range(0, 2 * n, 2 - n % 2)}
    return tuple(factorials), exponents


def psi_order(f: GammaWord, site: PrimeSite, ctx: PrecisionContext) -> int | None:
    """word_at_site's order of psi as a 2N-th root of unity, or None."""
    return word_at_site(f, site, ctx)[3]


def _euler_phi(n: int) -> int:
    out = n
    for q in _prime_factors(n):
        out -= out // q
    return out


@lru_cache(maxsize=None)
def _zeta_powers(n: int, digits: int):
    ctx = PrecisionContext(digits)
    with ctx.working():
        return tuple(mp.expjpi(mpf(2 * j) / n) for j in range(n))


def recognize_cyclotomic(z, modulus: int, max_coeff: int = 1000, tol=None,
                         ctx: PrecisionContext | None = None):
    """Integer coordinates of z over the power basis of the N-th cyclotomic
    integers, or None.

    PSLQ looks for one integer relation among ``re w + pi im w`` for
    w = z, zeta^0, ..., zeta^(phi(N)-1).  The real and imaginary parts of
    elements of Q(zeta_N) are algebraic and pi is transcendental, so such a
    relation holds for both parts at once, i.e. among the complex w.  The
    zeta^j, j < phi(N), form a Q-basis, so the relations have rank at most
    one, and PSLQ returns a primitive one: a z-coefficient of +-1 gives the
    unique coordinates.  They are accepted only when every coordinate stays
    within ``max_coeff`` and the re-evaluated combination lies within ``tol``
    of z.
    """
    require_int(modulus, "modulus", minimum=1)
    require_int(max_coeff, "max_coeff", minimum=0)
    ctx = ctx or PrecisionContext()
    with ctx.working():
        tol = mpf(10) ** (-20) if tol is None else require_tolerance(tol)
        phi = _euler_phi(modulus)
        zetas = _zeta_powers(modulus, ctx.digits)[:phi]
        z = require_finite(z, "the value to recognize", mp.mpc)
        x = [w.real + mp.pi * w.imag for w in (z, *zetas)]
        if abs(z) < tol or not x[0]:
            # The zero element; pslq rejects a zero entry.
            coeffs = [0] * phi
        else:
            # pslq bounds every entry strictly below maxcoeff.
            relation = mp.pslq(x, tol=mpf(10) ** (2 - ctx.digits),
                               maxcoeff=max_coeff + 1, maxsteps=10 ** 4)
            if relation is None or abs(relation[0]) != 1:
                return None
            coeffs = [-relation[0] * c for c in relation[1:]]
        recombined = sum(c * zetas[j] for j, c in enumerate(coeffs))
        if abs(z - recombined) < tol:
            return tuple(coeffs)
        return None


def recognize_root_of_unity(z, m: int, modulus: int, ctx: PrecisionContext | None = None):
    """Integer coordinates of zeta_2N**m over the power basis of the N-th
    cyclotomic integers, accepted as those of z when they recombine closer
    than _ROOT_TOL to it; otherwise None.

    zeta_2N**m is zeta_N**(m/2) for even m and -zeta_N**((m+N)/2) for odd
    m, which lies in Q(zeta_N) only for odd N; its coordinates are those of
    +-x**e, for that power e, reduced mod the cyclotomic polynomial Phi_N in
    integers.
    """
    require_int(modulus, "modulus", minimum=1)
    require_int(m, "exponent")
    ctx = ctx or PrecisionContext()
    with ctx.working():
        z = require_finite(z, "the value to recognize", mp.mpc)
    m %= 2 * modulus
    if m % 2 and modulus % 2 == 0:
        raise DomainError(f"zeta_{2 * modulus}**{m} is not in Q(zeta_{modulus})")
    sign, e = (1, m // 2) if m % 2 == 0 else (-1, (m + modulus) // 2 % modulus)
    phi = _euler_phi(modulus)
    coeffs = [0] * max(e + 1, phi)
    coeffs[e] = sign
    for top in range(e, phi - 1, -1):
        # Subtract coeffs[top] x**(top - phi) Phi_N, which clears x**top.
        lead = coeffs[top]
        for i, c in enumerate(_cyclotomic_polynomial(modulus)):
            coeffs[top - phi + i] -= lead * c
    coeffs = coeffs[:phi]
    with ctx.working():
        zetas = _zeta_powers(modulus, ctx.digits)
        recombined = sum(c * zetas[j] for j, c in enumerate(coeffs))
        if abs(z - recombined) < _ROOT_TOL:
            return tuple(coeffs)
        return None


@lru_cache(maxsize=None)
def _cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Phi_n for n >= 2, constant term first: the product over d | n of
    (1 - x**d)**mu(n/d), in power series cut after degree phi(n)."""
    phi = _euler_phi(n)
    poly = [1] + [0] * phi
    for d in range(1, n):
        if n % d:
            continue
        primes = _prime_factors(n // d)
        if prod(primes) != n // d:
            continue  # mu(n/d) = 0
        if len(primes) % 2:
            for i in range(d, phi + 1):  # divide by 1 - x**d
                poly[i] += poly[i - d]
        else:
            for i in range(phi, d - 1, -1):  # multiply by 1 - x**d
                poly[i] -= poly[i - d]
    return tuple(poly)
