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
its exact integer coordinates over the power basis follow from m, and
:func:`word_at_site` checks the numeric psi against those coordinates to
every digit of the context, which confirms both m and the reduction.
One exact division of integer polynomials builds the cyclotomic polynomial
Phi_N from x**N - 1, of degree phi(N), and reduces +-x**e mod Phi_N to those
coordinates; moduli above gammawords.MAX_MODULUS are refused.

Other values in the ring of integers of the N-th cyclotomic field are
recognized by one PSLQ integer-relation search over the real numbers
re w + pi im w, for w the target and the power basis (Ferguson, Bailey
and Arno, Math. Comp. 68, 1999); pi, being transcendental, keeps the
real and imaginary parts of a relation apart.
Every candidate is accepted only after high-precision re-evaluation
against the stated tolerance.
"""

from __future__ import annotations

import marshal
import os
import threading
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache
from itertools import islice
from math import gcd

from mpmath import mp, mpf
from mpmath.libmp import from_int, from_man_exp, mpf_cos_sin_pi, mpf_div

from .errors import (DomainError, NotInC, SearchExhausted, require_finite, require_int,
                     require_tolerance, show_int)
from .gammawords import GammaWord, classify, require_modulus
from .specialfn import PrecisionContext

# Largest prime a site may use, and the end of find_site's search.
MAX_PRIME = 10_000_000
# Sweeps of fewer steps stay in one process: forking the root producer costs
# a few milliseconds, which shorter sweeps do not win back (the two break
# even near 300 steps at 20 digits and N = 12 on a 2-core x86-64 machine).
_PRODUCER_MIN_STEPS = 400
# Roots per pipe record: smaller records cost more writes and reads, larger
# ones keep the caller waiting longer for the first.
_ROOTS_PER_RECORD = 32


def _is_prime(n: int) -> bool:
    """Trial division; DomainError above MAX_PRIME, where it could stall."""
    if n > MAX_PRIME:
        raise DomainError(f"{show_int(n)} exceeds the largest supported prime {MAX_PRIME}")
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
    # g = 1 generates the units mod 2; for odd p it never qualifies.
    factors = _prime_factors(p - 1)
    return next(g for g in range(1, p) if all(pow(g, (p - 1) // q, p) != 1 for q in factors))


@dataclass(frozen=True)
class PrimeSite:
    """Degree-one prime for modulus N: a prime p = 1 (mod N), p <= MAX_PRIME."""

    modulus: int
    p: int

    def __post_init__(self) -> None:
        require_modulus(self.modulus)
        require_int(self.p, "prime")
        if not _is_prime(self.p):
            raise DomainError(f"{self.p} is not prime")
        if (self.p - 1) % self.modulus != 0:
            raise DomainError(f"{self.p} is not 1 mod {show_int(self.modulus)}")

    @property
    def generator(self) -> int:
        """The least primitive root mod p."""
        return _least_primitive_root(self.p)


def find_site(modulus: int, p_min: int = 2) -> PrimeSite:
    """Smallest admissible prime site with p >= p_min."""
    require_modulus(modulus)
    require_int(p_min, "p_min")
    start = max(p_min, 2)
    for p in range(start + (1 - start) % modulus, MAX_PRIME + 1, modulus):
        if _is_prime(p):
            return PrimeSite(modulus, p)
    raise SearchExhausted(f"no prime = 1 mod {show_int(modulus)} in "
                          f"[{show_int(p_min)}, {MAX_PRIME}]")


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

    With a second usable CPU, a forked process computes the roots in order
    and streams them to this one, which adds them as they arrive and, while
    none is waiting, computes roots from the far end itself; the sums keep
    every bit.  The sweep stays in this process when it has fewer than
    _PRODUCER_MIN_STEPS = 400 steps, on one CPU, without fork, or while
    another thread runs.  The producer ends before the call returns or
    raises.
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
    # roundings of its own loop, bit for bit.  The roots need nothing from
    # earlier steps, so _root_stream may compute them on the second core
    # while this loop adds; they are the same roots either way.  Index j
    # holds the sum for j/N; index 0 is unused.
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
        re, im = [(0, 0)] * (n - 1), [(0, 0)] * (n - 1)
        with _root_stream(p, g, scale, prec) as roots:
            for m, root in enumerate(roots):
                c, s = root
                nc, ns = (-c[0], c[1]), (-s[0], s[1])
                turns = root, (ns, c), (nc, ns), (s, nc)
                plan = plans[m % n]
                terms = [_mul(zeta, root, prec) if turn is None else turns[turn]
                         for turn, zeta in plan] * (n // len(plan))
                re = [_add(total, a, prec) for total, (a, _) in zip(re, terms)]
                im = [_add(total, b, prec) for total, (_, b) in zip(im, terms)]
        return (None, *(-mp.make_mpc((from_man_exp(*a), from_man_exp(*b)))
                        for a, b in zip(re, im)))


def _root(x: int, p: int, scale: int, prec: int) -> tuple:
    """e(c x / p) as the pair of (mantissa, exponent) pairs of the value
    mp.expjpi(mpf(2 (c x mod p)) / p) takes at prec bits."""
    return tuple(map(_pair, mpf_cos_sin_pi(
        mpf_div(from_int(2 * ((scale * x) % p)), from_int(p), prec, "n"), prec, "n")))


def _roots(p: int, g: int, scale: int, prec: int):
    """The sweep's roots e(c x / p), x = g**m, for m = 0 .. p - 2 in order."""
    x = 1
    for _ in range(p - 1):
        yield _root(x, p, scale, prec)
        x = (x * g) % p


@contextmanager
def _root_stream(p: int, g: int, scale: int, prec: int):
    """_roots(p, g, scale, prec), shared with a forked producer when a
    second CPU is free for it (see _received), else computed in this
    process.  Leaving the block, however it is left, kills and reaps the
    producer."""
    import signal

    producer = None
    try:
        if _producer_pays(p - 1):
            # No signal handler runs from before the fork until each process
            # is inside the block that ends it: in the producer a handler's
            # exception would unwind into the caller's stack, here it would
            # lose the pid.  A handler already due runs inside the blocking
            # call, before the fork; the mask is restored either way.
            mask = signal.pthread_sigmask(signal.SIG_BLOCK, ())
            try:
                signal.pthread_sigmask(signal.SIG_BLOCK, signal.valid_signals())
                producer = _start_producer(mask, p, g, scale, prec)
            finally:
                signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        yield _received(producer[1], p, g, scale, prec) if producer else _roots(p, g, scale, prec)
    finally:
        if producer:
            pid, read = producer
            try:
                signal.pthread_sigmask(signal.SIG_BLOCK, signal.valid_signals())
            finally:
                os.close(read)
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                signal.pthread_sigmask(signal.SIG_SETMASK, mask)


def _start_producer(mask, p: int, g: int, scale: int, prec: int):
    """(pid, read end) of a forked producer of _roots(p, g, scale, prec), or
    None when the pipe or the fork fails.  The caller blocks every signal
    around this call; the producer never returns from it."""
    try:
        read, write = os.pipe()
    except OSError:
        return None
    try:
        pid = os.fork()
    except OSError:
        pid = None
    if pid == 0:
        _produce(read, write, mask, p, g, scale, prec)
    os.close(write)
    if not pid:
        os.close(read)
        return None
    return pid, read


def _producer_pays(steps: int) -> bool:
    """Whether a forked producer can shorten a sweep of this many steps: it
    needs fork, a second usable CPU, no other thread in this process (fork
    copies only the calling one) and a sweep longer than a fork costs."""
    return (steps >= _PRODUCER_MIN_STEPS and hasattr(os, "fork")
            and threading.active_count() == 1 and hasattr(os, "sched_getaffinity")
            and len(os.sched_getaffinity(0)) > 1)


def _produce(read: int, write: int, mask, p: int, g: int, scale: int, prec: int):
    """The forked producer's whole life: it ignores SIGINT, which a
    terminal's Ctrl-C sends to the caller too, writes the roots in order of
    m, _ROOTS_PER_RECORD to a length-prefixed marshal record, and ends with
    os._exit on every path.  Should the caller die, the next write fails
    with EPIPE and ends it."""
    import signal

    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        os.close(read)
        roots = _roots(p, g, scale, prec)
        while chunk := list(islice(roots, _ROOTS_PER_RECORD)):
            record = marshal.dumps(chunk)
            data = len(record).to_bytes(4, "little") + record
            while data:
                data = data[os.write(write, data):]
    finally:
        os._exit(0)


def _received(read: int, p: int, g: int, scale: int, prec: int):
    """The roots in order of m, from the producer's records as they arrive.
    While no record is waiting, this process computes roots itself from the
    far end, m = p - 2 downward, so that it never idles; the sweep's roots
    are all known once the two ends meet.  Should the stream end first,
    with or without a record cut short, the roots left are computed here."""
    import select

    data, records, tail = bytearray(), deque(), []
    m, end, streaming = 0, p - 1, True
    while m < end:
        if not records and len(data) >= 4:
            size = int.from_bytes(data[:4], "little")
            if len(data) >= 4 + size:
                records.extend(marshal.loads(data[4:4 + size]))
                del data[:4 + size]
        if records or not streaming:
            yield records.popleft() if records else _root(pow(g, m, p), p, scale, prec)
            m += 1
        elif not select.select([read], [], [], 0)[0]:
            end -= 1
            tail.append(_root(pow(g, end, p), p, scale, prec))
        else:
            chunk = os.read(read, 1 << 16)
            data += chunk
            streaming = bool(chunk)
    yield from reversed(tail)


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
        raise DomainError(f"word modulus {show_int(f.modulus)} != site modulus {site.modulus}")
    with ctx.working():
        total = mp.mpc(1)
        for j, c in f.coeffs:
            total *= gauss_sum(j, site, ctx, additive_scale=additive_scale) ** c
        return total


def word_at_site(f: GammaWord, site: PrimeSite, ctx: PrecisionContext,
                 additive_scale: int = 1) -> tuple:
    """(J, psi, m, order) of a member word from one classification and one
    jacobi_sum: psi = p**(-k) J, m its psi_exponent, and order 2N / gcd(m, 2N),
    or None when psi lies 10**(-digits) or farther from zeta_2N**m, recombined
    from its root_of_unity_coordinates.  Raises NotInC for a non-member and
    DomainError for a foreign site."""
    k = _weight(f, site)
    j = jacobi_sum(f, site, ctx, additive_scale)
    m = _stickelberger_exponent(f, site, k)
    n = site.modulus
    coeffs = root_of_unity_coordinates(m, n)
    with ctx.working():
        psi = mpf(site.p) ** (-k) * j
        root = sum(c * z for c, z in zip(coeffs, _zeta_powers(n, ctx.digits)))
        off = abs(psi - root) >= mpf(10) ** -ctx.digits
    return j, psi, m, None if off else 2 * n // gcd(m, 2 * n)


def hecke_value(f: GammaWord, site: PrimeSite, ctx: PrecisionContext,
                additive_scale: int = 1):
    """word_at_site's psi = p**(-k) J, of unit modulus; NotInC for a non-member."""
    return word_at_site(f, site, ctx, additive_scale)[1]


def _weight(f: GammaWord, site: PrimeSite) -> int:
    """The word's weight k; DomainError for a foreign site, before the word
    is classified, and NotInC when the word fails membership."""
    if f.modulus != site.modulus:
        raise DomainError(f"word modulus {show_int(f.modulus)} != site modulus {site.modulus}")
    verdict = classify(f)
    if not verdict.in_C:
        raise NotInC(f"word {f} fails membership (witness {show_int(verdict.witness)})")
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
    return _stickelberger_exponent(f, site, _weight(f, site))


def _stickelberger_exponent(f: GammaWord, site: PrimeSite, k: int) -> int:
    """psi_exponent of a member word of the site's modulus, of weight k."""
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


@lru_cache(maxsize=None)
def _zeta_powers(n: int, digits: int):
    ctx = PrecisionContext(digits)
    with ctx.working():
        return tuple(mp.expjpi(mpf(2 * j) / n) for j in range(n))


def recognize_cyclotomic(z, modulus: int, ctx: PrecisionContext, max_coeff: int = 1000,
                         tol=None):
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
    require_modulus(modulus, minimum=1)
    require_int(max_coeff, "max_coeff", minimum=0)
    with ctx.working():
        tol = mpf(10) ** (-20) if tol is None else require_tolerance(tol)
        zetas = _zeta_powers(modulus, ctx.digits)[:len(_cyclotomic_polynomial(modulus)) - 1]
        z = require_finite(z, "the value to recognize", mp.mpc)
        x = [w.real + mp.pi * w.imag for w in (z, *zetas)]
        if abs(z) < tol or not x[0]:
            # The zero element; pslq rejects a zero entry.
            coeffs = [0] * len(zetas)
        else:
            # pslq bounds every entry strictly below maxcoeff.
            relation = mp.pslq(x, tol=mpf(10) ** (2 - ctx.digits),
                               maxcoeff=max_coeff + 1, maxsteps=10 ** 4)
            if relation is None or abs(relation[0]) != 1:
                return None
            coeffs = [-relation[0] * c for c in relation[1:]]
        recombined = sum(c * zetas[j] for j, c in enumerate(coeffs))
        return tuple(coeffs) if abs(z - recombined) < tol else None


def root_of_unity_coordinates(m: int, modulus: int) -> tuple[int, ...]:
    """Exact integer coordinates of zeta_2N**m over the power basis of the
    N-th cyclotomic integers: zeta_2N**m is zeta_N**(m/2) for even m and
    -zeta_N**((m+N)/2) for odd m, which lies in Q(zeta_N) only for odd N
    (DomainError otherwise), so they are the remainder of +-x**e, for that
    power e, divided by the cyclotomic polynomial Phi_N."""
    require_modulus(modulus, minimum=1)
    require_int(m, "exponent")
    m %= 2 * modulus
    if m % 2 and modulus % 2 == 0:
        raise DomainError(f"zeta_{2 * modulus}**{m} is not in Q(zeta_{modulus})")
    sign, e = (1, m // 2) if m % 2 == 0 else (-1, (m + modulus) // 2 % modulus)
    return tuple(_divmod([0] * e + [sign], _cyclotomic_polynomial(modulus))[1])


@lru_cache(maxsize=None)
def _cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Phi_n for a modulus n that require_modulus accepts, constant term
    first: x**n - 1 divided by Phi_d for every proper divisor d of n, as
    x**n - 1 is the product of Phi_d over all d | n (Washington, chapter 2)."""
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            poly = _divmod(poly, _cyclotomic_polynomial(d))[0]
    return tuple(poly)


def _divmod(num: list[int], den: tuple[int, ...]) -> tuple[list[int], list[int]]:
    """Quotient and remainder of integer polynomials, constant term first,
    by a monic den; the remainder has deg den coefficients."""
    rem, deg = list(num) + [0] * len(den), len(den) - 1
    quotient = [0] * max(len(num) - deg, 0)
    for top in range(len(num) - 1, deg - 1, -1):
        # Subtract rem[top] x**(top - deg) den, which clears x**top.
        lead = quotient[top - deg] = rem[top]
        for i, c in enumerate(den):
            rem[top - deg + i] -= lead * c
    return quotient, rem[:deg]
