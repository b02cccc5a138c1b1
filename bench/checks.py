"""Independent checks of the program's outputs.

Every reference value here is computed by the benchmark itself, in
mpmath or in exact integer arithmetic, from the classical formulas: root
counts and Coxeter numbers, Cartan matrices from the Dynkin diagrams, the
eigenvalue 4 sin^2(pi/2h), roots of unity, and the Beta, Selberg and
planar Selberg closed forms.  Nothing is compared with a stored copy of
an earlier output.

An operation is one checked output item: a root-system record, one
verification report, a PF vector, a Gamma vector, one of three checks
per word of a character-sum site, or one closed form or oracle value of
the Selberg grid.  Each workload attempts a fixed number of them per
round, so a failure is the same share of the attempts in every run.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction

from mpmath import mp, mpc, mpf

REF_DPS = 80
# A residual of exactly 0 would give infinite headroom; read it as this.
ERROR_FLOOR = mpf(10) ** -REF_DPS

EIGEN_BOUND = mpf("1e-30")    # criteria 1 and 9: eigen-equation residuals
CLOSED_BOUND = mpf("1e-30")   # closed forms against the benchmark's values
REAL_ORACLE_BOUND = mpf("1e-8")
COMPLEX_ORACLE_BOUND = mpf("1e-6")
SELBERG_GRID = {"real": 10, "complex": 5}

# Known fault: at --digits 20, psi_order compares against the tolerance
# 10**(20 - digits) = 1 and returns 1 or 2 instead of 18 or 9.
KNOWN_FAULT_DIGITS = 20


def unit_modulus_bound(digits: int):
    """Criterion 7's 1e-38 at 50 digits, scaled to the site's precision."""
    return mpf(10) ** (12 - digits)


def recognition_bound(digits: int):
    """Criterion 7's recognition residual 1e-20 at 50 digits, scaled."""
    return mpf(10) ** (30 - digits)


# ---------------------------------------------------------------------------
# Classical root-system data, written down apart from the program.

def positive_root_count(family: str, n: int) -> int:
    return {"A": n * (n + 1) // 2, "B": n * n, "C": n * n, "D": n * (n - 1),
            "E": {6: 36, 7: 63, 8: 120}.get(n), "F": 24, "G": 6}[family]


def coxeter_number(family: str, n: int) -> int:
    return {"A": n + 1, "B": 2 * n, "C": 2 * n, "D": 2 * n - 2,
            "E": {6: 12, 7: 18, 8: 30}.get(n), "F": 12, "G": 6}[family]


def cartan_matrix(family: str, n: int) -> list[list[int]]:
    """Cartan matrix A[i][j] = <a_i, a_j^vee> in the plate numbering.

    Bonds are (i, j, A[i][j], A[j][i]) on 1-based nodes: the E series has
    the chain 1-3-4-...-n with node 2 on node 4; B ends in a short root,
    C in a long one; F4 has its long roots first; G2 starts short.
    """
    bonds = [(i, i + 1, -1, -1) for i in range(1, n)]
    if family == "B":
        bonds[-1] = (n - 1, n, -2, -1)
    elif family == "C":
        bonds[-1] = (n - 1, n, -1, -2)
    elif family == "D":
        bonds[-1] = (n - 2, n, -1, -1)
    elif family == "E":
        bonds = [(1, 3, -1, -1), (2, 4, -1, -1)] + [(k, k + 1, -1, -1) for k in range(3, n)]
    elif family == "F":
        bonds = [(1, 2, -1, -1), (2, 3, -2, -1), (3, 4, -1, -1)]
    elif family == "G":
        bonds = [(1, 2, -1, -3)]
    a = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i, j, aij, aji in bonds:
        a[i - 1][j - 1], a[j - 1][i - 1] = aij, aji
    return a


def parse_type(label: str) -> tuple[str, int]:
    return label[0], int(label[1:])


# ---------------------------------------------------------------------------

@dataclass
class Verdict:
    """Outcome of checking one or more rounds of a workload."""

    attempted: int = 0
    failures: list = field(default_factory=list)
    unexpected: list = field(default_factory=list)
    headroom_digits: float = math.inf
    complex_rel_error_max: float = 0.0

    def op(self, name: str, ok: bool, known_fault: bool = False) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(name)
            if not known_fault:
                self.unexpected.append(name)

    def margin(self, bound, error) -> bool:
        """Record log10(bound/error) and say whether error is within bound."""
        error = abs(error)
        self.headroom_digits = min(self.headroom_digits,
                                   float(mp.log10(bound / max(error, ERROR_FLOOR))))
        return error < bound

    @property
    def correct(self) -> bool:
        return not self.unexpected


def _option(argv: list[str], name: str, default: str | None = None) -> str | None:
    return argv[argv.index(name) + 1] if name in argv else default


def _guarded(verdict: Verdict, name: str, n_ops: int, check, *args) -> None:
    """Run one command's check; malformed output fails all its operations."""
    before = verdict.attempted
    n_failures, n_unexpected = len(verdict.failures), len(verdict.unexpected)
    try:
        check(verdict, *args)
    except (KeyError, ValueError, TypeError, IndexError, ZeroDivisionError) as exc:
        verdict.attempted = before
        del verdict.failures[n_failures:], verdict.unexpected[n_unexpected:]
        for k in range(n_ops):
            verdict.op(f"{name} [{type(exc).__name__}: {exc}]#{k}", False)
    if verdict.attempted != before + n_ops:
        raise AssertionError(f"{name}: checked {verdict.attempted - before} "
                             f"operations, expected {n_ops}")


def check_round(outputs: list[dict], verdict: Verdict) -> None:
    """Check the outputs of one round: a list of {argv, rc, stdout}."""
    with mp.workdps(REF_DPS):
        for out in outputs:
            argv = out["argv"]
            cmd = argv[0]
            label = _option(argv, "--type")
            name = " ".join(argv)
            if cmd == "roots":
                _guarded(verdict, name, 1, _check_roots, label, out)
            elif cmd == "verify":
                _guarded(verdict, name, 4, _check_verify, label, out)
            elif cmd in ("pf", "gamma"):
                _guarded(verdict, name, 1, _check_vector, cmd, label, out)
            elif cmd == "jacobi":
                _guarded(verdict, name, 3 * parse_type(label)[1], _check_site, argv, out)
            elif cmd == "selberg":
                _guarded(verdict, name, 2 * sum(SELBERG_GRID.values()), _check_selberg, out)
            else:
                raise ValueError(f"no check for command {cmd!r}")


def _payload(out: dict) -> dict:
    return json.loads(out["stdout"])


def _check_roots(verdict: Verdict, label: str, out: dict) -> None:
    fam, n = parse_type(label)
    data = _payload(out)
    ok = (out["rc"] == 0 and data["type"] == label and data["rank"] == n
          and data["positive_root_count"] == positive_root_count(fam, n)
          and data["h"] == coxeter_number(fam, n)
          and data["cartan"] == cartan_matrix(fam, n))
    verdict.op(f"roots {label}", ok)


def _check_verify(verdict: Verdict, label: str, out: dict) -> None:
    reports = _payload(out)["reports"]
    theorems = [("1.1",), ("1.2", "1.3"), ("4.2",), ("4.4",)]
    for k, allowed in enumerate(theorems):
        ok = out["rc"] == 0 and len(reports) == len(theorems)
        if ok:
            r = reports[k]
            tol = mpf(r["tolerance"])
            ok = (r["theorem"] in allowed and r["type"] == label and r["pass"] is True
                  and all(mpf(x) < tol for x in r["residuals"]))
        verdict.op(f"verify {label} report {k + 1}", ok)


def _eigen_residual(a, v, lam):
    return max(abs(sum(aij * vj for aij, vj in zip(row, v)) - lam * vi)
               for row, vi in zip(a, v))


def lambda_min(h: int):
    return 4 * mp.sin(mp.pi / (2 * h)) ** 2


def _check_vector(verdict: Verdict, cmd: str, label: str, out: dict) -> None:
    fam, n = parse_type(label)
    data = _payload(out)
    v = [mpf(x) for x in data["vector" if cmd == "pf" else "gamma"]]
    lam = lambda_min(coxeter_number(fam, n))
    ok = out["rc"] == 0 and len(v) == n and all(x > 0 for x in v)
    ok &= verdict.margin(EIGEN_BOUND, _eigen_residual(cartan_matrix(fam, n), v, lam))
    if cmd == "pf":
        ok &= verdict.margin(EIGEN_BOUND, mpf(data["lambda"]) - lam)
    verdict.op(f"{cmd} {label}", ok)


def root_of_unity_order(psi, modulus: int) -> int | None:
    """Order of psi as a 2N-th root of unity, or None if it is not one."""
    x = mp.arg(psi) / (2 * mp.pi) * (2 * modulus)
    k = int(mp.nint(x))
    if abs(x - k) > mpf(10) ** -10 or abs(abs(psi) - 1) > mpf(10) ** -10:
        return None
    return 2 * modulus // math.gcd(k % (2 * modulus), 2 * modulus)


def _check_site(verdict: Verdict, argv: list[str], out: dict) -> None:
    fam, rank = parse_type(_option(argv, "--type"))
    n, p = coxeter_number(fam, rank), int(_option(argv, "--prime"))
    digits = int(_option(argv, "--digits", "50"))
    data = _payload(out)
    entries = data["entries"]
    if len(entries) != rank:
        raise ValueError(f"{len(entries)} entries for rank {rank}")
    zetas = [mp.expjpi(mpf(2 * j) / n) for j in range(n)]
    for i, e in enumerate(entries, start=1):
        site_ok = out["rc"] == 0 and e["N"] == n and e["p"] == p
        psi = mpc(*(mpf(x) for x in e["psi"]))
        name = f"jacobi {fam}{rank} p={p} digits={digits} word {i}"
        ok = verdict.margin(unit_modulus_bound(digits), abs(psi) - 1)
        verdict.op(f"{name} |psi|", site_ok and ok)
        coeffs = e["cyclotomic"]
        ok = coeffs is not None and len(coeffs) <= n
        if ok:
            recombined = sum((c * zetas[j] for j, c in enumerate(coeffs)), mpc(0))
            ok = verdict.margin(recognition_bound(digits), abs(recombined - psi))
        verdict.op(f"{name} coordinates", site_ok and ok)
        verdict.op(f"{name} order", site_ok and e["psi_order"] == root_of_unity_order(psi, n),
                   known_fault=digits == KNOWN_FAULT_DIGITS)


def selberg_reference(case: str, alpha, beta, rho, n: int):
    """Beta, Selberg and planar closed forms evaluated directly in mpmath."""
    if case == "complex":
        def ratio(x):
            return mp.gamma(x) / mp.gamma(1 - x)
        return mp.pi * ratio(alpha) * ratio(beta) * ratio(1 - alpha - beta)
    if n == 1:
        return mp.beta(alpha, beta)
    return mp.fprod(mp.gamma(alpha + j * rho) * mp.gamma(beta + j * rho)
                    * mp.gamma(1 + (j + 1) * rho)
                    / (mp.gamma(alpha + beta + (n + j - 1) * rho) * mp.gamma(1 + rho))
                    for j in range(n))


def _fraction(text: str):
    q = Fraction(text)
    return mpf(q.numerator) / q.denominator


def _check_selberg(verdict: Verdict, out: dict) -> None:
    data = _payload(out)
    entries = data["entries"]
    counts = {case: sum(e["case"] == case for e in entries) for case in SELBERG_GRID}
    if counts != SELBERG_GRID or len(entries) != sum(SELBERG_GRID.values()):
        raise ValueError(f"grid has {counts}, expected {SELBERG_GRID}")
    for e in entries:
        ref = selberg_reference(e["case"], _fraction(e["alpha"]), _fraction(e["beta"]),
                                _fraction(e["rho"]), e["n"])
        name = f"selberg {e['case']} ({e['alpha']}, {e['beta']}, {e['rho']}, n={e['n']})"
        ok_run = out["rc"] == 0 and data["pass"] is True
        closed_err = abs(mpf(e["closed"]) - ref) / abs(ref)
        verdict.op(f"{name} closed", ok_run and verdict.margin(CLOSED_BOUND, closed_err))
        oracle_err = abs(mpf(e["quadrature"]) - ref) / abs(ref)
        bound = COMPLEX_ORACLE_BOUND if e["case"] == "complex" else REAL_ORACLE_BOUND
        if e["case"] == "complex":
            verdict.complex_rel_error_max = max(verdict.complex_rel_error_max,
                                                float(oracle_err))
        verdict.op(f"{name} oracle", ok_run and verdict.margin(bound, oracle_err))
