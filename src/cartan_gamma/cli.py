"""Command-line front end: construct, evaluate, verify, export.

Exit codes: 0 when every requested check passes, 1 on verification
failure, 2 on bad arguments, 130 on Ctrl-C.  Decimal output is rendered
from the requested working precision, so repeated runs are byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys

from mpmath import mp, mpf

from .errors import CartanGammaError, DomainError
from .gammawords import classify, tilde, word_of_root_system
from .jacobi import MAX_PRIME, PrimeSite, find_site, root_of_unity_coordinates, word_at_site
from .reports import decimal_string
from .rootkit import RootSystemLabel, build_root_system
from .selberg import (complex_parameter_grid, cross_validate, real_parameter_grid,
                      selberg_complex_closed, selberg_real_closed)
from .spectra import (affine_theorem, gamma_ratio_profile, gamma_vector, lambda_min,
                      mass_vector_closed_form, pf_power_iteration,
                      verify_affine_masses, verify_membership,
                      verify_pairing_sums, verify_pf_eigenvector)
from .specialfn import PrecisionContext, trig_identities_suite

# 1.2 and 1.3 share one checker; "all" runs each distinct checker once.
CHECKS = {
    "1.1": verify_pf_eigenvector,
    "1.2": verify_affine_masses,
    "1.3": verify_affine_masses,
    "4.2": lambda rs, ctx, tol: verify_membership(rs, tol),
    "4.4": lambda rs, ctx, tol: verify_pairing_sums(rs, tol),
}
VERIFY_CHOICES = (*CHECKS, "all")

ENV_DIGITS = "CARTAN_GAMMA_DIGITS"


def default_battery() -> tuple[RootSystemLabel, ...]:
    """Classical families to rank 12 plus the exceptional types."""
    ranks = {"A": range(1, 13), "B": range(2, 13), "C": range(2, 13), "D": range(3, 13),
             "E": (6, 7, 8), "F": (4,), "G": (2,)}
    return tuple(RootSystemLabel(family, n) for family in ranks for n in ranks[family])


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--digits", type=int, default=None,
                        help=f"decimal working precision (default 50; env {ENV_DIGITS})")
    common.add_argument("--tol", default="1e-30",
                        help="verification tolerance (default 1e-30)")
    common.add_argument("--format", dest="fmt", choices=("text", "json", "csv"),
                        default="text", help="output format")
    common.add_argument("--out", default=None, help="write the report to this path")

    typed = argparse.ArgumentParser(add_help=False)
    typed.add_argument("--type", dest="label", required=True,
                       help="root-system label, e.g. E8 or B6")

    parser = argparse.ArgumentParser(
        prog="cartan-gamma",
        description="Exact root-system data, Gamma-product evaluation, and "
                    "machine verification of their eigenvector and mass formulas.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, run, text, *parents):
        cmd = sub.add_parser(name, parents=[common, *parents], help=text)
        cmd.set_defaults(run=run)
        return cmd

    command("roots", _cmd_roots, "exact combinatorial data of one root system", typed)
    command("pf", _cmd_pf, "positive eigenvector by power iteration", typed)
    command("gamma", _cmd_gamma, "Gamma-product vector and closed-form masses", typed)
    command("words", _cmd_words, "exponent words of every simple index", typed)
    command("classify", _cmd_classify,
            "membership verdicts for the words and their tildes", typed)

    ver = command("verify", _cmd_verify, "run named verifications")
    ver.add_argument("check", choices=VERIFY_CHOICES)
    ver.add_argument("--type", dest="label", default=None,
                     help="single label (default: whole battery)")

    jac = command("jacobi", _cmd_jacobi, "character sums at a degree-one prime site", typed)
    jac.add_argument("--prime", type=int, default=None,
                     help=f"use this prime (must be 1 mod h, at most {MAX_PRIME:,})")
    jac.add_argument("--pmin", type=int, default=2,
                     help="smallest admissible prime to search from")

    sel = command("selberg", _cmd_selberg, "closed forms vs quadrature oracles")
    sel.add_argument("--grid", type=int, default=0,
                     help="restrict each parameter grid to its first K points")

    command("identities", _cmd_identities, "exact trigonometric identity suite")
    return parser


def _resolve_context(args) -> tuple[PrecisionContext, object]:
    digits = args.digits
    if digits is None:
        digits = _number(int, os.environ.get(ENV_DIGITS, "50"), ENV_DIGITS)
    ctx = PrecisionContext(digits)
    with ctx.working():
        tol = _number(mpf, args.tol, "--tol")
    if not (mp.isfinite(tol) and tol > 0):
        raise DomainError(f"--tol must be finite and positive, got {args.tol!r}")
    return ctx, tol


def _number(convert, text: str, name: str):
    try:
        return convert(text)
    except ValueError:
        raise DomainError(f"{name} must be a number, got {text!r}") from None


def _dec(x, ctx: PrecisionContext) -> str:
    return decimal_string(x, ctx.digits)


def _complex_pair(z, ctx: PrecisionContext) -> list[str]:
    return [_dec(z.real, ctx), _dec(z.imag, ctx)]


def _report_row(report) -> dict:
    return {
        "theorem": report.theorem,
        "type": report.system,
        "max_residual": decimal_string(report.max_residual, 30),
        "tolerance": decimal_string(report.tolerance, 30),
        "pass": report.passed,
    }


def _report_line(report) -> str:
    status = "PASS" if report.passed else "FAIL"
    return (f"{status}  {report.theorem:<10} {report.system:<4} "
            f"max residual {decimal_string(report.max_residual, 10)} "
            f"(tol {decimal_string(report.tolerance, 6)}; worst {report.worst()})")


def _cmd_roots(args, ctx, tol):
    rs = build_root_system(RootSystemLabel.parse(args.label))
    payload = {
        "type": str(rs.label),
        "rank": rs.rank,
        "h": rs.h,
        "h_dual": rs.h_dual,
        "positive_root_count": len(rs.positive_roots),
        "marks": list(rs.marks),
        "comarks": list(rs.comarks),
        "highest_root": list(rs.highest_root),
        "cartan": [list(row) for row in rs.cartan],
    }
    lines = [
        f"{rs.label}: rank {rs.rank}, {len(rs.positive_roots)} positive roots",
        f"  coxeter number h = {rs.h}, dual h = {rs.h_dual}",
        f"  marks   = {list(rs.marks)}",
        f"  comarks = {list(rs.comarks)}",
        f"  highest root = {list(rs.highest_root)}",
    ]
    rows = [{"type": str(rs.label), "rank": rs.rank, "h": rs.h, "h_dual": rs.h_dual,
             "positive_roots": len(rs.positive_roots)}]
    return payload, lines, rows, 0


def _cmd_pf(args, ctx, tol):
    rs = build_root_system(RootSystemLabel.parse(args.label))
    result = pf_power_iteration(rs.cartan, ctx)
    closed = lambda_min(rs, ctx)
    payload = {
        "type": str(rs.label),
        "lambda": _dec(result.eigenvalue, ctx),
        "lambda_closed_form": _dec(closed, ctx),
        "vector": [_dec(v, ctx) for v in result.vector],
        "iterations": result.iterations,
        "residual": _dec(result.residual, ctx),
    }
    lines = [f"{rs.label}: lambda = {decimal_string(result.eigenvalue, 20)} "
             f"(closed form {decimal_string(closed, 20)}), "
             f"{result.iterations} iterations",
             "  vector = [" + ", ".join(decimal_string(v, 12) for v in result.vector) + "]"]
    rows = [{"type": str(rs.label), "lambda": decimal_string(result.eigenvalue, 30),
             "iterations": result.iterations,
             "residual": decimal_string(result.residual, 30)}]
    return payload, lines, rows, 0


def _cmd_gamma(args, ctx, tol):
    rs = build_root_system(RootSystemLabel.parse(args.label))
    g = gamma_vector(rs, ctx)
    masses = mass_vector_closed_form(rs, ctx)
    constant, profile = gamma_ratio_profile(rs, ctx)
    payload = {
        "type": str(rs.label),
        "gamma": [_dec(v, ctx) for v in g],
        "masses": [_dec(v, ctx) for v in masses],
        "profile_constant": _dec(constant, ctx),
        "profile": [_dec(v, ctx) for v in profile],
    }
    lines = [f"{rs.label}: Gamma vector and closed-form masses"]
    for i, (gv, mv) in enumerate(zip(g, masses), start=1):
        lines.append(f"  node {i}: Gamma = {decimal_string(gv, 15)}   "
                     f"mass = {decimal_string(mv, 15)}")
    lines.append(f"  pi * Gamma = constant * profile with constant = "
                 f"{decimal_string(constant, 20)}")
    rows = [{"type": str(rs.label), "node": i + 1,
             "gamma": decimal_string(g[i], 30), "mass": decimal_string(masses[i], 30)}
            for i in range(rs.rank)]
    return payload, lines, rows, 0


def _cmd_words(args, ctx, tol):
    rs = build_root_system(RootSystemLabel.parse(args.label))
    entries = []
    lines = [f"{rs.label}: exponent words over modulus {rs.h}"]
    rows = []
    for i in range(1, rs.rank + 1):
        w = word_of_root_system(rs, i)
        entries.append({"index": i, **w.to_json_dict(), "display": str(w)})
        lines.append(f"  f({rs.label},{i}) = {w}")
        rows.append({"type": str(rs.label), "index": i, "N": w.modulus, "word": str(w)})
    return {"type": str(rs.label), "words": entries}, lines, rows, 0


def _cmd_classify(args, ctx, tol):
    rs = build_root_system(RootSystemLabel.parse(args.label))
    entries = []
    lines = [f"{rs.label}: membership of the words and their antisymmetrizations"]
    rows = []
    for i in range(1, rs.rank + 1):
        w = word_of_root_system(rs, i)
        v = classify(w)
        vt = classify(tilde(w))
        entries.append({
            "index": i, **w.to_json_dict(), "display": str(w),
            "in_C": v.in_C, "k": v.k, "tilde_in_C": vt.in_C, "tilde_k": vt.k,
        })
        lines.append(f"  f({rs.label},{i}) = {w}")
        lines.append(f"      k = {v.k} ; antisymmetrized k = {vt.k}")
        rows.append({"type": str(rs.label), "index": i, "word": str(w),
                     "k": v.k, "tilde_k": vt.k})
    return {"type": str(rs.label), "entries": entries}, lines, rows, 0


def _cmd_verify(args, ctx, tol):
    if args.label is not None:
        labels = [RootSystemLabel.parse(args.label)]
    else:
        labels = list(default_battery())
    if args.check in ("1.2", "1.3"):
        covered = [label for label in labels if affine_theorem(label) == args.check]
        if not covered:
            raise DomainError(f"theorem {args.check} does not cover {labels[0]}; "
                              f"its affine masses fall under {affine_theorem(labels[0])}")
        labels = covered
    checks = dict.fromkeys(CHECKS.values()) if args.check == "all" else [CHECKS[args.check]]
    reports = [check(rs, ctx, tol)
               for rs in map(build_root_system, labels) for check in checks]
    all_pass = all(r.passed for r in reports)
    payload = {"reports": [r.to_json_dict(ctx.digits) for r in reports], "pass": all_pass}
    lines = [_report_line(r) for r in reports]
    lines.append(f"{'ALL PASS' if all_pass else 'FAILURES PRESENT'} "
                 f"({len(reports)} reports)")
    rows = [_report_row(r) for r in reports]
    return payload, lines, rows, 0 if all_pass else 1


def _cmd_jacobi(args, ctx, tol):
    rs = build_root_system(RootSystemLabel.parse(args.label))
    n = rs.h
    if args.prime is not None:
        site = PrimeSite(n, args.prime)
    else:
        site = find_site(n, p_min=args.pmin)
    entries = []
    lines = [f"{rs.label}: character sums at N = {n}, p = {site.p}, "
             f"generator {site.generator}"]
    rows = []
    worst = mpf(0)
    for i in range(1, rs.rank + 1):
        w = word_of_root_system(rs, i)
        jval, psi, m, order = word_at_site(w, site, ctx)
        with ctx.working():
            magnitude_residual = abs(abs(psi) - 1)
            worst = max(worst, magnitude_residual)
        coords = None if order is None else list(root_of_unity_coordinates(m, n))
        entries.append({
            "N": n, "p": site.p, "word": w.to_json_dict(),
            "J": _complex_pair(jval, ctx),
            "psi": _complex_pair(psi, ctx),
            "psi_order": order,
            "cyclotomic": coords,
            "magnitude_residual": _dec(magnitude_residual, ctx),
        })
        lines.append(f"  f({rs.label},{i}): |psi - unit circle| = "
                     f"{decimal_string(magnitude_residual, 6)}, order = {order}, "
                     f"coordinates = {coords}")
        rows.append({"type": str(rs.label), "index": i, "N": n, "p": site.p,
                     "psi_order": order,
                     "magnitude_residual": decimal_string(magnitude_residual, 30)})
    ok = worst < tol and all(e["psi_order"] is not None for e in entries)
    lines.append(f"{'PASS' if ok else 'FAIL'}: worst unit-modulus residual "
                 f"{decimal_string(worst, 6)} (tol {decimal_string(tol, 6)})")
    payload = {"type": str(rs.label), "entries": entries, "pass": bool(ok)}
    return payload, lines, rows, 0 if ok else 1


def _cmd_selberg(args, ctx, tol):
    if args.grid < 0:
        raise DomainError(f"--grid must be >= 0, got {args.grid}")
    real_grid = real_parameter_grid()[:args.grid or None]
    complex_grid = complex_parameter_grid()[:args.grid or None]
    entries = []
    lines = ["closed form vs quadrature oracle"]
    ok = True
    real_oracle, complex_oracle = cross_validate(real_grid, complex_grid, ctx)
    with ctx.working():
        for case, closed_form, bound, grid, oracle in (
                ("real", selberg_real_closed, mpf("1e-8"), real_grid, real_oracle),
                ("complex", selberg_complex_closed, mpf("1e-6"), complex_grid, complex_oracle)):
            for params, quadrature in zip(grid, oracle):
                closed = closed_form(params, ctx)
                rel = abs(quadrature - closed) / abs(closed)
                ok &= rel < bound
                entries.append(_selberg_entry(case, params, closed, quadrature, rel, ctx))
    for e in entries:
        lines.append(f"  {e['case']:<8} alpha={e['alpha']:<6} beta={e['beta']:<6} "
                     f"rho={e['rho']:<5} n={e['n']}  rel error {e['rel_error']}")
    lines.append("PASS" if ok else "FAIL")
    rows = [dict(e) for e in entries]
    return {"entries": entries, "pass": bool(ok)}, lines, rows, 0 if ok else 1


def _selberg_entry(case, params, closed, quadrature, rel, ctx):
    return {
        "case": case,
        "alpha": str(params.alpha), "beta": str(params.beta),
        "rho": str(params.rho), "n": params.n,
        "closed": _dec(closed, ctx),
        "quadrature": _dec(quadrature, ctx),
        "rel_error": decimal_string(rel, 6),
    }


def _cmd_identities(args, ctx, tol):
    report = trig_identities_suite(ctx)
    payload = report.to_json_dict(ctx.digits)
    lines = [_report_line(report)]
    for name, res in zip(report.labels, report.residuals):
        lines.append(f"  {name:<32} residual {decimal_string(res, 6)}")
    rows = [_report_row(report)]
    return payload, lines, rows, 0 if report.passed else 1


def _emit(args, payload, lines, rows) -> None:
    if args.fmt == "json":
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    elif args.fmt == "csv":
        buffer = io.StringIO()
        if rows:
            writer = csv.DictWriter(buffer, fieldnames=list(rows[0].keys()))
            writer.writeheader()
            writer.writerows(rows)
        text = buffer.getvalue()
    else:
        text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        ctx, tol = _resolve_context(args)
        payload, lines, rows, code = args.run(args, ctx, tol)
        _emit(args, payload, lines, rows)
    except (CartanGammaError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return 130
    return code


if __name__ == "__main__":
    sys.exit(main())
