"""Contracts that span the package's modules."""

import ast
import importlib
import runpy
from fractions import Fraction
from pathlib import Path

import pytest

import cartan_gamma
from cartan_gamma import (DomainError, GammaWord, InvalidRank, NotInC, PrecisionContext,
                          PrimeSite, RootSystemLabel, SearchExhausted, SelbergParams,
                          find_site, gamma, pf_power_iteration, psi_exponent,
                          recognize_cyclotomic, selberg_complex_closed,
                          selberg_complex_quadrature, selberg_real_closed, units)

PACKAGE = Path(cartan_gamma.__file__).parent


def test_no_module_imports_a_private_name_from_a_sibling():
    # A name with a leading underscore belongs to its own module; a sibling
    # that needs it needs a public name.
    private = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (
                    node.level or (node.module or "").startswith("cartan_gamma")):
                private += [f"{path.name}: {node.module}.{alias.name}"
                            for alias in node.names if alias.name.startswith("_")]
    assert private == []


def test_star_import_binds_no_submodule():
    namespace = {}
    exec("from cartan_gamma import *", namespace)
    assert [name for name, value in namespace.items()
            if type(value) is type(cartan_gamma) and name != "__builtins__"] == []


def test_every_name_the_benchmark_tracer_wraps_exists():
    # bench/run.py --trace 1 wraps each (module, attribute) of TRACED, a
    # dotted attribute naming a method; a missing one stops Tracer.install
    # with AttributeError.  run_path compiles the file and writes nothing.
    tracer = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    missing = []
    for targets in runpy.run_path(str(tracer))["TRACED"].values():
        for module, attr in targets:
            owner = importlib.import_module(f"cartan_gamma.{module}")
            for part in attr.split("."):
                owner = getattr(owner, part, None)
            if not callable(owner):
                missing.append(f"{module}.{attr}")
    assert missing == []


HUGE = 10 ** 5000  # beyond Python's default int-to-str limit of 4,300 digits


class Unprintable:
    def __repr__(self):
        raise RuntimeError("no text")


@pytest.mark.parametrize("call,error,message", [
    (lambda: RootSystemLabel("A", HUGE), InvalidRank, "A<16610-bit integer>: rank must be in"),
    (lambda: RootSystemLabel.parse("A" + "9" * 4400), InvalidRank, "9: rank must be in 1..50"),
    (lambda: PrecisionContext(HUGE), DomainError, "got <16610-bit integer>"),
    (lambda: PrimeSite(12, HUGE), DomainError, "<16610-bit integer> exceeds"),
    (lambda: units(-HUGE), DomainError, "got <negative 16610-bit integer>"),
    (lambda: find_site(12, p_min=HUGE), SearchExhausted, r"\[<16610-bit integer>, "),
    (lambda: GammaWord.from_coeffs(12, {HUGE: 1}), DomainError, "residue <16610-bit integer>"),
    (lambda: gamma(HUGE, PrecisionContext()), DomainError, r"\(0, 2\), got <16610-bit integer>$"),
    (lambda: gamma(Fraction(1, HUGE) - 1, PrecisionContext()), DomainError,
     "got <negative 16610-bit integer>/<16610-bit integer>"),
    (lambda: selberg_complex_closed(SelbergParams(-HUGE, 1, 0, 1), PrecisionContext()),
     DomainError, "pole at argument <negative 16610-bit integer>"),
    (lambda: pf_power_iteration([[-HUGE]], PrecisionContext()), DomainError,
     r"inverse of \[\[<negative 16610-bit integer>\]\] is not entrywise positive"),
    (lambda: psi_exponent(GammaWord.from_coeffs(12, {1: HUGE}), find_site(12)), NotInC,
     r"word <16610-bit integer>\[1\] fails membership \(witness <16608-bit integer>/3\)"),
    (lambda: SelbergParams([HUGE], 1, 0, 1), DomainError,
     r"rational \(int or Fraction\), got \[<16610-bit integer>\]$"),
    (lambda: selberg_real_closed(SelbergParams(-HUGE, 1, 0, 1), PrecisionContext()),
     DomainError, r"real convergence domain: "
     r"SelbergParams\(alpha=<negative 16610-bit integer>, beta=1, rho=0, n=1\)$"),
    (lambda: selberg_complex_quadrature(SelbergParams(HUGE, 1, 0, 1), PrecisionContext()),
     DomainError, r"integrability domain: SelbergParams\(alpha=<16610-bit integer>, "),
    (lambda: GammaWord(12, (HUGE,)), DomainError, r"pairs, got \[<16610-bit integer>\]$"),
    (lambda: GammaWord.from_coeffs(12, [HUGE]), DomainError,
     r"to exponents, got \[<16610-bit integer>\]$"),
    (lambda: PrecisionContext([HUGE]), DomainError,
     r"precision must be an integer, got \[<16610-bit integer>\]$"),
    (lambda: RootSystemLabel(HUGE, 3), InvalidRank, "unknown family <16610-bit integer>$"),
    (lambda: RootSystemLabel.parse([HUGE]), InvalidRank,
     r"root-system label \[<16610-bit integer>\]$"),
    (lambda: pf_power_iteration([[2]], PrecisionContext(), tol=[HUGE]), DomainError,
     r"tol must be finite and positive, got \[<16610-bit integer>\]$"),
    (lambda: recognize_cyclotomic([HUGE], 12, ctx=PrecisionContext()), DomainError,
     r"must be a finite number, got \[<16610-bit integer>\]$"),
    (lambda: PrecisionContext(Unprintable()), DomainError,
     r"must be an integer, got <[\w.]*Unprintable object at 0x[0-9a-f]+>$"),
], ids=["label", "label-parse", "precision", "prime-site", "units", "find-site", "word",
        "gamma", "gamma-fraction", "selberg-pole", "pf-inverse", "word-witness",
        "selberg-params", "selberg-real-domain", "selberg-complex-domain", "word-pairs",
        "word-mapping", "precision-type", "label-family", "label-parse-type", "pf-tol",
        "recognize-value", "unprintable"])
def test_integers_too_long_for_str_get_typed_refusals(call, error, message):
    with pytest.raises(error, match=message):
        call()
