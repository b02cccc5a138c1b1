"""Spans around the calls into each layer of the program, and the
per-layer metrics computed from them.

The tracer wraps public functions from outside the package: every module
attribute bound to a traced function is replaced by a wrapper that
records a span (name, start, end, parent) in memory.  A call counts
towards its metric only when no enclosing span belongs to the same layer,
so a layer's time is inclusive but never counted twice (``psi_order``
calls ``hecke_value``, which calls ``jacobi_sum``: only the outer call is
timed under its own name).
"""

from __future__ import annotations

import functools
import math
import sys
import time

# metric -> public functions as (module, attribute); a dotted attribute is
# a method.  The layer is the module.
TRACED = {
    "rootkit.build_s": [("rootkit", "build_root_system")],
    "gammawords.words_s": [("gammawords", "word_of_root_system")],
    "gammawords.classify_s": [("gammawords", "classify")],
    "gammawords.evaluate_s": [("gammawords", "evaluate"),
                              ("gammawords", "evaluate_gamma_ratio")],
    "spectra.pf_s": [("spectra", "pf_power_iteration")],
    "spectra.verify_eigen_s": [("spectra", "verify_pf_eigenvector")],
    "spectra.verify_affine_s": [("spectra", "verify_affine_masses")],
    "spectra.verify_membership_s": [("spectra", "verify_membership")],
    "spectra.verify_pairing_s": [("spectra", "verify_pairing_sums")],
    "jacobi.jacobi_sum_s": [("jacobi", "jacobi_sum")],
    "jacobi.hecke_s": [("jacobi", "hecke_value")],
    "jacobi.psi_order_s": [("jacobi", "psi_order")],
    "jacobi.recognize_s": [("jacobi", "recognize_cyclotomic")],
    "selberg.real_quad_s": [("selberg", "selberg_real_quadrature")],
    "selberg.complex_quad_s": [("selberg", "selberg_complex_quadrature")],
    "selberg.closed_s": [("selberg", "selberg_real_closed"),
                         ("selberg", "selberg_complex_closed")],
    "reports.serialize_s": [("reports", "VerificationReport.to_json_dict"),
                            ("reports", "decimal_string")],
}

COUNTS = ("rootkit.positive_roots", "spectra.pf_iterations", "spectra.pf_iterations_max",
          "jacobi.gauss_terms", "jacobi.recognize_calls", "jacobi.lattice_dim_max")


def euler_phi(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


class Tracer:
    """In-memory spans plus the counts taken at the same boundaries."""

    def __init__(self) -> None:
        # [name, start, end, parent index, metric if the call is counted]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._depth: dict[str, int] = {}
        self.counts = dict.fromkeys(COUNTS, 0)
        self._built: set[str] = set()

    def span(self, name: str):
        return _Span(self, name)

    def _wrap(self, metric: str, layer: str, name: str, fn):
        hook = getattr(self, "_count_" + name, None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            outer = self._depth.get(layer, 0) == 0
            self._depth[layer] = self._depth.get(layer, 0) + 1
            try:
                with self.span(f"{layer}.{name}") as record:
                    if outer:
                        record[4] = metric
                    result = fn(*args, **kwargs)
            finally:
                self._depth[layer] -= 1
            if hook is not None and outer:
                hook(args, result)
            return result
        return traced

    def install(self, package) -> None:
        """Replace every binding of a traced function in the package."""
        modules = [m for n, m in sys.modules.items()
                   if n == package.__name__ or n.startswith(package.__name__ + ".")]
        for metric, targets in TRACED.items():
            for module_name, attr in targets:
                owner = sys.modules[f"{package.__name__}.{module_name}"]
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(owner, cls_name)
                    setattr(cls, meth,
                            self._wrap(metric, module_name, meth, getattr(cls, meth)))
                    continue
                original = getattr(owner, attr)
                wrapper = self._wrap(metric, module_name, attr, original)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, key, wrapper)

    # Counts, taken from the arguments and results of outer calls.

    def _count_build_root_system(self, args, rs) -> None:
        if str(rs.label) not in self._built:
            self._built.add(str(rs.label))
            self.counts["rootkit.positive_roots"] += len(rs.positive_roots)

    def _count_pf_power_iteration(self, args, result) -> None:
        self.counts["spectra.pf_iterations"] += result.iterations
        self.counts["spectra.pf_iterations_max"] = max(
            self.counts["spectra.pf_iterations_max"], result.iterations)

    def _count_gauss(self, args, result) -> None:
        word, site = args[0], args[1]
        self.counts["jacobi.gauss_terms"] += len(word.coeffs) * (site.p - 1)

    _count_jacobi_sum = _count_hecke_value = _count_psi_order = _count_gauss

    def _count_recognize_cyclotomic(self, args, result) -> None:
        self.counts["jacobi.recognize_calls"] += 1
        self.counts["jacobi.lattice_dim_max"] = max(
            self.counts["jacobi.lattice_dim_max"], euler_phi(args[1]) + 2)

    def layer_metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer seconds and counts of one round.

        ``cli.overhead_s`` is the round's wall time minus the calls the
        command handlers made into the library: argument parsing, output
        formatting outside ``decimal_string``, and the tracer itself.
        """
        out = dict.fromkeys(TRACED, 0.0)
        top_level = 0.0
        for name, start, end, parent, metric in self.spans:
            if metric is not None:
                out[metric] += end - start
            if parent is not None and self.spans[parent][0] == "cli.command":
                top_level += end - start
        out.update(self.counts)
        out["cli.overhead_s"] = wall_s - top_level
        return out


class _Span:
    __slots__ = ("tracer", "name", "record")

    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer, self.name = tracer, name

    def __enter__(self):
        t = self.tracer
        parent = t._stack[-1] if t._stack else None
        self.record = [self.name, time.perf_counter(), None, parent, None]
        t._stack.append(len(t.spans))
        t.spans.append(self.record)
        return self.record

    def __exit__(self, *exc) -> None:
        self.record[2] = time.perf_counter()
        self.tracer._stack.pop()
