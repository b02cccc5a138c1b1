"""The benchmark's checks accept the program's outputs and reject corrupted
ones: a perturbed vector entry, a wrong psi order, a quadrature value off
by more than its bound."""

from __future__ import annotations

import contextlib
import copy
import io
import json
import os
import sys

import pytest
from mpmath import mp, mpf

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from cartan_gamma import cli  # noqa: E402
from cartan_gamma.selberg import complex_parameter_grid, real_parameter_grid  # noqa: E402


def _run_cli(argvs):
    outputs = []
    for argv in argvs:
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            rc = cli.main(argv)
        outputs.append({"argv": argv, "rc": rc, "stdout": buffer.getvalue()})
    return outputs


def _verdict(outputs):
    verdict = checks.Verdict()
    checks.check_round(outputs, verdict)
    return verdict


def _edit(outputs, index, change):
    """Copy of the outputs with one command's JSON payload changed."""
    edited = copy.deepcopy(outputs)
    payload = json.loads(edited[index]["stdout"])
    change(payload)
    edited[index]["stdout"] = json.dumps(payload)
    return edited


def _nudge(text, relative):
    with mp.workdps(60):
        return mp.nstr(mpf(text) * (1 + mpf(relative)), 55)


@pytest.fixture(scope="module")
def battery_outputs():
    argvs = [a for a in workloads.commands("battery", 0) if a[a.index("--type") + 1]
             in ("A3", "B3", "G2")]
    return _run_cli(argvs)


@pytest.fixture(scope="module")
def site_outputs():
    return _run_cli([["jacobi", "--type", "E6", "--prime", "13", "--format", "json"]])


def _find(outputs, cmd):
    return next(i for i, o in enumerate(outputs) if o["argv"][0] == cmd)


def test_battery_outputs_pass(battery_outputs):
    verdict = _verdict(battery_outputs)
    assert (verdict.attempted, verdict.failures) == (3 * 7, [])
    assert 10 < verdict.headroom_digits < 30


@pytest.mark.parametrize("cmd,key", [("pf", "vector"), ("gamma", "gamma")])
def test_perturbed_vector_entry_is_rejected(battery_outputs, cmd, key):
    def perturb(payload):
        payload[key][0] = _nudge(payload[key][0], "1e-25")
    edited = _edit(battery_outputs, _find(battery_outputs, cmd), perturb)
    verdict = _verdict(edited)
    assert len(verdict.failures) == 1 and not verdict.correct


def test_negative_vector_is_rejected(battery_outputs):
    def negate(payload):
        payload["vector"] = ["-" + x for x in payload["vector"]]
    edited = _edit(battery_outputs, _find(battery_outputs, "pf"), negate)
    assert len(_verdict(edited).failures) == 1


@pytest.mark.parametrize("key,value", [("positive_root_count", 7), ("h", 5),
                                       ("cartan", [[2, -1], [-1, 2]])])
def test_wrong_root_data_is_rejected(battery_outputs, key, value):
    edited = _edit(battery_outputs, _find(battery_outputs, "roots"),
                   lambda payload: payload.update({key: value}))
    assert len(_verdict(edited).failures) == 1


def test_failing_or_missing_report_is_rejected(battery_outputs):
    index = _find(battery_outputs, "verify")

    def raise_residual(payload):
        payload["reports"][0]["residuals"][0] = "1.0e-20"
    assert len(_verdict(_edit(battery_outputs, index, raise_residual)).failures) == 1

    def drop_report(payload):
        del payload["reports"][3]
    assert len(_verdict(_edit(battery_outputs, index, drop_report)).failures) == 4


def test_malformed_output_fails_every_operation_of_the_command(battery_outputs):
    edited = copy.deepcopy(battery_outputs)
    edited[_find(edited, "verify")]["stdout"] = "Traceback (most recent call last):"
    verdict = _verdict(edited)
    assert verdict.attempted == 3 * 7 and len(verdict.failures) == 4


def test_site_outputs_pass(site_outputs):
    verdict = _verdict(site_outputs)
    assert (verdict.attempted, verdict.failures) == (6 * 3, [])


def test_wrong_psi_order_is_rejected(site_outputs):
    def wrong_order(payload):
        payload["entries"][2]["psi_order"] = 1
    verdict = _verdict(_edit(site_outputs, 0, wrong_order))
    assert verdict.failures == ["jacobi E6 p=13 digits=50 word 3 order"]
    assert not verdict.correct


def test_wrong_psi_order_at_20_digits_is_the_known_fault(site_outputs):
    edited = _edit(site_outputs, 0, lambda p: p["entries"][0].update(psi_order=2))
    edited[0]["argv"] = edited[0]["argv"] + ["--digits", "20"]
    verdict = _verdict(edited)
    assert len(verdict.failures) == 1 and verdict.correct


def test_wrong_coordinates_are_rejected(site_outputs):
    def shift(payload):
        coeffs = payload["entries"][0]["cyclotomic"]
        coeffs[0] += 1
    assert len(_verdict(_edit(site_outputs, 0, shift)).failures) == 1


def test_psi_off_the_unit_circle_is_rejected(site_outputs):
    def scale(payload):
        entry = payload["entries"][1]
        entry["psi"] = [_nudge(x, "1e-30") for x in entry["psi"]]
    verdict = _verdict(_edit(site_outputs, 0, scale))
    assert verdict.failures == ["jacobi E6 p=13 digits=50 word 2 |psi|"]


def test_root_of_unity_order():
    with mp.workdps(60):
        assert checks.root_of_unity_order(mp.expjpi(mpf(16) / 18), 18) == 9
        assert checks.root_of_unity_order(mp.expjpi(mpf(-2) / 18), 18) == 18
        assert checks.root_of_unity_order(mp.mpc(-1), 12) == 2
        assert checks.root_of_unity_order(mp.expjpi(mpf(1) / 7), 12) is None


def _selberg_output(real_error="1e-12", complex_error="1e-9"):
    """A selberg payload over the program's grids, with the benchmark's
    reference values as closed forms and oracles at the given errors."""
    entries = []
    with mp.workdps(checks.REF_DPS):
        for case, grid, error in (("real", real_parameter_grid(), real_error),
                                  ("complex", complex_parameter_grid(), complex_error)):
            for params in grid:
                e = {"case": case, "alpha": str(params.alpha), "beta": str(params.beta),
                     "rho": str(params.rho), "n": params.n}
                ref = checks.selberg_reference(
                    case, *(checks._fraction(e[k]) for k in ("alpha", "beta", "rho")),
                    params.n)
                e["closed"] = mp.nstr(ref, 50)
                e["quadrature"] = _nudge(mp.nstr(ref, 60), error)
                entries.append(e)
    payload = {"entries": entries, "pass": True}
    return [{"argv": ["selberg", "--format", "json"], "rc": 0, "stdout": json.dumps(payload)}]


def test_selberg_within_bounds_passes():
    verdict = _verdict(_selberg_output())
    assert (verdict.attempted, verdict.failures) == (30, [])
    assert 1e-10 < verdict.complex_rel_error_max < 1e-8


@pytest.mark.parametrize("real_error,complex_error,failed",
                         [("2e-8", "1e-9", 10), ("1e-12", "2e-6", 5)])
def test_quadrature_off_by_more_than_its_bound_is_rejected(real_error, complex_error, failed):
    verdict = _verdict(_selberg_output(real_error, complex_error))
    assert len(verdict.failures) == failed
    assert all(f.endswith("oracle") for f in verdict.failures)


def test_wrong_closed_form_is_rejected():
    def perturb(payload):
        payload["entries"][4]["closed"] = _nudge(payload["entries"][4]["closed"], "1e-20")
    verdict = _verdict(_edit(_selberg_output(), 0, perturb))
    assert len(verdict.failures) == 1 and verdict.failures[0].endswith("closed")


def test_workload_inputs_follow_the_seed():
    assert workloads.commands("sites", 3) == workloads.commands("sites", 3)
    battery = workloads.commands("battery", 3)
    assert sorted({a[a.index("--type") + 1] for a in battery}) == sorted(workloads.BATTERY)
    assert len(battery) == 4 * 49
    primes = {a[a.index("--prime") + 1] for s in range(20) for a in workloads.commands("sites", s)}
    assert primes == {"13", "19", "1993", "2017", "2029"}


def test_numpy_scipy_share_counts_outermost_entries():
    log = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       10 |         10 |     numpy.core",
        "import time:       20 |         30 |   numpy",
        "import time:        5 |          5 |     scipy._lib",
        "import time:       15 |         20 |   scipy",
        "import time:       40 |         90 | cartan_gamma.selberg",
        "import time:      100 |        100 | scipy.special",
    ])
    assert run.numpy_scipy_share(log) == pytest.approx((30 + 20 + 100) / 1e6)
