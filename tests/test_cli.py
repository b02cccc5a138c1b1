import hashlib
import io
import json
import os
import signal
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

from cartan_gamma import (PrecisionContext, PrimeSite, RootSystemLabel, build_root_system,
                          cli, complex_parameter_grid, cross_validate, gammawords, jacobi,
                          psi_order, word_of_root_system)
from cartan_gamma.cli import VERIFY_CHOICES, default_battery, main
from cartan_gamma.rootkit import MAX_RANK
from cartan_gamma.selberg import MAX_ORACLE_DIGITS


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_default_battery_contents():
    labels = [str(lb) for lb in default_battery()]
    assert len(labels) == 49
    assert labels[0] == "A1" and "E8" in labels and "G2" in labels
    assert "D2" not in labels and "B1" not in labels
    assert labels == sorted(labels, key=lambda t: (t[0], int(t[1:])))


def test_roots_text(capsys):
    code, out, _ = run(capsys, "roots", "--type", "E8")
    assert code == 0
    assert "120 positive roots" in out
    assert "h = 30" in out


def test_words_prints_expected_entries(capsys):
    code, out, _ = run(capsys, "words", "--type", "E6")
    assert code == 0
    for expected in ("-[1]+[3]-[6]-[8]",
                     "-[1]+[2]+[3]-[4]-[5]-[6]+[10]-[11]",
                     "-[4]-[5]+[6]-[9]",
                     "[1]-[2]-2[3]+[4]+[5]-[6]-[7]+[9]-[10]"):
        assert expected in out


def test_classify_text(capsys):
    code, out, _ = run(capsys, "classify", "--type", "E6")
    assert code == 0
    assert out.count("k = -1 ; antisymmetrized k = 0") == 6


def test_verify_single_type(capsys):
    code, out, _ = run(capsys, "verify", "all", "--type", "A2")
    assert code == 0
    assert "ALL PASS" in out
    assert out.count("PASS") >= 4


def test_verify_json_schema(capsys):
    code, out, _ = run(capsys, "verify", "1.1", "--type", "G2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] is True
    report = payload["reports"][0]
    assert set(report) == {"theorem", "type", "residuals", "tolerance", "pass"}
    assert report["theorem"] == "1.1" and report["type"] == "G2"


def test_verify_failure_exit_code(capsys):
    code, out, _ = run(capsys, "verify", "1.1", "--type", "E6", "--tol", "1e-80")
    assert code == 1
    assert "FAIL" in out


def test_pf_json_values(capsys):
    code, out, _ = run(capsys, "pf", "--type", "A3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    with mp.workdps(60):
        assert abs(mpf(payload["lambda"]) - (2 - mp.sqrt(2))) < mpf(10) ** -40
        assert abs(mpf(payload["vector"][1]) - mp.sqrt(2)) < mpf(10) ** -40
    assert payload["vector"][0] == "1.0"


def test_json_determinism(capsys):
    _, first, _ = run(capsys, "gamma", "--type", "G2", "--format", "json")
    _, second, _ = run(capsys, "gamma", "--type", "G2", "--format", "json")
    assert first == second


def test_digits_flag_and_env(capsys, monkeypatch):
    _, out30, _ = run(capsys, "gamma", "--type", "G2", "--format", "json", "--digits", "30")
    payload = json.loads(out30)
    assert len(payload["gamma"][0]) < 40
    # Only the arguments set the precision: the environment is not read.
    argv = ["gamma", "--type", "G2", "--format", "json"]
    plain = run(capsys, *argv)
    monkeypatch.setenv("CARTAN_GAMMA_DIGITS", "25")
    assert run(capsys, *argv) == plain


def test_csv_output(capsys):
    code, out, _ = run(capsys, "roots", "--type", "G2", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "type,rank,h,h_dual,positive_roots"
    assert lines[1] == "G2,2,6,4,6"


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, "verify", "4.4", "--type", "F4",
                       "--format", "json", "--out", str(target))
    assert code == 0
    assert out == ""
    payload = json.loads(target.read_text())
    assert payload["pass"] is True


def test_jacobi_with_explicit_prime(capsys):
    code, out, _ = run(capsys, "jacobi", "--type", "E6", "--prime", "37",
                       "--format", "json", "--tol", "1e-38")
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] is True
    entry = payload["entries"][0]
    assert entry["N"] == 12 and entry["p"] == 37
    assert set(entry) >= {"N", "p", "word", "J", "psi", "cyclotomic"}


def test_jacobi_bad_prime(capsys):
    code, _, err = run(capsys, "jacobi", "--type", "E6", "--prime", "17")
    assert code == 2
    assert "error" in err


def test_selberg_subcommand(capsys):
    code, out, _ = run(capsys, "selberg", "--grid", "1")
    assert code == 0
    assert "PASS" in out


def test_identities_subcommand(capsys):
    code, out, _ = run(capsys, "identities")
    assert code == 0
    assert "PASS" in out


def test_bad_type_is_usage_error(capsys):
    code, _, err = run(capsys, "roots", "--type", "Q5")
    assert code == 2
    assert "error" in err


ROOTS = ["roots", "--type", "A2"]


@pytest.mark.parametrize("argv", [
    [*ROOTS, "--tol", "abc"],
    [*ROOTS, "--tol", "inf"],
    [*ROOTS, "--tol", "nan"],
    [*ROOTS, "--tol", "-1"],
    [*ROOTS, "--out", "/nonexistent-dir/report.txt"],
    ["selberg", "--grid", "-1"],
    ["jacobi", "--type", "E6", "--prime", "2"],
    ["jacobi", "--type", "E6", "--prime", "1000000000000000000000177"],
    ["roots", "--type", "A\u00b2"],
    ["roots", "--type", "A" + "9" * 4400],
], ids=["tol", "tol-inf", "tol-nan", "tol-negative", "out-dir",
        "grid-negative", "prime-two", "prime-huge", "label-superscript", "rank-4400-digits"])
def test_malformed_input_exits_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == "" and err.startswith("error: ")


@pytest.mark.parametrize("check,label", [("1.3", "E6"), ("1.2", "G2")])
def test_verify_type_outside_theorem_exits_2(capsys, check, label):
    code, out, err = run(capsys, "verify", check, "--type", label)
    assert code == 2
    assert out == "" and err.startswith("error: ")


def test_verify_affine_theorem_runs_only_its_types(capsys):
    code, out, _ = run(capsys, "verify", "1.3", "--format", "json")
    assert code == 0
    reports = json.loads(out)["reports"]
    assert {r["theorem"] for r in reports} == {"1.3"}
    assert len(reports) == 11 + 11 + 2  # B2-B12, C2-C12, F4, G2


# The first 16 hex digits of the sha256 of stdout in json, text and csv, at the
# default precision.  These pin every verify token's report, not only its verdict:
# a change to any of these bytes must be deliberate, with its digest edited here.
FIXED_OUTPUT_DIGESTS = {
    "roots --type E8": ("f6bfaeed7827b323", "c39ca2cafa669354", "035d0358630b319a"),
    "pf --type E8": ("be8106f1fddd407d", "41851c39eef1c1a4", "fa63b01f6e0506d0"),
    "gamma --type E8": ("5151167ce028fce0", "ed38baf3852071f0", "e3a0d6a0f5a4f246"),
    "verify all --type E8": ("f0f8b57bc94ccb88", "8d865e1046719f1e", "232f6145befd90dc"),
    "verify 1.1 --type E8": ("961aeb508acb4d5d", "7b33c36749346b95", "12f621448d934814"),
    "verify 1.2 --type E8": ("8ba219cb629a9662", "11babcad302c608e", "a4f01659d61ac935"),
    "verify 4.2 --type E8": ("3b89f650381ba6f0", "b86f750dd2f1d54c", "3b39c746c357f1fd"),
    "verify 4.4 --type E8": ("654f69957268eb9f", "f7f55a50a5bbe8cb", "128fadfba7ccf4f3"),
    "verify all --type F4": ("df81ef42de7bf0b5", "6feb5c58f5297730", "9b6472da4421d3f1"),
    "verify 1.3 --type F4": ("149ab8cbe9a610e8", "39b4a96bbcd41b04", "2d450d42bf7f8d37"),
    "verify 4.2 --type A2": ("612b1278beff7383", "69861c6bd35c7ed4", "afab4d5145ef482c"),
    "words --type E6": ("166dc337ca573954", "0aae3feb5d511418", "3df24daa63e2fc05"),
    "classify --type E6": ("8d756a4351a2b3d0", "53fbfd6040eefda7", "cb1da6f0c084c447"),
    "jacobi --type E6 --prime 13":
        ("7305e6aa2db0ac8f", "4366137f89c262fb", "56d0bd27b4be9ad6"),
    "jacobi --type E7 --prime 19 --digits 20":
        ("952154207d81f17a", "f61534a0944b2065", "f063f9db876ef6d6"),
    "jacobi --type E6 --prime 2029":
        ("2683d288867a79b9", "1618121a06ff698a", "e66bf64268514074"),
    "jacobi --type E6 --prime 2029 --digits 80":
        ("84a264d7e0268b75", "686841f02b66f60a", "ac4a75b4e60b107f"),
    "jacobi --type E8 --prime 1201":
        ("a3fe14b91297864c", "c29560540927a70e", "e18d78c306e67f85"),
    "jacobi --type A22": ("0aea231dda0ca7bf", "f7f94ecbf4e9a5f1", "f5fe6cc5c8854919"),
    "jacobi --type C50": ("d5b72c09d25dff2f", "923f794a5874b7e4", "bb39dd0f5cbd491e"),
    "identities": ("f8a156a71fdf5f5e", "8c3067c76376dc38", "5209919847885138"),
    "selberg --grid 1 --digits 20":
        ("3c3b9a3d2da2e234", "afdc6e968f598a57", "fc470eb51d5536f6"),
}


def test_fixed_argument_output_keeps_its_bytes():
    codes, digests = set(), {}
    for command in FIXED_OUTPUT_DIGESTS:
        row = []
        for fmt in ("json", "text", "csv"):
            out = io.StringIO()
            with redirect_stdout(out):
                codes.add(main([*command.split(), "--format", fmt]))
            row.append(hashlib.sha256(out.getvalue().encode()).hexdigest()[:16])
        digests[command] = tuple(row)
    assert codes == {0}
    assert digests == FIXED_OUTPUT_DIGESTS


def test_jacobi_calls_no_pslq(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("jacobi ran a PSLQ search")
    monkeypatch.setattr(mp, "pslq", refuse)
    assert main(["jacobi", "--type", "E6", "--prime", "13"]) == 0
    assert capsys.readouterr().out.splitlines()[-1].startswith("PASS: ")


def test_jacobi_fails_when_psi_is_not_the_named_root(monkeypatch, capsys):
    # An exponent off by two names the wrong root for every word: no word
    # gets an order or coordinates, and the verdict is FAIL.
    exponent = jacobi._stickelberger_exponent
    monkeypatch.setattr(jacobi, "_stickelberger_exponent",
                        lambda f, site, k: (exponent(f, site, k) + 2) % (2 * site.modulus))
    assert main(["jacobi", "--type", "E6", "--prime", "13"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert all(line.endswith("order = None, coordinates = None") for line in lines[1:-1])
    assert lines[-1].startswith("FAIL: ")


def test_jacobi_classifies_and_sums_each_word_once(monkeypatch):
    # E6 has rank 6: one classify and one jacobi_sum per word, wherever the
    # package binds them, for the jacobi command and for psi_order.
    calls = dict.fromkeys(("classify", "jacobi_sum"), 0)
    for name in calls:
        original = getattr(jacobi, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)
        for module in (cli, gammawords, jacobi):
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    with redirect_stdout(io.StringIO()):
        assert main(["jacobi", "--type", "E6", "--prime", "13"]) == 0
    assert calls == {"classify": 6, "jacobi_sum": 6}
    calls.update(classify=0, jacobi_sum=0)
    system, site = build_root_system(RootSystemLabel.parse("E6")), PrimeSite(12, 13)
    for i in range(1, system.rank + 1):
        assert psi_order(word_of_root_system(system, i), site, PrecisionContext(50)) is not None
    assert calls == {"classify": 6, "jacobi_sum": 6}


@pytest.mark.parametrize("family", "ABCD")
def test_rank_above_the_bound_exits_2_before_any_build(family, capsys, monkeypatch):
    def refuse(label):
        raise AssertionError(f"built {label}")
    monkeypatch.setattr("cartan_gamma.cli.build_root_system", refuse)
    assert main(["roots", "--type", f"{family}{MAX_RANK + 1}"]) == 2
    lo = {"A": 1, "B": 2, "C": 2, "D": 3}[family]
    assert capsys.readouterr().err == \
        f"error: {family}{MAX_RANK + 1}: rank must be in {lo}..{MAX_RANK}\n"


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def fresh_interpreter(*args):
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, timeout=60)


def test_commands_in_one_interpreter_print_what_they_print_alone(capsys):
    # The benchmark runs a whole round of commands in one interpreter: after a
    # parse error, each later command prints what it prints in a fresh one.
    argvs = [["roots"], ["selberg", "--grid", "1"], ["verify", "all", "--type", "A2"]]
    with pytest.raises(SystemExit) as exc:
        main(argvs[0])
    in_process = [(exc.value.code, *capsys.readouterr())]
    for argv in argvs[1:]:
        in_process.append((main(argv), *capsys.readouterr()))
    alone = [(done.returncode, done.stdout, done.stderr)
             for done in (fresh_interpreter("-m", "cartan_gamma.cli", *argv)
                          for argv in argvs)]
    assert [row[0] for row in in_process] == [2, 0, 0]
    assert in_process == alone


# json prints every oracle value to full digits; text and csv render the same
# values, and test_fixed_argument_output_keeps_its_bytes pins all three for selberg.
@pytest.mark.parametrize("fmt", ["json"])
def test_selberg_prints_the_same_bytes_with_and_without_the_pool(capsys, cpus, forks, fmt):
    argv = ["selberg", "--grid", "3", "--digits", "20", "--format", fmt]
    cpus(2)
    helped = run(capsys, *argv)
    assert len(forks) == 2
    cpus(1)
    assert run(capsys, *argv) == helped
    assert helped[0] == 0
    assert len(forks) == 2


def test_jacobi_prints_the_same_bytes_with_and_without_the_root_producer(capsys, cpus, forks):
    argv = ["jacobi", "--type", "E6", "--prime", "2017", "--format", "json"]
    printed = []
    for n in (1, 2):
        cpus(n)
        jacobi._gauss_values.cache_clear()
        printed.append(run(capsys, *argv))
    assert printed[0] == printed[1]
    assert printed[0][0] == 0
    assert len(forks) == 1


def test_selberg_oracle_error_in_a_worker_exits_2(capsys, monkeypatch, cpus, forks):
    # An error estimate as large as the value fails the oracles' guard.
    cpus(2)
    monkeypatch.setattr(mp, "quad", lambda *args, **kwargs: (mpf(1), mpf(1)))
    code, out, err = run(capsys, "selberg", "--grid", "2", "--digits", "20")
    assert code == 2
    assert out == "" and err.startswith("error: ") and "Traceback" not in err
    assert len(forks) == 2


def test_selberg_above_the_oracle_cap_exits_2_before_any_fork(capsys, cpus, forks):
    cpus(2)
    code, out, err = run(capsys, "selberg", "--digits", str(MAX_ORACLE_DIGITS + 1))
    assert (code, out) == (2, "")
    assert err == (f"error: the quadrature oracles take at most {MAX_ORACLE_DIGITS} digits, "
                   f"got {MAX_ORACLE_DIGITS + 1}\n")
    assert forks == []


class Interrupted(Exception):
    pass


def slow_quad(*args, **kwargs):
    time.sleep(2)
    return mpf(1), mpf(1)


def test_an_exception_in_the_caller_ends_the_pool_workers(monkeypatch, cpus, forks):
    # Ctrl-C or a timeout in the caller arrives while both helpers are inside
    # a point; leaving the call must end them rather than wait for the point.
    def alarm(signum, frame):
        raise Interrupted

    cpus(2)
    monkeypatch.setattr(mp, "quad", slow_quad)  # before the fork: the helpers sleep too
    previous = signal.signal(signal.SIGALRM, alarm)
    signal.setitimer(signal.ITIMER_REAL, 0.5)
    start = time.monotonic()
    try:
        with pytest.raises(Interrupted):
            cross_validate((), complex_parameter_grid()[:2], PrecisionContext(20))
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert time.monotonic() - start < 2
    assert len(forks) == 2


def run_interrupted(capsys, *argv):
    """run(), where a KeyboardInterrupt leaving main fails this test alone."""
    try:
        return run(capsys, *argv)
    except KeyboardInterrupt:
        pytest.fail("KeyboardInterrupt escaped main")


def test_ctrl_c_ends_a_command_with_an_error_line(capsys, monkeypatch):
    def interrupt(args, ctx, tol):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "_cmd_roots", interrupt)
    assert run_interrupted(capsys, "roots", "--type", "A2") == (130, "", "error: interrupted\n")


def test_ctrl_c_in_selberg_ends_its_workers_and_exits_130(capfd, monkeypatch, cpus, forks):
    # The same alarm as above, through the command.  A terminal's Ctrl-C
    # reaches the whole process group: the helpers get SIGINT and, given
    # time to print a traceback, must not; the caller gets KeyboardInterrupt.
    def alarm(signum, frame):
        for pid in forks:
            os.kill(pid, signal.SIGINT)
        time.sleep(0.2)
        raise KeyboardInterrupt

    cpus(2)
    monkeypatch.setattr(mp, "quad", slow_quad)
    previous = signal.signal(signal.SIGALRM, alarm)
    signal.setitimer(signal.ITIMER_REAL, 0.5)
    start = time.monotonic()
    try:
        code, out, err = run_interrupted(capfd, "selberg", "--grid", "2", "--digits", "20")
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert time.monotonic() - start < 2
    assert (code, out, err) == (130, "", "error: interrupted\n")
    assert len(forks) == 2


def test_ctrl_c_in_jacobi_ends_its_root_producer_and_exits_130(capfd, monkeypatch, cpus, forks):
    # As above for a sweep of seconds: the producer gets SIGINT and, given
    # time to print a traceback, must not; the caller gets KeyboardInterrupt.
    def alarm(signum, frame):
        for pid in forks:
            os.kill(pid, signal.SIGINT)
        time.sleep(0.2)
        raise KeyboardInterrupt

    site = jacobi.find_site(12, 100_000)
    jacobi._gauss_values.cache_clear()
    cpus(2)
    previous = signal.signal(signal.SIGALRM, alarm)
    signal.setitimer(signal.ITIMER_REAL, 0.5)
    start = time.monotonic()
    try:
        code, out, err = run_interrupted(capfd, "jacobi", "--type", "E6", "--prime",
                                         str(site.p), "--digits", "20")
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert time.monotonic() - start < 2
    assert (code, out, err) == (130, "", "error: interrupted\n")
    assert len(forks) == 1


def test_cli_import_loads_neither_numpy_nor_scipy():
    probe = ("import sys, cartan_gamma.cli; "
             "print(sorted({'numpy', 'scipy'} & set(sys.modules)))")
    done = fresh_interpreter("-c", probe)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_cli_import_loads_no_process_pool():
    # Neither the import nor a selberg run, forked helpers and all, loads a
    # process pool's modules: they would add to start-up and to peak memory.
    probe = ("import os, sys, cartan_gamma.cli as cli; pool = {'multiprocessing', "
             "'concurrent.futures'}; print(sorted(pool & set(sys.modules))); "
             "code = cli.main(['selberg', '--grid', '2', '--digits', '20', '--out', os.devnull]); "
             "print(code, sorted(pool & set(sys.modules)))")
    done = fresh_interpreter("-c", probe)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["[]", "0 []"]


LABELS = ["A1", "A12", "B2", "C12", "D4", "E6", "E7", "E8", "F4", "G2", "e6", " D5 ", "A\u0663",
          "A0", "B1", "C1", "D2", "E5", "E9", "F5", "G3",
          "H4", "A\u00b2", "", "E", "8", "EE", "A-1", "\uff258", "A+3", " E8"]
TOLS = ["1e-30", "1e-80", "0", "-1", "inf", "nan", "abc", "", "1e400", "1_0", "0x10"]
TYPED = ("roots", "pf", "gamma", "words", "classify", "verify", "jacobi")


@st.composite
def cli_argv(draw):
    command = draw(st.sampled_from([*TYPED, "selberg", "identities"]))
    argv = [command]
    if command == "verify":
        argv.append(draw(st.sampled_from(VERIFY_CHOICES)))
    if command in TYPED:
        argv += ["--type", draw(st.sampled_from(LABELS))]
    if command == "jacobi":
        if draw(st.booleans()):
            argv += ["--prime", str(draw(st.integers(-2, 199)))]
        else:
            argv += ["--pmin", str(draw(st.integers(-2, 2)))]
    if command == "selberg":
        # Quadrature sets the cost here: the whole grid takes 15 s at 80 digits.
        argv += ["--grid", str(draw(st.integers(-2, 2))),
                 "--digits", str(draw(st.integers(20, 25)))]
    elif draw(st.booleans()):
        argv += ["--digits", str(draw(st.integers(20, 80)))]
    return argv + ["--tol", draw(st.sampled_from(TOLS)), "--format", "json"]


@pytest.fixture(scope="module")
def missing_dir_out(tmp_path_factory):
    return str(tmp_path_factory.mktemp("cli") / "missing" / "report.json")


@settings(max_examples=40, deadline=None)
@given(argv=cli_argv(), out_missing=st.booleans())
@example(argv=["jacobi", "--type", "E6", "--prime", "2", "--format", "json"],
         out_missing=False)
@example(argv=["roots", "--type", "A\u00b2", "--format", "json"], out_missing=False)
@example(argv=["gamma", "--type", "G2", "--digits", "20000000000", "--format", "json"],
         out_missing=False)
@example(argv=["jacobi", "--type", "E6", "--prime", "1000000000000000000000177"],
         out_missing=False)
@example(argv=["verify", "1.1", "--type", "E6", "--tol", "1e-80", "--format", "json"],
         out_missing=False)
def test_cli_exit_contract(missing_dir_out, argv, out_missing):
    if out_missing:
        argv = [*argv, "--out", missing_dir_out]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    assert (code == 2) == err.getvalue().startswith("error: ")
    if code != 2:
        # The exit code is the printed verdict.
        assert (code == 1) == (json.loads(out.getvalue()).get("pass") is False)
