"""Benchmark of the cartan-gamma verifier.

    python3 bench/run.py --workload battery|sites|selberg --seed N
                         --seconds S --trace 0|1

Each round runs a workload's CLI commands in a fresh interpreter, so the
in-process caches start cold, as they do for a user of the command line.
Rounds repeat while another one still fits in S seconds (at least one
runs), and every output is checked against the benchmark's own reference
values (see checks.py).  The last line of standard output is one JSON
object with the operations attempted and failed and, with ``--trace 0``,
the end-to-end metrics (medians over rounds and set-up samples) or, with
``--trace 1``, the per-layer metrics of traced rounds.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")
OUT_DIR = os.path.join(HERE, "out")

from checks import Verdict, check_round  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_SAMPLES = 5          # set-up-only interpreters per run, besides the rounds
IMPORTTIME_SAMPLES = 3
CHILD_TIMEOUT_S = 170

# One thread per numerical library, a fixed hash seed, and no PYTHONPATH
# from the caller: rounds then differ only in the machine's speed.
CHILD_ENV = {"PYTHONHASHSEED": "0", "OMP_NUM_THREADS": "1",
             "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(RuntimeError):
    pass


def _env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update(CHILD_ENV)
    return env


def spawn(workload: str, seed: int, mode: str) -> tuple[float, dict, dict | None]:
    """Start one child; return its set-up time, ready line and round result."""
    cmd = [sys.executable, "-s", CHILD, SRC, workload, str(seed), mode]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=_env(), cwd=ROOT, text=True)
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        rest, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0 or not ready:
        raise BenchError(f"{mode} round of {workload} exited {proc.returncode}:\n{err}")
    result = json.loads(rest.splitlines()[-1]) if mode != "setup" else None
    return setup_s, json.loads(ready), result


def scipy_import_s() -> float:
    """Cumulative import time of numpy and scipy under ``import cartan_gamma.cli``,
    from ``-X importtime`` (whose own bookkeeping inflates it slightly)."""
    code = f"import sys; sys.path.insert(0, {SRC!r}); import cartan_gamma.cli"
    samples = []
    for _ in range(IMPORTTIME_SAMPLES):
        proc = subprocess.run([sys.executable, "-s", "-X", "importtime", "-c", code],
                              capture_output=True, text=True, env=_env(), cwd=ROOT,
                              timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            raise BenchError(f"import of cartan_gamma.cli failed:\n{proc.stderr}")
        samples.append(numpy_scipy_share(proc.stderr))
    return statistics.median(samples)


def numpy_scipy_share(importtime_log: str) -> float:
    """Seconds of the outermost numpy/scipy entries of an importtime log."""
    entries = []  # (depth, package root, cumulative us), in post-order
    for line in importtime_log.splitlines():
        parts = line.split("|")
        if not line.startswith("import time:") or len(parts) != 3 or "cumulative" in line:
            continue
        name = parts[2][1:]
        depth = (len(name) - len(name.lstrip())) // 2
        entries.append((depth, name.strip().split(".")[0], int(parts[1])))
    heavy = ("numpy", "scipy")
    total = 0
    for i, (depth, root, cumulative) in enumerate(entries):
        parent = next((e for e in entries[i + 1:] if e[0] < depth), None)
        if root in heavy and (parent is None or parent[1] not in heavy):
            total += cumulative
    return total / 1e6


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    mode = "traced" if trace else "round"
    setups, imports = [], []
    for _ in range(SETUP_SAMPLES):
        setup_s, ready, _ = spawn(workload, seed, "setup")
        setups.append(setup_s)
        imports.append(ready["import_s"])

    rounds, durations = [], []
    start = time.perf_counter()
    while True:
        t = time.perf_counter()
        setup_s, ready, result = spawn(workload, seed, mode)
        durations.append(time.perf_counter() - t)
        setups.append(setup_s)
        imports.append(ready["import_s"])
        rounds.append(result)
        if time.perf_counter() - start + max(durations) > seconds:
            break

    verdict = Verdict()
    for result in rounds:
        check_round(result["outputs"], verdict)
    if verdict.unexpected:
        print("failed checks:\n  " + "\n  ".join(verdict.unexpected[:20]), file=sys.stderr)

    def median(key):
        return statistics.median(r[key] for r in rounds)

    if trace:
        layers = {k: statistics.median(r["layers"][k] for r in rounds)
                  for k in rounds[0]["layers"]}
        layers["setup.import_s"] = statistics.median(imports)
        layers["setup.scipy_import_s"] = scipy_import_s()
        layers["selberg.complex_rel_error_max"] = verdict.complex_rel_error_max
        layers["trace.wall_s"] = median("wall_s")
        write_trace(workload, seed, rounds[-1], layers)
        metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in sorted(layers.items())}
    else:
        metrics = {
            "wall_s": {"value": median("wall_s"), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": median("peak_rss_mb"), "unit": "MB"},
            "headroom_digits": {"value": verdict.headroom_digits, "unit": "digits"},
        }
    return {"correct": verdict.correct, "attempted": verdict.attempted,
            "failed": len(verdict.failures), "metrics": metrics}


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    return "ratio" if metric.endswith("_error_max") else "count"


def write_trace(workload: str, seed: int, result: dict, layers: dict) -> None:
    """Write the spans of the last traced round and the per-layer metrics."""
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"trace-{workload}-{seed}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"workload": workload, "seed": seed, "layers": layers,
                   "span_fields": ["name", "start", "end", "parent", "metric"],
                   "spans": result["spans"]}, fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "cartan_gamma", "cli.py")):
        print(f"error: no program to measure: {SRC}/cartan_gamma is missing", file=sys.stderr)
        return 2
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
