"""One round of a workload in a fresh interpreter.

Run by ``run.py`` as ``python3 child.py SRC WORKLOAD SEED MODE`` with
MODE one of ``setup`` (stop once the first command is ready), ``round``
or ``traced``.  The first line on standard output says that set-up is
done; a round then prints one JSON line with the wall time of its
commands, the peak resident memory, every command's output, and in
``traced`` mode the spans and per-layer metrics.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time


def main() -> int:
    src, workload, seed, mode = sys.argv[1], sys.argv[2], int(sys.argv[3]), sys.argv[4]
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import cartan_gamma
    from cartan_gamma import cli
    import_s = time.perf_counter() - t0
    if os.path.dirname(os.path.abspath(cartan_gamma.__file__)) != os.path.join(src, "cartan_gamma"):
        print(f"cartan_gamma imported from {cartan_gamma.__file__}, not {src}", file=sys.stderr)
        return 2

    from workloads import commands
    argvs = commands(workload, seed)
    print(json.dumps({"import_s": import_s}), flush=True)
    if mode == "setup":
        return 0

    tracer = None
    if mode == "traced":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install(cartan_gamma)

    outputs = []
    start = time.perf_counter()
    for argv in argvs:
        buffer = io.StringIO()
        span = tracer.span("cli.command") if tracer else contextlib.nullcontext()
        with span, contextlib.redirect_stdout(buffer):
            rc = cli.main(argv)
        outputs.append({"argv": argv, "rc": rc, "stdout": buffer.getvalue()})
    wall_s = time.perf_counter() - start

    result = {
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "outputs": outputs,
    }
    if tracer is not None:
        result["layers"] = tracer.layer_metrics(wall_s)
        result["spans"] = tracer.spans
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
