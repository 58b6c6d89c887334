"""One benchmark sample, run in a fresh interpreter.

Usage: python child.py SRC_DIR SPEC_JSON

Imports ``charwin.cli`` from SRC_DIR and stamps CLOCK_MONOTONIC as soon as
it is imported, so the parent can time set-up from its own launch stamp.
SPEC_JSON is {"argvs": [[...], ...], "trace": bool}; an empty argv list
makes a set-up-only probe.  Each argv goes to ``charwin.cli.main`` in this
process with stdout captured.  The fixed ``calibrate`` kernel runs once
after the import and once after every call, so the parent can tell how fast
the machine ran next to each call.  The last stdout line is one JSON object:
{"ready": stamp, "calibration": [s, ...] (one more than calls),
"calls": [{"argv", "code", "seconds", "cpu_s", "output"}],
"layers": {metric: value} or null, "functions": {name: [calls, s, self_s]} or null}.
"""

import sys
import time

sys.path.insert(0, sys.argv[1])
import charwin.cli  # noqa: E402

READY = time.clock_gettime(time.CLOCK_MONOTONIC)

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402


def calibrate() -> float:
    """Wall seconds of a fixed kernel that calls nothing in charwin.

    The two kinds of work the workloads do: a pure-Python modular loop, and
    a numpy square-marking scatter into a cache-sized table and into a fresh
    1 MB one.  Its inputs are small enough to leave peak RSS alone.
    """
    start = time.perf_counter()
    acc = 0
    for i in range(400_000):
        acc += i * i % 7
    for q in (100_003, 1_000_003):
        table = np.full(q, -1, dtype=np.int8)
        for lo in range(1, 6_000_000, 50_000):
            x = np.arange(lo, lo + 50_000, dtype=np.int64)
            table[(x * x) % q] = 1
    return time.perf_counter() - start


def _cpu_s() -> float:
    """User+sys CPU of this process and its reaped descendants so far."""
    own, reaped = resource.getrusage(resource.RUSAGE_SELF), resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + reaped.ru_utime + reaped.ru_stime


def _call(argv: list[str]) -> dict:
    buf = io.StringIO()
    cpu = _cpu_s()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            code = charwin.cli.main(argv)
    except SystemExit as exc:  # argparse rejects the argv
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # any crash is a failed call, reported by the parent
        traceback.print_exc()
        code = -1
    seconds = time.perf_counter() - start
    return {"argv": argv, "code": code, "seconds": seconds, "cpu_s": _cpu_s() - cpu,
            "output": buf.getvalue()}


def main() -> None:
    spec = json.loads(sys.argv[2])
    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    calibrate()  # warm-up: the first pass pays one-off allocation costs
    calibration, calls = [calibrate()], []
    for argv in spec["argvs"]:
        calls.append(_call(argv))
        calibration.append(calibrate())
    out = {"ready": READY, "calibration": calibration, "calls": calls, "layers": None,
           "functions": None}
    if tracer is not None:
        for call in calls:
            tracer.add_output(call["output"])
        out["layers"] = tracer.metrics()
        out["functions"] = tracer.calls
    sys.stdout.write(json.dumps(out) + "\n")


if __name__ == "__main__":
    main()
