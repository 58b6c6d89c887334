"""Launch benchmark samples as fresh interpreters and reduce them to metrics.

Each sample is one ``child.py`` process.  The parent takes a CLOCK_MONOTONIC
stamp just before launching it, so set-up is launch-to-imported; the child
times each ``cli.main`` call and its CPU; ``os.wait4`` gives peak RSS (its
reaped descendants included).  Samples run one at a time, in a closed loop,
until the run's seconds are spent.  Only samples whose outputs pass the
checks count toward a metric, so a wrong but fast output cannot lower one.

Calibration.  The shared host this runs on slows a vCPU by up to about 1.5x
for stretches of seconds to minutes.  The child runs a fixed kernel that
calls nothing in charwin (``child.calibrate``) after the import and after
every call.  Each call's wall and CPU seconds are scaled by
``CAL_REF_S / c``, where ``c`` is the mean of the two calibrations around the
call, and set-up by ``CAL_REF_S`` over the first calibration.  So
``run_s``, ``cpu_s`` and ``setup_s`` are seconds on a machine where the
kernel takes ``CAL_REF_S``: a slow stretch of the host cancels, a slower
program does not.  The unscaled figures are kept as ``raw_*``.
"""

from __future__ import annotations

import json
import os
import platform
import random
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

import verify
import workloads
from tracer import UNITS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CHILD = Path(__file__).with_name("child.py")
CHILD_TIMEOUT_S = 100
# median seconds of child.calibrate on a 2-vCPU Xeon VM (Python 3.11, numpy 2.4)
CAL_REF_S = 0.13

END_TO_END_UNITS = {"run_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {**UNITS, "trace.overhead_s": "s"}


def use_sources() -> bool:
    """Put ``src/`` on the path for the output checks; False, with a message, if absent."""
    if not (SRC / "charwin" / "cli.py").is_file():
        print(f"perfbench: no charwin sources under {SRC}", file=sys.stderr)
        return False
    sys.path.insert(0, str(SRC))
    return True


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def run_child(argvs: list[list[str]], trace: bool) -> dict:
    """Run one sample; calls is empty when the child produced no result."""
    spec = json.dumps({"argvs": argvs, "trace": trace})
    launched = _now()
    proc = subprocess.Popen([sys.executable, str(CHILD), str(SRC), spec],
                            stdout=subprocess.PIPE, cwd=ROOT)
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
        proc.stdout.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    sample = {
        "exit": proc.returncode,
        "process_cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024,
        "calls": [],
        "layers": None,
        "functions": None,
    }
    lines = out.splitlines()
    try:
        result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    except ValueError:
        result = None
    if result is not None:
        sample.update(result)
        cal, calls = result["calibration"], result["calls"]
        scales = [2 * CAL_REF_S / (before + after) for before, after in zip(cal, cal[1:])]
        sample["raw_setup_s"] = result["ready"] - launched
        sample["raw_run_s"] = sum(call["seconds"] for call in calls)
        sample["raw_cpu_s"] = sum(call["cpu_s"] for call in calls)
        sample["setup_s"] = sample["raw_setup_s"] * CAL_REF_S / cal[0]
        sample["run_s"] = sum(call["seconds"] * k for call, k in zip(calls, scales))
        sample["cpu_s"] = sum(call["cpu_s"] * k for call, k in zip(calls, scales))
    return sample


def problems(sample: dict, argvs: list[list[str]], expected: dict, rng: random.Random) -> list[str]:
    """Why a sample failed; empty when every call in it produced correct output."""
    if sample["exit"] != 0 or len(sample["calls"]) != len(argvs):
        return [f"child exited {sample['exit']} without a full result"]
    found = []
    for call in sample["calls"]:
        reason = verify.check_call(call, expected, rng)
        if reason is not None:
            found.append(f"{verify.argv_key(call['argv'])}: {reason}")
    return found


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Closed-loop samples of one workload for ``seconds``; see the module docstring.

    With ``trace`` the samples alternate untraced and traced, so the run
    reports per-layer metrics and the tracing overhead.
    """
    argvs = workloads.argvs(workload, seed)
    expected = verify.load_expected()
    rng = random.Random(seed)
    run_child([], trace=False)  # warm-up: bytecode and file caches, not counted
    deadline = _now() + seconds
    samples = []
    traced = False
    while True:
        started = _now()
        sample = run_child(argvs, trace=traced)
        sample["traced"] = traced
        sample["problems"] = problems(sample, argvs, expected, rng)
        samples.append(sample)
        took = _now() - started
        if trace:
            traced = not traced
        both_kinds = not trace or len(samples) >= 2
        if both_kinds and _now() + took > deadline:
            break
    return {"argvs": argvs, "samples": samples}


def good_samples(run: dict, traced: bool) -> list[dict]:
    """The traced or untraced samples of ``run`` whose outputs passed every check."""
    return [s for s in run["samples"] if s["traced"] == traced and not s["problems"]]


def median_of(samples: list[dict], key: str) -> tuple[float, int]:
    values = [s[key] for s in samples]
    return statistics.median(values), len(values)


def end_to_end(run: dict) -> dict[str, tuple[float, int]]:
    """Metric -> (median, sample count) over the good untraced samples."""
    plain = good_samples(run, traced=False)
    return {key: median_of(plain, key) for key in END_TO_END_UNITS}


def per_layer(run: dict) -> dict[str, tuple[float, str, int]]:
    """Metric -> (value, unit, sample count) from the good traced samples.

    Times are medians; counters and ratios come from the first traced
    sample, since they repeat exactly.  trace.overhead_s is the traced
    minus the untraced median run_s.
    """
    traced = good_samples(run, traced=True)
    out = {}
    for name, unit in UNITS.items():
        if unit == "s":
            out[name] = (statistics.median(s["layers"][name] for s in traced), unit, len(traced))
        else:
            out[name] = (traced[0]["layers"][name], unit, 1)
    untraced_run, _ = end_to_end(run)["run_s"]
    traced_run, count = median_of(traced, "run_s")
    out["trace.overhead_s"] = (traced_run - untraced_run, "s", count)
    return out


def machine_info() -> dict:
    """nproc, CPU model, total memory, Python and numpy versions."""
    info = {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0))}
    with open("/proc/cpuinfo") as fh:
        info["cpu_model"] = next((line.split(":", 1)[1].strip() for line in fh
                                  if line.startswith("model name")), platform.processor())
    with open("/proc/meminfo") as fh:
        kb = next(int(line.split()[1]) for line in fh if line.startswith("MemTotal"))
    info["mem_total_gb"] = round(kb / 2**20, 2)
    info["python"] = platform.python_version()
    info["numpy"] = metadata.version("numpy")
    return info
