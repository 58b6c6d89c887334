"""charwin benchmark: one workload, measured end to end or traced per layer.

Usage, from the repository root:

    python3 perfbench/run.py --workload interval-sweep --seed 1 --seconds 40 --trace 0

Each sample is a fresh ``python`` process that imports ``charwin.cli`` from
``src/`` and calls ``charwin.cli.main(argv)`` in process for every argv of
the workload (see ``workloads.py``).  Samples run one at a time with
``--threads 1`` until ``--seconds`` are spent.

``--trace 0`` reports, as medians over untraced samples:
  run_s        wall seconds of the workload's ``cli.main`` calls (interpreter
               start and import excluded)
  setup_s      launch of a fresh interpreter to ``charwin.cli`` imported
  cpu_s        user+sys CPU of the ``cli.main`` calls, reaped descendants
               included
  peak_rss_mb  ru_maxrss of the sample process tree
The three times are calibrated: each is scaled to a machine on which a fixed
kernel next to it takes ``harness.CAL_REF_S`` (see ``harness.py``), so a
slow stretch of the shared host cancels.  The unscaled medians are printed
too, as ``raw_*``.
``--trace 1`` alternates untraced and traced samples and reports the
per-layer metrics of ``tracer.py`` plus ``trace.overhead_s``.

Every sample's outputs are checked (``verify.py``); a sample that exits
nonzero or prints a wrong envelope counts as failed, adds to ``failed_frac``
(failed / attempted) and to no other metric, and makes the run exit 1.
Human-readable lines, with units, sample counts and the machine, come
first; the last stdout line is the JSON result.  The full record of the run
is written to ``.perfbench/`` in the repository root.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
import workloads  # noqa: E402

OUT_DIR = harness.ROOT / ".perfbench"


def measure_and_report(workload: str, seed: int, seconds: float,
                       trace: bool) -> tuple[dict | None, dict]:
    """Measure one workload, print its metrics and write its record.

    Returns the JSON result, or None when no sample of a needed kind passed
    the checks, and the run as ``harness.measure`` gives it.
    """
    machine = harness.machine_info()
    run = harness.measure(workload, seed, seconds, trace)
    samples = run["samples"]
    failed = [s for s in samples if s["problems"]]
    for s in failed:
        print(f"perfbench: FAILED: {'; '.join(s['problems'])}", file=sys.stderr)
    if not all(harness.good_samples(run, kind) for kind in {False, trace}):
        print("perfbench: no sample produced a correct result", file=sys.stderr)
        return None, run

    print("machine: " + " ".join(f"{k}={v}" for k, v in machine.items()))
    print(f"workload {workload} seed {seed} trace {int(trace)}: {len(samples)} samples, "
          f"{len(failed)} failed")
    if trace:
        rows = harness.per_layer(run)
    else:
        rows = {name: (value, harness.END_TO_END_UNITS[name], n)
                for name, (value, n) in harness.end_to_end(run).items()}
    for name, (value, unit, n) in rows.items():
        print(f"  {name:32s} {value:>16.6g} {unit:5s} n={n}")
    if not trace:
        for name in ("raw_run_s", "raw_setup_s", "raw_cpu_s"):
            value, n = harness.median_of(harness.good_samples(run, traced=False), name)
            print(f"  {name:32s} {value:>16.6g} s     n={n}")
    print(f"  {'failed_frac':32s} {len(failed) / len(samples):>16.6g} ratio n={len(samples)}")

    OUT_DIR.mkdir(exist_ok=True)
    record = {"machine": machine, "workload": workload, "seed": seed, "seconds": seconds,
              "trace": int(trace), "argvs": run["argvs"],
              "metrics": {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in rows.items()},
              "samples": [{k: v for k, v in s.items() if k != "calls"} |
                          {"calls": [{k: c[k] for k in ("argv", "code", "seconds")} for c in s["calls"]]}
                          for s in samples]}
    path = OUT_DIR / f"{workload}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    return {"correct": not failed, "attempted": len(samples), "failed": len(failed),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in rows.items()}}, run


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WHY))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not harness.use_sources():
        return 2
    result, _ = measure_and_report(args.workload, args.seed, args.seconds, bool(args.trace))
    if result is None:
        return 1
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
