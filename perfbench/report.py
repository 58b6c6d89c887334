"""Every workload, untraced and traced, in one command.

Usage, from the repository root:

    python3 perfbench/report.py [--seed 1]

Each run lasts the ``run_seconds`` of ``BENCHMARK.json``.  Prints each
workload's end-to-end metrics (run_s, setup_s, cpu_s, peak_rss_mb,
failed_frac) and per-layer metrics, each with its unit and sample count,
then the shape lines: the share of the traced run_s spent in
``windows.chi_table``, the symbol-use ratio with its base, and the tracing
overhead per workload.  Exits 1 if any workload produced no result or a
wrong output.
"""

from __future__ import annotations

import argparse
import json
import sys

import harness
import run
import workloads


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    args = parser.parse_args(argv)
    if not harness.use_sources():
        return 2
    seconds = json.loads((harness.ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    shape, ok = [], True
    for name in workloads.WHY:
        plain, _ = run.measure_and_report(name, args.seed, seconds, trace=False)
        traced, traced_run = run.measure_and_report(name, args.seed, seconds, trace=True)
        if plain is None or traced is None:
            ok = False
            continue
        ok = ok and plain["correct"] and traced["correct"]
        layer = {k: v["value"] for k, v in traced["metrics"].items()}
        # the overhead was measured against the traced run's own untraced samples
        run_s, _ = harness.median_of(harness.good_samples(traced_run, traced=False), "run_s")
        # layer times are unscaled wall seconds, so the share divides by unscaled run_s
        traced_run_s, _ = harness.median_of(harness.good_samples(traced_run, traced=True),
                                            "raw_run_s")
        shape.append(
            f"{name:15s} chi_table_s/traced run_s {layer['windows.chi_table_s'] / traced_run_s:6.1%}  "
            f"symbol_use_ratio {layer['windows.symbol_use_ratio']:.4g} "
            f"(read {layer['windows.symbols_read']} / built {layer['windows.symbols_built']})  "
            f"trace.overhead_s {layer['trace.overhead_s']:+.3f} on run_s {run_s:.3f}"
        )
    print("shape:")
    for line in shape:
        print("  " + line)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
