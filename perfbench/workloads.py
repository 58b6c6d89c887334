"""Benchmark workloads: each is a fixed list of charwin CLI argument vectors.

Every workload runs with ``--threads 1`` so load comes from one process at a
time; there is deliberately no multi-process workload, because two processes
on a two-vCPU machine would measure the scheduler.  ``cpu_s`` covers the
pool question instead.

The workload seed only reaches the program as the ``--seed`` of
``rmf-compare`` and ``weil-check``; the program receives nothing but the
generated argv.
"""

from __future__ import annotations

DEFAULT_SEED = 1

WHY = {
    "interval-sweep": (
        "753 primes in five ~1 s calls, ~2.6k symbols read from each ~1e6-entry "
        "table: per-prime table builds dominate, where batched reciprocity would act"
    ),
    "single-full": (
        "one prime, every symbol read: int64 prefix/sums arrays and the "
        "histogram dominate time and 2.4 GB peak RSS"
    ),
    "mixed-checks": (
        "scalar jacobi, many small full tables, exact sieve weights and "
        "pairing counts: the small-table and table-free character uses"
    ),
}


def argvs(workload: str, seed: int) -> list[list[str]]:
    """The CLI calls one sample of ``workload`` makes, in order."""
    if workload == "interval-sweep":
        # Q = 10^6..10^6+10^4 as five consecutive calls, so a calibration
        # brackets every ~1 s of work (see harness.py)
        calls = [["clt-interval", "--interval", f"{start}:2000", "--g", "log_power:3",
                  "--h", "const:5", "--rmax", "2"]
                 for start in range(1_000_000, 1_010_000, 2000)]
    elif workload == "single-full":
        calls = [["clt-single", "--q", "100000007", "--h", "const:100", "--g", "full"]]
    elif workload == "mixed-checks":
        calls = [
            ["rmf-compare", "--interval", "1000000:100000", "--seed", str(seed)],
            ["weil-check", "--trials", "2000", "--seed", str(seed)],
            ["sieve-verify", "--z", "40", "--nmax", "1000000", "--interval", "1000000:100000"],
            ["ktheta", "--rmax", "6", "--hmax", "40"],
            ["clt-single", "--q", "1000000007", "--h", "const:100", "--g", "const:1000000"],
        ]
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WHY)}")
    return [call + ["--threads", "1"] for call in calls]
