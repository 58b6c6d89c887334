"""Reproduce the ROADMAP baseline rows with one command.

Usage, from the repository root:

    python3 perfbench/baseline.py

Each row runs ``REPEAT`` fresh samples (see ``harness.run_child``) and
prints the median ``cli.main`` wall time, and peak RSS where the ROADMAP
gives one, next to the ROADMAP figure.  A row whose median differs from
the ROADMAP figure by more than 20% is marked ``NO LONGER MATCHES``.
Machine info is printed first; the record goes to
``.perfbench/baseline.json``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import harness  # noqa: E402

TOLERANCE = 0.20
REPEAT = 3

# (row, argv, ROADMAP seconds, ROADMAP peak RSS in MB or None)
ROWS = (
    ("clt-interval Q=1e6 threads=1",
     ["clt-interval", "--interval", "1000000:10000", "--threads", "1"], 5.4, None),
    ("clt-interval Q=1e6 threads=2",
     ["clt-interval", "--interval", "1000000:10000", "--threads", "2"], 3.6, None),
    ("clt-single q=10000019 full",
     ["clt-single", "--q", "10000019", "--h", "const:100", "--g", "full"], 0.44, 269.0),
    ("clt-single q=100000007 full",
     ["clt-single", "--q", "100000007", "--h", "const:100", "--g", "full"], 4.0, 2400.0),
    ("weil-check defaults", ["weil-check"], 0.73, None),
    # the ROADMAP names Q = 10^6 only; the interval width 10^4 is assumed
    ("rmf-compare Q=1e6", ["rmf-compare", "--interval", "1000000:10000"], 0.16, None),
)


def _note(measured: float, roadmap: float) -> str:
    return "" if abs(measured / roadmap - 1) <= TOLERANCE else "NO LONGER MATCHES"


def main() -> int:
    if not harness.use_sources():
        return 2

    machine = harness.machine_info()
    print("machine: " + " ".join(f"{k}={v}" for k, v in machine.items()))
    harness.run_child([], trace=False)  # warm-up, not counted
    records = []
    for row, cli_argv, roadmap_s, roadmap_mb in ROWS:
        samples = [harness.run_child([cli_argv], trace=False) for _ in range(REPEAT)]
        if any(s["exit"] != 0 or s["calls"][0]["code"] != 0 for s in samples):
            print(f"perfbench: {row} failed", file=sys.stderr)
            return 1
        run_s = statistics.median(s["raw_run_s"] for s in samples)
        rss = statistics.median(s["peak_rss_mb"] for s in samples)
        notes = [_note(run_s, roadmap_s)] + ([_note(rss, roadmap_mb)] if roadmap_mb else [])
        line = f"{row:30s} run_s {run_s:7.3f} (ROADMAP {roadmap_s})  peak_rss_mb {rss:8.1f}"
        if roadmap_mb:
            line += f" (ROADMAP {roadmap_mb:.0f})"
        print(line + "  " + " ".join(n for n in notes if n))
        records.append({"row": row, "argv": cli_argv, "run_s": run_s, "peak_rss_mb": rss,
                        "roadmap_s": roadmap_s, "roadmap_peak_rss_mb": roadmap_mb,
                        "samples": REPEAT, "matches": not any(notes)})
    out = harness.ROOT / ".perfbench"
    out.mkdir(exist_ok=True)
    (out / "baseline.json").write_text(json.dumps({"machine": machine, "rows": records}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
