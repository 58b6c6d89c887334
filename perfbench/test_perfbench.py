"""The benchmark's own tests.

Run from the repository root:

    PYTHONPATH=src python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
import run  # noqa: E402
import verify  # noqa: E402
from tracer import COUNTERS  # noqa: E402

# Small argvs that between them reach every traced layer, the scalar-jacobi
# route (q above the table cap) included.
SMALL = [
    ["clt-interval", "--interval", "20000:2000", "--rmax", "2", "--threads", "1"],
    ["clt-single", "--q", "10007", "--h", "const:10", "--g", "full", "--threads", "1"],
    ["clt-single", "--q", "1000000007", "--h", "const:10", "--g", "const:500", "--threads", "1"],
    ["weil-check", "--trials", "40", "--interval", "1000:9000", "--seed", "3", "--threads", "1"],
    ["rmf-compare", "--interval", "10000:2000", "--battery", "5:20:4", "--seed", "3",
     "--threads", "1"],
    ["sieve-verify", "--z", "20", "--nmax", "5000", "--interval", "10000:1000", "--threads", "1"],
    ["ktheta", "--rmax", "2", "--hmax", "6", "--threads", "1"],
]
RECORDED = "ktheta --rmax 6 --hmax 40 --threads 1"


@pytest.fixture(scope="module")
def traced_pair():
    return [harness.run_child(SMALL, trace=True) for _ in range(2)]


def test_small_outputs_pass_the_recomputation_checks(traced_pair):
    rng = random.Random(0)
    for sample in traced_pair:
        assert harness.problems(sample, SMALL, {}, rng) == []


def test_exact_counters_repeat(traced_pair):
    first, second = (sample["layers"] for sample in traced_pair)
    for name in COUNTERS:
        assert first[name] == second[name], name
        assert first[name] > 0, f"{name} is not exercised by the small argvs"
    assert first["windows.symbol_use_ratio"] == second["windows.symbol_use_ratio"]


def test_every_traced_function_was_reached(traced_pair):
    functions = traced_pair[0]["functions"]
    assert all(calls > 0 for calls, _, _ in functions.values()), functions


def test_each_call_is_scaled_by_the_calibrations_around_it(traced_pair):
    sample = traced_pair[0]
    cal, calls = sample["calibration"], sample["calls"]
    assert len(cal) == len(calls) + 1
    scaled = [call["seconds"] * 2 * harness.CAL_REF_S / (cal[i] + cal[i + 1])
              for i, call in enumerate(calls)]
    assert sample["run_s"] == pytest.approx(sum(scaled))
    assert sample["raw_run_s"] == pytest.approx(sum(call["seconds"] for call in calls))
    assert sample["setup_s"] == pytest.approx(sample["raw_setup_s"] * harness.CAL_REF_S / cal[0])


def _recorded_sample():
    argv = RECORDED.split()
    sample = harness.run_child([argv], trace=False)
    return sample, [argv]


def test_recorded_envelope_passes():
    sample, argvs = _recorded_sample()
    assert harness.problems(sample, argvs, verify.load_expected(), random.Random(0)) == []


def test_one_corrupted_byte_counts_as_failed():
    sample, argvs = _recorded_sample()
    expected = verify.load_expected()
    text = sample["calls"][0]["output"]
    meta = text.index('"meta"')
    digits = [i for i, ch in enumerate(text) if ch.isdigit() and not meta <= i < text.index("}", meta)]
    rng = random.Random(0)
    for i in random.Random(1).sample(digits, 20):
        bad = text[:i] + str((int(text[i]) + 1) % 10) + text[i + 1:]
        sample["calls"][0]["output"] = bad
        assert harness.problems(sample, argvs, expected, rng), f"corruption at byte {i} passed"


def test_a_raising_call_fails_the_run_and_stays_out_of_the_medians(monkeypatch, tmp_path, capsys):
    good = SMALL[-1]
    # opening an --out path in a missing directory raises inside cli.main
    raising = good + ["--out", str(tmp_path / "missing" / "out.json")]
    real, launched = harness.run_child, []

    def run_child(argvs, trace):
        launched.append(argvs)
        # launch 1 is the warm-up, so the first measured sample raises
        return real([raising] if len(launched) == 2 else argvs, trace)

    monkeypatch.setattr(harness, "run_child", run_child)
    monkeypatch.setattr(harness.workloads, "argvs", lambda workload, seed: [good])
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    assert run.main(["--workload", "interval-sweep", "--seconds", "2", "--trace", "0"]) == 1
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert not result["correct"]
    assert result["failed"] == 1 and result["attempted"] >= 2
    record = json.loads((tmp_path / "interval-sweep-seed1-trace0.json").read_text())
    for metric in record["metrics"].values():
        assert metric["samples"] == result["attempted"] - 1


def test_bare_directory_exits_nonzero_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, str(tmp_path / HERE.name / "run.py"), "--workload", "interval-sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert not list(tmp_path.glob(".perfbench*"))


def test_benchmark_json_matches_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(harness.END_TO_END_UNITS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == harness.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == harness.PER_LAYER_UNITS
