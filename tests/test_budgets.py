"""Every budget refusal goes through arith.fit_budget, fast and before it allocates.

Each over-budget call below raises ValueError (exit 2 in the CLI) in under
a second, with a tracemalloc peak under 1 MB, and its message names both the
estimate and the cap.  Spies on jacobi_array and _chi_range raise past 2**20
symbols read, so a route that starts reading before it refuses fails here
instead of running for minutes.  A guard test keeps every budget message in
the one helper.
"""

from __future__ import annotations

import ast
import re
import time
import tracemalloc
import warnings
from pathlib import Path

import pytest

from charwin import cli, prime_avg, windows
from charwin.arith import ExperimentWarning, primes_in_interval
from charwin.rmf import enumerate_second_moment
from charwin.selberg import build_selberg, verify_indicator
from charwin.squares import paired_count_bruteforce
from charwin.windows import WindowConfig, chi_block, chi_table, value_histogram, window_histograms, window_series

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "charwin"
SPY_LIMIT = 1 << 20


def _clt_single(q, h):
    def run(tmp_path):
        return cli.main(["clt-single", "--q", str(q), "--h", f"const:{h}", "--g", "full",
                         "--out", str(tmp_path / "out.json")])
    return run


CASES = [
    pytest.param(lambda _: primes_in_interval(2, 2**28 + 2), "268435457 entries", "MAX_SEGMENT = 268435456",
                 id="sieve-segment"),
    pytest.param(lambda _: primes_in_interval(2**62, 2**62 + 10**4), "2147483647 entries", "MAX_SEGMENT = 268435456",
                 id="sieve-base"),
    pytest.param(lambda _: verify_indicator(build_selberg(10, 10), 2**28), "2415919113 bytes",
                 "MAX_SEGMENT = 268435456 entries", id="indicator-scan"),
    pytest.param(lambda _: chi_table(1000000007), "500000004 bytes", "(CHI_TABLE_MAX + 1) // 2 = 67108864 bytes",
                 id="chi-table"),
    pytest.param(lambda _: chi_block([1000003], 10**9), "6000000006 bytes", "2 * BLOCK_BYTES = 33554432 bytes",
                 id="chi-block"),
    pytest.param(lambda _: paired_count_bruteforce(10, 10), "100000000000000000000 tuples",
                 "BRUTE_FORCE_BUDGET = 100000000 tuples", id="pairing-oracle"),
    pytest.param(lambda _: enumerate_second_moment((1.0,) * 80), "4194304 sign patterns",
                 "2**20 = 1048576 sign patterns", id="rmf-oracle"),
    pytest.param(lambda _: windows.polya_vinogradov_check(1000000007), "500000003 symbols",
                 "MAX_SEGMENT = 268435456 symbols", id="polya-vinogradov"),
    pytest.param(lambda _: windows.incomplete_poly_sum(1000000007, (0, 1), 0, 1000000007), "2000000014 symbols",
                 "MAX_SEGMENT = 268435456 symbols", id="incomplete-sum"),
    pytest.param(_clt_single(1000000007, 100), "499999955 symbols", "MAX_SEGMENT = 268435456 symbols",
                 id="clt-single-jacobi-route"),
    pytest.param(_clt_single(1000003, 400000), "8400021 bytes", "BLOCK_BYTES less 12800016 of counts = 3977200 bytes",
                 id="clt-single-large-h"),
    pytest.param(lambda tmp_path: cli.main(["weil-check", "--interval", "1000000000:100", "--trials", "3",
                                            "--seed", "1", "--out", str(tmp_path / "out.json")]),
                 "1925759232 symbols", "MAX_SEGMENT = 268435456 symbols", id="weil-check-run"),
]


@pytest.mark.parametrize("call, estimate, cap", CASES)
def test_every_refusal_is_fast_small_and_names_estimate_and_cap(call, estimate, cap, monkeypatch, tmp_path, capsys):
    read = []
    real_jacobi_array, real_chi_range = windows.jacobi_array, windows._chi_range

    def spy(real):
        def wrapped(*args):
            symbols = real(*args)
            read.append(symbols.size)
            if sum(read) > SPY_LIMIT:
                raise RuntimeError(f"read {sum(read)} symbols before refusing")
            return symbols
        return wrapped

    monkeypatch.setattr(windows, "jacobi_array", spy(real_jacobi_array))
    monkeypatch.setattr(windows, "_chi_range", spy(real_chi_range))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ExperimentWarning)
        tracemalloc.start()
        try:
            started = time.perf_counter()
            try:
                rc = call(tmp_path)
                message = capsys.readouterr().err
            except ValueError as exc:
                rc, message = 2, str(exc)
            seconds = time.perf_counter() - started
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert rc == 2
    assert seconds < 1 and peak < 2**20, (seconds, peak)
    assert f"needs about {estimate}" in message and f"over {cap}" in message, message


def test_weil_check_refuses_the_whole_run_before_a_jacobi_read(monkeypatch, tmp_path, capsys):
    # three trials that each fit the per-call cap, and together do not; a
    # trial at q <= CHI_TABLE_MAX reads the table and adds nothing
    q = 1000000007
    trials = [{"q": q, "gamma": (0, 5), "x": 0, "y": 200}] * 3 + [{"q": 1009, "gamma": (0,), "x": 0, "y": 900}]

    def no_read(*args):
        raise RuntimeError("jacobi_array reached")

    monkeypatch.setattr(windows, "random_weil_instances", lambda *args, **kwargs: trials)
    monkeypatch.setattr(windows, "jacobi_array", no_read)
    monkeypatch.setattr(windows, "MAX_SEGMENT", 1199)
    argv = ["weil-check", "--out", str(tmp_path / "out.json")]
    assert cli.main(argv) == 2
    assert "weil-check of 4 trials needs about 1200 symbols" in capsys.readouterr().err
    monkeypatch.setattr(windows, "MAX_SEGMENT", 1200)
    with pytest.raises(RuntimeError, match="jacobi_array reached"):
        cli.main(argv)


def test_battery_rows_refused_when_one_row_passes_the_budget(monkeypatch):
    # a row of n_max + 1 symbols counts 2 * (n_max + 1) bytes against
    # BLOCK_BYTES; past the budget the battery refuses at once
    spec = prime_avg.IntervalSpec(q_start=1000, delta=1000)
    expected = prime_avg.variance_ratio(spec, (1.0,) * 300)
    monkeypatch.setattr(windows, "BLOCK_BYTES", 1000)
    assert prime_avg.variance_ratio(spec, (1.0,) * 300) == expected
    with pytest.raises(ValueError, match=r"n_max=500 needs about 1002 bytes, over BLOCK_BYTES = 1000 bytes"):
        prime_avg.variance_ratio(spec, (1.0,) * 500)


def test_battery_refuses_a_single_row_past_chi_block_budget(monkeypatch):
    # one row of 401 symbols passes 2 bytes per cell (802 of 1000), but
    # chi_block counts 401 * (3 + 3) = 2406 bytes of 2000: the battery
    # refuses it by name, before any block is built
    spec = prime_avg.IntervalSpec(q_start=1000, delta=1000)
    monkeypatch.setattr(windows, "BLOCK_BYTES", 1000)
    monkeypatch.setattr(prime_avg, "chi_block", lambda *args: pytest.fail("chi_block reached"))
    with pytest.raises(ValueError, match=r"^battery symbol row to n_max=400 needs about 2406 bytes for chi_block's "
                                         r".*, over 2 \* BLOCK_BYTES = 2000 bytes$"):
        prime_avg.variance_ratio(spec, (1.0,) * 400)


def test_battery_rows_fit_chi_block_budget(monkeypatch):
    # two rows of 241 symbols pass the battery's 2 bytes per cell, but
    # chi_block counts 241 * (3 + 3 * 2) = 2169 bytes of 2000: the battery
    # reads one row per block instead, and 241 * 6 = 1446 fits
    spec = prime_avg.IntervalSpec(q_start=1000, delta=1000)
    a = tuple(range(1, 241))
    expected = prime_avg.variance_ratio(spec, a), prime_avg.avg_character_variance(spec, a)
    monkeypatch.setattr(windows, "BLOCK_BYTES", 1000)
    assert (prime_avg.variance_ratio(spec, a), prime_avg.avg_character_variance(spec, a)) == expected


def test_column_tile_of_one_start_is_the_edge(monkeypatch):
    # At 12 bytes per symbol (h < 2**7) and 16 * (2h+1) bytes of counts, a
    # tile of one start at h = 5 fits 248 bytes exactly, and h = 6 does not:
    # the tile is refused instead of clamped to one start past the budget.
    config = WindowConfig(h=5, g=96, m_start=1)
    expected = value_histogram(window_series(101, config), 5)
    monkeypatch.setattr(windows, "BLOCK_BYTES", 12 * (5 + 1) + 16 * (2 * 5 + 1))
    tiles = []
    real_chi_range = windows._chi_range
    monkeypatch.setattr(windows, "_chi_range", lambda *a: tiles.append(a[2] - a[1] + 1) or real_chi_range(*a))
    assert window_histograms([101], [config]) == [expected]
    assert max(tiles) == 5 + 1
    tiles.clear()
    with pytest.raises(ValueError, match=r"tile of one start at h=6 needs about 84 bytes, over BLOCK_BYTES less 208"):
        window_histograms([101], [WindowConfig(h=6, g=95, m_start=1)])
    assert not tiles


def test_jacobi_route_caps_sit_at_max_segment(monkeypatch):
    # the three jacobi_array reads run at MAX_SEGMENT symbols and refuse one
    # past it; a small BLOCK_BYTES sends the window starts to column tiles
    q = 1000003
    monkeypatch.setattr(windows, "CHI_TABLE_MAX", q - 1)
    monkeypatch.setattr(windows, "MAX_SEGMENT", 1000)
    monkeypatch.setattr(windows, "BLOCK_BYTES", 12 * (100 + 3) + 16 * (2 * 3 + 1))
    assert windows._chi_range(q, 1, 1000).size == 1000
    with pytest.raises(ValueError, match="needs about 1001 symbols, over MAX_SEGMENT = 1000 symbols"):
        windows._chi_range(q, 1, 1001)
    assert isinstance(windows.incomplete_poly_sum(q, (0, 1), 0, 500), int)
    with pytest.raises(ValueError, match="needs about 1002 symbols, over MAX_SEGMENT = 1000 symbols"):
        windows.incomplete_poly_sum(q, (0, 1), 0, 501)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ExperimentWarning)
        assert sum(window_histograms([q], [WindowConfig(h=3, g=1000, m_start=1)])[0]) == 1000
        with pytest.raises(ValueError, match="needs about 1001 symbols, over MAX_SEGMENT = 1000 symbols"):
            window_histograms([q], [WindowConfig(h=3, g=1001, m_start=1)])


BUDGET_WORDS = re.compile(r"budget|MAX_SEGMENT|CHI_TABLE_MAX|BLOCK_BYTES|BRUTE_FORCE_BUDGET", re.IGNORECASE)


def test_only_fit_budget_raises_budget_messages():
    stray = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        helper = {id(n) for f in ast.walk(tree) if isinstance(f, ast.FunctionDef) and f.name == "fit_budget"
                  for n in ast.walk(f)}
        stray.extend(f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                     if isinstance(node, ast.Raise) and id(node) not in helper
                     and BUDGET_WORDS.search(ast.unparse(node)))
    assert not stray, f"budget refusals raised outside arith.fit_budget: {stray}"
