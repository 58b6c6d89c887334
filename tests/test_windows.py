"""Window sums, their moments, and character-sum bounds."""

import json
import math
import random
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from charwin import (
    EmpiricalSummary,
    ExperimentWarning,
    WindowConfig,
    cdf_vs_gaussian,
    chi_block,
    chi_table,
    cli,
    empirical_summary,
    euler_criterion,
    gaussian_moment,
    incomplete_poly_sum,
    is_prime,
    jacobi,
    jacobi_array,
    normal_cdf,
    polya_vinogradov_check,
    primes_in_interval,
    random_weil_instances,
    value_histogram,
    weil_bound_battery,
    weil_bound_check,
    window_histograms,
    window_series,
    window_sum,
    windows,
)
from charwin.arith import prime_modulus
from charwin.windows import power_sum

PRIMES_TO_300 = primes_in_interval(3, 300)


def test_chi_table_three_routes_agree():
    # square-marking table vs binary reciprocity vs Euler's criterion, for
    # q = 1 and q = 3 mod 4, whose upper halves mirror with opposite signs;
    # the table holds r <= (q-1)/2 and _chi_range mirrors the rest
    for q in (3, 5, 7, 11, 13, 17, 101, 997):
        assert chi_table(q).size == (q + 1) // 2
        t = windows._chi_range(q, 0, q - 1)
        assert t[0] == 0
        for n in range(q):
            assert t[n] == jacobi(n, q) == euler_criterion(n, q)
    for q in (1048583, 1048589):  # 3 and 1 mod 4, above 2**20
        assert chi_table(q).size == (q + 1) // 2
        t = windows._chi_range(q, 0, q - 1)
        for lo in range(0, q, 2**17):
            n = np.arange(lo, min(lo + 2**17, q), dtype=np.int64)
            assert t[n].tolist() == jacobi_array(n, q).tolist()
        for n in ((q - 1) // 2, (q + 1) // 2, q - 1):
            assert t[n] == euler_criterion(n, q)


def test_chi_table_build_stays_within_block_bytes(monkeypatch):
    # beyond its (q+1)/2-byte table the build holds the buffers of one chunk
    # of squares, within one pass of min(BLOCK_BYTES, _PASS_BYTES): the
    # uint32 squares, their steps and the clipped squares (4 + 4 + 4 bytes
    # per square) and the intp slots (8).  At the default budget that is the
    # 1 MB pass, not the 16 MB cap; at 1 << 18, q > 2 * BLOCK_BYTES, so a
    # full-period table, or a copied or negated upper half, would exceed the
    # budget as well.  A few hundred bytes of array headers and the cache
    # entry come on top.
    # On the fill route (_FILL_ABOVE = 0) a chunk adds the bool keep mask
    # (1) and the intp indices of the kept squares (8 at most), as many
    # squares as fit the same pass.  The kept squares go into a batch in the
    # table's own bytes, sorted in place; the expansion and the fill copy
    # between views, and the spare slot, at most 5 bytes further out, is
    # within the headers' room.
    fill_square = 4 + 4 + 4 + 8 + 1 + 8
    default = windows._FILL_ABOVE
    fills = _spy(monkeypatch, "_multiplicative_fill")
    for budget in (windows.BLOCK_BYTES, 1 << 18):
        monkeypatch.setattr(windows, "BLOCK_BYTES", budget)
        chunk = min(budget, windows._PASS_BYTES)
        for q in (1000003, 1000033):  # (2|q) = (3|q) = -1, and +1
            for fill_above in (default, 0):
                monkeypatch.setattr(windows, "_FILL_ABOVE", fill_above)
                windows._cached_table.cache_clear()
                tracemalloc.start()
                try:
                    chi_table(q)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                if fill_above:
                    assert peak <= (q + 1) // 2 + chunk + 2048, budget
                else:
                    assert fills[-1] == q
                    assert peak <= (q + 1) // 2 + chunk // fill_square * fill_square + 2048, budget
                assert windows._chi_range(q, q - 1, q - 1)[0] == euler_criterion(q - 1, q)
    windows._cached_table.cache_clear()


def _spy(monkeypatch, name, record=lambda t, primes: 2 * t.size - 1):
    """record(*args) of each call of windows.<name>: by default the modulus
    q of the half table t of a call (t, primes)."""
    calls = []
    real = getattr(windows, name)
    monkeypatch.setattr(windows, name, lambda *args: calls.append(record(*args)) or real(*args))
    return calls


def _table_by_route(monkeypatch, q, fill):
    """A fresh chi_table(q), through the fill route or the plain marking."""
    monkeypatch.setattr(windows, "_FILL_ABOVE", 0 if fill else q)
    windows._cached_table.cache_clear()
    try:
        return chi_table(q)
    finally:
        windows._cached_table.cache_clear()


def test_fill_route_matches_plain_route_on_small_primes(monkeypatch):
    # every prime 5 <= q < 3000: fill route = plain marking = jacobi, and
    # Euler's criterion at n < 10, where the first multiples of 2 and 3 are
    # filled, and at the last entry
    for q in primes_in_interval(5, 2999):
        t = _table_by_route(monkeypatch, q, fill=True)
        assert np.array_equal(t, _table_by_route(monkeypatch, q, fill=False)), q
        assert t.tolist() == [jacobi(n, q) for n in range(t.size)], q
        for n in {*range(min(t.size, 10)), t.size - 1}:
            assert t[n] == euler_criterion(n, q), (q, n)


def test_fill_route_takes_every_sign_of_2_and_3(monkeypatch):
    # q = 1, 5, 7, 11 mod 24: (2|q), (3|q) = (+1, +1), (-1, -1), (+1, -1),
    # (-1, +1), so a sign taken from the wrong closed form shows
    qs = {}
    q = 2**20 + 1
    while len(qs) < 4:
        if q % 24 in (1, 5, 7, 11) and q % 24 not in qs and is_prime(q):
            qs[q % 24] = q
        q += 2
    for q in qs.values():
        t = _table_by_route(monkeypatch, q, fill=True)
        assert np.array_equal(t, _table_by_route(monkeypatch, q, fill=False)), q
        assert t.tolist() == jacobi_array(np.arange(t.size, dtype=np.int64), q).tolist(), q
        for n in (2, 3, 6, t.size - 1):
            assert t[n] == euler_criterion(n, q), (q, n)


def test_fill_route_marks_only_squares_prime_to_6(monkeypatch):
    # as the fill is entered, the entries prime to 6 are already final and
    # t[2], t[3] hold their closed forms: the scatter wrote no square that 2
    # or 3 divides over any of them
    entered = _spy(monkeypatch, "_multiplicative_fill", lambda t, primes: t.copy())
    for q in (1009, 1048583, 1048601):
        entered.clear()
        _table_by_route(monkeypatch, q, fill=True)
        (t,) = entered
        n = np.arange(t.size)
        final = (n < 4) | ((n % 2 != 0) & (n % 3 != 0))
        plain = _table_by_route(monkeypatch, q, fill=False)
        assert np.array_equal(t[final], plain[final]), q


def test_route_is_chosen_by_table_size(monkeypatch):
    # at the default threshold the largest prime whose half table holds at
    # most _FILL_ABOVE entries is marked square by square and the next prime
    # takes the fill route; that one matches the plain marking, and
    # jacobi_array at 2**16 sampled n
    below, above = 2 * windows._FILL_ABOVE - 1, 2 * windows._FILL_ABOVE + 1
    while not is_prime(below):
        below -= 2
    while not is_prime(above):
        above += 2
    fills = _spy(monkeypatch, "_multiplicative_fill")
    for q in (below, above):
        windows._cached_table.cache_clear()
        chi_table(q)
    assert fills == [above]
    t = _table_by_route(monkeypatch, above, fill=True)
    assert np.array_equal(t, _table_by_route(monkeypatch, above, fill=False))
    n = np.random.default_rng(20).integers(0, t.size, 2**16)
    assert t[n].tolist() == jacobi_array(n, above).tolist()


def test_sorted_marks_batch_lives_in_the_table(monkeypatch):
    # the fill route of a prime near 2**25 keeps about 2.8M squares.  At the
    # default budget its batch holds over 11 MB, at 1 << 18 a whole pass.
    # Kept in the table's own bytes and widened through the slots a piece
    # at a time, it costs nothing beyond the plain route's bound.  A batch
    # of its own would not fit, nor at 1 << 18 the batch used directly as
    # an index, which numpy casts through a 64 KB buffer of its own
    q = 33554467
    batches = _spy(monkeypatch, "_mark_sorted", lambda batch, c, slots: batch.size)
    for budget in (windows.BLOCK_BYTES, 1 << 18):
        monkeypatch.setattr(windows, "BLOCK_BYTES", budget)
        chunk = min(budget, windows._PASS_BYTES)
        batches.clear()
        windows._cached_table.cache_clear()
        tracemalloc.start()
        try:
            t = chi_table(q)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            windows._cached_table.cache_clear()
        assert 4 * max(batches) >= chunk and sum(batches) > 2_700_000, budget
        assert peak <= (q + 1) // 2 + chunk + 2048, budget
        n = np.random.default_rng(q).integers(0, t.size, 2**16)
        assert t[n].tolist() == jacobi_array(n, q).tolist(), budget


def test_table_cache_holds_one_table_between_reads():
    # production reads the tables in order of q, so the cache keeps the
    # last one only: between reads of three primes near 2**26, traced
    # memory holds one half table of 2**25 bytes, not three, and the build
    # of the next one holds two at most, with one pass of squares
    qs = [q for q in range(2**26 + 1, 2**26 + 1000, 2) if is_prime(q)][:3]
    half = (qs[-1] + 1) // 2
    windows._cached_table.cache_clear()
    held = []
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        for q in qs:
            assert windows._chi_range(q, q - 3, q - 1).tolist() == [jacobi(n, q) for n in (q - 3, q - 2, q - 1)]
            held.append(tracemalloc.get_traced_memory()[0] - start)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
        windows._cached_table.cache_clear()
    assert max(held) < half + (1 << 16), held
    assert peak < 2 * half + windows._PASS_BYTES + (1 << 16)


def test_fill_route_sorts_many_batches_and_expands_many_blocks(monkeypatch):
    # a 4 KB pass gives batches of 1024 squares and expansion blocks of 4096
    # entries.  About q / 12 squares are kept, so q near 10**6 sorts about 80
    # batches, and its table expands in 120 blocks before they shrink near
    # the top
    monkeypatch.setattr(windows, "BLOCK_BYTES", 1 << 12)
    batches = _spy(monkeypatch, "_mark_sorted", lambda batch, c, slots: batch.size)
    for q in (40009, 1000003, 1000033):
        batches.clear()
        _check_both_routes(monkeypatch, q)
        assert len(batches) > q // 13000 and max(batches) == 1024, q


def test_fill_route_in_every_class_mod_24(monkeypatch):
    # a prime q > 3 lies in one of 8 classes mod 24, which fix (2|q), (3|q)
    # and (-1|q), and half = (q+1)/2 is 0, 1, 3 or 4 mod 6 (2 only at q = 3,
    # 5 never), which sets where the top of the table meets the marks c and
    # the spare.  Each, at the default budget and at a 4 KB pass
    qs = [3, 131101, 131111, 131113, 131129, 131143, 131171, 131203, 131213]
    assert {q % 24 for q in qs[1:]} == {1, 5, 7, 11, 13, 17, 19, 23}
    assert {(q + 1) // 2 % 6 for q in qs} == {0, 1, 2, 3, 4}
    for budget in (windows.BLOCK_BYTES, 1 << 12):
        monkeypatch.setattr(windows, "BLOCK_BYTES", budget)
        for q in qs:
            _check_both_routes(monkeypatch, q)


def test_expand_marks_reads_each_mark_before_overwriting_it(monkeypatch):
    # marks c of random sign under a table of random bytes: every n prime to
    # 6 takes its mark c[n // 3], every other n >= 1 keeps its bytes for the
    # fill, for every half up to 400 and passes of 5 and 64 bytes as well as
    # the default
    rng = np.random.default_rng(22)
    for budget in (5, 64, windows.BLOCK_BYTES):
        monkeypatch.setattr(windows, "BLOCK_BYTES", budget)
        for half in range(2, 400):
            spare = -(-half // 6) * 6
            t = rng.integers(-128, 128, spare + 1).astype(np.int8)
            base = t.size - spare // 3
            c = rng.choice(np.array([-1, 1], dtype=np.int8), spare // 3)
            t[base:] = c
            before = t.copy()
            windows._expand_marks(t, base, half)
            n = np.arange(1, half)
            expected = np.where((n % 6 == 1) | (n % 6 == 5), c[n // 3], before[n])
            assert t[0] == 0 and np.array_equal(t[1:half], expected), (budget, half)


def _check_both_routes(monkeypatch, q, n=None):
    """chi_table(q) on both routes against jacobi_array, at every n or at
    the given ones, and Euler's criterion at both ends of the half."""
    t = _table_by_route(monkeypatch, q, fill=True)
    assert np.array_equal(t, _table_by_route(monkeypatch, q, fill=False)), q
    n = np.arange(t.size, dtype=np.int64) if n is None else n
    assert t[n].tolist() == jacobi_array(n, q).tolist(), q
    for r in (1, t.size - 1):
        assert t[r] == euler_criterion(r, q), (q, r)


def test_squares_kernel_on_the_smallest_primes(monkeypatch):
    # one chunk of one to five squares, shorter than any step the recurrence
    # would take
    for q in (3, 5, 7, 11):
        _check_both_routes(monkeypatch, q)
        assert _table_by_route(monkeypatch, q, fill=False).tolist() == [
            euler_criterion(r, q) for r in range((q + 1) // 2)]


def test_squares_kernel_where_the_half_meets_a_chunk_boundary(monkeypatch):
    # chunks of L = 2**15 squares: q = 65537 has exactly L squares, one
    # chunk and no step; 65539 and 65543 step once into a chunk of one and
    # of three; 131063, 131071 and 131101 end a square before, on and past
    # the second chunk's end
    assert min(windows.BLOCK_BYTES, windows._PASS_BYTES) // 29 >= 1 << 15
    for q in (65537, 65539, 65543, 131063, 131071, 131101):
        _check_both_routes(monkeypatch, q)


def test_squares_kernel_under_a_small_budget(monkeypatch):
    # a 4 KB pass takes chunks of 204 squares (141 on the fill route), so
    # the recurrence takes thousands of steps and its increment 2 L**2 mod q
    # wraps the smaller moduli
    monkeypatch.setattr(windows, "BLOCK_BYTES", 1 << 12)
    for q in (40009, 1000003, 1000033):
        _check_both_routes(monkeypatch, q)


def test_squares_kernel_either_side_of_the_fill_threshold(monkeypatch):
    # the primes either side of 2 * _FILL_ABOVE, on both routes, against
    # jacobi_array at 2**16 sampled n and at the last 2**12 entries
    q = 2 * windows._FILL_ABOVE
    below, above = q - 1, q + 1
    while not is_prime(below):
        below -= 2
    while not is_prime(above):
        above += 2
    for q in (below, above):
        n = np.random.default_rng(q).integers(0, (q + 1) // 2, 2**16)
        _check_both_routes(monkeypatch, q, np.concatenate([n, np.arange((q + 1) // 2 - 2**12, (q + 1) // 2)]))


def _plain_table_against_jacobi(q):
    """A fresh chi_table(q) on the plain route, entry by entry against the
    scalar jacobi."""
    windows._cached_table.cache_clear()
    try:
        t = chi_table(q)
    finally:
        windows._cached_table.cache_clear()
    assert t.tolist() == [jacobi(r, q) for r in range((q + 1) // 2)], q


@pytest.mark.parametrize("knob", [None, "BLOCK_BYTES", "_PASS_BYTES"])
def test_one_chunk_tables_at_the_edge_of_a_pass(monkeypatch, knob):
    # a plain table whose (q-1)/2 squares fit one pass of min(BLOCK_BYTES,
    # _PASS_BYTES) // 20 is one chunk of the cached squares; from a square
    # more it takes chunks of at most 2**15 and reads no cache.  At the
    # default pass of 52,428 squares the nearest primes are 104851 (52,425
    # squares) and 104869 (52,434); with either budget lowered, each q is
    # built with the pass at (q-1)/2 + 1, (q-1)/2 and (q-1)/2 - 1 squares
    used = _spy(monkeypatch, "_squares", lambda n: n)
    if knob is None:
        cases = [(104851, 52428), (104869, 52428)]
    else:
        cases = [(q, (q - 1) // 2 + d) for q in (1009, 40009) for d in (1, 0, -1)]
    for q, squares in cases:
        if knob:
            monkeypatch.setattr(windows, knob, 20 * squares)
        assert min(windows.BLOCK_BYTES, windows._PASS_BYTES) // 20 == squares
        used.clear()
        _plain_table_against_jacobi(q)
        assert used == ([squares] if (q - 1) // 2 <= squares else []), (q, squares)


def test_one_chunk_tables_stop_below_x_2_16(monkeypatch):
    # with a pass of 2**21 bytes, 104,857 squares, the cached squares still
    # stop at x = 2**16 - 1, whose square is the last below 2**32: q = 131063
    # and 131071, (q-1)/2 = 65531 and 65535, are one chunk, and q = 131101,
    # (q-1)/2 = 65550, takes chunks of 2**15
    monkeypatch.setattr(windows, "_PASS_BYTES", 1 << 21)
    used = _spy(monkeypatch, "_squares", lambda n: n)
    for q in (131063, 131071, 131101):
        _plain_table_against_jacobi(q)
    assert used == [(1 << 16) - 1] * 2


def test_square_cache_follows_the_pass(monkeypatch):
    # a cache filled under one pass does not serve a build under another: a
    # 4 KB pass (204 squares) refills it for q = 401 and the build, cached
    # squares counted, stays within the pass; back at the default pass,
    # q = 40009 needs 20,004 squares, far more than the 4 KB cache holds
    used = _spy(monkeypatch, "_squares", lambda n: n)
    for budget, q in ((windows.BLOCK_BYTES, 1009), (1 << 12, 401), (windows.BLOCK_BYTES, 40009)):
        monkeypatch.setattr(windows, "BLOCK_BYTES", budget)
        chunk = min(budget, windows._PASS_BYTES)
        windows._cached_table.cache_clear()
        tracemalloc.start()
        try:
            t = chi_table(q)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            windows._cached_table.cache_clear()
        assert used[-1] == chunk // 20 and windows._squares(chunk // 20).size == chunk // 20
        assert peak <= (q + 1) // 2 + chunk + 2048, budget
        assert t.tolist() == [jacobi(r, q) for r in range(t.size)], q


def test_squares_kernel_at_the_largest_table(monkeypatch):
    # 134217689 is the largest prime below CHI_TABLE_MAX: its 2**26 squares
    # reach 2q < 2**28 in uint32.  The oracle marks them by the direct
    # formula x**2 mod q in int64, a chunk at a time
    q = 134217689
    assert q < windows.CHI_TABLE_MAX and not any(is_prime(p) for p in range(q + 2, windows.CHI_TABLE_MAX, 2))
    half = (q + 1) // 2
    direct = np.full(half, -1, dtype=np.int8)
    direct[0] = 0
    for lo in range(1, half, 1 << 20):
        x = np.arange(lo, min(lo + (1 << 20), half), dtype=np.int64)
        squares = x * x % q
        direct[squares[squares < half]] = 1
        del x, squares
    for fill in (True, False):
        assert np.array_equal(_table_by_route(monkeypatch, q, fill), direct), fill


def test_chi_table_is_read_only():
    t = chi_table(7)
    with pytest.raises(ValueError):
        t[1] = 0


def test_window_sum_spot_values():
    assert window_sum(11, 0, 3) == 1  # chi(1) + chi(2) + chi(3) = 1 - 1 + 1
    assert window_sum(7, 0, 7) == 0  # complete period sums to zero
    assert window_sum(7, 2, 2) == 0  # chi(3) + chi(4) = -1 + 1


def test_window_sum_complete_period_always_zero():
    for q in (3, 13, 101):
        assert window_sum(q, 0, q) == 0


def test_window_sum_validation():
    with pytest.raises(ValueError):
        window_sum(7, 0, 8)  # h > q
    with pytest.raises(ValueError):
        window_sum(7, -1, 2)
    with pytest.raises(ValueError):
        window_sum(7, 0, 0)


def test_window_series_spot():
    sums = window_series(7, WindowConfig(h=2, g=3, m_start=1))
    assert sums.tolist() == [0, 0, 0]
    sums = window_series(7, WindowConfig(h=2, g=3, m_start=0))
    assert sums.tolist() == [2, 0, 0]


@given(
    st.sampled_from(PRIMES_TO_300),
    st.integers(min_value=1, max_value=20),
    st.integers(min_value=1, max_value=50),
    st.sampled_from([0, 1]),
)
@settings(max_examples=100)
def test_window_series_matches_direct_sums(q, h, g, m_start):
    if h >= q:
        return
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ExperimentWarning)
        sums = window_series(q, WindowConfig(h=h, g=g, m_start=m_start))
    direct = [
        sum(jacobi(n % q, q) for n in range(m + 1, m + h + 1))
        for m in range(m_start, m_start + g)
    ]
    assert sums.tolist() == direct


def test_reciprocity_route_matches_table_route(monkeypatch):
    # Moduli above CHI_TABLE_MAX read their symbols from jacobi_array()
    # instead of the full-period table.  Lowering the cap sends small moduli
    # down that route; both routes must agree with each other and with
    # Euler's criterion, including windows that wrap past q.
    series_cases = [
        (101, WindowConfig(h=5, g=40, m_start=1)),
        (103, WindowConfig(h=7, g=200, m_start=0)),
    ]
    poly_cases = [(11, (0, 2), 3, 7), (101, (0, 1, 5), 10, 60), (103, (-3, 4), 50, 103)]

    def run():
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ExperimentWarning)
            series = [window_series(q, config).tolist() for q, config in series_cases]
        return series, [incomplete_poly_sum(*case) for case in poly_cases]

    table_route = run()
    calls = []

    real_jacobi_array = windows.jacobi_array

    def counting_jacobi_array(n, q):
        calls.append(q)
        return real_jacobi_array(n, q)

    monkeypatch.setattr(windows, "CHI_TABLE_MAX", 7)
    monkeypatch.setattr(windows, "jacobi_array", counting_jacobi_array)
    reciprocity_route = run()
    assert set(calls) == {11, 101, 103}
    assert reciprocity_route == table_route

    euler_series = [
        [
            sum(euler_criterion(n, q) for n in range(m + 1, m + c.h + 1))
            for m in range(c.m_start, c.m_start + c.g)
        ]
        for q, c in series_cases
    ]
    euler_polys = [
        sum(math.prod(euler_criterion(n + c, q) for c in gamma) for n in range(x + 1, x + y + 1))
        for q, gamma, x, y in poly_cases
    ]
    assert table_route == (euler_series, euler_polys)


def test_composite_moduli_rejected():
    # each of these once returned numbers computed from a non-character
    with pytest.raises(ValueError):
        chi_table(15)
    with pytest.raises(ValueError):
        window_series(16, WindowConfig(h=2, g=3))
    with pytest.raises(ValueError):
        polya_vinogradov_check(21)
    with pytest.raises(ValueError):
        window_sum(9, 0, 2)
    with pytest.raises(ValueError):
        incomplete_poly_sum(15, (1,), 0, 3)
    with pytest.raises(ValueError):
        weil_bound_check(25, (0, 1), 0, 5)


@pytest.mark.parametrize("entry", [
    pytest.param(lambda q: repr(prime_modulus(q)), id="prime_modulus"),  # a Python int
    pytest.param(lambda q: chi_table(q).tolist(), id="chi_table"),
    pytest.param(lambda q: window_sum(q, 5, 10), id="window_sum"),
    pytest.param(lambda q: window_series(q, WindowConfig(h=5, g=20)).tolist(), id="window_series"),
    pytest.param(lambda q: window_histograms([q], [WindowConfig(h=5, g=20)]), id="window_histograms"),
    pytest.param(lambda q: chi_block([q], 30).tolist(), id="chi_block"),
    pytest.param(polya_vinogradov_check, id="polya_vinogradov_check"),
    pytest.param(lambda q: incomplete_poly_sum(q, (0, 1), 3, 50), id="incomplete_poly_sum"),
    pytest.param(lambda q: weil_bound_check(q, (0, 1), 3, 50), id="weil_bound_check"),
])
def test_moduli_of_any_integral_type(entry):
    assert entry(np.int64(1009)) == entry(1009)


@pytest.mark.parametrize("n_max", [0, 1, 2, 3, 4, 7, 8, 12, 60, 250, 1023, 1024, 1025])
def test_chi_block_matches_jacobi(n_max):
    # n_max = 60 and 250 pass several moduli: n = q, its multiples and
    # wrapped residues all come from the multiplicative fill
    qs = [3, 5, 7, 11, 13, 59, 61, 101, 1000003]
    block = chi_block(qs, n_max)
    assert block.dtype == np.int8 and block.shape == (len(qs), n_max + 1)
    assert block.tolist() == [[jacobi(n, q) for n in range(n_max + 1)] for q in qs]


def test_chi_block_near_2_63():
    qs = [9223372036854775783, 9223372036854775643]
    block = chi_block(qs, 300)
    assert block.tolist() == [[jacobi(n, q) for n in range(301)] for q in qs]
    assert [block[0, n] for n in (2, 3, 299)] == [euler_criterion(n, qs[0]) for n in (2, 3, 299)]


def _primes_in_each_class_mod_8(seed: int, per_class: int) -> list[int]:
    # seeded random primes q = 1, 3, 5, 7 mod 8, small enough to be columns,
    # mid-sized, and within 2**30 of 2**63
    rng = random.Random(seed)
    qs = []
    for lo, hi in ((3, 300), (10**6, 10**7), (10**12, 10**13), (2**63 - 2**30, 2**63 - 2**29)):
        for c in (1, 3, 5, 7):
            for _ in range(per_class):
                q = rng.randrange(lo, hi)
                q += (c - q) % 8
                while not is_prime(q):
                    q += 8
                qs.append(q)
    return qs


@pytest.fixture
def jacobi_cells(monkeypatch):
    """Cell counts of each jacobi_array call made through windows."""
    cells = []
    monkeypatch.setattr(windows, "jacobi_array", lambda a, b: cells.append(np.broadcast(a, b).size) or jacobi_array(a, b))
    return cells


@pytest.mark.parametrize("rows, n_max, jacobi_columns", [
    (32, 500, False),  # every prime column by reciprocity
    (32, 3000, True),  # both routes: the tables stop below 3000
    (1, 2000, True),  # one row: only l = 2, 3 by reciprocity
])
def test_chi_block_reciprocity_matches_jacobi_and_euler(rows, n_max, jacobi_columns, jacobi_cells):
    qs = _primes_in_each_class_mod_8(seed=rows * n_max, per_class=2)[-rows:]
    assert rows == 1 or ({q % 8 for q in qs} == {1, 3, 5, 7} and min(qs) <= n_max)
    block = chi_block(qs, n_max)
    n = np.arange(n_max + 1)
    assert np.array_equal(block, jacobi_array(n[None, :], np.array(qs)[:, None]))
    primes = primes_in_interval(2, n_max)
    assert block[:, primes].tolist() == [[euler_criterion(p, q) for p in primes] for q in qs]
    # column 2 always goes by q mod 8, column 3 by its table
    assert 0 < sum(jacobi_cells) < rows * (len(primes) - 1) if jacobi_columns else sum(jacobi_cells) == 0


def test_chi_block_reads_interval_columns_by_reciprocity(jacobi_cells):
    # the clt-interval block at Q = 10^6, g = (log Q)^3 sends no cell to
    # jacobi_array; one row to 10^6, whose tables would outgrow it, reads
    # l = 2 by q mod 8 and l = 3, 5, 7 from their tables, and sends every
    # other prime column
    qs = primes_in_interval(10**6, 10**6 + 2000)[:150]
    assert chi_block(qs, 2637).shape == (150, 2638) and sum(jacobi_cells) == 0
    chi_block([1000000007], 10**6)
    assert sum(jacobi_cells) == len(primes_in_interval(11, 10**6))


def test_chi_block_leaves_nothing_allocated():
    # the call holds its prime mask and array for one call only, and keeps
    # only the full-period tables of the last call's small primes, about
    # 440 KB at l <= 2633: once the block is dropped, traced memory is
    # within 1 MB of where it started, and the call's peak is well inside
    # two symbol budgets: at 10**6 the 1 MB mask, the 1 MB block and the
    # Jacobi columns; with many rows the tables and residues
    shapes = [
        ([1000000007], 10**6),
        (primes_in_interval(10**6, 10**6 + 10**5), 100),
        (primes_in_interval(10**6, 10**6 + 2000)[:150], 2637),
    ]
    for qs, n_max in shapes:
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            block = chi_block(qs, n_max)
            del block
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert current - start < 1 << 20, (len(qs), n_max)
        assert peak < 2 * windows.BLOCK_BYTES, (len(qs), n_max)


def test_full_tables_are_cached_read_only_and_shared_across_row_counts(jacobi_cells):
    # 150 and 100 rows to 2637 read the same small primes, l <= 2633, so the
    # second block reads the first block's tables; 10 rows keep fewer
    qs = primes_in_interval(10**6, 10**6 + 2000)
    n = np.arange(2638)
    windows._full_tables.cache_clear()
    chi_block(qs[:150], 2637)
    shared = chi_block(qs[:100], 2637)
    assert windows._full_tables.cache_info()[:2] == (1, 1)  # hits, misses
    assert np.array_equal(shared, jacobi_array(n[None, :], np.array(qs[:100])[:, None]))
    t, starts = windows._full_tables(tuple(primes_in_interval(3, 2637)))
    assert windows._full_tables.cache_info()[:2] == (2, 1) and sum(jacobi_cells) == 0
    for table in (t, starts):
        assert not table.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            table[0] = 1
    chi_block(qs[:10], 2637)
    assert windows._full_tables.cache_info()[:2] == (2, 2)


def test_full_tables_match_scalar_jacobi():
    # every r < l for every odd prime l <= 3000, each table at its offset
    ells = primes_in_interval(3, 3000)
    t, starts = windows._full_tables(tuple(ells))
    assert t.dtype == np.int8 and t.size == sum(ells) and starts.tolist() == [sum(ells[:i]) for i in range(len(ells))]
    for l, start in zip(ells, starts.tolist()):
        assert t[start : start + l].tolist() == [jacobi(r, l) for r in range(l)], l


def test_chi_block_reads_signed_tables_for_every_class_mod_8(jacobi_cells):
    # primes in each class mod 8, small, mid-sized and within 2**30 of 2**63,
    # odd composites and 2**63 - 1 in one block: (l|q) = (+-q mod l | l)
    # with the sign of q mod 4 reads every prime column from a table
    qs = _primes_in_each_class_mod_8(seed=8, per_class=3)
    qs += [9, 15, 21, 25, 45, 3 * 5 * 7 * 11 * 13, 1001 * 1003, 2**63 - 1, 2**63 - 3]
    n_max = 700
    block = chi_block(qs, n_max)
    assert sum(jacobi_cells) == 0
    assert {q % 8 for q in qs} == {1, 3, 5, 7}
    assert block.shape == (len(qs), n_max + 1) and block.dtype == np.int8
    assert np.array_equal(block, jacobi_array(np.arange(n_max + 1)[None, :], np.array(qs)[:, None]))
    for i, q in enumerate(qs):
        assert block[i, ::7].tolist() == [jacobi(n, q) for n in range(0, n_max + 1, 7)], q


def test_chi_block_over_budget_raises_before_allocating():
    # n_max = 10**9 would first ask for a 1 GB prime mask
    tracemalloc.start()
    try:
        start = time.perf_counter()
        with pytest.raises(ValueError, match=r"about 6000000006 bytes .* 2 \* BLOCK_BYTES"):
            chi_block([1000003], 10**9)
        seconds = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert seconds < 1 and peak < windows.BLOCK_BYTES


def test_chi_block_rejects_non_prime_moduli():
    # even, negative, below 3 and from 2**63 on; odd composites are valid
    # (test_chi_block_matches_jacobi_on_odd_moduli).  n_max = 10**6 would
    # first allocate a 1 MB prime mask
    for bad in ([16], [1], [2], [-7], [2**63 + 29], [3, 2**63 + 1], [9, 10]):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="odd with 3 <= q < 2"):
                chi_block(bad, 10**6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 16, bad
    assert chi_block([], 10).shape == (0, 11)


def _odd_moduli() -> list[list[int]]:
    rng = random.Random(17)
    return [
        [7, 15],
        list(range(3, 3002, 2)),
        [rng.randrange(3, 10**12) | 1 for _ in range(300)],
        [2**63 - 1 - 2 * i for i in range(50)],
    ]


@pytest.mark.parametrize("n_max", [0, 1, 2, 7, 63, 64, 65, 100, 3000, 4095, 4096, 4097])
def test_chi_block_matches_jacobi_on_odd_moduli(n_max):
    # reciprocity, the q mod 8 column and the multiplicative fill hold for
    # Jacobi symbols, so composite rows need no other route
    n = np.arange(n_max + 1)
    for qs in _odd_moduli():
        block = chi_block(qs, n_max)
        for lo in range(0, len(qs), 100):
            rows = np.array(qs[lo : lo + 100])[:, None]
            assert np.array_equal(block[lo : lo + 100], jacobi_array(n[None, :], rows))
        for i in range(0, len(qs), 37):
            assert block[i, ::97].tolist() == [jacobi(k, qs[i]) for k in range(0, n_max + 1, 97)]


def test_multiplicative_fill_in_blocks_cut_by_the_pass(monkeypatch):
    # a 300-byte pass cuts the fill's dyadic blocks to 300 columns of one
    # row, 7 of 40 rows and a single column of 400 rows; the fill route's
    # table fills in blocks of 300 entries.  Each against jacobi_array
    monkeypatch.setattr(windows, "_PASS_BYTES", 300)
    qs = primes_in_interval(10**6, 10**6 + 6000)
    for rows, n_max in ((1, 5000), (40, 2000), (400, 300)):
        n = np.arange(n_max + 1)
        block = chi_block(qs[:rows], n_max)
        assert np.array_equal(block, jacobi_array(n[None, :], np.array(qs[:rows])[:, None])), rows
    q = 40009
    t = _table_by_route(monkeypatch, q, fill=True)
    assert t.tolist() == jacobi_array(np.arange(t.size), q).tolist()


@pytest.mark.parametrize("rows", [0, 1, 4, 40, 7216])
def test_multiplicative_fill_on_a_table_and_n_major_blocks(monkeypatch, rows):
    # the fill acts on axis 0: a 1-D table, or an n-major block of rows
    # moduli, whose entries at 0, 1 and the primes are given and every
    # composite entry is garbage.  Under a 300-byte pass and at the default
    # one, it leaves jacobi_array's symbols
    qs = np.array(primes_in_interval(10**6, 10**6 + 10**5)[:rows], dtype=np.int64)
    n_max = 5000 if rows <= 4 else 101
    n = np.arange(n_max + 1)
    expected = jacobi_array(n[:, None], qs[None, :])
    primes = primes_in_interval(2, n_max)
    composite = np.ones(n_max + 1, dtype=bool)
    composite[[0, 1, *primes]] = False
    for pass_bytes in (300, windows._PASS_BYTES):
        monkeypatch.setattr(windows, "_PASS_BYTES", pass_bytes)
        block = expected.copy()
        block[composite] = 7
        windows._multiplicative_fill(block, [p for p in primes if p * p <= n_max])
        assert np.array_equal(block, expected), pass_bytes
        if rows == 1:
            table = expected[:, 0].copy()
            table[composite] = 7
            windows._multiplicative_fill(table, [p for p in primes if p * p <= n_max])
            assert np.array_equal(table, expected[:, 0]), pass_bytes


def test_one_row_chi_block_peak_is_its_block_primes_and_jacobi_columns():
    # one row to 10**6: the block and its prime mask, one byte per column
    # each, the intp primes, and jacobi_array's 83 bytes at most on each
    # prime column but 2 and 3, within 256 KB
    n_max = 10**6
    columns = len(primes_in_interval(2, n_max))
    chi_block([10**9 + 7], n_max)
    tracemalloc.start()
    try:
        chi_block([10**9 + 7], n_max)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * (n_max + 1) + 8 * columns + 83 * (columns - 2) + (1 << 18)


def _slow_histograms(qs, configs):
    return [value_histogram(window_series(q, c), c.h) for q, c in zip(qs, configs)]


def _starts_read(q, config):
    # Starts the folded column-tile route reads: every start but the mirror
    # c - m > m of a start m in range, c = q - h - 1.  A tile of k starts
    # reads the k + h symbols n = m..m+k+h-1 from its first start m on.
    # For g >= q the route folds whole periods, S(m + q) = S(m): it reads the
    # range of q starts from m_start and then that of its first g mod q.  The
    # h starts after a row of g = q - h starts, which complete the period for
    # the full-period identities, are summed from (n|q), n <= h, not read.
    periods, rest = divmod(config.g, q)
    read = 0
    for g in [q, rest] if periods else [rest]:
        m = np.arange(config.m_start, config.m_start + g)
        mirror = q - config.h - 1 - m
        paired = (mirror > m) & (mirror >= config.m_start) & (mirror < config.m_start + g)
        read += g - np.count_nonzero(paired)
    return read


@given(
    st.lists(
        st.tuples(
            st.sampled_from(PRIMES_TO_300),
            st.integers(min_value=1, max_value=6),
            st.integers(min_value=1, max_value=400),
            st.sampled_from([0, 1]),
        ),
        min_size=1,
        max_size=12,
    )
)
@settings(max_examples=60, deadline=None)
def test_window_histograms_match_window_series(items):
    items = [(q, WindowConfig(h=h, g=g, m_start=m0)) for q, h, g, m0 in items if h < q]
    if not items:
        return
    qs, configs = zip(*items)
    with warnings.catch_warnings(record=True) as slow_caught:
        warnings.simplefilter("always")
        slow = _slow_histograms(qs, configs)
    with warnings.catch_warnings(record=True) as fast_caught:
        warnings.simplefilter("always")
        fast = window_histograms(qs, configs)
    assert fast == slow
    assert [str(w.message) for w in fast_caught] == [str(w.message) for w in slow_caught]


@pytest.mark.parametrize("route", ["table", "jacobi_array"])
@given(
    st.sampled_from(PRIMES_TO_300).flatmap(lambda q: st.tuples(st.just(q), st.integers(3, 3 * q))),
    st.integers(min_value=1, max_value=6),
    st.sampled_from([0, 1]),
)
@example(q_and_g=(101, 95), h=6, m_start=1)  # a full period, g = q - h, and its tail
@settings(max_examples=60, deadline=None)
def test_streamed_histogram_matches_window_series(route, q_and_g, h, m_start):
    # A budget of g // 3 starts per tile forces the column-tile route and at
    # least 3 tiles per row; g up to 3q makes the windows wrap.
    q, g = q_and_g
    if h >= q:
        return
    config = WindowConfig(h=h, g=g, m_start=m_start)
    with warnings.catch_warnings(record=True) as slow_caught:
        warnings.simplefilter("always")
        slow = _slow_histograms([q], [config])
    counts = 16 * (2 * h + 1)  # the running counts and one tile's
    budget = 12 * (g // 3 + h) + counts
    tiles, array_calls = [], []
    real_chi_range, real_jacobi_array = windows._chi_range, windows.jacobi_array
    with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings(record=True) as fast_caught:
        warnings.simplefilter("always")
        mp.setattr(windows, "BLOCK_BYTES", budget)
        mp.setattr(windows, "_chi_range", lambda *a: tiles.append(a[2] - a[1] + 1) or real_chi_range(*a))
        mp.setattr(windows, "jacobi_array", lambda *a: array_calls.append(a) or real_jacobi_array(*a))
        if route == "jacobi_array":
            mp.setattr(windows, "CHI_TABLE_MAX", q - 1)
        fast = window_histograms([q], [config])
    assert fast == slow
    assert [str(w.message) for w in fast_caught] == [str(w.message) for w in slow_caught]
    # the folds read about half the starts, so a row takes at least 3 tiles
    # whenever those starts need 3 of g // 3
    assert sum(tiles) - h * len(tiles) == _starts_read(q, config)
    assert len(tiles) >= -(-_starts_read(q, config) // (g // 3))
    assert max(tiles) <= (budget - counts) // 12
    assert bool(array_calls) == (route == "jacobi_array")


def test_window_histograms_chunk_rows(monkeypatch):
    qs = primes_in_interval(1000, 1400)
    configs = [WindowConfig(h=3 + q % 4, g=50 + q % 7, m_start=q % 2) for q in qs]
    expected = _slow_histograms(qs, configs)
    blocks = []
    real_block = windows.chi_block
    monkeypatch.setattr(windows, "chi_block", lambda q, n: blocks.append((len(q), n)) or real_block(q, n))
    monkeypatch.setattr(windows, "BLOCK_BYTES", (12 * 64 + 8 * 13) * 10)
    assert window_histograms(qs, configs) == expected
    # widest span: m_start + g + h - 1 = 1 + 56 + 6 - 1 = 62, so 10 rows of 63
    # symbols and 2 * 6 + 1 counts
    assert len(qs) == 54 and [rows for rows, _ in blocks] == [10] * 5 + [4]
    assert all(rows * (12 * (n + 1) + 8 * 13) <= (12 * 64 + 8 * 13) * 10 for rows, n in blocks)


def _int64_histogram(row, config):
    h, g, m0 = config.h, config.g, config.m_start
    prefix = np.cumsum(row, dtype=np.int64)
    return np.bincount(prefix[m0 + h : m0 + h + g] - prefix[m0 : m0 + g] + h, minlength=2 * h + 1)


@pytest.mark.parametrize("h", [1, 2, 3, 64, 127, 128, 200, 2**15 - 1, 2**15])
def test_histograms_exact_where_prefix_sums_wrap(h):
    # Prefix sums of these rows pass 2**16, so any narrow prefix sum must
    # wrap; h = 2**15 - 1 and h = 2**15 sit on either side of the int16
    # rule, and a row with small h shares a block with one at the largest h.
    # Below 2**7 the int8 doubling sums run instead: h = 127 takes every
    # doubling level and every piece, and h = 128 is the first prefix route.
    n = 2**17 + 2**15 + 2
    ones = np.ones(n, dtype=np.int8)
    drift = np.random.default_rng(8).choice(np.array([1, 0, -1], dtype=np.int8), n, p=[0.85, 0.05, 0.1])
    assert np.cumsum(drift, dtype=np.int64).max() > 2**16
    for m0 in (0, 1):
        config = WindowConfig(h=h, g=n - h - m0, m_start=m0)
        (got,) = windows._histograms(ones[None, :], [config])
        assert got[2 * h] == config.g and got.sum() == config.g
        (got,) = windows._histograms(drift[None, :], [config])
        assert got.tolist() == _int64_histogram(drift, config).tolist()
        short = WindowConfig(h=5, g=n - 5 - m0, m_start=m0)
        got = windows._histograms(np.stack([drift, ones]), [short, config])
        assert [c.tolist() for c in got] == [_int64_histogram(drift, short).tolist(),
                                             _int64_histogram(ones, config).tolist()]
    # a real prime, on the block route and the column-tile route
    q = 1000003
    config = WindowConfig(h=h, g=3 * 10**5, m_start=1)
    expected = value_histogram(window_series(q, config), h)
    (got,) = windows._histograms(chi_block([q], config.g + h), [config])
    assert got.tolist() == expected
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(windows, "BLOCK_BYTES", 25 * (h + 10**5))
        assert window_histograms([q], [config]) == [expected]


def _pair_route(monkeypatch):
    """(g, low, r) of each lone row that _histograms counts in pairs."""
    return _spy(monkeypatch, "_pair_counts", lambda row, low, r: (row.size, low, r))


def _designed_row(head, tail, n, m0, seed):
    """n int8 symbols drawn from tail, with head from n = m0 + 1 on, the
    first symbol that the window of start m0 reads."""
    rng = np.random.default_rng(seed)
    row = rng.choice(np.array(tail, dtype=np.int8), n)
    row[m0 + 1 : m0 + 1 + len(head)] = head
    return row


@pytest.mark.parametrize("h, head, tail, low, r", [
    (1, [1, 0, -1], [1, 0, -1], -1, 3),
    (7, [], [1], 7, 1),  # an all-ones row: one value
    (127, [1] * 127 + [-1] * 127, [1, -1], -127, 255),  # row - low reaches 254 > 127 in int8
    (255, [1] * 255 + [0] * 255, [0, 1], 0, 256),  # int16 sums
    (200, [-1] * 200 + [0] * 200, [0, 0, 0, -1], -200, 201),  # int16 sums below zero
])
@pytest.mark.parametrize("m0", [0, 1])
def test_pair_counts_match_int64_histogram(monkeypatch, h, head, tail, low, r, m0):
    # A lone row counts its window sums in pairs exactly when they span
    # r <= 256 values and 512 * r <= g: g = 512 r - 1 takes the shared
    # bincount, 512 r and the odd 512 r + 1 take the pairs.
    pairs = _pair_route(monkeypatch)
    for g in (512 * r - 1, 512 * r, 512 * r + 1, 512 * r + 2 * h + 7):
        row = _designed_row(head, tail, m0 + g + h, m0, seed=g)
        config = WindowConfig(h=h, g=g, m_start=m0)
        pairs.clear()
        (got,) = windows._histograms(row[None, :], [config])
        assert got.tolist() == _int64_histogram(row, config).tolist()
        assert np.flatnonzero(got)[[0, -1]].tolist() == [low + h, low + r - 1 + h]
        assert pairs == ([] if g < 512 * r else [(g, low, r)])


def test_pair_counts_refuse_more_than_256_values(monkeypatch):
    # 255 ones, 255 zeros and a -1: the sums span -1..255, 257 values, which
    # do not fit a byte whatever g
    pairs = _pair_route(monkeypatch)
    h, g = 255, 512 * 300
    row = _designed_row([1] * h + [0] * h + [-1], [0, 0, 1], g + h, 0, seed=1)
    config = WindowConfig(h=h, g=g, m_start=0)
    (got,) = windows._histograms(row[None, :], [config])
    assert got.tolist() == _int64_histogram(row, config).tolist()
    assert got[h - 1] and got[2 * h] and pairs == []


@pytest.mark.parametrize("dtype", [np.int8, np.int16])
def test_pair_counts_match_bincount(dtype):
    # the difference cast mod 2**8 on int8 and int16 sums; rows of odd and
    # even length, with low below, at and above zero, and
    # a strided row as a column-major block gives one
    rng = np.random.default_rng(11)
    for size in (1, 2, 3, 255, 1000, 1001, 4097):
        for low, r in ((-128, 256), (-100, 37), (-5, 11), (0, 1), (3, 256), (120, 8)):
            if dtype == np.int8 and low + r > 128:
                continue
            row = rng.integers(low, low + r, size=size).astype(dtype)
            expected = np.bincount(row.astype(np.int64) - low, minlength=r)
            assert windows._pair_counts(row, low, r).tolist() == expected.tolist(), (size, low, r)
            strided = np.empty((3, size), dtype=dtype, order="F")
            strided[1] = row
            assert windows._pair_counts(strided[1], low, r).tolist() == expected.tolist(), (size, low, r)


@settings(max_examples=60, deadline=None)
@given(
    rows=st.integers(1, 12),
    h=st.sampled_from([1, 2, 3, 5, 8, 127, 128, 300]),
    g=st.integers(1, 3000),
    m0=st.integers(0, 1),
    split=st.integers(0, 12),
    seed=st.integers(0, 2**32 - 1),
)
def test_histograms_read_column_major_views_as_c_copies(rows, h, g, m0, split, seed):
    # the transposed n-major block of chi_block against the same block as a
    # C copy: one config for the first rows and another for the rest, so
    # runs of shared rows and lone rows both read strided views
    block = np.random.default_rng(seed).choice(np.array([-1, 0, 1], dtype=np.int8), (m0 + g + h, rows)).T
    assert block.flags.f_contiguous and not block.flags.c_contiguous or rows == 1
    configs = [WindowConfig(h=h, g=g, m_start=m0)] * min(split, rows)
    configs += [WindowConfig(h=1, g=g + h - 1, m_start=m0)] * (rows - len(configs))
    got = windows._histograms(block, configs)
    expected = windows._histograms(np.ascontiguousarray(block), configs)
    assert [c.tolist() for c in got] == [c.tolist() for c in expected]
    assert [c.tolist() for c in got] == [_int64_histogram(row, c).tolist() for row, c in zip(block, configs)]


@pytest.mark.parametrize("q", [1000003, 1000033])  # 3 and 1 mod 4
def test_pair_counts_on_one_row_blocks_and_folded_tiles(monkeypatch, q):
    # One row in one block, then a full period and two periods in column
    # tiles of a 1 MB budget, whose mirrored runs add each tile's counts
    # twice, reversed when q = 3 mod 4.  Every tile of 512 (2h+1) starts or
    # more spans at most 2h+1 values, so it must take the pairs; the full
    # tiles hold an odd number of starts, 87303.
    h = 21
    pairs = _pair_route(monkeypatch)
    config = WindowConfig(h=h, g=3 * 10**5 + 1, m_start=1)
    assert window_histograms([q], [config]) == _slow_histograms([q], [config])
    assert [g for g, _, _ in pairs] == [config.g]
    tiles = []
    real_chi_range = windows._chi_range
    monkeypatch.setattr(windows, "BLOCK_BYTES", 1 << 20)
    monkeypatch.setattr(windows, "_chi_range", lambda *a: tiles.append(a[2] - a[1] + 1 - h) or real_chi_range(*a))
    for g in (q - h, 2 * q):
        config = WindowConfig(h=h, g=g, m_start=1)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ExperimentWarning)
            expected = _slow_histograms([q], [config])
            pairs.clear()
            tiles.clear()
            assert window_histograms([q], [config]) == expected
        long_tiles = [t for t in tiles if t >= 512 * (2 * h + 1)]
        assert len(long_tiles) >= 5 and [g for g, _, _ in pairs if g in long_tiles] == long_tiles
        assert any(g % 2 for g, _, _ in pairs)


def test_single_row_tiles_count_two_starts_per_bincount_element(monkeypatch):
    # The clt-single --g full tiles of a table, h = 100 and
    # _PASS_BYTES // 12 - h = 87281 starts each, make one bincount of g // 2
    # pair codes over 256 r bins, r the values their sums span, with
    # 256 r * 8 <= 4 g bytes.  Rows that share a config in one block still
    # count their intp sums, even where each row alone would take the pairs:
    # in bincounts of at most one pass of codes each, whole rows, covering
    # every row once.
    q, h = 2000003, 100
    config = WindowConfig(h=h, g=q - h, m_start=1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ExperimentWarning)
        expected = _slow_histograms([q], [config])
    qs = primes_in_interval(10**6, 10**6 + 1000)
    shared = WindowConfig(h=5, g=6000, m_start=1)
    expected_rows = _slow_histograms(qs, [shared] * len(qs))
    calls = []
    real_bincount = np.bincount
    monkeypatch.setattr(np, "bincount", lambda x, minlength=0: calls.append((x.size, minlength))
                        or real_bincount(x, minlength=minlength))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ExperimentWarning)
        assert window_histograms([q], [config]) == expected
    step = windows._PASS_BYTES // 12 - h
    assert step == 87281 and [size for size, _ in calls].count(step // 2) >= 10
    assert all(size <= step // 2 and 512 * (bins // 256) <= 2 * size for size, bins in calls)
    calls.clear()
    assert window_histograms(qs, [shared] * len(qs)) == expected_rows
    pass_codes = min(windows.BLOCK_BYTES, windows._PASS_BYTES) // 8
    assert len(calls) > 1 and all(size <= pass_codes for size, _ in calls)
    assert [divmod(size, shared.g) for size, _ in calls] == [(bins // (2 * shared.h + 1), 0) for _, bins in calls]
    assert sum(size for size, _ in calls) == len(qs) * shared.g
    calls.clear()
    assert window_histograms(qs[:1], [shared]) == expected_rows[:1]
    assert len(calls) == 1 and calls[0][0] == shared.g // 2


def test_shared_config_rows_count_one_pass_of_codes_at_a_time(monkeypatch):
    # The clt-interval block of 150 rows, h = 5 and g = 2635, has 3.2 MB of
    # intp codes.  They are counted in slices of whole rows that fit one
    # 1 MB pass, so at each bincount the traced memory holds the int8 sums
    # and one pass of codes, not all of them.
    qs = primes_in_interval(10**6, 10**6 + 2000)[:150]
    config = WindowConfig(h=5, g=2635, m_start=1)
    block = chi_block(qs, config.g + config.h)
    expected = _slow_histograms(qs, [config] * len(qs))
    live = []
    real_bincount = np.bincount
    monkeypatch.setattr(np, "bincount", lambda x, minlength=0: live.append(tracemalloc.get_traced_memory()[0])
                        or real_bincount(x, minlength=minlength))
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        counts = windows._histograms(block, [config] * len(qs))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [row.tolist() for row in counts] == expected
    one_pass = min(windows.BLOCK_BYTES, windows._PASS_BYTES)
    assert len(live) == -(-len(qs) // (one_pass // (8 * config.g)))
    assert max(live) - start <= len(qs) * config.g + one_pass + (1 << 16)
    assert peak - start <= 3 * block.nbytes + one_pass


@pytest.mark.parametrize("g_periods", [1, 2])
def test_streamed_histogram_stays_within_block_bytes(monkeypatch, g_periods):
    # The column-tile route over a full period of q ~ 10^6 holds at most
    # BLOCK_BYTES beyond the cached table.  Two periods put a full-size tile
    # across q, where _chi_range returns a copy instead of a view.
    q, h, budget = 1000003, 100, 1 << 20
    config = WindowConfig(h=h, g=g_periods * q, m_start=1)
    chi_table(q)
    tiles = []
    real_chi_range = windows._chi_range
    monkeypatch.setattr(windows, "BLOCK_BYTES", budget)
    monkeypatch.setattr(windows, "_chi_range", lambda *a: tiles.append(a[2] - a[1] + 1) or real_chi_range(*a))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ExperimentWarning)
        tracemalloc.start()
        try:
            (got,) = window_histograms([q], [config])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        monkeypatch.setattr(windows, "_chi_range", real_chi_range)
        assert got == value_histogram(window_series(q, config), h)
    assert sum(tiles) - h * len(tiles) == _starts_read(q, config)
    assert max(tiles) == (budget - 16 * (2 * h + 1)) // 12
    assert peak <= budget


def test_tiled_histogram_stays_within_one_pass():
    # At the default budget a full period of q ~ 10^7 goes to column tiles of
    # the table; each holds one cache-sized pass, not BLOCK_BYTES (16 MB).
    q, h = 10000019, 100
    config = WindowConfig(h=h, g=q - h, m_start=1)
    chi_table(q)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ExperimentWarning)
        tracemalloc.start()
        try:
            (got,) = window_histograms([q], [config])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert sum(got) == config.g
    assert peak <= windows._PASS_BYTES + 16 * (2 * h + 1) + 4096


def test_streamed_histogram_counts_stay_within_block_bytes(monkeypatch):
    # With h = 5000 the running counts and one tile's counts, 2h+1 int64
    # each, take 0.6 of a 256 KB budget; the tiles shrink to make room.
    q, h, budget = 1000003, 5000, 1 << 18
    config = WindowConfig(h=h, g=q, m_start=1)
    chi_table(q)
    monkeypatch.setattr(windows, "BLOCK_BYTES", budget)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ExperimentWarning)
        tracemalloc.start()
        try:
            (got,) = window_histograms([q], [config])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == value_histogram(window_series(q, config), h)
    assert peak <= budget


@pytest.mark.parametrize("route", ["table", "jacobi_array"])
@pytest.mark.parametrize("q", [101, 103])  # 1 and 3 mod 4
@pytest.mark.parametrize("h", [4, 5])  # c = q - h - 1 even and odd
@pytest.mark.parametrize("m_start", [0, 1])
def test_folded_tiles_match_window_series(route, q, h, m_start):
    # Tiles of 8 starts fold S(c - m) = (-1|q) S(m): a full period g = q - h,
    # two periods, and the longest g whose starts do not pair (a = (c+1)//2)
    # beside the shortest that pairs one start.
    c = q - h - 1
    unpaired = c // 2 + 1 - m_start
    counts = 16 * (2 * h + 1)
    for g in (q - h, 2 * q, unpaired, unpaired + 1):
        config = WindowConfig(h=h, g=g, m_start=m_start)
        tiles = []
        real_chi_range = windows._chi_range
        with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
            warnings.simplefilter("ignore", ExperimentWarning)
            expected = value_histogram(window_series(q, config), h)
            mp.setattr(windows, "BLOCK_BYTES", 12 * (8 + h) + counts)
            mp.setattr(windows, "_chi_range", lambda *a: tiles.append(a[2] - a[1] + 1) or real_chi_range(*a))
            if route == "jacobi_array":
                mp.setattr(windows, "CHI_TABLE_MAX", q - 1)
            assert window_histograms([q], [config]) == [expected]
        read = sum(tiles) - h * len(tiles)
        assert read == _starts_read(q, config) and max(tiles) <= 8 + h
        assert (read < g) == (g != unpaired)
    # half the starts of a full period
    assert _starts_read(q, WindowConfig(h=h, g=q - h, m_start=m_start)) <= (q - h) // 2 + 2


def test_full_period_clt_single_reads_half_its_starts(monkeypatch, tmp_path):
    # q = 2000003 does not fit one block, so clt-single --g full takes the
    # column-tile route and reads about (q - h) / 2 of its q - h starts; the
    # h starts after them that complete the period are summed, not read
    q, h = 2000003, 100
    starts = []
    real_chi_range = windows._chi_range

    def spy(q_, n_lo, n_hi):
        starts.append(n_hi - n_lo + 1 - h)
        return real_chi_range(q_, n_lo, n_hi)

    monkeypatch.setattr(windows, "_chi_range", spy)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ExperimentWarning)
        assert cli.main(["clt-single", "--q", str(q), "--h", f"const:{h}", "--g", "full",
                         "--out", str(tmp_path / "out.json")]) == 0
    assert len(starts) >= 2 and abs(sum(starts) - (q - h) / 2) <= 2


def test_clt_single_beyond_one_period_reads_at_most_two_periods(monkeypatch, tmp_path):
    # g = 10^300 starts are g // q whole periods and g % q starts more, and
    # S(m + q) = S(m): the run reads one period and a remainder, never g starts
    q, h, g = 101, 5, int(1e300)
    period = value_histogram(window_series(q, WindowConfig(h=h, g=q, m_start=1)), h)
    head = value_histogram(window_series(q, WindowConfig(h=h, g=g % q, m_start=1)), h)
    read = []
    real_chi_range = windows._chi_range

    def spy(q_, n_lo, n_hi):
        read.append(n_hi - n_lo + 1 - h)
        if sum(read) > 2 * q:
            raise RuntimeError(f"read {sum(read)} starts, more than two periods of q = {q}")
        return real_chi_range(q_, n_lo, n_hi)

    monkeypatch.setattr(windows, "_chi_range", spy)
    out = tmp_path / "out.json"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ExperimentWarning)
        assert cli.main(["clt-single", "--q", str(q), "--h", f"const:{h}", "--g", "const:1e300",
                         "--out", str(out)]) == 0
    results = json.loads(out.read_text())["results"]
    assert results["g"] == g and sum(results["value_counts"]) == g
    assert results["value_counts"] == [(g // q) * p + r for p, r in zip(period, head)]
    assert sum(read) == _starts_read(q, WindowConfig(h=h, g=g, m_start=1))


def test_window_histograms_validation():
    with pytest.raises(ValueError):
        window_histograms([15], [WindowConfig(h=2, g=3)])
    with pytest.raises(ValueError):
        window_histograms([7], [WindowConfig(h=7, g=3)])
    with pytest.raises(ValueError):
        window_histograms([7, 11], [WindowConfig(h=2, g=3)])


def test_window_series_warns_on_wraparound():
    with pytest.warns(ExperimentWarning):
        window_series(11, WindowConfig(h=3, g=9, m_start=0))


def test_full_period_reflection_invariance():
    # Over a complete period the multiset of window sums is invariant under
    # s -> chi(-1) * s; for q = 3 mod 4 that makes the histogram symmetric.
    for q in (7, 11, 19, 103):
        assert q % 4 == 3
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ExperimentWarning)
            sums = window_series(q, WindowConfig(h=4, g=q, m_start=0))
        counts = value_histogram(sums, 4)
        assert counts == counts[::-1]


@pytest.mark.parametrize("h, rows", [
    (3, [[1, 0, 2, 5, 0, 0, 1], [0, 0, 0, 7, 0, 0, 0]]),
    (40, [[1] * 81, [9] + [0] * 79 + [2]]),  # 40**12 * 11 >= 2**63: Python ints
    (1, [[2**62, 2**62, 2**62]]),  # g >= 2**63
])
def test_power_sums_match_power_sum(h, rows):
    # the one production kernel against the bin-by-bin reference
    orders = list(range(13))
    for dtype in (np.int64, object):
        if dtype is np.int64 and max(map(sum, rows)) >= 2**63:
            continue
        got = windows._power_sums(np.array(rows, dtype=dtype), h, orders)
        assert got.tolist() == [[power_sum(row, h, j) for j in orders] for row in rows]
    assert windows._power_sums(np.array(rows, dtype=object), h, []).shape == (len(rows), 0)


def test_empirical_summary_rejects_negative_counts():
    with pytest.raises(ValueError, match="counts >= 0"):
        empirical_summary([2, -1, 3])


def test_value_histogram_and_power_sum():
    sums = window_series(11, WindowConfig(h=3, g=5, m_start=1))
    counts = value_histogram(sums, 3)
    assert sum(counts) == 5
    assert len(counts) == 2 * 3 + 1
    direct = sums.tolist()
    for j in range(5):
        assert power_sum(counts, 3, j) == sum(s**j for s in direct)


def test_empirical_summary_moments_exact():
    sums = window_series(101, WindowConfig(h=4, g=60, m_start=1))
    summary = empirical_summary(value_histogram(sums, 4), max_moment=6)
    sums = sums.tolist()
    assert summary.moments[0] == 1.0
    for j in range(1, 7):
        expected = sum(s**j for s in sums) / (60 * 4 ** (j / 2))
        assert summary.moments[j] == pytest.approx(expected, rel=1e-12)


def test_empirical_summary_moment_cap():
    sums = window_series(11, WindowConfig(h=2, g=3))
    with pytest.raises(ValueError):
        empirical_summary(value_histogram(sums, 2), max_moment=13)


def test_cdf_lattice_semantics():
    # all three window sums are 0 for q=7, h=2, m_start=1
    summary = empirical_summary(value_histogram(window_series(7, WindowConfig(h=2, g=3, m_start=1)), 2))
    assert summary.cdf(0.0) == 1.0  # P(S <= 0)
    assert summary.cdf(-0.1) == 0.0  # threshold floors to -1
    assert summary.cdf(5.0) == 1.0
    assert summary.cdf(-5.0) == 0.0
    # lambda * sqrt(h) past the int range of math.floor: no OverflowError
    assert summary.cdf(1e308) == 1.0
    assert summary.cdf(-1e308) == 0.0


def test_cdf_monotone():
    summary = empirical_summary(value_histogram(window_series(103, WindowConfig(h=5, g=90, m_start=1)), 5))
    grid = [x / 4 for x in range(-12, 13)]
    values = [summary.cdf(x) for x in grid]
    assert all(a <= b for a, b in zip(values, values[1:]))


def test_gaussian_moment_values():
    assert [gaussian_moment(j) for j in range(9)] == [1, 0, 1, 0, 3, 0, 15, 0, 105]
    with pytest.raises(ValueError):
        gaussian_moment(25)
    # mu_2r = (2r-1)!!: (-1)!!, 1!!, 3!!, 5!!, 7!!
    assert [gaussian_moment(2 * r) for r in range(5)] == [1, 1, 3, 15, 105]
    with pytest.raises(ValueError):
        gaussian_moment(-1)


def test_normal_cdf_values():
    assert normal_cdf(0.0) == pytest.approx(0.5)
    assert normal_cdf(1.959963984540054) == pytest.approx(0.975, abs=1e-12)
    assert normal_cdf(-8.0) == pytest.approx(0.0, abs=1e-14)


def test_cdf_vs_gaussian_structure():
    summary = empirical_summary(value_histogram(window_series(103, WindowConfig(h=5, g=90)), 5))
    plain = cdf_vs_gaussian(summary, (-1.0, 0.0, 1.0))
    corrected = cdf_vs_gaussian(summary, (-1.0, 0.0, 1.0), corrected=True)
    assert [r["lam"] for r in plain["rows"]] == [-1.0, 0.0, 1.0]
    assert plain["max_abs_diff"] == max(r["abs_diff"] for r in plain["rows"])
    assert corrected["corrected"] and not plain["corrected"]
    # the corrected reference shifts by Phi(lam + 1/sqrt(h))
    for row_p, row_c in zip(plain["rows"], corrected["rows"]):
        assert row_c["gaussian"] == pytest.approx(
            normal_cdf(row_p["lam"] + 1 / math.sqrt(5))
        )


def test_polya_vinogradov_spot():
    rec = polya_vinogradov_check(3)
    assert rec["max_partial_sum"] == 1
    assert rec["bound"] == pytest.approx(math.sqrt(3) * math.log(3))
    assert rec["ratio"] < 1


def test_polya_vinogradov_scan_small():
    for q in primes_in_interval(3, 500):
        assert polya_vinogradov_check(q)["ratio"] < 1


@pytest.mark.parametrize("q", [3, 5, 7, 13, 101, 103, 997, 1019, 1048583, 1048589])
def test_polya_vinogradov_matches_full_period_cumsum(q, monkeypatch):
    # the half period n <= (q-1)/2 against every partial sum of the period,
    # for q = 1 and 3 mod 4; the half is read as a view of the table
    full = jacobi_array(np.arange(1, q + 1, dtype=np.int64), q)
    peak = int(np.abs(np.cumsum(full, dtype=np.int64)).max())
    reads = []
    real_chi_range = windows._chi_range
    monkeypatch.setattr(windows, "_chi_range", lambda *a: reads.append(real_chi_range(*a)) or reads[-1])
    assert polya_vinogradov_check(q)["max_partial_sum"] == peak
    (chi,) = reads
    assert chi.size == (q - 1) // 2 and np.shares_memory(chi, chi_table(q))
    monkeypatch.setattr(windows, "CHI_TABLE_MAX", q - 1)
    assert polya_vinogradov_check(q)["max_partial_sum"] == peak


@pytest.mark.parametrize("q", [1000033, 1000003])  # 1 and 3 mod 4
def test_polya_vinogradov_partial_sums_stay_within_one_pass(q, monkeypatch):
    # the int64 partial sums run in passes of 16 bytes per symbol within
    # BLOCK_BYTES, not over the whole half at once (8 MB here), up to 16 KB
    # of array headers and Python objects; the carried sums equal one cumsum
    # of the half, also when a pass holds 3 symbols.  Negated symbols put
    # the maximum of |P| on a negative P.
    expected = int(np.abs(np.cumsum(chi_table(q)[1:], dtype=np.int64)).max())
    budget = 1 << 18
    monkeypatch.setattr(windows, "BLOCK_BYTES", budget)
    tracemalloc.start()
    try:
        got = polya_vinogradov_check(q)["max_partial_sum"]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == expected and peak <= budget + (1 << 14)
    real_chi_range = windows._chi_range
    monkeypatch.setattr(windows, "_chi_range", lambda *a: -real_chi_range(*a))
    assert polya_vinogradov_check(q)["max_partial_sum"] == expected
    monkeypatch.setattr(windows, "_chi_range", real_chi_range)
    monkeypatch.setattr(windows, "BLOCK_BYTES", 48)
    for p in primes_in_interval(3, 500):
        half = jacobi_array(np.arange(1, (p + 1) // 2, dtype=np.int64), p)
        assert polya_vinogradov_check(p)["max_partial_sum"] == int(np.abs(np.cumsum(half)).max())


@pytest.mark.parametrize("q", [13, 101, 1000033, 11, 103, 1000003])
def test_polya_vinogradov_half_sum_identity_catches_a_flipped_symbol(q, monkeypatch):
    # q = 1 mod 4: P((q-1)/2) = 0 is checked, so one flipped symbol raises;
    # q = 3 mod 4: nothing is checked, and the mutant's own maximum comes back
    real_chi_range = windows._chi_range

    def flipped(*args):
        chi = real_chi_range(*args).copy()
        chi[len(chi) // 2] *= -1
        return chi

    polya_vinogradov_check(q)
    monkeypatch.setattr(windows, "_chi_range", flipped)
    if q % 4 == 1:
        with pytest.raises(AssertionError, match=f"q={q}"):
            polya_vinogradov_check(q)
    else:
        chi = flipped(q, 1, (q - 1) // 2)
        peak = int(np.abs(np.cumsum(chi, dtype=np.int64)).max())
        assert polya_vinogradov_check(q)["max_partial_sum"] == peak


def test_incomplete_poly_sum_complete_pair():
    # sum over a full period of chi(n) chi(n+1) equals -1
    for q in (7, 11, 101):
        assert incomplete_poly_sum(q, (0, 1), 0, q) == -1


def test_incomplete_poly_sum_matches_bruteforce():
    for q, gamma, x, y in [
        (11, (0, 2), 3, 7),
        (101, (0, 1, 5), 10, 60),
        (101, (4,), 0, 101),
    ]:
        direct = sum(
            math.prod(jacobi((n + c) % q, q) for c in gamma) for n in range(x + 1, x + y + 1)
        )
        assert incomplete_poly_sum(q, gamma, x, y) == direct


def test_incomplete_poly_sum_counts_zero_products():
    # windows that hold some n = -gamma_i mod q, where a product is 0, at
    # one offset (the product is a view of the table) and at several; the
    # sum counts the nonzero products less twice the negative ones
    rng = random.Random(23)
    zeros = 0
    for q in (3, 5, 7, 11, 13, 101):
        for _ in range(40):
            gamma = tuple(rng.sample(range(-q, 2 * q), rng.randint(1, min(q, 4))))
            if len({c % q for c in gamma}) < len(gamma):
                continue
            # a window around a zero of the first offset
            y = rng.randint(1, q)
            x = (-gamma[0] - rng.randint(1, y)) % q + q * rng.randint(0, 2)
            terms = [math.prod(jacobi((n + c) % q, q) for c in gamma) for n in range(x + 1, x + y + 1)]
            zeros += terms.count(0)
            assert 0 in terms
            assert incomplete_poly_sum(q, gamma, x, y) == sum(terms), (q, gamma, x, y)
    assert zeros > 200


@given(
    st.sampled_from(PRIMES_TO_300).flatmap(
        lambda q: st.tuples(
            st.just(q),
            st.integers(-3 * q, 3 * q),
            st.one_of(
                st.integers(q - 1, q + 1),  # ends at the period's end, or just past it
                st.integers(q + 2, 2 * q),  # wraps once
                st.integers(2 * q, 5 * q),  # spans two periods or more
            ),
        )
    )
)
@settings(max_examples=200)
def test_chi_range_wrapped_table_route_matches_euler(args):
    q, n_lo, end = args
    count = end - n_lo % q
    if count < 1:
        return
    got = windows._chi_range(q, n_lo, n_lo + count - 1)
    assert got.dtype == np.int8
    assert got.tolist() == [euler_criterion(n, q) for n in range(n_lo, n_lo + count)]


def test_chi_range_ends_at_q():
    # polya_vinogradov_check reads n = 1..q, one symbol past the table's end
    for q in (3, 7, 101):
        got = windows._chi_range(q, 1, q)
        assert got.dtype == np.int8
        assert got.tolist() == [euler_criterion(n, q) for n in range(1, q + 1)]


def test_chi_range_wrap_allocates_only_its_symbols():
    # a range across q costs about its own int8 bytes: no int64 index per
    # symbol, and no pass over the whole table
    q = 1000003
    chi_table(q)
    tracemalloc.start()
    try:
        got = windows._chi_range(q, q - 10**4, q + 10**4 - 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.tolist() == [euler_criterion(n, q) for n in range(q - 10**4, q + 10**4)]
    assert peak < 3 * 10**4


def test_chi_range_upper_half_allocates_only_its_symbols():
    # q = 3 mod 4: the negated mirror is written straight into the range's
    # own int8 array, with no temporary of the reversed or negated slice
    q = 1000003
    assert q % 4 == 3
    chi_table(q)
    tracemalloc.start()
    try:
        got = windows._chi_range(q, q - 2 * 10**4, q - 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.tolist() == [euler_criterion(n, q) for n in range(q - 2 * 10**4, q)]
    assert peak < 3 * 10**4


@given(
    st.sampled_from(PRIMES_TO_300).flatmap(
        lambda q: st.tuples(
            st.just(q),
            st.lists(st.integers(-q, 3 * q), min_size=1, max_size=4,
                     unique_by=lambda c: c % q),
            st.one_of(st.integers(max(0, q - 3), q + 3), st.integers(0, 3 * q)),
            st.integers(1, q),
        )
    )
)
@settings(max_examples=100, deadline=None)
def test_incomplete_poly_sum_matches_jacobi_products(args):
    q, gamma, x, y = args
    direct = sum(
        math.prod(jacobi(n + c, q) for c in gamma) for n in range(x + 1, x + y + 1)
    )
    assert incomplete_poly_sum(q, gamma, x, y) == direct


def test_incomplete_poly_sum_reads_one_span_up_to_k_n_symbols(monkeypatch):
    # a chunk of n reads one span when (max - min offset) + n <= k n, else
    # one range per offset; a 96-byte pass makes chunks of 96 // (k + 2)
    # symbols, 24 at k = 2 and 16 at k = 4, with a shorter last chunk
    monkeypatch.setattr(windows, "BLOCK_BYTES", 96)
    reads = []
    real = windows._chi_range
    monkeypatch.setattr(windows, "_chi_range", lambda q, lo, hi: reads.append(hi - lo + 1) or real(q, lo, hi))
    q = 1009
    for gamma, y, expect in [
        ((0, 24), 48, [48, 48]),  # spread = n: one span of 2n per chunk
        ((0, 25), 48, [24] * 4),  # one past: two ranges per chunk
        ((0, 24), 40, [48, 16, 16]),  # the last chunk of 16 no longer fits
        ((5, 1, 40, 30), 32, [55, 55]),  # spread 39 <= 3 n at n = 16
        ((5, 1, 56, 30), 32, [16] * 8),  # spread 55 > 3 n
    ]:
        reads.clear()
        for x in (0, 500, 1000):  # a view, a mirrored range, a wrap
            direct = sum(math.prod(jacobi(n + c, q) for c in gamma) for n in range(x + 1, x + y + 1))
            assert incomplete_poly_sum(q, gamma, x, y) == direct, (gamma, y, x)
        assert reads == expect * 3, (gamma, y)
    # above CHI_TABLE_MAX the same reads go to jacobi_array, never more
    # than y * k symbols in all
    monkeypatch.setattr(windows, "CHI_TABLE_MAX", q - 1)
    for gamma, y in [((0, 24), 48), ((0, 25), 48), ((5, 1, 40, 30), 32)]:
        reads.clear()
        direct = sum(math.prod(jacobi(n + c, q) for c in gamma) for n in range(501, 501 + y))
        assert incomplete_poly_sum(q, gamma, 500, y) == direct, gamma
        assert sum(reads) <= y * len(gamma), gamma


def test_incomplete_poly_sum_validation():
    with pytest.raises(ValueError):
        incomplete_poly_sum(7, (), 0, 3)
    with pytest.raises(ValueError):
        incomplete_poly_sum(7, (0, 7), 0, 3)  # offsets collide mod q
    with pytest.raises(ValueError):
        incomplete_poly_sum(7, (0, 1), 0, 8)  # y > q


def test_weil_bound_check_fields():
    rec = weil_bound_check(101, (0, 1), 0, 101)
    assert rec["bound"] == pytest.approx(9 * 2 * math.sqrt(101) * math.log(101))
    assert rec["holds"]
    assert rec["ratio"] == abs(rec["value"]) / rec["bound"]


def test_random_weil_instances_deterministic():
    a = random_weil_instances(20, 100, 1000, 3, seed=42)
    b = random_weil_instances(20, 100, 1000, 3, seed=42)
    assert a == b
    c = random_weil_instances(20, 100, 1000, 3, seed=43)
    assert a != c
    for inst in a:
        assert 100 <= inst["q"] <= 1000
        assert 1 <= len(inst["gamma"]) <= 3
        assert 0 < inst["y"] <= inst["q"]


def test_random_weil_instances_cap_offsets_at_q():
    # q = 3, 5 or 7 with k_max = 10: offsets are distinct residues, so a
    # draw of k > q takes all q of them instead of failing in random.sample
    instances = random_weil_instances(200, 3, 10, 10, seed=5)
    assert {inst["q"] for inst in instances} == {3, 5, 7}
    assert any(len(inst["gamma"]) == inst["q"] for inst in instances)
    for inst in instances:
        assert inst["gamma"] == tuple(sorted(set(inst["gamma"])))
        assert len(inst["gamma"]) <= inst["q"]
def test_weil_bound_battery_is_the_per_trial_checks_in_trial_order():
    # the trials run in order of q, so the one-table cache misses once per
    # distinct modulus; the records keep the order the trials were drawn in
    drawn = random_weil_instances(300, 1000, 3000, 4, seed=7)
    windows._cached_table.cache_clear()
    got = weil_bound_battery(300, 1000, 3000, 4, seed=7)
    misses = windows._cached_table.cache_info().misses
    windows._cached_table.cache_clear()
    assert got == [weil_bound_check(d["q"], d["gamma"], d["x"], d["y"]) | {"gamma": list(d["gamma"])}
                   for d in drawn]
    assert misses == len({d["q"] for d in drawn}) < len(drawn)


@pytest.mark.parametrize("budget", [None, 12 * (8 + 10) + 16 * 21], ids=["block", "tiles"])
def test_full_coverage_row_with_a_moved_start_fails_the_identities(monkeypatch, budget):
    # A row of g = q - h starts is completed to a period by the h starts
    # after it, over which sum S^2 = hq - h^2; moving one start of the row's
    # first counts to the next bin breaks it, in one block or in tiles of 8
    q, h = 101, 10
    config = WindowConfig(h=h, g=q - h, m_start=1)
    if budget:
        monkeypatch.setattr(windows, "BLOCK_BYTES", budget)
    real, calls = windows._histograms, []

    def moved(block, configs):
        counts = real(block, configs)
        if not calls:
            v = int(np.flatnonzero(counts[0])[0])
            counts[0][v : v + 2] += (-1, 1)
        calls.append(block.shape)
        return counts

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ExperimentWarning)
        assert window_histograms([q], [config]) == [value_histogram(window_series(q, config), h)]
        monkeypatch.setattr(windows, "_histograms", moved)
        with pytest.raises(AssertionError, match=r"^full-period identities fail at q=101, h=10: .*expected \(0, 910\)$"):
            window_histograms([q], [config])
    # the tail is summed, not counted: one block, or tiles of at most 8 starts
    assert calls == [(1, q + 1)] if budget is None else max(calls) == (1, 8 + h)




@pytest.mark.parametrize("route", ["block", "tiles", "jacobi_array"])
def test_full_period_tail_sums_match_window_sum(monkeypatch, route):
    # The h starts after a row of g = q - h starts are summed in closed form
    # from the symbols (n|q), n <= h, that each route passes: a slice of the
    # block row, or a _chi_range read beside the column tiles, from the table
    # or from jacobi_array.  Each sum must be the scalar window_sum.
    items = [(q, WindowConfig(h=h, g=q - h, m_start=m0))
             for q in PRIMES_TO_300 for h in range(1, min(q, 12)) for m0 in (0, 1)]
    checked = []
    real = windows._check_full_period
    monkeypatch.setattr(windows, "_check_full_period",
                        lambda q, config, counts, chi: checked.append((q, config, chi.copy()))
                        or real(q, config, counts, chi))
    blocks, tables = [], []
    real_chi_block, real_table = windows.chi_block, windows._cached_table
    monkeypatch.setattr(windows, "chi_block", lambda *a: blocks.append(a) or real_chi_block(*a))
    monkeypatch.setattr(windows, "_cached_table", lambda q: tables.append(q) or real_table(q))
    if route == "jacobi_array":
        monkeypatch.setattr(windows, "CHI_TABLE_MAX", 2)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ExperimentWarning)
        for q, config in items:
            # tiles of k starts, at least 2 per row; a row of at most k + h
            # symbols fits a block even at this budget
            k = max(4, (q - config.h) // 3)
            if route != "block":
                monkeypatch.setattr(windows, "BLOCK_BYTES", 12 * (k + config.h) + 16 * (2 * config.h + 1))
            read = len(blocks)
            window_histograms([q], [config])
            assert len(blocks) - read == (route == "block" or config.m_start + q <= k + config.h)
    assert [(q, config) for q, config, _ in checked] == items
    assert bool(tables) == (route == "tiles")
    for q, config, chi in checked:
        h, m0 = config.h, config.m_start
        assert windows._tail_sums(q, config, chi).tolist() == [window_sum(q, m0 + q - h + j, h) for j in range(h)]


def test_full_period_identities_catch_a_reader_one_symbol_late(monkeypatch):
    # A tile reader that reads every range one symbol late miscounts the row;
    # the tail, summed from (n|q) and not through the tiles, does not shift
    # the same way, so the identities fail wherever the histogram is wrong
    real = windows._chi_range
    for q in (101, 103, 107, 109, 113, 127):
        for h in (3, 4, 5):
            for m0 in (0, 1):
                config = WindowConfig(h=h, g=q - h, m_start=m0)
                with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
                    warnings.simplefilter("ignore", ExperimentWarning)
                    expected = value_histogram(window_series(q, config), h)
                    mp.setattr(windows, "BLOCK_BYTES", 12 * (8 + h) + 16 * (2 * h + 1))
                    mp.setattr(windows, "_chi_range", lambda q_, lo, hi: real(q_, lo + 1, hi + 1))
                    try:
                        got = window_histograms([q], [config])
                    except AssertionError as error:
                        assert str(error).startswith(f"full-period identities fail at q={q}, h={h}: ")
                        continue
                assert got == [expected], (q, h, m0)
    config = WindowConfig(h=3, g=98, m_start=1)
    monkeypatch.setattr(windows, "BLOCK_BYTES", 12 * (8 + 3) + 16 * 7)
    monkeypatch.setattr(windows, "_chi_range", lambda q_, lo, hi: real(q_, lo + 1, hi + 1))
    with pytest.raises(AssertionError, match=r"^full-period identities fail at q=101, h=3: "):
        window_histograms([101], [config])
